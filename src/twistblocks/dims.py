"""Verlinde-type dimension formulas: classical and twisted point sums over
the finite regular torus classes, the general cover formula, and the
factorization recursion."""

import functools
import math

import numpy as np

from .alcove import enumerate_sigma_c
from .errors import (InconsistentRamification, IntegralityError,
                     NotInAlphabet, UnstableInput)
from .twist import (_check_ambient, _check_three_point, _check_twisted,
                    ambient_alphabet, build_twist)
from .util import memo


def _dimension(value, context):
    """A dimension is never negative: one that is refutes its computation."""
    if value < 0:
        raise IntegralityError(f"{context}: negative dimension {value}")
    return value


# -- the primes p = 1 (mod n) --------------------------------------------

def _is_prime(p):
    """Miller-Rabin with the bases 2, 3, 5 and 7: exact for 7 < p < 3215031751."""
    s = ((p - 1) & (1 - p)).bit_length() - 1      # p - 1 = d 2^s with d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and p - 1 not in [pow(x, 1 << r, p) for r in range(s)]:
            return False
    return True


@memo
def _modulus(n, i):
    """(p, g^j mod p for j < n): p the i-th largest prime below 2^31 with
    p = 1 (mod n), g of exact order n in F_p^x.  zeta_n -> g is a ring map
    Z[zeta_n] -> F_p (p splits completely in Q(zeta_n)), so an integer in
    Z[zeta_n] is known mod p from its image.  Below 2^31 a product of two
    residues fits in an int64, and so does a sum of 2^32 of them."""
    p = _modulus(n, i - 1)[0] - n if i else ((1 << 31) - 2) // n * n + 1
    while p > n and not _is_prime(p):
        p -= n
    if p <= n:
        raise IntegralityError(f"too few primes p = 1 (mod {n}) below 2^31")
    # g has order n when no g^(n/q) is 1 for a divisor q > 1 of n
    g = next(g for g in (pow(x, (p - 1) // n, p) for x in range(2, p))
             if all(pow(g, n // q, p) != 1 for q in range(2, n + 1) if n % q == 0))
    return p, np.array([pow(g, j, p) for j in range(n)], dtype=np.int64)


@memo
def _primes(n, k):
    """The first k moduli's primes as an int64 column."""
    return np.array([_modulus(n, i)[0] for i in range(k)], dtype=np.int64)[:, None]


def _lift_primes(n, log_bound):
    """How many moduli of n a lift needs: their product exceeds e * B > 2 B,
    for B = exp(log_bound), whatever the bound's roundoff."""
    k, logs = 0, 0.0
    while logs <= log_bound + 1.0:
        logs += math.log(_modulus(n, k)[0])
        k += 1
    return k


# -- the torus points of one (ambient, twist, level), with values ----------

class _Characters:
    """The characters of one root datum at the exponent vectors ys, and the
    point values every character shares, as images in F_p for the moduli of
    n: one row per prime, one column per point.  n is a multiple of every
    y.den, so e^alpha(t) = zeta_n^e with e = (alpha . y.num mod y.den) n / y.den.
    Every character is a Weyl quotient: the counts of lam+rho's alternating
    orbit over the Weyl denominator.
    """

    def __init__(self, rd, ys, n):
        self.rd = rd
        self.ys = ys
        self.n = n
        # the exponents e of every positive root and of rho at each point
        self.roots = np.array([[p % y.den * (n // y.den) for p in rd.root_pairings(y)]
                               for y in ys], dtype=np.int64).reshape(len(ys), -1)
        self._rho = np.array([sum(y.num) % y.den * (n // y.den) for y in ys],
                             dtype=np.int64)
        if not self.roots.all():
            raise AssertionError(f"a point of the table is singular for {rd}")
        self._dens = np.array([y.den for y in ys])

    @memo
    def power(self, which, e, k):
        """x^e at each point mod the first k primes, for x the Weyl
        denominator e^rho prod_{alpha>0} (1 - e^-alpha) (which 0) or
        Delta = prod_{alpha>0} (2 - e^alpha - e^-alpha) (which 1)."""
        rows = []
        for i in range(k):
            p, pw = _modulus(self.n, i)
            weyl, delta = pw[self._rho], 1
            for r in self.roots.T:
                up, down = pw[r], pw[-r % self.n]
                weyl = weyl * (1 - down) % p
                delta = delta * (2 - up - down) % p
            rows.append([pow(int(x), e, p) for x in (weyl, delta)[which]])
        return np.array(rows, dtype=np.int64)

    @memo
    def dim(self, lam):
        return self.rd.weyl_dimension(lam)

    @memo
    def char(self, lam, k):
        """chi_lam at each point mod the first k primes."""
        counts = self.rd.character_at_exponents(lam, self.ys)
        # sum_r c[r] zeta_den^r maps to sum_r c[r] g^(r n / den), over blocks
        # of one den's points of at most 2^15 counts per prime
        primes = _primes(self.n, k)
        p3 = primes[:, :, None]
        out = np.empty((k, len(self.ys)), dtype=np.int64)
        for den in set(self._dens.tolist()):
            idx = np.flatnonzero(self._dens == den)
            pw = np.array([_modulus(self.n, i)[1][::self.n // den] for i in range(k)])
            step = max(1, (1 << 15) // den)
            for s in range(0, len(idx), step):
                sel = idx[s:s + step]
                block = np.array([counts[j] for j in sel]) % p3
                out[:, sel] = (block * pw[:, None] % p3).sum(axis=2) % primes
        return out * self.power(0, -1, k) % primes


class _PointTable:
    """Sigma_c for one twist and level, with the characters of the fixed
    algebra and, once read, of the ambient one at its points.

    The points are regular for both algebras, so every Delta is a unit in
    each F_p.  n is the lcm of the points' denominators; the ambient ones
    divide them.
    """

    def __init__(self, twist, c):
        self.twist = twist
        self.enum = enumerate_sigma_c(twist, c)
        self.n = math.lcm(*(y.den for y in self.enum.points))
        self.fixed = _Characters(twist.fixed, self.enum.points, self.n)

    @functools.cached_property
    def ambient(self):
        if self.twist.kind == "identity":    # R = I: the same datum and points
            return self.fixed
        ys = [self.twist.ambient_exponents(y) for y in self.enum.points]
        return _Characters(self.twist.ambient, ys, self.n)

    @memo
    def log_mass(self, factor, a, dexp):
        """log(|prod b^e| sum_t |Delta_sigma(t)|^a / |Delta(t)|^dexp), where
        |Delta(t)| = prod_{alpha>0} 4 sin^2(pi alpha(xi))."""
        def log_delta(chars):
            return np.log(4 * np.sin(np.pi * chars.roots / self.n) ** 2).sum(axis=1)
        v = a * log_delta(self.fixed) - (dexp * log_delta(self.ambient) if dexp else 0)
        return sum(e * math.log(b) for b, e in factor) + float(np.logaddexp.reduce(v))

    @memo
    def measure(self, factor, a, dexp, k):
        """prod b^e * Delta_sigma^a / Delta^dexp at each point, mod the first k primes."""
        primes = _primes(self.n, k)
        out = self.fixed.power(1, a, k)
        for b, e in factor:
            out = out * [[pow(b, e, p)] for p in primes[:, 0].tolist()] % primes
        if dexp:
            out = out * self.ambient.power(1, -dexp, k) % primes
        return out


@memo
def _table(twist, c):
    return _PointTable(twist, c)


def _point_sum(table, factor, fixed=(), ambient=(), glued=(), a=0, dexp=0):
    """The integer prod b^e * sum over the points of
    prod chi_fixed * prod chi_ambient * prod G * Delta_sigma^a / Delta^dexp,
    for factor = ((b, e), ...) and each G in glued a list of pairs (n, lam)
    for sum n * chi_lam.

    Every formula goes through this one sum.  Its value is an integer, and
    every denominator in it (Weyl denominators, Delta, lattice orders) is a
    unit of F_p, so it is evaluated in F_p for primes p = 1 (mod n) whose
    product exceeds twice the bound |factor| * prod dim V(lam) *
    sum_t |Delta_sigma|^a / |Delta|^dexp (sum |n| dim V(lam) for a glued
    column) and lifted by CRT to the least representative.  At least one
    more prime checks the lift.
    """
    fx, amb = table.fixed, table.ambient if ambient else None
    log_bound = (table.log_mass(factor, a, dexp)
                 + sum(math.log(fx.dim(lam)) for lam in fixed)
                 + sum(math.log(amb.dim(nu)) for nu in ambient)
                 + sum(math.log(max(1, sum(abs(n) * fx.dim(lam) for n, lam in g)))
                       for g in glued))
    k = _lift_primes(table.n, log_bound)
    # k + 1 primes at least, rounded up to a power of two and at least 4, so
    # that a character is counted again only when a sum needs twice the primes
    rows = 1 << max(2, k.bit_length())
    primes = _primes(table.n, rows)
    term = table.measure(factor, a, dexp, rows)
    for lam in fixed:
        term = term * fx.char(lam, rows) % primes
    for nu in ambient:
        term = term * amb.char(nu, rows) % primes
    for g in glued:
        col = 0
        for n, lam in g:
            col = (col + n % primes * fx.char(lam, rows)) % primes
        term = term * col % primes
    plist = primes[:, 0].tolist()
    images = (term.sum(axis=1) % primes[:, 0]).tolist()
    value, m = 0, 1
    for r, p in zip(images[:k], plist):
        value += m * ((r - value) * pow(m, -1, p) % p)
        m *= p
    if 2 * value > m:
        value -= m
    bad = [p for r, p in zip(images[k:], plist[k:]) if value % p != r]
    if bad:
        raise IntegralityError(f"a point sum lifted from {k} primes to {value} "
                               f"fails the check prime {bad[0]}")
    return value


# -- the formulas ----------------------------------------------------------

def _classical_sum(tw, c, g, weights, glued=()):
    """|T_c|^{g-1} sum over A_c of prod chi prod G Delta^{1-g}; no stability gate.

    tw is the identity twist of the ambient algebra; G as in _point_sum.
    """
    table = _table(tw, c)
    return _point_sum(table, ((table.enum.order_T, g - 1),), fixed=weights,
                      glued=glued, dexp=g - 1)


def classical_verlinde(rd, c, g, weights):
    """Untwisted conformal-block dimension on a genus-g curve."""
    if c < 1:
        raise ValueError("level must be >= 1")
    if g < 0:
        raise ValueError("genus must be >= 0")
    tw = build_twist(rd, "identity")
    weights = tuple(_check_ambient(tw, c, w, f"insertion {i}")
                    for i, w in enumerate(weights))
    if g == 0 and len(weights) < 3:
        raise UnstableInput("genus 0 needs at least three insertions")
    return _dimension(_classical_sum(tw, c, g, weights), f"classical N_{g}{weights}")


def twisted_three_point(twist, c, lam, mu, nu):
    """N(sigma; lam, mu, nu) by the twisted Verlinde sum."""
    lam, mu, nu = _check_three_point(twist, c, lam, mu, nu,
                                     "the twisted Verlinde formula")
    table = _table(twist, c)
    value = _point_sum(table, ((table.enum.order_Tsigma, -1),), fixed=(lam, mu),
                       ambient=(nu,), a=1)
    return _dimension(value, f"N(sigma;{lam},{mu},{nu})")


def fusion_coefficient(twist, c, lam, mu, eta):
    """Structure constant c^eta_{lam,mu} of the twisted fusion ring.

    These are integers; at level 1 they are non-negative, but the ring is
    a trace ring of a diagram automorphism, and genuinely negative values
    occur from level 2 on (e.g. c^{w2}_{w2,w2} = -1 for (A3, diagram2)).
    """
    if twist.kind == "identity":
        raise NotInAlphabet("twisted fusion needs a nontrivial twist")
    lam = _check_twisted(twist, c, lam, "lambda")
    mu = _check_twisted(twist, c, mu, "mu")
    # eta* = eta: weight_alphabet checks that once for all of D_{c,sigma}
    eta = _check_twisted(twist, c, eta, "eta")
    table = _table(twist, c)
    return _point_sum(table, ((table.enum.order_Tsigma, -1),), fixed=(lam, mu, eta),
                      a=1)


def _check_curve(twist, c, genus_bar, lambda_dagger, mu):
    if len(lambda_dagger) % 2 != 0:
        raise NotInAlphabet("lambda_dagger must list 2a paired weights")
    a = len(lambda_dagger) // 2
    if genus_bar < 0:
        raise ValueError("genus_bar must be >= 0")
    if a > 0 and twist.kind == "identity":
        raise NotInAlphabet("ramified pairs require a nontrivial twist")
    # two paired ramified points alone are admissible (z -> z^m cover);
    # otherwise demand the usual stability
    if genus_bar == 0 and a == 0 and len(mu) < 3:
        raise UnstableInput("genus 0 with no ramification needs >= 3 points")
    lams = tuple(_check_twisted(twist, c, w, f"lambda_dagger[{i}]")
                 for i, w in enumerate(lambda_dagger))
    mus = tuple(_check_ambient(twist, c, w, f"mu[{i}]")
                for i, w in enumerate(mu))
    return a, lams, mus


def general_dimension(twist, c, genus_bar, lambda_dagger, mu):
    """Dimension for a genus g-bar base with a ramified pairs, b free points.

    lambda_dagger holds the 2a twisted weights (fixed-subalgebra
    coordinates); mu holds the b untwisted weights (ambient coordinates).
    All nontrivial ramifications share the single standard twist, which
    models gamma_{2k-1} gamma_{2k} = 1 for every pair.

    N = |T_c|^{g-1+a} / |T_c^sigma|^a *
        sum over T_c^{sigma,reg}/W^sigma of
        prod chi_{lambda_i}(t) prod chi_{mu_j}(t) Delta_sigma(t)^a / Delta(t)^{g-1+a}.
    """
    a, lams, mus = _check_curve(twist, c, genus_bar, lambda_dagger, mu)
    if a == 0:
        # no ramified pairs: the cover contributes nothing and the formula
        # degenerates to the classical sum over the full regular-class set
        value = _classical_sum(build_twist(twist.ambient, "identity"), c,
                               genus_bar, mus)
        return _dimension(value, f"N_({genus_bar},a=0){mus}")
    table = _table(twist, c)
    dexp = genus_bar - 1 + a
    enum = table.enum
    value = _point_sum(table, ((enum.order_T, dexp), (enum.order_Tsigma, -a)),
                       fixed=lams, ambient=mus, a=a, dexp=dexp)
    return _dimension(value, f"N_({genus_bar},a={a}){lams}{mus}")


def factorized_dimension(twist, c, genus_bar, lambda_dagger, mu):
    """Same dimension through the factorization recursion.

    Pair k is glued along D_c into one column G_k = sum over nu of
    N(sigma; lambda_2k, lambda_2k+1, nu) chi_{nu*}.  By Verlinde's
    diagonalization the classical sum with every G_k beside the chi_mu is the
    sum over all tuples of gluing weights of three-point numbers times
    classical Verlinde numbers.
    """
    a, lams, mus = _check_curve(twist, c, genus_bar, lambda_dagger, mu)
    dc = ambient_alphabet(twist, c)
    glued = [[(twisted_three_point(twist, c, lams[2 * k], lams[2 * k + 1], nu),
               twist.ambient.dual_weight(nu)) for nu in dc] for k in range(a)]
    value = _classical_sum(build_twist(twist.ambient, "identity"), c, genus_bar,
                           mus, glued)
    return _dimension(value, f"factorized N_({genus_bar},a={a}){lams}{mus}")


def riemann_hurwitz_genus(order_gamma, genus_bar, stabilizer_orders):
    """Cover genus from 2g-2 = |G|(2g_bar-2) + sum (|G|/|G_i|)(|G_i|-1)."""
    if order_gamma < 1 or genus_bar < 0:
        raise InconsistentRamification("need |Gamma| >= 1 and genus_bar >= 0")
    rhs = order_gamma * (2 * genus_bar - 2)
    for m in stabilizer_orders:
        if m < 1 or order_gamma % m != 0:
            raise InconsistentRamification(
                f"stabilizer order {m} does not divide |Gamma| = {order_gamma}")
        rhs += (order_gamma // m) * (m - 1)
    if rhs % 2 != 0:
        raise InconsistentRamification(f"2g - 2 = {rhs} is odd")
    g = (rhs + 2) // 2
    if g < 0:
        raise InconsistentRamification(f"negative genus g = {g}")
    return g
