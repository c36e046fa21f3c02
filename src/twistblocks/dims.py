"""Verlinde-type dimension formulas: classical and twisted point sums over
the finite regular torus classes, the general cover formula, and the
factorization recursion."""

import functools
import math
from dataclasses import dataclass, replace

from .alcove import enumerate_sigma_c
from .errors import (InconsistentRamification, IntegralityError,
                     NotInAlphabet, UnstableInput)
from .twist import (_check_ambient, _check_three_point, _check_twisted,
                    ambient_alphabet, build_twist)
from .util import memo, round_half_away

_IMAG_TOL = 1e-7

# weight-multiplicity sums are exact at any point; prefer them for ambient
# characters unless the representation is large
_WEIGHTSUM_DIM_CAP = 4000


@dataclass(frozen=True)
class DimensionResult:
    value: int
    raw: complex
    residual: float


@dataclass(frozen=True)
class ThreePointRequest:
    """Cover of P^1 with ramified pair (0, infinity) and one free point."""
    twist: object
    level: int
    lam: tuple
    mu: tuple
    nu: tuple


@dataclass(frozen=True)
class CurveRequest:
    """Genus g-bar base with `pairs` ramified pairs and b free points.

    lambda_dagger holds the 2*pairs twisted weights (fixed-subalgebra
    coordinates); mu holds the b untwisted weights (ambient coordinates).
    All nontrivial ramifications share the single standard twist, which
    models gamma_{2k-1} gamma_{2k} = 1 for every pair.
    """
    twist: object
    level: int
    genus_bar: int
    lambda_dagger: tuple
    mu: tuple

    @property
    def pairs(self):
        return len(self.lambda_dagger) // 2


def _finalize(raw, context, allow_negative=False):
    """Round raw to the nearest integer and carry its residual.

    The residual is reported, not judged: the caller holds the tolerance
    (the CLI checks every row against the request's).
    """
    raw = complex(raw)
    if not (math.isfinite(raw.real) and math.isfinite(raw.imag)):
        raise IntegralityError(f"{context}: raw value {raw} is not finite")
    if abs(raw.imag) > _IMAG_TOL:
        raise IntegralityError(f"{context}: imaginary part {raw.imag:.3e} "
                               f"exceeds {_IMAG_TOL}")
    value = round_half_away(raw.real)
    residual = abs(raw - value)
    if value < 0 and not allow_negative:
        raise IntegralityError(f"{context}: negative dimension {value} from {raw}")
    return DimensionResult(value=value, raw=raw, residual=residual)


# -- the torus points of one (ambient, twist, level), with values ----------

class _Characters:
    """The characters of one root datum at the exponent vectors ys, each as
    one list over the points, and the point values every character shares.

    Characters of dimension <= weight_cap are weight-multiplicity sums (exact
    at any point); the rest are Weyl quotients.
    """

    def __init__(self, rd, ys, weight_cap):
        self.rd = rd
        self.ys = ys
        self.weight_cap = weight_cap

    @functools.cached_property
    def weyl_den(self):
        return self.rd.weyl_denominators(self.ys)

    @functools.cached_property
    def delta(self):
        """prod over all roots of (e^alpha(t) - 1) = prod 4 sin^2(pi alpha(xi))."""
        out = []
        for y in self.ys:
            total = 1.0
            for p in self.rd.root_pairings(y):
                if p % y.den == 0:
                    raise AssertionError(f"point {y} is singular for {self.rd}")
                total *= 4.0 * math.sin(math.pi * (p / y.den)) ** 2
            out.append(total)
        return out

    @memo
    def char(self, lam):
        if self.rd.weyl_dimension(lam) <= self.weight_cap:
            return self.rd.character_at_exponents(lam, self.ys, method="weights")
        return self.rd.character_at_exponents(lam, self.ys, weyl_den=self.weyl_den)


class _PointTable:
    """Sigma_c for one twist and level, with the characters of the fixed
    algebra and, once read, of the ambient one at its points.

    The points are regular for both algebras, so every Delta is nonzero.
    """

    def __init__(self, twist, c):
        self.twist = twist
        self.enum = enumerate_sigma_c(twist, c)
        # weight_cap 0: fixed characters are always Weyl quotients, whose
        # rounding the reported residuals carry
        self.fixed = _Characters(twist.fixed, self.enum.points, 0)

    @functools.cached_property
    def ambient(self):
        ys = [self.twist.ambient_exponents(y) for y in self.enum.points]
        return _Characters(self.twist.ambient, ys, _WEIGHTSUM_DIM_CAP)


@memo
def _table(twist, c):
    return _PointTable(twist, c)


def _fsum(values):
    """The correctly rounded sum of complex values, part by part: it depends
    only on the multiset of the values, not on their order."""
    try:
        return complex(math.fsum([v.real for v in values]),
                       math.fsum([v.imag for v in values]))
    except (OverflowError, ValueError):     # a sum past the float range, or inf - inf
        raise IntegralityError("a point sum exceeds the float range") from None


def _point_sum(table, fixed=(), ambient=(), glued=(), a=0, dexp=0):
    """Sum over the points of
    prod chi_fixed * prod chi_ambient * prod G * Delta_sigma^a / Delta^dexp,
    where each G in glued is a list of pairs (n, lam) for sum n * chi_lam.

    Every formula goes through this one loop: each term's factors are
    multiplied in one fixed order, and the terms, like each G's, are summed
    by _fsum, so the results are reproducible bit for bit whatever the order
    of the points.
    """
    columns = ([table.fixed.char(lam) for lam in fixed]
               + [table.ambient.char(nu) for nu in ambient])
    glued = [[(n, table.fixed.char(lam)) for n, lam in g] for g in glued]
    try:
        ds = [x ** a for x in table.fixed.delta] if a else None
        d = [x ** (-dexp) for x in table.ambient.delta] if dexp else None
    except OverflowError:
        raise IntegralityError("a point-sum Delta power exceeds the float range") from None
    terms = []
    for k in range(len(table.enum.points)):
        term = complex(1.0)
        for col in columns:
            term *= col[k]
        for g in glued:
            term *= _fsum([n * col[k] for n, col in g])
        if a:
            term *= ds[k]
        if dexp:
            term *= d[k]
        terms.append(term)
    return _fsum(terms)


def _ratio(num, den, what):
    """num / den of ints, correctly rounded, or IntegralityError past the
    float range: no dimension is rounded there."""
    try:
        return num / den
    except OverflowError:
        raise IntegralityError(f"{what} exceeds the float range") from None


# -- the formulas ----------------------------------------------------------

def _classical_raw(tw, c, g, weights, glued=()):
    """|T_c|^{g-1} sum over A_c of prod chi prod G Delta^{1-g}; no stability gate.

    tw is the identity twist of the ambient algebra; G as in _point_sum.
    """
    table = _table(tw, c)
    total = _point_sum(table, fixed=weights, glued=glued, dexp=g - 1)
    t = table.enum.order_T
    return total * _ratio(t ** max(g - 1, 0), t ** max(1 - g, 0), f"|T_c|^{g - 1}")


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
    return _finalize(_classical_raw(tw, c, g, weights),
                     f"classical N_{g}{weights}")


def twisted_three_point(req):
    """N(sigma; lam, mu, nu) by the twisted Verlinde sum."""
    lam, mu, nu = _check_three_point(req, "the twisted Verlinde formula")
    table = _table(req.twist, req.level)
    raw = _point_sum(table, fixed=(lam, mu), ambient=(nu,), a=1) \
        / table.enum.order_Tsigma
    return _finalize(raw, f"N(sigma;{lam},{mu},{nu})")


def fusion_coefficient(twist, c, lam, mu, eta):
    """Structure constant c^eta_{lam,mu} of the twisted fusion ring.

    These are integers; at level 1 they are non-negative, but the ring is
    a trace ring of a diagram automorphism, and genuinely negative values
    occur from level 2 on (e.g. c^{w2}_{w2,w2} = -1 for (A3, diagram2)).
    """
    twist._require_standard("fusion coefficients")
    if twist.kind.tag == "identity":
        raise NotInAlphabet("twisted fusion needs a nontrivial twist")
    lam = _check_twisted(twist, c, lam, "lambda")
    mu = _check_twisted(twist, c, mu, "mu")
    # eta* = eta: weight_alphabet checks that once for all of D_{c,sigma}
    eta = _check_twisted(twist, c, eta, "eta")
    table = _table(twist, c)
    raw = _point_sum(table, fixed=(lam, mu, eta), a=1) / table.enum.order_Tsigma
    return _finalize(raw, f"c^{eta}_{lam},{mu}", allow_negative=True)


def _check_curve(req):
    twist, c = req.twist, req.level
    twist._require_standard("the general dimension formula")
    if len(req.lambda_dagger) % 2 != 0:
        raise NotInAlphabet("lambda_dagger must list 2a paired weights")
    a = req.pairs
    b = len(req.mu)
    if req.genus_bar < 0:
        raise ValueError("genus_bar must be >= 0")
    if a > 0 and twist.kind.tag == "identity":
        raise NotInAlphabet("ramified pairs require a nontrivial twist")
    # two paired ramified points alone are admissible (z -> z^m cover);
    # otherwise demand the usual stability
    if req.genus_bar == 0 and a == 0 and b < 3:
        raise UnstableInput("genus 0 with no ramification needs >= 3 points")
    lams = tuple(_check_twisted(twist, c, w, f"lambda_dagger[{i}]")
                 for i, w in enumerate(req.lambda_dagger))
    mus = tuple(_check_ambient(twist, c, w, f"mu[{i}]")
                for i, w in enumerate(req.mu))
    return a, b, lams, mus


def general_dimension(req):
    """Dimension for a genus g-bar base with a ramified pairs, b free points.

    N = |T_c|^{g-1+a} / |T_c^sigma|^a *
        sum over T_c^{sigma,reg}/W^sigma of
        prod chi_{lambda_i}(t) prod chi_{mu_j}(t) Delta_sigma(t)^a / Delta(t)^{g-1+a}.
    """
    a, b, lams, mus = _check_curve(req)
    twist, c, gbar = req.twist, req.level, req.genus_bar
    if a == 0:
        # no ramified pairs: the cover contributes nothing and the formula
        # degenerates to the classical sum over the full regular-class set
        raw = _classical_raw(build_twist(twist.ambient, "identity"), c, gbar, mus)
        return _finalize(raw, f"N_({gbar},a=0){mus}")
    table = _table(twist, c)
    dexp = gbar - 1 + a
    total = _point_sum(table, fixed=lams, ambient=mus, a=a, dexp=dexp)
    enum = table.enum
    factor = _ratio(enum.order_T ** dexp, enum.order_Tsigma ** a,
                    f"|T_c|^{dexp} / |T_c^sigma|^{a}")
    return _finalize(total * factor, f"N_({gbar},a={a}){lams}{mus}")


def factorized_dimension(req):
    """Same dimension through the factorization recursion.

    Pair k is glued along D_c into one column G_k = sum over nu of
    N(sigma; lambda_2k, lambda_2k+1, nu) chi_{nu*}.  By Verlinde's
    diagonalization the classical sum with every G_k beside the chi_mu is the
    sum over all tuples of gluing weights of three-point numbers times
    classical Verlinde numbers.  The residual covers the three-point inputs.
    """
    a, b, lams, mus = _check_curve(req)
    twist, c, gbar = req.twist, req.level, req.genus_bar
    dc = ambient_alphabet(twist, c)
    glued, inputs = [], []
    for k in range(a):
        n3 = [twisted_three_point(ThreePointRequest(
                  twist=twist, level=c, lam=lams[2 * k], mu=lams[2 * k + 1],
                  nu=nu)) for nu in dc]
        glued.append([(r.value, twist.ambient.dual_weight(nu))
                      for r, nu in zip(n3, dc)])
        inputs += n3
    raw = _classical_raw(build_twist(twist.ambient, "identity"), c, gbar, mus, glued)
    res = _finalize(raw, f"factorized N_({gbar},a={a}){lams}{mus}")
    return replace(res, residual=max([res.residual] + [r.residual for r in inputs]))


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
