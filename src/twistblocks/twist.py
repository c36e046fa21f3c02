"""Automorphism layer: diagram/standard automorphisms, fixed subalgebras,
weight restriction and branching, twisted level alphabets."""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import IllegalPair, NonDominant, NotInAlphabet
from .liecore import Exponents, RootDatum, build_root_datum
from .util import memo


def _fold_spec(ambient, tag):
    """Node orbits of the diagram part and the fixed-algebra label.

    Returns (fixed_type, fixed_rank, orbits).  Every row is a standard
    twist: A_{2n} is reached only through standard4, its order-2 diagram
    fold (fixed B_n) is refused.
    """
    t, r = ambient.lie_type, ambient.rank
    if tag == "diagram2":
        if t == "A" and r >= 3 and r % 2 == 1:          # A_{2n-1} -> C_n
            n = (r + 1) // 2
            orbits = [(i, r - 1 - i) for i in range(n - 1)] + [(n - 1,)]
            return ("C", n, orbits)
        if t == "A" and r >= 2 and r % 2 == 0:
            raise IllegalPair(f"{t}{r} has no standard diagram2 twist; "
                              "use standard4 (kind \"standard\", order 4)")
        if t == "D" and r >= 4:                          # D_{n+1} -> B_n
            n = r - 1
            orbits = [(i,) for i in range(n - 1)] + [(n - 1, n)]
            return ("B", n, orbits)
        if t == "E" and r == 6:                          # E6 -> F4
            return ("F", 4, [(1,), (3,), (2, 4), (0, 5)])
    elif tag == "diagram3":
        if t == "D" and r == 4:                          # D4 -> G2 (triality)
            return ("G", 2, [(1,), (0, 2, 3)])
    elif tag == "standard4":
        if t == "A" and r >= 2 and r % 2 == 0:           # A_{2n} -> C_n, order 4
            n = r // 2
            orbits = [(i, r - 1 - i) for i in range(n)]
            return ("C", n, orbits)
    else:
        raise IllegalPair(f"unknown twist kind {tag!r}")
    raise IllegalPair(f"no {tag} automorphism row for {t}{r}")


def _fixed_datum(fixed_type, fixed_rank):
    if fixed_rank == 1:   # C1 means A1
        return build_root_datum("A", 1)
    return build_root_datum(fixed_type, fixed_rank)


@dataclass(eq=False)
class TwistData:
    """All fixed-subalgebra data attached to a standard twist.

    Hashes by identity: build_twist makes one per (ambient, kind), and the
    caches downstream are keyed by that instance.
    """
    ambient: RootDatum
    kind: str                             # identity | diagram2 | diagram3 | standard4
    fixed: RootDatum
    restriction_matrix: np.ndarray        # fixed-weight coords of a restricted ambient weight
    lattice_M: tuple                      # basis vectors of the translation lattice M in
                                          # fixed-weight coords; nu(Q^vee) for the identity
    theta_sigma: tuple                    # weight of the fixed algebra
    level_marks: tuple                    # (lambda, theta^vee_sigma) = level_marks . lambda

    @property
    def dual_coxeter(self):
        """Dual Coxeter number of the twisted affine algebra = that of g."""
        return self.ambient.dual_coxeter

    def shifted_level(self, c):
        return c + self.dual_coxeter

    def ambient_exponents(self, yf):
        """Exponents for ambient weights of the point with fixed exponents yf.

        omega_i^g(xi) = (R omega_i^g)(xi), so y_g = R^T y_fixed.  Each column
        of R is a 0/1 unit vector, so every ambient exponent copies a fixed
        one and the result stays in lowest terms.
        """
        return Exponents(tuple((yf.num @ self.restriction_matrix).tolist()), yf.den)


def _coroot_coords_of_dual(rd, root):
    """Simple-coroot coordinates of root^vee for a positive root of rd."""
    k = rd.positive_roots.tolist().index(list(root))
    return tuple(int(x) for x in rd.coroot_pairings[k])


@memo
def build_twist(ambient, kind):
    """Assemble TwistData for a legal (ambient, kind) pair.

    Instances are cached per (ambient instance, kind) so downstream caches
    (branching, character values at torus points) are shared.  The fixed
    Cartan matrix is recomputed from the node orbits and checked against the
    table row, so a labeling mistake cannot pass silently.
    """
    if kind == "identity":
        return _identity_twist(ambient)

    ftype, frank, orbits = _fold_spec(ambient, kind)
    fixed = _fixed_datum(ftype, frank)

    # scales of the restricted simple roots: 2 alpha_n| on the standard4 row
    rscale = [1] * frank
    if kind == "standard4":
        rscale[frank - 1] = 2

    amb_a = ambient.cartan
    afix = np.zeros((frank, frank), dtype=np.int64)
    for i in range(frank):
        for j in range(frank):
            o_j = orbits[j][0]
            afix[i, j] = rscale[j] * sum(int(amb_a[k][o_j]) for k in orbits[i])
    if not np.array_equal(afix, fixed.cartan):
        raise AssertionError(f"folded Cartan mismatch for ({ambient}, {kind}): "
                             f"{afix.tolist()} vs {fixed.cartan.tolist()}")

    rmat = np.zeros((frank, ambient.rank), dtype=np.int64)
    for i, orb in enumerate(orbits):
        for k in orb:
            rmat[i, k] = 1

    if kind == "standard4":
        theta_l = fixed.highest_root
        assert all(x % 2 == 0 for x in theta_l)
        theta_sigma = tuple(x // 2 for x in theta_l)
        marks = tuple(2 * x for x in _coroot_coords_of_dual(fixed, theta_l))
        lattice = [tuple(int(i == j) for i in range(frank)) for j in range(frank)]
    else:
        theta_sigma = fixed.highest_short_root
        marks = _coroot_coords_of_dual(fixed, theta_sigma)
        lattice = fixed.simple_roots

    assert sum(marks) == ambient.dual_coxeter - 1, \
        "(rho_sigma, theta_check_sigma) must equal h-check - 1"

    return TwistData(ambient=ambient, kind=kind, fixed=fixed,
                     restriction_matrix=rmat, lattice_M=tuple(lattice),
                     theta_sigma=theta_sigma, level_marks=marks)


def _identity_twist(ambient):
    eye = np.eye(ambient.rank, dtype=np.int64)
    marks = ambient.dual_marks
    # translation lattice of the classical torus: nu(Q^vee), the span of the
    # long roots, with basis nu(alpha_j^vee) = alpha_j max(d) / d_j
    top = max(ambient.symmetrizer)
    lattice = tuple(tuple(x * (top // d) for x in alpha)
                    for alpha, d in zip(ambient.simple_roots, ambient.symmetrizer))
    assert sum(marks) == ambient.dual_coxeter - 1
    return TwistData(ambient=ambient, kind="identity", fixed=ambient,
                     restriction_matrix=eye, lattice_M=lattice,
                     theta_sigma=ambient.highest_root, level_marks=marks)


@dataclass(frozen=True)
class WeightSet:
    """The level-c alphabet D_{c,sigma}, deterministically ordered."""
    members: tuple

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _bounded_lex(marks, budget):
    """All nonnegative integer vectors v with marks . v <= budget, lex order."""
    n = len(marks)
    out = []

    def rec(prefix, left):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        for v in range(left // marks[i] + 1):
            rec(prefix + [v], left - v * marks[i])

    rec([], budget)
    return out


def weight_alphabet(twist, c):
    """D_{c,sigma}: dominant weights of the fixed algebra with level <= c."""
    if c < 0:
        raise ValueError("level must be >= 0")
    return _alphabet(twist, c)


@memo
def _alphabet(twist, c):
    """weight_alphabet, built once per (twist, c)."""
    members = _bounded_lex([int(m) for m in twist.level_marks], c)
    if twist.kind != "identity":
        for lam in members:
            assert twist.fixed.dual_weight(lam) == lam, \
                "twisted alphabet members must be self-dual"
    return WeightSet(members=tuple(members))


def ambient_alphabet(twist, c):
    """D_c of the ambient algebra (the untwisted level alphabet)."""
    marks = [int(m) for m in twist.ambient.dual_marks]
    return tuple(_bounded_lex(marks, c))


def _check_twisted(twist, c, lam, slot):
    """lam as a tuple of ints, if it is in D_{c,sigma}; NotInAlphabet if not."""
    lam = tuple(map(int, lam))
    if len(lam) != twist.fixed.rank or min(lam) < 0 \
            or sum(map(operator.mul, twist.level_marks, lam)) > c:
        raise NotInAlphabet(f"{slot} weight {lam} is not in D_{{{c},sigma}} "
                            f"of {twist.fixed}")
    return lam


def _check_ambient(twist, c, nu, slot):
    """nu as a tuple of ints, if it is in D_c; NotInAlphabet if not."""
    nu = tuple(map(int, nu))
    rd = twist.ambient
    if len(nu) != rd.rank or min(nu) < 0 \
            or sum(map(operator.mul, rd.dual_marks, nu)) > c:
        raise NotInAlphabet(f"{slot} weight {nu} is not in D_{c} of {rd}")
    return nu


def _check_three_point(twist, c, lam, mu, nu, what):
    """(lam, mu, nu) as tuples of ints, for a nontrivial twist, lam and mu
    in D_{c,sigma}, nu in D_c.  `what` names the computation."""
    if twist.kind == "identity":
        raise NotInAlphabet(f"{what} needs a nontrivial twist")
    return (_check_twisted(twist, c, lam, "lambda"),
            _check_twisted(twist, c, mu, "mu"),
            _check_ambient(twist, c, nu, "nu"))


def branch_to_fixed(twist, nu):
    """Restrict the ambient irreducible V(nu) to the fixed subalgebra.

    Returns {fixed highest weight: multiplicity}.  Restricted weights are
    peeled greedily in decreasing height; a negative intermediate
    multiplicity aborts, since it can only mean a corrupted character.
    """
    nu = tuple(int(x) for x in nu)
    if not twist.ambient.is_dominant(nu):
        raise NonDominant(f"{nu} is not dominant for {twist.ambient}")
    return dict(_branch(twist, nu))


@memo
def _branch(twist, nu):
    if twist.kind == "identity":
        return {nu: 1}
    return _branch_uncached(twist, nu)


def _branch_uncached(twist, nu):
    fixed = twist.fixed
    ws = twist.ambient.weight_system(nu)
    restricted = np.array(list(ws), dtype=np.int64) @ twist.restriction_matrix.T
    remaining = {}
    for rw, m in zip(map(tuple, restricted.tolist()), ws.values()):
        remaining[rw] = remaining.get(rw, 0) + m
    # every other weight of V(eta) lies strictly below eta, so one pass from
    # the top sees each weight after all peels that reach it
    out = {}
    for eta in sorted(remaining, key=lambda w: (fixed.height(w), w), reverse=True):
        b = remaining[eta]
        if not b:
            continue
        if b < 0 or not fixed.is_dominant(eta):
            raise AssertionError(f"branching peel failed at {eta} (mult {b})")
        for w, m in fixed.weight_system(eta).items():
            remaining[w] = remaining.get(w, 0) - b * m
        out[eta] = b
    left = {w: m for w, m in remaining.items() if m}
    if left:
        raise AssertionError(f"branching left weights unpeeled: {left}")
    return out
