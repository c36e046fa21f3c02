"""Finite torus combinatorics: lattice orders, the regular point set
Sigma_c = T_c^{sigma,reg}/W^sigma, and affine Weyl folding with the
rho-shifted star action."""

from dataclasses import dataclass
from typing import Optional

from .twist import build_twist, weight_alphabet, _bounded_lex
from .util import integer_determinant

# defensive bound on the theta reflections of a fold; the affine action is
# proper, so this only guards against corrupted inputs
_FOLD_SLACK = 64


@dataclass(frozen=True)
class AlcoveEnumeration:
    points: tuple           # Exponents of each point for the fixed algebra
    order_T: int
    order_Tsigma: int


@dataclass(frozen=True)
class FoldResult:
    status: str                       # "interior" | "wall"
    weight: Optional[tuple] = None    # dominant alcove representative
    sign: Optional[int] = None        # (-1)^length of the folding word
    length_parity: int = 0


def lattice_orders(twist, c):
    """(|T_c|, |T_c^sigma|) at level c.

    |T_c^sigma| = |P_sigma / (c+h^vee) M| = (c+h^vee)^rank |det M|, with the
    basis vectors of M in fixed-weight coordinates.  |T_c| is the same order
    for the identity twist of the ambient algebra, whose M = nu(Q^vee) is
    spanned by the long roots.
    """
    if c < 1:
        raise ValueError("level must be >= 1")
    nshift = twist.shifted_level(c)

    def order(data):
        return nshift ** data.fixed.rank * abs(integer_determinant(data.lattice_M))

    return order(build_twist(twist.ambient, "identity")), order(twist)


def _points(twist, c):
    """Exponents of the torus points xi_j = scale_j (label_j + 1) / (c + h).

    With d the symmetrizer, long roots largest:
    * identity: labels A_c, scale d_j / max(d), since
      alpha_j(nu^{-1}(lam+rho)) = <alpha_j, lam+rho> = d_j (lam_j + 1) / max(d);
    * standard4: labels D_{c,sigma}, scale 2 d_j / max(d), since the form
      with <theta_l|theta_l> = 4 is twice the restriction of the ambient one;
    * diagram: labels the coweight alphabet
      {lam_check dominant : (lam_check, theta_l) <= c}, scale 1, i.e.
      xi = (rho_check + lam_check)/(c+h).
    """
    fixed = twist.fixed
    top = max(fixed.symmetrizer)
    if twist.kind in ("diagram2", "diagram3"):
        labels = _bounded_lex([int(m) for m in fixed.marks], c)
        scale = [top] * fixed.rank
    else:
        labels = weight_alphabet(twist, c).members
        scale = [(2 if twist.kind == "standard4" else 1) * d for d in fixed.symmetrizer]
    den = twist.shifted_level(c) * top
    return [fixed.exponent_vector([s * (x + 1) for s, x in zip(scale, lab)], den)
            for lab in labels]


def enumerate_sigma_c(twist, c):
    """All regular torus classes the Verlinde sums run over, with orders.

    Every point is checked regular for the fixed Weyl group, and the count
    must match |D_{c,sigma}| (the fusion-basis cardinality).
    """
    if c < 1:
        raise ValueError("level must be >= 1")
    pts = _points(twist, c)

    alphabet_size = len(weight_alphabet(twist, c))
    if len(pts) != alphabet_size:
        raise AssertionError(
            f"|Sigma_c| = {len(pts)} differs from |D_c,sigma| = {alphabet_size}")
    # xi -> y is injective and each y is in lowest terms
    if len(set(pts)) != len(pts):
        raise AssertionError("enumerated torus points are not distinct")
    for y in pts:
        if not twist.fixed.point_is_regular(y):
            raise AssertionError(f"enumerated point {y} is not regular")

    order_t, order_ts = lattice_orders(twist, c)
    return AlcoveEnumeration(points=tuple(pts), order_T=order_t,
                             order_Tsigma=order_ts)


def fold_to_alcove(twist, c, eta):
    """Star-action fold of an integral weight into the level-c alcove.

    Simple reflections make eta+rho dominant; the far wall (pairing with
    theta_check_sigma equal to c+h) reflects by theta_sigma, and the finite
    fold repeats.  Translations have even length, so the sign is just
    (-1)^#reflections.
    """
    fixed = twist.fixed
    nshift = twist.shifted_level(c)
    marks = twist.level_marks
    theta = twist.theta_sigma

    def level(v):
        return sum(m * a for m, a in zip(marks, v))

    x = tuple(int(v) + 1 for v in eta)
    parity = 0
    budget = _FOLD_SLACK + 10 * level(abs(v) for v in x)
    while True:
        x, sign, on_wall = fixed.dominant_rep_signed(x)
        parity ^= sign < 0
        lvl = level(x)
        if lvl <= nshift:
            break
        budget -= 1
        if budget < 0:
            raise AssertionError("folding failed to terminate; corrupted input")
        x = tuple(v - (lvl - nshift) * t for v, t in zip(x, theta))
        parity ^= 1

    if on_wall or lvl == nshift:
        return FoldResult(status="wall", length_parity=parity)
    return FoldResult(status="interior", weight=tuple(v - 1 for v in x),
                      sign=1 - 2 * parity, length_parity=parity)
