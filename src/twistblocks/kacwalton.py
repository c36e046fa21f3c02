"""Alternating-sum pipeline: tensor/branching decomposition followed by
affine alcove folding.  Independent of the torus-point sums in dims; the
two must agree, and that agreement is the package's main consistency
check."""

from dataclasses import dataclass
from typing import Optional

from .alcove import fold_to_alcove
from .twist import _check_three_point, branch_to_fixed
from .util import memo


@dataclass(frozen=True)
class KWContribution:
    eta: tuple                 # dominant tensor constituent
    multiplicity: int
    sign: Optional[int]        # None when the constituent folds onto a wall
    weight: Optional[tuple]    # alcove weight of the fold; None on a wall
    length_parity: int = 0


@dataclass(frozen=True)
class KWLedger:
    contributions: tuple
    total: int


@memo
def _folded(twist, c, mu, nu):
    """The contributions of the constituents kappa of V(mu) (x) Res V(nu),
    sorted by kappa and each folded into the level-c alcove, and the signed
    total of the folds at every alcove weight they reach.

    Nothing here depends on lambda, so one ledger serves every row with
    this (mu, nu).
    """
    tensor = {}
    for eta_b, b in branch_to_fixed(twist, nu).items():
        for kappa, m in twist.fixed.tensor_multiplicities(mu, eta_b).items():
            tensor[kappa] = tensor.get(kappa, 0) + b * m
    contributions = []
    totals = {}
    for kappa in sorted(tensor):
        m = tensor[kappa]
        fold = fold_to_alcove(twist, c, kappa)
        if fold.weight is not None:
            totals[fold.weight] = totals.get(fold.weight, 0) + fold.sign * m
        contributions.append(KWContribution(
            eta=kappa, multiplicity=m, sign=fold.sign, weight=fold.weight,
            length_parity=fold.length_parity))
    return tuple(contributions), totals


def kac_walton_dimension(req):
    """Signed count of tensor constituents folding onto lambda.

    Steps: branch nu to the fixed subalgebra; tensor with V(mu); fold every
    dominant constituent under the star action of W^sigma x (c+h)M; sum
    sign * multiplicity over the folds that land on lambda.  The ledger and
    the totals are built once per (mu, nu) and shared by every lambda.
    """
    lam, mu, nu = _check_three_point(req, "the Kac-Walton recursion")
    contributions, totals = _folded(req.twist, req.level, mu, nu)
    total = totals.get(lam, 0)
    return total, KWLedger(contributions=contributions, total=total)


def euler_characteristic_report(req):
    """Readable per-parity breakdown of the alternating sum."""
    total, ledger = kac_walton_dimension(req)
    twist = req.twist
    lam = tuple(map(int, req.lam))
    header = (f"Kac-Walton ledger: ({twist.ambient.lie_type}{twist.ambient.rank}, "
              f"{twist.kind.tag}), c={req.level}, lambda={req.lam}, "
              f"mu={req.mu}, nu={req.nu}")
    by_parity = {0: 0, 1: 0}
    walls = 0
    for con in ledger.contributions:
        if con.sign is None:
            walls += 1
        elif con.weight == lam:
            by_parity[con.length_parity] += con.sign * con.multiplicity
    lines = [header]
    for p in (0, 1):
        lines.append(f"  length parity {p}: {by_parity[p]:+d}")
    lines.append(f"  wall constituents: {walls}")
    lines.append(f"  total: {total}")
    assert by_parity[0] + by_parity[1] == total
    return "\n".join(lines)
