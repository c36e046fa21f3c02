"""Alternating-sum pipeline: tensor/branching decomposition followed by
affine alcove folding.  Independent of the torus-point sums in dims; the
two must agree, and that agreement is the package's main consistency
check."""

from dataclasses import dataclass
from typing import Optional

from .alcove import fold_to_alcove
from .dims import _check_ambient, _check_twisted
from .errors import NotInAlphabet
from .twist import branch_to_fixed
from .util import memo


@dataclass(frozen=True)
class KWContribution:
    eta: tuple                 # dominant tensor constituent
    multiplicity: int
    sign: Optional[int]        # None when the constituent folds onto a wall
    matched: bool              # fold landed on the requested lambda
    length_parity: int = 0


@dataclass(frozen=True)
class KWLedger:
    contributions: tuple
    total: int


def _validated(req):
    twist, c = req.twist, req.level
    twist._require_standard("the Kac-Walton recursion")
    if twist.kind.tag == "identity":
        raise NotInAlphabet("Kac-Walton pipeline needs a nontrivial twist")
    lam = _check_twisted(twist, c, req.lam, "lambda")
    mu = _check_twisted(twist, c, req.mu, "mu")
    nu = _check_ambient(twist, c, req.nu, "nu")
    return twist, c, lam, mu, nu


@memo
def _folded(twist, c, mu, nu):
    """Sorted (kappa, multiplicity, fold) over the constituents kappa of
    V(mu) (x) Res V(nu), each folded into the level-c alcove.

    Nothing here depends on lambda, so one decomposition serves every row
    with this (mu, nu).
    """
    tensor = {}
    for eta_b, b in branch_to_fixed(twist, nu).items():
        for kappa, m in twist.fixed.tensor_multiplicities(mu, eta_b).items():
            tensor[kappa] = tensor.get(kappa, 0) + b * m
    return tuple((kappa, tensor[kappa], fold_to_alcove(twist, c, kappa))
                 for kappa in sorted(tensor))


def kac_walton_dimension(req):
    """Signed count of tensor constituents folding onto lambda.

    Steps: branch nu to the fixed subalgebra; tensor with V(mu); fold every
    dominant constituent under the star action of W^sigma x (c+h)M; sum
    sign * multiplicity over the folds that land on lambda.  The first three
    steps are cached per (mu, nu).
    """
    twist, c, lam, mu, nu = _validated(req)
    contributions = []
    total = 0
    for kappa, m, fold in _folded(twist, c, mu, nu):
        matched = fold.status != "wall" and fold.weight == lam
        if matched:
            total += fold.sign * m
        contributions.append(KWContribution(
            eta=kappa, multiplicity=m, sign=fold.sign, matched=matched,
            length_parity=fold.length_parity))
    return total, KWLedger(contributions=tuple(contributions), total=total)


def euler_characteristic_report(req):
    """Readable per-parity breakdown of the alternating sum."""
    total, ledger = kac_walton_dimension(req)
    twist = req.twist
    header = (f"Kac-Walton ledger: ({twist.ambient.lie_type}{twist.ambient.rank}, "
              f"{twist.kind.tag}), c={req.level}, lambda={req.lam}, "
              f"mu={req.mu}, nu={req.nu}")
    by_parity = {0: 0, 1: 0}
    walls = 0
    for con in ledger.contributions:
        if con.sign is None:
            walls += 1
        elif con.matched:
            by_parity[con.length_parity] += con.sign * con.multiplicity
    lines = [header]
    for p in (0, 1):
        lines.append(f"  length parity {p}: {by_parity[p]:+d}")
    lines.append(f"  wall constituents: {walls}")
    lines.append(f"  total: {total}")
    assert by_parity[0] + by_parity[1] == total
    return "\n".join(lines)
