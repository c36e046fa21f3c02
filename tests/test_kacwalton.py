import ast
import os

import pytest

import twistblocks
from twistblocks import (NotInAlphabet, ambient_alphabet, branch_to_fixed,
                         build_root_datum, build_twist,
                         euler_characteristic_report, fold_to_alcove,
                         kac_walton_dimension, twisted_three_point,
                         weight_alphabet)
from twistblocks.kacwalton import KWContribution, KWLedger, _folded
from oracles import STANDARD_ROWS


def tw(t, r, kind):
    return build_twist(build_root_datum(t, r), kind)


def test_vacuum_ledger():
    data = tw("A", 3, "diagram2")
    total, ledger = kac_walton_dimension(data, 1, (0, 0), (0, 0), (0, 0, 0))
    assert total == 1
    assert len(ledger.contributions) == 1
    con = ledger.contributions[0]
    assert con.eta == (0, 0) and con.multiplicity == 1
    assert con.sign == 1 and con.weight == (0, 0)
    assert ledger == KWLedger(contributions=(con,))
    assert KWLedger._fields == ("contributions",)
    assert KWContribution._fields == ("eta", "multiplicity", "sign", "weight")


def test_tensor_unit_with_vacuum_nu():
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        za = tuple([0] * r)
        for lam in weight_alphabet(data, 1):
            total, ledger = kac_walton_dimension(data, 1, lam, lam, za)
            assert total == 1
            assert [c.eta for c in ledger.contributions if c.weight == lam] == [lam]


def test_exhaustive_agreement_with_verlinde_table():
    for (t, r, kind, c) in [("A", 3, "diagram2", 1), ("D", 4, "diagram2", 2)]:
        data = tw(t, r, kind)
        alphabet = weight_alphabet(data, c).members
        amb = ambient_alphabet(data, c)
        for lam in alphabet:
            for mu in alphabet:
                for nu in amb:
                    r3 = (data, c, lam, mu, nu)
                    assert kac_walton_dimension(*r3)[0] == \
                        twisted_three_point(*r3), (t, r, kind, c, lam, mu, nu)


def test_lam_mu_swap_symmetry():
    for (t, r, kind) in [("A", 3, "diagram2"), ("A", 4, "standard4"),
                         ("D", 4, "diagram3")]:
        data = tw(t, r, kind)
        c = 2
        alphabet = weight_alphabet(data, c).members
        amb = ambient_alphabet(data, c)
        for lam in alphabet:
            for mu in alphabet:
                for nu in amb[:5]:
                    a = kac_walton_dimension(data, c, lam, mu, nu)[0]
                    b = kac_walton_dimension(data, c, mu, lam, nu)[0]
                    assert a == b


def test_totals_non_negative():
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        alphabet = weight_alphabet(data, 1).members
        amb = ambient_alphabet(data, 1)
        for lam in alphabet:
            for mu in alphabet:
                for nu in amb:
                    assert kac_walton_dimension(data, 1, lam, mu, nu)[0] >= 0


def test_classical_limit_no_folding():
    # at large level nothing folds, so the total is the plain multiplicity
    # of lambda in V(mu) (x) V(nu)|
    data = tw("A", 3, "diagram2")
    fixed = data.fixed
    big_c = 40
    for lam in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        for mu in [(0, 0), (1, 0), (0, 1)]:
            for nu in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1)]:
                plain = 0
                for eta_b, b in branch_to_fixed(data, nu).items():
                    plain += b * fixed.tensor_multiplicities(mu, eta_b).get(lam, 0)
                total, ledger = kac_walton_dimension(data, big_c, lam, mu, nu)
                assert total == plain
                assert all(c.sign == 1 for c in ledger.contributions)


def direct_ledger(data, c, lam, mu, nu):
    """The row's total and ledger, decomposed and folded from scratch, with
    no cache."""
    tensor = {}
    for eta_b, b in branch_to_fixed(data, nu).items():
        for kappa, m in data.fixed.tensor_multiplicities(mu, eta_b).items():
            tensor[kappa] = tensor.get(kappa, 0) + b * m
    contributions = []
    total = 0
    for kappa in sorted(tensor):
        fold = fold_to_alcove(data, c, kappa)
        if fold.weight == lam:
            total += fold.sign * tensor[kappa]
        contributions.append(KWContribution(
            eta=kappa, multiplicity=tensor[kappa], sign=fold.sign,
            weight=fold.weight))
    return total, KWLedger(contributions=tuple(contributions))


def test_cached_decomposition_matches_direct_ledger():
    # the first lambda of each (mu, nu) decomposes and folds; every later
    # lambda reuses that decomposition
    for (t, r, kind, c) in [("A", 3, "diagram2", 2), ("D", 4, "diagram3", 2)]:
        data = tw(t, r, kind)
        alphabet = weight_alphabet(data, c).members
        assert len(alphabet) > 1
        for mu in alphabet:
            for nu in ambient_alphabet(data, c):
                _folded.cache.clear()
                for lam in alphabet:
                    got = kac_walton_dimension(data, c, lam, mu, nu)
                    assert list(_folded.cache) == [(data, c, mu, nu)]
                    assert got == direct_ledger(data, c, lam, mu, nu)


def test_rows_of_one_mu_nu_share_one_ledger():
    # every lambda row of a (mu, nu) holds the same ledger object, and its
    # total is the one a from-scratch ledger gives
    for (t, r, kind, c) in [("A", 3, "diagram2", 3), ("A", 4, "standard4", 2),
                            ("D", 4, "diagram2", 2)]:
        data = tw(t, r, kind)
        alphabet = weight_alphabet(data, c).members
        for mu in alphabet:
            for nu in ambient_alphabet(data, c):
                ledgers = [kac_walton_dimension(data, c, lam, mu, nu)
                           for lam in alphabet]
                shared = ledgers[0][1]
                for lam, (total, ledger) in zip(alphabet, ledgers):
                    assert ledger is shared
                    want, _ = direct_ledger(data, c, lam, mu, nu)
                    assert total == want, (t, r, kind, c, lam, mu, nu)


def _package_imports(module):
    """The twistblocks modules that `module` imports, directly or not, read
    from the sources' relative imports."""
    src = os.path.dirname(twistblocks.__file__)
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        with open(os.path.join(src, f"{name}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                dep = node.module.split(".")[0]
                if dep not in seen:
                    seen.add(dep)
                    todo.append(dep)
    return seen


def test_kacwalton_does_not_import_dims():
    # the two pipelines share no code that could make them agree by construction
    deps = _package_imports("kacwalton")
    assert {"alcove", "twist"} <= deps
    assert "dims" not in deps


def test_wall_contributions_recorded():
    # (A3/diagram2, c=1): V(w1) (x) V(w1|) has two wall constituents and
    # an interior vacuum; matching lambda = w1 leaves a zero total
    data = tw("A", 3, "diagram2")
    total, ledger = kac_walton_dimension(data, 1, (1, 0), (1, 0), (1, 0, 0))
    assert total == 0
    walls = [c for c in ledger.contributions if c.sign is None]
    assert len(walls) == 2
    assert not any(c.weight == (1, 0) for c in ledger.contributions)


def test_scope_errors():
    with pytest.raises(NotInAlphabet):
        kac_walton_dimension(tw("A", 3, "identity"), 1, (0, 0, 0),
                             (0, 0, 0), (0, 0, 0))
    data = tw("A", 3, "diagram2")
    with pytest.raises(NotInAlphabet):
        kac_walton_dimension(data, 1, (0, 1), (0, 0), (0, 0, 0))


def test_euler_report_vacuum():
    data = tw("A", 3, "diagram2")
    text = euler_characteristic_report(data, 1, (0, 0), (0, 0), (0, 0, 0))
    assert "length parity 0: +1" in text
    assert "length parity 1: +0" in text
    assert "total: 1" in text


def test_euler_report_matches_dimension():
    data = tw("D", 4, "diagram2")
    alphabet = weight_alphabet(data, 1).members
    for lam in alphabet:
        for nu in ambient_alphabet(data, 1):
            r3 = (data, 1, lam, lam, nu)
            total, _ = kac_walton_dimension(*r3)
            text = euler_characteristic_report(*r3)
            assert f"total: {total}" in text
