import dataclasses
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from twistblocks import (InconsistentRamification,
                         IntegralityError, NotInAlphabet, UnstableInput,
                         ambient_alphabet,
                         build_root_datum, build_twist, classical_verlinde,
                         factorized_dimension, fusion_coefficient,
                         general_dimension,
                         riemann_hurwitz_genus, twisted_three_point,
                         weight_alphabet)
from twistblocks.dims import (_WEIGHTSUM_DIM_CAP, _Characters, _PointTable, _finalize,
                             _fsum, _point_sum, _ratio, _table)
from oracles import (STANDARD_ROWS, roots_by_reflection, signed_orbit_bfs,
                     sl2_verlinde)

A1 = build_root_datum("A", 1)


def tw(t, r, kind):
    return build_twist(build_root_datum(t, r), kind)


NONTRIVIAL_ROWS = [row for row in STANDARD_ROWS]


# -- classical formula -------------------------------------------------------

def test_classical_sl2_examples():
    assert classical_verlinde(A1, 1, 0, [(1,), (1,), (0,)]).value == 1
    assert classical_verlinde(A1, 1, 0, [(1,), (1,), (1,)]).value == 0
    assert classical_verlinde(A1, 1, 0, [(0,), (0,), (0,)]).value == 1


def test_classical_matches_sl2_oracle():
    for c in range(1, 6):
        weights = [(k,) for k in range(c + 1)]
        for g in range(3):
            for s in range(0, 5):
                if g == 0 and s < 3:
                    continue
                for combo in itertools.combinations_with_replacement(weights, s):
                    got = classical_verlinde(A1, c, g, combo).value
                    want = sl2_verlinde(c, g, [w[0] for w in combo])
                    assert got == want, (c, g, combo)


def test_classical_vacuum_and_errors():
    for rd in (A1, build_root_datum("A", 2), build_root_datum("C", 2)):
        z = tuple([0] * rd.rank)
        assert classical_verlinde(rd, 1, 0, [z, z, z]).value == 1
    with pytest.raises(UnstableInput):
        classical_verlinde(A1, 1, 0, [(1,), (1,)])
    with pytest.raises(NotInAlphabet):
        classical_verlinde(A1, 1, 0, [(2,), (0,), (0,)])


def test_classical_genus_one_counts_alphabet():
    # N_1() = |D_c|
    for rd in (A1, build_root_datum("A", 2), build_root_datum("G", 2)):
        data = build_twist(rd, "identity")
        for c in (1, 2):
            assert classical_verlinde(rd, c, 1, []).value == \
                len(weight_alphabet(data, c))


# -- orthogonality -----------------------------------------------------------

def test_untwisted_orthogonality_both_forms():
    # sum over points of chi_nu chi_{nu'*} Delta / |T_c| = delta, and the
    # dual relation summing over weights at fixed points (Eq. 48 style)
    for (t, r) in [("A", 1), ("A", 2), ("C", 2)]:
        rd = build_root_datum(t, r)
        data = build_twist(rd, "identity")
        for c in (1, 2, 3):
            table = _table(data, c)
            enum, chi, delta = table.enum, table.fixed.char, table.ambient.delta
            dc = ambient_alphabet(data, c)
            for nu in dc:
                for nup in dc:
                    dual = rd.dual_weight(nup)
                    s = sum(x * y * d for x, y, d in zip(chi(nu), chi(dual), delta))
                    s /= enum.order_T
                    assert abs(s - (1.0 if nu == nup else 0.0)) < 1e-8
            npts = len(enum.points)
            for pt in range(npts):
                for pt2 in range(npts):
                    s = sum(chi(nu)[pt2] * chi(rd.dual_weight(nu))[pt] * delta[pt]
                            for nu in dc)
                    s /= enum.order_T
                    assert abs(s - (1.0 if pt == pt2 else 0.0)) < 1e-8


def test_twisted_orthogonality_c0_is_delta():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        for c in (1, 2):
            alphabet = weight_alphabet(data, c).members
            for lam in alphabet:
                for mu in alphabet:
                    z = tuple([0] * data.fixed.rank)
                    got = fusion_coefficient(data, c, lam, mu, z).value
                    assert got == (1 if lam == mu else 0), (t, r, kind, c, lam, mu)


# -- twisted three point -----------------------------------------------------

def test_three_point_vacuum_is_one():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        z = tuple([0] * data.fixed.rank)
        za = tuple([0] * r)
        res = twisted_three_point(data, 1, z, z, za)
        assert res.value == 1
        assert res.residual < 1e-10


def test_three_point_vacuum_nu_gives_delta():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        za = tuple([0] * r)
        for c in (1, 2):
            alphabet = weight_alphabet(data, c).members
            for lam in alphabet:
                for mu in alphabet:
                    got = twisted_three_point(data, c, lam, mu, za).value
                    assert got == (1 if lam == mu else 0)


def test_three_point_symmetric_in_lam_mu():
    for (t, r, kind) in NONTRIVIAL_ROWS[:3]:
        data = tw(t, r, kind)
        c = 2
        alphabet = weight_alphabet(data, c).members
        amb = ambient_alphabet(data, c)
        for lam in alphabet:
            for mu in alphabet:
                for nu in amb[:4]:
                    a = twisted_three_point(data, c, lam, mu, nu).value
                    b = twisted_three_point(data, c, mu, lam, nu).value
                    assert a == b


def test_three_point_membership_errors():
    data = tw("A", 3, "diagram2")
    with pytest.raises(NotInAlphabet):
        twisted_three_point(data, 1, (0, 1), (0, 0), (0, 0, 0))
    with pytest.raises(NotInAlphabet):
        twisted_three_point(data, 1, (0, 0), (0, 0), (1, 1, 0))
    ident = tw("A", 3, "identity")
    with pytest.raises(NotInAlphabet):
        twisted_three_point(ident, 1, (0, 0, 0), (0, 0, 0), (0, 0, 0))


# -- fusion ring -------------------------------------------------------------

def test_fusion_unit_law():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        c = 2
        z = tuple([0] * data.fixed.rank)
        for lam in weight_alphabet(data, c):
            for eta in weight_alphabet(data, c):
                got = fusion_coefficient(data, c, lam, z, eta).value
                assert got == (1 if lam == eta else 0)


def test_fusion_symmetry_and_integrality():
    # coefficients are exact integers and symmetric in (lam, mu); at c = 2
    # the trace ring can produce honest negative entries
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        c = 2
        alphabet = weight_alphabet(data, c).members
        for lam in alphabet:
            for mu in alphabet:
                for eta in alphabet:
                    res = fusion_coefficient(data, c, lam, mu, eta)
                    res2 = fusion_coefficient(data, c, mu, lam, eta)
                    assert res.value == res2.value
                    assert res.residual < 1e-5


def test_fusion_nonnegative_at_level_one():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        alphabet = weight_alphabet(data, 1).members
        for lam in alphabet:
            for mu in alphabet:
                for eta in alphabet:
                    assert fusion_coefficient(data, 1, lam, mu, eta).value >= 0


def test_fusion_associativity_exhaustive_level_one():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        c = 1
        alphabet = weight_alphabet(data, c).members

        def coeff(a, b, e):
            return fusion_coefficient(data, c, a, b, e).value

        for lam in alphabet:
            for mu in alphabet:
                for nu in alphabet:
                    for kap in alphabet:
                        lhs = sum(coeff(lam, mu, eta) * coeff(eta, nu, kap)
                                  for eta in alphabet)
                        rhs = sum(coeff(mu, nu, eta) * coeff(lam, eta, kap)
                                  for eta in alphabet)
                        assert lhs == rhs


# -- general formula and factorization ---------------------------------------

def test_general_genus_one_example():
    data = tw("A", 1, "identity")
    assert general_dimension(data, 1, 1, (), ()).value == 2


def test_general_reduces_to_classical():
    for (t, r) in [("A", 1), ("A", 2), ("C", 2)]:
        rd = build_root_datum(t, r)
        data = build_twist(rd, "identity")
        c = 2
        dc = ambient_alphabet(data, c)
        for g in (0, 1, 2):
            for mus in itertools.combinations_with_replacement(dc[:3], 3):
                assert general_dimension(data, c, g, (), mus).value == \
                    classical_verlinde(rd, c, g, mus).value


def test_general_two_point_cover_is_delta():
    data = tw("A", 3, "diagram2")
    for lam in weight_alphabet(data, 1):
        for mu in weight_alphabet(data, 1):
            assert general_dimension(data, 1, 0, (lam, mu), ()).value == \
                (1 if lam == mu else 0)


def test_factorization_identity_grid():
    # acceptance criterion 2 runs the full (A3, diagram2) c=1 grid; here the
    # identity is checked across the other twists and at level 2
    cases = [("A", 3, "diagram2", 1), ("A", 5, "diagram2", 1),
             ("A", 4, "standard4", 2), ("D", 4, "diagram2", 1),
             ("D", 4, "diagram3", 2), ("E", 6, "diagram2", 1),
             ("A", 3, "diagram2", 2)]
    for (t, r, kind, c) in cases:
        data = tw(t, r, kind)
        alphabet = weight_alphabet(data, c).members
        amb = ambient_alphabet(data, c)
        for gbar in (0, 1, 2):
            for a in (1, 2, 3):
                lam_pool = list(itertools.product(alphabet, repeat=2 * a))
                for lams in lam_pool[:6] + lam_pool[-2:]:
                    for mus in ([], [amb[-1]]):
                        args = (data, c, gbar, lams, tuple(mus))
                        assert general_dimension(*args).value == \
                            factorized_dimension(*args).value, (t, r, kind, c,
                                                                gbar, lams, mus)


def test_factorization_four_pairs():
    # 35^4 = 1500625 tuples of gluing weights: out of reach for a sum over
    # tuples, one point sum with four glued columns for factorization
    args = (tw("A", 4, "standard4"), 3, 0,
            ((0, 0), (1, 0), (0, 1), (0, 0), (1, 0), (0, 0), (0, 0), (1, 0)),
            ((0, 0, 0, 3),))
    assert general_dimension(*args).value == factorized_dimension(*args).value \
        == 1120000


def test_factorized_residual_covers_its_inputs():
    # the rounded three-point numbers are inputs of the glued sum: their
    # residuals are part of the reported one (here they are its largest part)
    for t, r, kind in (("A", 3, "diagram2"), ("D", 4, "diagram3")):
        data = tw(t, r, kind)
        lam = weight_alphabet(data, 2).members[-1]
        inputs = [twisted_three_point(data, 2, lam, lam, nu).residual
                  for nu in ambient_alphabet(data, 2)]
        assert factorized_dimension(data, 2, 1, (lam, lam), ()).residual \
            >= max(inputs) > 0


def test_factorized_empty_product_is_classical():
    data = tw("A", 3, "diagram2")
    args = (data, 1, 1, (), ((1, 0, 0),))
    rd = data.ambient
    assert factorized_dimension(*args).value == \
        classical_verlinde(rd, 1, 1, [(1, 0, 0)]).value
    assert general_dimension(*args).value == factorized_dimension(*args).value


def test_curve_request_stability():
    data = tw("A", 3, "diagram2")
    with pytest.raises(UnstableInput):
        general_dimension(data, 1, 0, (), ((0, 0, 0),))
    with pytest.raises(NotInAlphabet):
        general_dimension(tw("A", 3, "identity"), 1, 0, ((0, 0), (0, 0)), ())


def test_dimension_results_are_clean_integers():
    data = tw("D", 4, "diagram2")
    c = 2
    alphabet = weight_alphabet(data, c).members
    amb = ambient_alphabet(data, c)
    for lam in alphabet:
        for nu in amb[:5]:
            res = twisted_three_point(data, c, lam, lam, nu)
            assert res.value >= 0
            assert res.residual < 1e-5
            assert abs(res.raw.imag) < 1e-7


def test_float_overflow_is_an_integrality_error():
    # |T_c|^{g-1} = 6^599 exceeds the float range although N = 2^600 does not;
    # at level 10 a term Delta^{-599} overflows first
    for c in (1, 10):
        with pytest.raises(IntegralityError, match="float range"):
            classical_verlinde(A1, c, 600, [])
    data = tw("A", 3, "diagram2")
    for lam in ((), ((0, 0), (0, 0))):
        for formula in (general_dimension, factorized_dimension):
            with pytest.raises(IntegralityError, match="float range"):
                formula(data, 2, 300, lam, ())
    for raw in (math.inf, complex(math.nan, 0.0), complex(1.0, math.inf)):
        with pytest.raises(IntegralityError, match="not finite"):
            _finalize(raw, "overflowed sum")


# Known failures of the float point sum: roundoff pushes the imaginary part of
# each raw sum past the 1e-7 guard.  An exact point sum must answer them, and
# strict xfail then reports the pass until the markers go.
_FLOAT_GUARD = pytest.mark.xfail(strict=True, raises=IntegralityError,
                                 reason="float point sum fails the imaginary-part guard")


@_FLOAT_GUARD
@pytest.mark.parametrize("formula", [general_dimension, factorized_dimension])
def test_d4_triality_genus_two_curve_is_an_integer(formula):
    res = formula(tw("D", 4, "diagram3"), 3, 2, ((0, 1),) + ((0, 0),) * 5,
                  ((0, 0, 1, 2),))
    assert res.value >= 0
    assert res.residual < 1e-5


@_FLOAT_GUARD
def test_g2_level_120_genus_one_is_an_integer():
    res = classical_verlinde(build_root_datum("G", 2), 120, 1, [(1, 0), (0, 1), (1, 1)])
    assert res.value >= 0
    assert res.residual < 1e-5


def test_lattice_factor_is_the_rounded_rational():
    # |T_c|^k / |T_c^sigma|^a as an int ratio is the float of the exact
    # rational, also where both powers are far past the float range
    rng = random.Random(29)
    past = 0
    for _ in range(400):
        t, ts = rng.randrange(2, 10 ** 12), rng.randrange(2, 10 ** 12)
        k, a = rng.randrange(0, 40), rng.randrange(0, 40)
        try:
            want = float(Fraction(t) ** k / Fraction(ts) ** a)
        except OverflowError:
            past += 1
            with pytest.raises(IntegralityError, match="float range"):
                _ratio(t ** k, ts ** a, "factor")
        else:
            assert _ratio(t ** k, ts ** a, "factor") == want, (t, ts, k, a)
    assert 0 < past < 400


def test_point_table_builds_ambient_exponents_when_read():
    # fusion coefficients and classical sums read no ambient character
    data = tw("A", 3, "diagram2")
    table = _PointTable(data, 2)
    table.fixed.char((1, 0))
    table.fixed.delta
    assert "ambient" not in vars(table)
    chi = table.ambient.char((1, 0, 0))
    assert "ambient" in vars(table)
    assert chi == _table(data, 2).ambient.char((1, 0, 0))


def _reversed_table(data, c):
    """The point table of (data, c) with its points in reverse order."""
    table = _PointTable(data, c)
    table.enum = dataclasses.replace(table.enum, points=table.enum.points[::-1])
    table.fixed = _Characters(data.fixed, table.enum.points, 0)
    return table


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_point_sum_does_not_depend_on_term_order():
    # each term is the same product at its point whatever the order, and the
    # sum is correctly rounded, so reversing the points (or a glued column's
    # weights) leaves every raw value bit for bit as it was
    data = tw("A", 3, "diagram2")
    table, rev = _table(data, 4), _reversed_table(data, 4)
    assert [rev.fixed.char(lam)[::-1] for lam in ((0, 0), (1, 0))] == \
        [table.fixed.char(lam) for lam in ((0, 0), (1, 0))]
    alphabet = weight_alphabet(data, 4).members
    for lam, mu, eta in itertools.product(alphabet, repeat=3):
        args = dict(fixed=(lam, mu, eta), a=1)
        assert _bits(_point_sum(rev, **args)) == _bits(_point_sum(table, **args)), \
            (lam, mu, eta)
    amb = ambient_alphabet(data, 4)
    glued = [[(k % 3 - 1, lam) for k, lam in enumerate(alphabet)]]
    for nu in amb:
        args = dict(fixed=alphabet[:2], ambient=(nu,), a=1, dexp=1)
        assert _bits(_point_sum(rev, **args)) == _bits(_point_sum(table, **args)), nu
        args = dict(ambient=(nu,), glued=glued, dexp=-1)
        want = _bits(_point_sum(table, **args))
        assert _bits(_point_sum(rev, **args)) == want, nu
        assert _bits(_point_sum(table, ambient=(nu,), glued=[glued[0][::-1]],
                                dexp=-1)) == want, nu


def test_point_sum_past_the_float_range_is_an_integrality_error():
    assert _fsum([1 + 2j, 3 - 1j]) == 4 + 1j
    for values in ([complex(1e308, 0)] * 2, [complex(0, math.inf), complex(0, -math.inf)]):
        with pytest.raises(IntegralityError, match="float range"):
            _fsum(values)


def test_sigma_c_points_are_regular_for_the_ambient_algebra():
    # no root of g takes an integral value at a point of Sigma_c, so the
    # ambient Weyl quotient and Delta never meet a singular point; the
    # roots come from the Cartan-matrix search, the ambient exponents from
    # y_g = R^T y_fixed in Fractions
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        rmat = data.restriction_matrix.tolist()
        roots = roots_by_reflection(data.ambient.cartan)
        for c in (1, 2, 3):
            table = _PointTable(data, c)
            for y, yg in zip(table.enum.points, table.ambient.ys):
                expect = [sum(Fraction(rmat[i][k] * y.num[i], y.den)
                              for i in range(len(rmat))) for k in range(r)]
                assert [Fraction(x, yg.den) for x in yg.num] == expect
                for root in roots:
                    pairing = sum(a * v for a, v in zip(root, expect))
                    assert pairing.denominator != 1, (t, r, kind, c, y, root)


def _phase_count_sum(multiset, y):
    """sum of m * e^{2 pi i (v . y.num) / y.den} over {v: m}, the phases
    counted per residue in plain ints and finished by one fsum per part."""
    counts = [0] * y.den
    for v, m in multiset.items():
        counts[sum(map(operator.mul, v, y.num)) % y.den] += m
    table = np.exp(2j * np.pi * np.arange(y.den) / y.den)
    return complex(math.fsum(c * z for c, z in zip(counts, table.real)),
                   math.fsum(c * z for c, z in zip(counts, table.imag)))


def _alternant_reference(rd, vec, ys):
    orbit = signed_orbit_bfs(rd.cartan, vec)
    return [_phase_count_sum(orbit, y) for y in ys]


def _quotient_reference(rd, lam, ys, weyl_den):
    num = _alternant_reference(rd, tuple(x + 1 for x in lam), ys)
    return [n / d for n, d in zip(num, weyl_den)]


IDENTITY_ROWS = (("A", 1, "identity"), ("A", 2, "identity"), ("B", 2, "identity"),
                 ("C", 3, "identity"), ("G", 2, "identity"), ("D", 4, "identity"))


def test_batched_characters_match_per_point_reference():
    # one batched call per table gives, bit for bit, each point's own sum
    for (t, r, kind) in STANDARD_ROWS + IDENTITY_ROWS:
        data = tw(t, r, kind)
        fixed, amb = data.fixed, data.ambient
        for c in (1, 2, 3):
            table = _PointTable(data, c)
            weyl_den = _alternant_reference(fixed, fixed.rho, table.fixed.ys)
            for lam in weight_alphabet(data, c).members:
                assert table.fixed.char(lam) == _quotient_reference(
                    fixed, lam, table.fixed.ys, weyl_den)
            for nu in ambient_alphabet(data, c):
                # above the cap only E6 weights at c = 3, beyond the search
                # oracle; the next test covers the ambient quotient
                if amb.weyl_dimension(nu) <= _WEIGHTSUM_DIM_CAP:
                    assert table.ambient.char(nu) == [
                        _phase_count_sum(amb.weight_system(nu), y)
                        for y in table.ambient.ys]


def test_ambient_quotient_characters_match_per_point_reference(monkeypatch):
    # every ambient character through the quotient, where the oracle reaches
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        amb = data.ambient
        if sum(len(rows) for rows, _ in amb._orbit_chunks(amb.rho)) > 1920:
            continue
        for c in (1, 2):
            table = _PointTable(data, c)
            monkeypatch.setattr(table.ambient, "weight_cap", 0)
            weyl_den = _alternant_reference(amb, amb.rho, table.ambient.ys)
            for nu in ambient_alphabet(data, c):
                assert table.ambient.char(nu) == _quotient_reference(
                    amb, nu, table.ambient.ys, weyl_den)


# -- Riemann-Hurwitz ---------------------------------------------------------

def test_riemann_hurwitz_examples():
    assert riemann_hurwitz_genus(2, 0, [2, 2]) == 0
    assert riemann_hurwitz_genus(3, 0, [3, 3, 3]) == 1
    assert riemann_hurwitz_genus(1, 7, []) == 7


def test_riemann_hurwitz_errors():
    with pytest.raises(InconsistentRamification):
        riemann_hurwitz_genus(2, 0, [3])          # order does not divide
    with pytest.raises(InconsistentRamification):
        riemann_hurwitz_genus(2, 0, [2])          # odd 2g - 2
    with pytest.raises(InconsistentRamification):
        riemann_hurwitz_genus(2, 0, [])           # negative genus
    with pytest.raises(InconsistentRamification):
        riemann_hurwitz_genus(0, 1, [])
