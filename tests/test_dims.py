import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import isprime, n_order

from twistblocks import (InconsistentRamification,
                         IntegralityError, NotInAlphabet, RootDatum, UnstableInput,
                         ambient_alphabet,
                         build_root_datum, build_twist, classical_verlinde,
                         factorized_dimension, fusion_coefficient,
                         general_dimension, kac_walton_dimension,
                         riemann_hurwitz_genus, twisted_three_point,
                         weight_alphabet)
from twistblocks import dims
from twistblocks.dims import (_Characters, _PointTable, _modulus, _point_sum, _primes,
                             _table)
from oracles import (STANDARD_ROWS, roots_by_reflection, signed_orbit_bfs,
                     sl2_verlinde)

A1 = build_root_datum("A", 1)


def tw(t, r, kind):
    return build_twist(build_root_datum(t, r), kind)


NONTRIVIAL_ROWS = [row for row in STANDARD_ROWS]


# -- classical formula -------------------------------------------------------

def test_classical_sl2_examples():
    assert classical_verlinde(A1, 1, 0, [(1,), (1,), (0,)]) == 1
    assert classical_verlinde(A1, 1, 0, [(1,), (1,), (1,)]) == 0
    assert classical_verlinde(A1, 1, 0, [(0,), (0,), (0,)]) == 1


def test_classical_matches_sl2_oracle():
    for c in range(1, 6):
        weights = [(k,) for k in range(c + 1)]
        for g in range(3):
            for s in range(0, 5):
                if g == 0 and s < 3:
                    continue
                for combo in itertools.combinations_with_replacement(weights, s):
                    got = classical_verlinde(A1, c, g, combo)
                    want = sl2_verlinde(c, g, [w[0] for w in combo])
                    assert got == want, (c, g, combo)


def test_classical_vacuum_and_errors():
    for rd in (A1, build_root_datum("A", 2), build_root_datum("C", 2)):
        z = tuple([0] * rd.rank)
        assert classical_verlinde(rd, 1, 0, [z, z, z]) == 1
    with pytest.raises(UnstableInput):
        classical_verlinde(A1, 1, 0, [(1,), (1,)])
    with pytest.raises(NotInAlphabet):
        classical_verlinde(A1, 1, 0, [(2,), (0,), (0,)])


def test_classical_genus_one_counts_alphabet():
    # N_1() = |D_c|
    for rd in (A1, build_root_datum("A", 2), build_root_datum("G", 2)):
        data = build_twist(rd, "identity")
        for c in (1, 2):
            assert classical_verlinde(rd, c, 1, []) == \
                len(weight_alphabet(data, c))


# -- orthogonality -----------------------------------------------------------

def test_untwisted_orthogonality_both_forms():
    # sum over points of chi_nu chi_{nu'*} Delta = |T_c| delta, and the dual
    # relation summing over weights at fixed points (Eq. 48 style), exactly
    # in F_p for the first three primes of each table
    for (t, r) in [("A", 1), ("A", 2), ("C", 2)]:
        rd = build_root_datum(t, r)
        data = build_twist(rd, "identity")
        for c in (1, 2, 3):
            table = _table(data, c)
            primes = _primes(table.n, 3)
            p = primes[:, 0]
            unit = table.enum.order_T % p
            delta = table.ambient.power(1, 1, 3)
            dc = ambient_alphabet(data, c)
            chi = {nu: table.fixed.char(nu, 3) for nu in dc}
            dual = {nu: table.fixed.char(rd.dual_weight(nu), 3) for nu in dc}
            for nu in dc:
                for nup in dc:
                    s = (chi[nu] * dual[nup] % primes * delta % primes).sum(axis=1) % p
                    assert (s == (unit if nu == nup else 0)).all()
            npts = len(table.enum.points)
            for pt in range(npts):
                for pt2 in range(npts):
                    s = sum(chi[nu][:, pt2] * dual[nu][:, pt] % p * delta[:, pt] % p
                            for nu in dc) % p
                    assert (s == (unit if pt == pt2 else 0)).all()


def test_twisted_orthogonality_c0_is_delta():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        for c in (1, 2):
            alphabet = weight_alphabet(data, c).members
            for lam in alphabet:
                for mu in alphabet:
                    z = tuple([0] * data.fixed.rank)
                    got = fusion_coefficient(data, c, lam, mu, z)
                    assert got == (1 if lam == mu else 0), (t, r, kind, c, lam, mu)


# -- twisted three point -----------------------------------------------------

def test_three_point_vacuum_is_one():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        z = tuple([0] * data.fixed.rank)
        za = tuple([0] * r)
        res = twisted_three_point(data, 1, z, z, za)
        assert res == 1
        assert type(res) is int


def test_three_point_vacuum_nu_gives_delta():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        za = tuple([0] * r)
        for c in (1, 2):
            alphabet = weight_alphabet(data, c).members
            for lam in alphabet:
                for mu in alphabet:
                    got = twisted_three_point(data, c, lam, mu, za)
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
                    a = twisted_three_point(data, c, lam, mu, nu)
                    b = twisted_three_point(data, c, mu, lam, nu)
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
                got = fusion_coefficient(data, c, lam, z, eta)
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
                    assert res == res2
                    assert type(res) is int


def test_fusion_nonnegative_at_level_one():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        alphabet = weight_alphabet(data, 1).members
        for lam in alphabet:
            for mu in alphabet:
                for eta in alphabet:
                    assert fusion_coefficient(data, 1, lam, mu, eta) >= 0


def test_fusion_associativity_exhaustive_level_one():
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        c = 1
        alphabet = weight_alphabet(data, c).members

        def coeff(a, b, e):
            return fusion_coefficient(data, c, a, b, e)

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
    assert general_dimension(data, 1, 1, (), ()) == 2


def test_general_reduces_to_classical():
    for (t, r) in [("A", 1), ("A", 2), ("C", 2)]:
        rd = build_root_datum(t, r)
        data = build_twist(rd, "identity")
        c = 2
        dc = ambient_alphabet(data, c)
        for g in (0, 1, 2):
            for mus in itertools.combinations_with_replacement(dc[:3], 3):
                assert general_dimension(data, c, g, (), mus) == \
                    classical_verlinde(rd, c, g, mus)


def test_general_two_point_cover_is_delta():
    data = tw("A", 3, "diagram2")
    for lam in weight_alphabet(data, 1):
        for mu in weight_alphabet(data, 1):
            assert general_dimension(data, 1, 0, (lam, mu), ()) == \
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
                        assert general_dimension(*args) == \
                            factorized_dimension(*args), (t, r, kind, c,
                                                                gbar, lams, mus)


def test_factorization_four_pairs():
    # 35^4 = 1500625 tuples of gluing weights: out of reach for a sum over
    # tuples, one point sum with four glued columns for factorization
    args = (tw("A", 4, "standard4"), 3, 0,
            ((0, 0), (1, 0), (0, 1), (0, 0), (1, 0), (0, 0), (0, 0), (1, 0)),
            ((0, 0, 0, 3),))
    assert general_dimension(*args) == factorized_dimension(*args) \
        == 1120000


def test_factorized_empty_product_is_classical():
    data = tw("A", 3, "diagram2")
    args = (data, 1, 1, (), ((1, 0, 0),))
    rd = data.ambient
    assert factorized_dimension(*args) == \
        classical_verlinde(rd, 1, 1, [(1, 0, 0)])
    assert general_dimension(*args) == factorized_dimension(*args)


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
            assert type(res) is int and res >= 0


def test_sums_past_the_float_range_are_exact():
    # |T_c|^{g-1} = 6^599 and, at level 10, a term Delta^{-599} are far past
    # the float range; the lift from about 20 primes is exact there
    assert classical_verlinde(A1, 1, 600, []) == 2 ** 600
    assert classical_verlinde(A1, 10, 600, []) == sl2_verlinde(10, 600, [])
    data = tw("A", 3, "diagram2")
    for lam in ((), ((0, 0), (0, 0))):
        assert general_dimension(data, 2, 300, lam, ()) == \
            factorized_dimension(data, 2, 300, lam, ()) > 2 ** 1024


@pytest.mark.parametrize("formula", [general_dimension, factorized_dimension])
def test_d4_triality_genus_two_curve_is_an_integer(formula):
    res = formula(tw("D", 4, "diagram3"), 3, 2, ((0, 1),) + ((0, 0),) * 5,
                  ((0, 0, 1, 2),))
    assert res == 352346112
    assert type(res) is int


def test_g2_level_120_genus_one_is_an_integer():
    # 3721 points, some with Weyl denominators of size about 1e-5
    res = classical_verlinde(build_root_datum("G", 2), 120, 1, [(1, 0), (0, 1), (1, 1)])
    assert res == 987200
    assert type(res) is int


def test_classical_a1_matches_sl2_oracle_at_high_genus():
    # seeded draws with c <= 20, genus <= 10 and three weights; the first is
    # a zero dimension with a large alternating sum behind it
    rng = random.Random(7)
    draws = [(10, 8, (3, 9, 5))]
    for _ in range(220):
        c = rng.randint(1, 20)
        draws.append((c, rng.randint(0, 10), tuple(rng.randint(0, c) for _ in range(3))))
    for c, g, ws in draws:
        got = classical_verlinde(A1, c, g, [(w,) for w in ws])
        assert got == sl2_verlinde(c, g, list(ws)), (c, g, ws)
    assert classical_verlinde(A1, 10, 8, [(3,), (9,), (5,)]) == 0


def test_moduli_are_primes_with_an_element_of_exact_order_n():
    # checked with sympy: p prime, p = 1 (mod n), p < 2^31, and the powers
    # held are those of a g of multiplicative order exactly n
    ns = {_table(tw(t, r, kind), c).n for (t, r, kind) in STANDARD_ROWS + IDENTITY_ROWS
          for c in (1, 2, 3)}
    ns |= {_table(tw("G", 2, "identity"), 120).n, 2, 3, 4, 6}
    for n in sorted(ns):
        primes = [_modulus(n, i)[0] for i in range(4)]
        assert primes == sorted(primes, reverse=True) and len(set(primes)) == 4
        for i, p in enumerate(primes):
            powers = _modulus(n, i)[1].tolist()
            assert isprime(p) and p % n == 1 and p < 2 ** 31, (n, p)
            g = powers[1] if n > 1 else 1
            assert n_order(g, p) == n, (n, p, g)
            assert powers == [pow(g, j, p) for j in range(n)]


def test_a_lift_one_prime_short_fails_the_check_prime(monkeypatch):
    # genus 600 with no insertions: every term is positive, so the bound is
    # the value 2^600 itself, and one prime fewer cannot hold it
    table = _table(tw("A", 1, "identity"), 1)
    full = dims._lift_primes(table.n, math.log(2 ** 600))
    assert math.prod(_modulus(table.n, i)[0] for i in range(full - 1)) < 2 ** 601
    real = dims._lift_primes
    monkeypatch.setattr(dims, "_lift_primes", lambda n, log_bound: real(n, log_bound) - 1)
    with pytest.raises(IntegralityError, match="check prime"):
        classical_verlinde(A1, 1, 600, [])
    monkeypatch.undo()
    assert classical_verlinde(A1, 1, 600, []) == 2 ** 600


def test_lattice_factor_is_the_exact_rational():
    # prod b^e enters each F_p image as pow(b, e, p): with no columns the sum
    # is |Sigma_c| times the factor, exact also far past the float range
    table = _table(tw("A", 3, "diagram2"), 2)
    npts = len(table.enum.points)
    rng = random.Random(29)
    past = 0
    for _ in range(200):
        b, d = rng.randrange(2, 10 ** 12), rng.randrange(2, 10 ** 6)
        k = rng.randrange(0, 40)
        a = rng.randrange(0, k + 1)
        want = npts * b ** k * d ** (k - a)
        past += want > 2 ** 1024
        assert _point_sum(table, ((b * d, k), (d, -a))) == want, (b, d, k, a)
    assert 0 < past < 200


def test_point_sum_past_the_float_range_is_exact():
    # terms of size 10^400 add, and cancel, exactly: a glued column of the
    # vacuum is 3 at every point, one of chi - chi is 0
    table = _table(tw("A", 3, "diagram2"), 2)
    npts = len(table.enum.points)
    assert _point_sum(table, ()) == npts
    huge = ((10, 400),)
    assert _point_sum(table, huge, glued=[[(3, (0, 0))]]) == 3 * npts * 10 ** 400
    assert _point_sum(table, huge, glued=[[(1, (1, 0)), (-1, (1, 0))]]) == 0
    assert _point_sum(table, huge, fixed=[(0, 0)]) == npts * 10 ** 400


def test_point_table_builds_ambient_exponents_when_read():
    # fusion coefficients and classical sums read no ambient character
    data = tw("A", 3, "diagram2")
    table = _PointTable(data, 2)
    table.fixed.char((1, 0), 2)
    table.fixed.power(1, 1, 2)
    assert "ambient" not in vars(table)
    chi = table.ambient.char((1, 0, 0), 2)
    assert "ambient" in vars(table)
    assert np.array_equal(chi, _table(data, 2).ambient.char((1, 0, 0), 2))


def test_identity_point_table_holds_one_character_table():
    # R = I for the identity twist, so the ambient characters are the fixed
    # ones; a sum with Delta^(1-g), g != 1, gives what a second table gave
    for (t, r, c) in (("A", 2, 3), ("B", 3, 2), ("G", 2, 2)):
        ident = tw(t, r, "identity")
        table = _table(ident, c)
        assert table.ambient is table.fixed
        apart = _PointTable(ident, c)
        apart.ambient = _Characters(ident.ambient, [ident.ambient_exponents(y)
                                                    for y in apart.enum.points], apart.n)
        assert apart.ambient is not apart.fixed
        amb = ambient_alphabet(ident, c)
        for g in (0, 2, 3):
            factor = ((table.enum.order_T, g - 1),)
            for weights in (amb[:3], amb[-3:]):
                args = dict(fixed=weights, dexp=g - 1)
                assert _point_sum(table, factor, **args) == \
                    _point_sum(apart, factor, **args), (t, r, c, g, weights)


def _reversed_table(data, c):
    """The point table of (data, c) with its points in reverse order."""
    table = _PointTable(data, c)
    table.enum = table.enum._replace(points=table.enum.points[::-1])
    table.fixed = _Characters(data.fixed, table.enum.points, table.n)
    return table


def test_point_sum_does_not_depend_on_term_order():
    # each point's image is the same whatever the order, and the sum is an
    # exact integer, so reversing the points (or a glued column's weights)
    # leaves every value as it was
    data = tw("A", 3, "diagram2")
    table, rev = _table(data, 4), _reversed_table(data, 4)
    for lam in ((0, 0), (1, 0)):
        assert np.array_equal(rev.fixed.char(lam, 2)[:, ::-1], table.fixed.char(lam, 2))
    alphabet = weight_alphabet(data, 4).members
    three = ((table.enum.order_Tsigma, -1),)
    for lam, mu, eta in itertools.product(alphabet, repeat=3):
        args = dict(fixed=(lam, mu, eta), a=1)
        assert _point_sum(rev, three, **args) == _point_sum(table, three, **args), \
            (lam, mu, eta)
    curve = ((table.enum.order_T, 1), (table.enum.order_Tsigma, -1))
    for nu in ambient_alphabet(data, 4):
        args = dict(fixed=alphabet[:2], ambient=(nu,), a=1, dexp=1)
        assert _point_sum(rev, curve, **args) == _point_sum(table, curve, **args), nu
    # glued columns, on the classical table of the ambient algebra at genus 0
    ident = build_twist(data.ambient, "identity")
    table, rev = _table(ident, 2), _reversed_table(ident, 2)
    amb = ambient_alphabet(ident, 2)
    glued = [[(k % 3 - 1, nu) for k, nu in enumerate(amb)]]
    genus0 = ((table.enum.order_T, -1),)
    for nu in amb:
        args = dict(fixed=(nu, amb[1]), glued=glued, dexp=-1)
        want = _point_sum(table, genus0, **args)
        assert _point_sum(rev, genus0, **args) == want, nu
        assert _point_sum(table, genus0, fixed=(nu, amb[1]), glued=[glued[0][::-1]],
                          dexp=-1) == want, nu


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


def _counts(multiset, y):
    """The residue counts of sum m e^{2 pi i (v . y.num) / y.den} over
    {v: m}, in plain ints."""
    counts = [0] * y.den
    for v, m in multiset.items():
        counts[sum(map(operator.mul, v, y.num)) % y.den] += m
    return counts


def _images(multiset, ys, n, k, over=None):
    """Rows i < k of sum_r counts[r] g^{r n / y.den} mod p at each point y,
    (p, g) the i-th modulus of n and the counts those of the multiset, each
    entry divided by the one of over, if given."""
    counts = [_counts(multiset, y) for y in ys]
    out = []
    for i in range(k):
        p, pw = _modulus(n, i)
        row = [sum(m * int(pw[r * (n // y.den)]) for r, m in enumerate(cs)) % p
               for cs, y in zip(counts, ys)]
        if over is not None:
            row = [x * pow(d, -1, p) % p for x, d in zip(row, over[i])]
        out.append(row)
    return out


IDENTITY_ROWS = (("A", 1, "identity"), ("A", 2, "identity"), ("B", 2, "identity"),
                 ("C", 3, "identity"), ("G", 2, "identity"), ("D", 4, "identity"))

# the largest ambient representation whose weights the per-point oracle sums
_ORACLE_DIM_CAP = 4000


def test_batched_characters_match_per_point_reference():
    # one batched call per table gives each point's own residue counts, and
    # the table's F_p images are the images of those counts, a quotient's
    # over the image of rho's alternant: the root product
    # e^rho prod (1 - e^-alpha) the table divides by is that alternant
    for (t, r, kind) in STANDARD_ROWS + IDENTITY_ROWS:
        data = tw(t, r, kind)
        fixed, amb = data.fixed, data.ambient
        for c in (1, 2, 3):
            table = _PointTable(data, c)
            ys = table.fixed.ys
            weyl = _images(signed_orbit_bfs(fixed.cartan, fixed.rho), ys, table.n, 2)
            for lam in weight_alphabet(data, c).members:
                alternant = signed_orbit_bfs(fixed.cartan, [x + 1 for x in lam])
                got = fixed.character_at_exponents(lam, ys)
                assert [c.tolist() for c in got] == [_counts(alternant, y) for y in ys]
                assert table.fixed.char(lam, 2).tolist() == \
                    _images(alternant, ys, table.n, 2, over=weyl)
            for nu in ambient_alphabet(data, c):
                # the ambient quotient against its weight sum; above the cap
                # only E6 weights at c = 3, beyond the oracle; the next test
                # checks the ambient quotients against their alternants
                if amb.weyl_dimension(nu) <= _ORACLE_DIM_CAP:
                    assert table.ambient.char(nu, 2).tolist() == _images(
                        amb.weight_system(nu), table.ambient.ys, table.n, 2)


def test_ambient_quotient_characters_match_per_point_reference():
    # every ambient character is a quotient: checked where the oracle reaches
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        amb = data.ambient
        if sum(len(rows) for rows, _ in amb._orbit_chunks(amb.rho)) > 1920:
            continue
        for c in (1, 2):
            table = _PointTable(data, c)
            ys = table.ambient.ys
            weyl = _images(signed_orbit_bfs(amb.cartan, amb.rho), ys, table.n, 2)
            for nu in ambient_alphabet(data, c):
                alternant = signed_orbit_bfs(amb.cartan, [x + 1 for x in nu])
                assert table.ambient.char(nu, 2).tolist() == \
                    _images(alternant, ys, table.n, 2, over=weyl)


def test_point_sums_read_no_weight_system(monkeypatch):
    # the twisted Verlinde sum and Kac-Walton are the two sides of a
    # crosscheck; only Kac-Walton may read Freudenthal multiplicities, so a
    # fresh point table answers every row with weight systems refused
    rows = {}
    for t, r in (("A", 3), ("E", 6)):
        data = tw(t, r, "diagram2")
        members = weight_alphabet(data, 2).members
        rows[data] = [((lam, mu, nu), kac_walton_dimension(data, 2, lam, mu, nu)[0])
                      for lam in members for mu in members
                      for nu in ambient_alphabet(data, 2)]

    def refuse(*args):
        raise AssertionError("a point sum read a Freudenthal weight system")

    monkeypatch.setattr(RootDatum, "weight_system", refuse)
    monkeypatch.setattr(RootDatum, "_weight_system_uncached", refuse)
    for data, expected in rows.items():
        table = _PointTable(data, 2)
        factor = ((table.enum.order_Tsigma, -1),)
        got = [_point_sum(table, factor, fixed=(lam, mu), ambient=(nu,), a=1)
               for (lam, mu, nu), _ in expected]
        assert got == [kw for _, kw in expected], data
        assert "ambient" in vars(table)


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
