import math
import random
from fractions import Fraction

import pytest

from twistblocks import (IllegalPair, NonDominant, RootDatum, branch_to_fixed,
                         build_root_datum, build_twist, enumerate_sigma_c,
                         weight_alphabet)
from twistblocks.twist import _branch_uncached, bounded_count
from oracles import (FIXED_TABLE, STANDARD_ROWS, TWISTED_LEVEL_MARKS,
                     coweight_point, form_value, level_alphabet_size,
                     rational_inverse, weight_sum)


def tw(t, r, kind):
    return build_twist(build_root_datum(t, r), kind)


def test_fixed_algebra_table():
    for (t, r, kind), (ft, fr) in FIXED_TABLE.items():
        data = tw(t, r, kind)
        assert (data.fixed.lie_type, data.fixed.rank) == (ft, fr), (t, r, kind)


def test_twist_examples():
    assert tw("A", 3, "diagram2").fixed.lie_type == "C"
    assert tw("D", 4, "diagram3").fixed.lie_type == "G"
    a4 = tw("A", 4, "standard4")
    assert (a4.fixed.lie_type, a4.fixed.rank) == ("C", 2)


def test_illegal_pairs():
    cases = [("A", 1, "diagram2"), ("A", 3, "diagram3"), ("A", 4, "diagram3"),
             ("D", 4, "standard4"), ("D", 3, "diagram2"), ("B", 2, "diagram2"),
             ("C", 3, "diagram2"), ("E", 6, "diagram3"), ("G", 2, "diagram2"),
             ("A", 3, "standard4")]
    for t, r, kind in cases:
        with pytest.raises(IllegalPair):
            tw(t, r, kind)
    with pytest.raises(IllegalPair, match="unknown twist kind"):
        tw("A", 3, "frobenius")
    # A_2n is computed only through its order-4 standard twist
    for r in (2, 4, 6):
        with pytest.raises(IllegalPair, match="standard4"):
            tw("A", r, "diagram2")
    # D6 folds to B5, which the supported table caps away
    from twistblocks import UnsupportedType
    with pytest.raises(UnsupportedType):
        tw("D", 6, "diagram2")


def test_level_marks_against_frozen_table():
    for (t, r, kind), marks in TWISTED_LEVEL_MARKS.items():
        data = tw(t, r, kind)
        assert data.level_marks == marks, (t, r, kind)
        assert sum(marks) == data.ambient.dual_coxeter - 1


def test_theta_check_direction():
    # the level marks are the simple-coroot coordinates of theta_check_sigma,
    # the coroot of theta_sigma: under the normalized form, its weight
    # coordinates sum_i m_i cartan[i][j] are 2 theta_sigma / <theta_sigma, theta_sigma>
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        fixed = data.fixed
        nrm = form_value(fixed.cartan, data.theta_sigma, data.theta_sigma)
        for j in range(fixed.rank):
            alpha_j = tuple(int(x) for x in fixed.cartan[:, j])
            expected = 2 * form_value(fixed.cartan, alpha_j, data.theta_sigma) / nrm
            theta_check_j = sum(m * int(fixed.cartan[i][j])
                                for i, m in enumerate(data.level_marks))
            assert Fraction(theta_check_j) == expected
        # and the alcove identity (rho_sigma, theta_check) = h-check - 1
        assert sum(data.level_marks) == data.ambient.dual_coxeter - 1


def test_restriction_matrix_shapes():
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        assert data.restriction_matrix.shape == (data.fixed.rank, r)
    ident = tw("A", 3, "identity")
    assert (ident.restriction_matrix == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).all()


def test_branch_examples():
    a3 = tw("A", 3, "diagram2")
    assert branch_to_fixed(a3, (0, 0, 0)) == {(0, 0): 1}
    assert branch_to_fixed(a3, (1, 0, 0)) == {(1, 0): 1}
    assert branch_to_fixed(a3, (0, 1, 0)) == {(0, 1): 1, (0, 0): 1}
    with pytest.raises(NonDominant):
        branch_to_fixed(a3, (1, -1, 0))


def test_branch_dimension_bookkeeping():
    rng = random.Random(5)
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        amb = data.ambient
        tried = 0
        seen = set()
        while tried < 6:
            nu = tuple(rng.randrange(0, 2) for _ in range(r))
            if nu in seen:
                continue
            seen.add(nu)
            if amb.weyl_dimension(nu) > 1000:
                continue
            tried += 1
            decomp = branch_to_fixed(data, nu)
            total = sum(m * data.fixed.weyl_dimension(eta)
                        for eta, m in decomp.items())
            assert total == amb.weyl_dimension(nu), (t, r, kind, nu)
            assert all(m > 0 for m in decomp.values())


def test_branch_character_consistency():
    rng = random.Random(9)
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        fixed, amb = data.fixed, data.ambient
        # a random regular point of the fixed Cartan
        while True:
            q = data.dual_coxeter + rng.randrange(2, 7)
            xi = tuple(Fraction(rng.randrange(1, 3), q) for _ in range(fixed.rank))
            if fixed.point_is_regular(fixed.exponent_vector(xi)):
                break
        y_fixed = fixed.exponent_vector(xi)
        for nu in [tuple(int(i == j) for j in range(r)) for i in range(r)]:
            if amb.weyl_dimension(nu) > 1000:
                continue
            y_amb = data.ambient_exponents(y_fixed)
            lhs, = weight_sum(amb.weight_system(nu), [y_amb])
            rhs = sum(m * weight_sum(fixed.weight_system(eta), [y_fixed])[0]
                      for eta, m in branch_to_fixed(data, nu).items())
            assert abs(lhs - rhs) < 1e-8


def _check_exponents(rd, got, expect):
    """got (integers over one denominator) against exact Fractions."""
    assert got.den == math.lcm(*(v.denominator for v in expect))
    assert math.gcd(got.den, *got.num) == 1
    assert [Fraction(x, got.den) for x in got.num] == expect
    pairings = [sum(int(a) * v for a, v in zip(r, expect)) for r in rd.positive_roots]
    assert [Fraction(p, got.den) for p in rd.root_pairings(got)] == pairings
    assert rd.point_is_regular(got) == all(p.denominator != 1 for p in pairings)


def test_exponents_are_integers_over_least_denominator():
    rng = random.Random(41)
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        fixed, amb = data.fixed, data.ambient
        rmat = data.restriction_matrix.tolist()
        inv = rational_inverse(fixed.cartan)
        points = [coweight_point(fixed.cartan, y) for c in (1, 2, 3)
                  for y in enumerate_sigma_c(data, c).points]
        for _ in range(40):
            q = rng.randrange(1, 3 * data.dual_coxeter)
            points.append(tuple(Fraction(rng.randrange(-q, 2 * q), q)
                                for _ in range(fixed.rank)))
        for xi in points:
            yf = [sum(inv[j][i] * xi[j] for j in range(fixed.rank))
                  for i in range(fixed.rank)]
            ya = [sum(rmat[k][i] * yf[k] for k in range(fixed.rank)) for i in range(r)]
            _check_exponents(fixed, fixed.exponent_vector(xi), yf)
            # the same point as integer numerators over one denominator
            q = math.lcm(*(x.denominator for x in xi))
            assert fixed.exponent_vector([int(x * q) for x in xi], q) \
                == fixed.exponent_vector(xi)
            _check_exponents(amb, data.ambient_exponents(fixed.exponent_vector(xi)), ya)


def test_branch_aborts_on_corrupted_character(monkeypatch):
    # every single-weight corruption of V(nu) whose restriction is not W-fixed
    # makes the restricted character non-invariant, so no peel can finish
    for (t, r, kind), nu in ((("A", 3, "diagram2"), (0, 1, 0)),
                             (("D", 4, "diagram3"), (1, 0, 0, 0))):
        data = tw(t, r, kind)
        amb = data.ambient
        true_ws = amb.weight_system(nu)
        rmat = data.restriction_matrix
        moved = [w for w in true_ws if (rmat @ w).any()]
        assert moved
        for w in moved:
            lowered = dict(true_ws)
            lowered[w] -= 1
            dropped = {k: m for k, m in true_ws.items() if k != w}
            for corrupted in (lowered, dropped):
                monkeypatch.setattr(amb, "weight_system", lambda lam: corrupted)
                with pytest.raises(AssertionError, match="branching"):
                    _branch_uncached(data, nu)
        monkeypatch.undo()
        assert _branch_uncached(data, nu) == branch_to_fixed(data, nu)


def test_build_twist_is_one_instance_per_ambient_instance():
    shared = build_root_datum("A", 3)
    private = RootDatum("A", 3)
    for kind in ("identity", "diagram2"):
        data = build_twist(private, kind)
        assert data.ambient is private
        assert build_twist(private, kind) is data
        assert tw("A", 3, kind).ambient is shared
        assert tw("A", 3, kind) is not data


def test_alphabet_is_a_tuple_equal_to_its_members():
    for (t, r, kind) in STANDARD_ROWS:
        alphabet = weight_alphabet(tw(t, r, kind), 2)
        assert isinstance(alphabet, tuple)
        assert alphabet == alphabet.members == tuple(alphabet)


def test_memoized_alphabet_is_read_only():
    # every caller shares the memoized alphabet, so none may empty it
    data = tw("A", 3, "diagram2")
    alphabet = weight_alphabet(data, 2)
    with pytest.raises(AttributeError):
        alphabet.members = ()
    assert weight_alphabet(data, 2) is alphabet
    assert alphabet.members == ((0, 0), (0, 1), (1, 0), (2, 0))


def test_alphabet_examples():
    a1 = tw("A", 1, "identity")
    assert weight_alphabet(a1, 2).members == ((0,), (1,), (2,))
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        assert weight_alphabet(data, 0).members == (tuple([0] * data.fixed.rank),)


def test_alphabet_brute_force_oracle():
    # enumerate all dominant C2 weights in a box and filter by the frozen marks
    data = tw("A", 3, "diagram2")
    marks = TWISTED_LEVEL_MARKS[("A", 3, "diagram2")]
    for c in (1, 2, 3):
        expected = sorted(
            (a, b) for a in range(10) for b in range(10)
            if marks[0] * a + marks[1] * b <= c)
        assert sorted(weight_alphabet(data, c).members) == expected


def test_alphabet_self_duality():
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        for lam in weight_alphabet(data, 2):
            assert data.fixed.dual_weight(lam) == lam


def test_a2n_is_computed_through_standard4():
    # (A4, diagram2) with fixed B2 is refused where the twist is built; the
    # order-4 row restricts to C2 and has an alphabet and its torus points
    with pytest.raises(IllegalPair, match="standard4"):
        tw("A", 4, "diagram2")
    data = tw("A", 4, "standard4")
    decomp = branch_to_fixed(data, (1, 0, 0, 0))
    total = sum(m * data.fixed.weyl_dimension(eta) for eta, m in decomp.items())
    assert total == 5
    assert len(weight_alphabet(data, 1)) == len(enumerate_sigma_c(data, 1).points)


@pytest.mark.parametrize("marks", [(1,), (2,), (2, 1), (1, 1, 1), (1, 2, 1, 1),
                                   (1, 2, 2, 3, 2, 1)])
def test_bounded_count_counts_without_building(marks):
    for budget in range(10):
        size = level_alphabet_size(marks, budget)
        assert bounded_count(marks, budget, 10 ** 9) == size, budget
        # past the cap, only cap + 1 is reported
        assert bounded_count(marks, budget, 5) == min(size, 6), budget
