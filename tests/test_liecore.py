import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from sympy import Matrix

from twistblocks import (IntegralityError, NonDominant, RootDatum,
                         UnsupportedType, build_root_datum, build_twist,
                         enumerate_sigma_c)
from twistblocks.dims import _Characters
from twistblocks.liecore import _PHASE_BLOCK, Exponents
from oracles import (SUPPORTED_TYPES, dual_coxeter_classical, fold_counts, form_value,
                     invariant_form, kostka_numbers, number_of_roots_classical,
                     positive_coroots, residue_counts, roots_by_reflection,
                     signed_orbit_bfs, simple_root_lengths, solve_rational,
                     weight_sum, weyl_order_classical, weyl_quotient)

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)


def random_regular_xi(rd, rng, spread=3):
    while True:
        q = rd.dual_coxeter + rng.randrange(1, 9)
        xi = tuple(Fraction(rng.randrange(1, spread + 1), q) for _ in range(rd.rank))
        if rd.point_is_regular(rd.exponent_vector(xi)):
            return xi


def chi(rd, lam, xis):
    """chi_lam at each coweight point of xis, from one character_at_exponents
    call, its residue counts divided by the oracle's Weyl denominator."""
    ys = [rd.exponent_vector(xi) for xi in xis]
    return weyl_quotient(rd.character_at_exponents(lam, ys), ys, rd.cartan)


def chi_by_weights(rd, lam, xis):
    """chi_lam at each coweight point of xis as the oracle's sum over the
    weights of V(lam): the second route, through no point sum."""
    return weight_sum(rd.weight_system(lam), [rd.exponent_vector(xi) for xi in xis])


def streamed_orbit(rd, vec):
    """The chunks of rd's orbit stream of vec, concatenated: (rows, signs)."""
    chunks = list(rd._orbit_chunks(vec))
    return (np.vstack([rows for rows, _ in chunks]),
            np.concatenate([signs for _, signs in chunks]))


def weyl_order(rd):
    """|W|: the number of rows rho's orbit stream yields."""
    return sum(len(rows) for rows, _ in rd._orbit_chunks(rd.rho))


def test_build_examples():
    assert A1.cartan.tolist() == [[2]]
    assert A1.dual_coxeter == 2
    assert weyl_order(A1) == 2

    c2 = build_root_datum("C", 2)
    assert c2.dual_coxeter == 3
    assert weyl_order(c2) == 8

    d4 = build_root_datum("D", 4)
    assert d4.dual_coxeter == 6
    assert weyl_order(d4) == 192


def test_unsupported_types():
    for t, r in [("A", 9), ("A", 0), ("B", 5), ("C", 1), ("D", 7),
                 ("E", 7), ("E", 8), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(UnsupportedType):
            build_root_datum(t, r)


def test_datum_component_fields():
    c2 = build_root_datum("C", 2)
    assert c2.simple_roots == ((2, -1), (-2, 2))
    # the simple coroots in fundamental-coweight coordinates are the rows
    assert c2.cartan.tolist() == [[2, -2], [-1, 2]]
    form = invariant_form(c2.cartan)
    assert form[0][0] * 2 == form[1][1]  # short vs long fundamental
    # rho_check pairs to 1 with every simple root: height is <., rho_check> det A
    assert c2.rho == (1, 1)
    assert [c2.height(a) for a in c2.simple_roots] == [2, 2]


def test_cartan_invariants():
    for t, r in SUPPORTED_TYPES:
        rd = build_root_datum(t, r)
        a = rd.cartan
        assert all(a[i][i] == 2 for i in range(r))
        assert all(a[i][j] <= 0 for i in range(r) for j in range(r) if i != j)
        # finite type: the symmetrization d_i a_ij is positive definite
        sym = np.array([[float(rd.symmetrizer[i] * a[i][j]) for j in range(r)]
                        for i in range(r)])
        assert np.allclose(sym, sym.T)
        assert np.all(np.linalg.eigvalsh(sym) > 0)
        # the normalized form gives the highest root squared length 2
        assert form_value(a, rd.highest_root, rd.highest_root) == 2
        # the symmetrizer: coprime ints, d_j proportional to |alpha_j|^2
        d = rd.symmetrizer
        assert all(type(x) is int and x > 0 for x in d) and math.gcd(*d) == 1
        assert all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(r) for j in range(r))
        assert [Fraction(x, max(d)) for x in d] == list(simple_root_lengths(a))


def test_dual_coxeter_oracle():
    # h-check = 1 + sum of dual Kac labels, against the classical values
    for t, r in SUPPORTED_TYPES:
        rd = build_root_datum(t, r)
        assert rd.dual_coxeter == 1 + sum(rd.dual_marks)
        assert rd.dual_coxeter == dual_coxeter_classical(t, r)


def test_weyl_order_matches_classical_table():
    for t, r in SUPPORTED_TYPES:
        rd = build_root_datum(t, r)
        assert weyl_order(rd) == weyl_order_classical(t, r)


def test_signed_orbit_rows_and_signs():
    # every orbit, rho's included, replays the steps of rho's walk
    rng = random.Random(37)
    more = random.Random(53)
    for t, r in SUPPORTED_TYPES:
        rd = build_root_datum(t, r)
        order = weyl_order_classical(t, r)
        coroots = positive_coroots(rd.cartan)
        lam_rho = tuple(rng.randrange(1, 4) for _ in range(r))
        vecs = [rd.rho, lam_rho]
        if order <= 1920:
            vecs += [tuple(more.randrange(1, 7) for _ in range(r)) for _ in range(3)]
        for vec in vecs:
            orb, signs = streamed_orbit(rd, vec)
            assert orb.dtype == np.int64 and signs.dtype == np.int8
            assert tuple(orb[0]) == vec
            assert len(orb) == len(signs) == order
            rows = np.ascontiguousarray(orb).view(np.dtype((np.void, 8 * r)))
            assert len(np.unique(rows)) == order
            # (-1)^length, the length being the number of positive coroots
            # the point pairs negatively with
            neg = sum((orb @ np.array(d) < 0).astype(np.int64) for d in coroots)
            assert np.array_equal(signs, np.where(neg % 2, -1, 1))
            if order <= 1920:
                got = {tuple(int(x) for x in row): int(s)
                       for row, s in zip(orb, signs)}
                assert got == signed_orbit_bfs(rd.cartan, vec)


def test_orbit_chunks_stay_within_the_phase_block():
    # A8: 362880 rows, and length layers of up to 29228 rows, far above one
    # chunk's budget of rows x rank entries
    rd = build_root_datum("A", 8)
    rows = 0
    for orbit, signs in rd._orbit_chunks(rd.rho):
        assert orbit.size <= _PHASE_BLOCK and len(signs) == len(orbit)
        rows += len(orbit)
    assert rows == weyl_order_classical("A", 8)


def test_replay_holds_two_layers_and_no_layer_sized_temporary():
    # E6: layers of up to 3662 x 6 int64.  A replay holds the layer it reads
    # and the one it writes, and column-sized temporaries; a block-sized one
    # on top (a rows x rank product, or np.take's buffer for out) took the
    # traced peak to 2.6 layers, and both together past three
    rd = build_root_datum("E", 6)
    rd._walk_rho()                  # the walk's steps are cached, not traced
    largest = 0
    tracemalloc.start()
    try:
        for layer in rd._replay(rd.rho):
            largest = max(largest, layer.nbytes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert largest == 3662 * 6 * 8
    assert peak < 2.5 * largest, (peak, largest)


def test_weyl_quotient_character_peak_memory_stays_near_the_phase_block():
    # E6 on its classical c = 2 point table: a materialized orbit of lam+rho
    # alone is 51840 x 6 int64, 2.5 MB
    rd = build_root_datum("E", 6)
    ys = enumerate_sigma_c(build_twist(rd, "identity"), 2).points
    lam = (1, 0, 0, 0, 0, 1)
    want = rd.character_at_exponents(lam, ys)      # caches rho's walk
    tracemalloc.start()
    try:
        got = rd.character_at_exponents(lam, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # the staging arrays of a chunk's budget, and the two replayed layers of
    # rho's orbit (up to 3662 x 6 int64, 176 KiB each), stay below 1 MiB:
    # under half of one materialized orbit
    assert peak < 1 << 20, peak


def test_streamed_counts_match_a_per_row_count_over_many_chunks_and_dens():
    # E6 lam+rho: 51840 rows, many chunks of _PHASE_BLOCK entries, counted on
    # the classical c = 2 table, whose points have two denominators
    rd = build_root_datum("E", 6)
    ys = enumerate_sigma_c(build_twist(rd, "identity"), 2).points
    assert len({y.den for y in ys}) >= 2
    lam = (1, 0, 0, 0, 0, 1)
    lr = tuple(x + 1 for x in lam)
    assert sum(1 for _ in rd._orbit_chunks(lr)) >= 51840 * 6 // _PHASE_BLOCK
    got = rd.character_at_exponents(lam, ys)
    assert [c.tolist() for c in got] == residue_counts(signed_orbit_bfs(rd.cartan, lr), ys)
    # V(1,0,0,0,1,0): its streamed quotient against the oracle's sum over
    # its 1782 weights, more rows than one chunk's 1365
    lam = (1, 0, 0, 0, 1, 0)
    weights = rd.weight_system(lam)
    assert len(weights) * 6 > _PHASE_BLOCK
    got = weyl_quotient(rd.character_at_exponents(lam, ys), ys, rd.cartan)
    for a, b in zip(got, weight_sum(weights, ys)):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_huge_weight_counts_match_a_per_row_count():
    # A1 at lam = 2^49: the phases +-(lam + 1) * y.num span far more than the
    # rows, so each block is reduced mod den before its count
    lam = 2 ** 49
    ys = [Exponents((1,), 6), Exponents((1,), 4), Exponents((3,), 8), Exponents((5,), 6)]
    got = A1.character_at_exponents((lam,), ys)
    assert [c.tolist() for c in got] == \
        residue_counts(signed_orbit_bfs(A1.cartan, (lam + 1,)), ys)


def test_phase_guard_refuses_phases_past_two_to_the_53():
    # A1 at xi = 1/3 (den 6): a phase of lam+rho is (lam + 1) * y.num, and
    # rank * den * (lam + 1) must stay below 2^53 for exact float64 products
    y = A1.exponent_vector((Fraction(1, 3),))
    assert y.den == 6
    with pytest.raises(IntegralityError, match="2\\^53"):
        A1.character_at_exponents((2 ** 52,), [y])


@pytest.mark.parametrize("lam", (2 ** 28, 2 ** 49))
def test_huge_weight_character_allocates_nothing_in_proportion(lam):
    # A1 at y = 1/6: the two phases of lam+rho are +-(lam + 1), so a count
    # over their range would be 2 (lam + 1) entries long (4 GiB at 2^28);
    # reduced mod den first, it is six.  sin(2 pi (lam+1) y) / sin(2 pi y),
    # with lam + 1 reduced mod 6 so the reference is exact in floats
    y = Exponents((1,), 6)
    tracemalloc.start()
    try:
        counts = A1.character_at_exponents((lam,), [y])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    got, = weyl_quotient(counts, [y], A1.cartan)
    want = math.sin(2 * math.pi * ((lam + 1) % 6) / 6) / math.sin(2 * math.pi / 6)
    assert abs(got - want) < 1e-12, (got, want)
    assert peak < 1 << 20, peak


def test_positive_roots_are_the_reflection_closure_by_height():
    # the positive half of the oracle's closure, in (height, alpha) order,
    # and height(r) = det A * (sum of r's simple-root coordinates)
    for t, r in SUPPORTED_TYPES:
        rd = build_root_datum(t, r)
        det = int(Matrix(rd.cartan.tolist()).det())
        coords = {v: solve_rational(rd.cartan, v) for v in roots_by_reflection(rd.cartan)}
        positive = sorted((v for v, a in coords.items() if min(a) >= 0),
                          key=lambda v: (sum(coords[v]), coords[v]))
        assert len(positive) * 2 == len(coords)
        assert rd.positive_roots.tolist() == [list(v) for v in positive], (t, r)
        assert rd.positive_roots_alpha.tolist() == [list(coords[v]) for v in positive]
        for v in positive:
            assert rd.height(v) == det * sum(coords[v])
            assert type(rd.height(v)) is int


def test_coroot_pairings_are_the_transposed_roots():
    for t, r in SUPPORTED_TYPES:
        rd = build_root_datum(t, r)
        got = sorted(tuple(int(x) for x in cv) for cv in rd.coroot_pairings)
        assert got == positive_coroots(rd.cartan)


def test_weyl_dimension_examples():
    assert A1.weyl_dimension((1,)) == 2
    assert A2.weyl_dimension((1, 1)) == 8
    for t, r in [("A", 3), ("C", 2), ("F", 4), ("G", 2)]:
        rd = build_root_datum(t, r)
        assert rd.weyl_dimension(tuple([0] * r)) == 1


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(NonDominant):
        A2.weyl_dimension((1, -1))


def test_weight_multiplicities_examples():
    assert A1.weight_system((2,)) == {(2,): 1, (0,): 1, (-2,): 1}
    ws = A2.weight_system((1, 1))
    assert ws[(0, 0)] == 2
    assert sum(ws.values()) == 8
    assert A2.weight_system((0, 0)) == {(0, 0): 1}


def test_weight_multiplicities_total_and_invariance():
    rng = random.Random(3)
    for t, r in [("A", 2), ("B", 2), ("C", 3), ("G", 2), ("D", 4)]:
        rd = build_root_datum(t, r)
        for _ in range(4):
            lam = tuple(rng.randrange(0, 3) for _ in range(r))
            if rd.weyl_dimension(lam) > 500:
                continue
            ws = rd.weight_system(lam)
            assert sum(ws.values()) == rd.weyl_dimension(lam)
            # Weyl invariance: every weight has the multiplicity of its
            # dominant representative
            for w, m in ws.items():
                assert ws[rd.dominant_rep(w)] == m


def test_weight_multiplicities_match_kostka_numbers():
    # A_n weight (a_1..a_n) is the partition lambda_i = a_i + ... + a_n in
    # n+1 rows; a tableau content m has weight (m_i - m_{i+1})_i
    for n in range(1, 5):
        rd = build_root_datum("A", n)
        for lam in itertools.product(range(3), repeat=n):
            if sum(lam) > 3 or (n > 2 and sum(lam) > 2):
                continue
            shape = tuple(sum(lam[i:]) for i in range(n))
            want = {tuple(m[i] - m[i + 1] for i in range(n)): k
                    for m, k in kostka_numbers(shape, n + 1).items()}
            assert rd.weight_system(lam) == want, (n, lam)


def test_adjoint_weight_system():
    # V(theta) is the adjoint representation: every root once, and the
    # zero weight rank times
    for t, r in SUPPORTED_TYPES:
        rd = build_root_datum(t, r)
        roots = roots_by_reflection(rd.cartan)
        assert len(roots) == number_of_roots_classical(t, r)
        theta = rd.highest_root
        ws = rd.weight_system(theta)
        assert ws == {**{w: 1 for w in roots}, (0,) * r: r}, (t, r)
        assert sum(ws.values()) == rd.weyl_dimension(theta)
        # the batched orbit expansion generates every weight once: its own
        # arrays, before the dict could merge a duplicate
        vecs, mults = rd._weight_system_uncached(theta)
        assert len(set(map(tuple, vecs.tolist()))) == len(vecs) == len(ws)
        assert dict(zip(map(tuple, vecs.tolist()), mults.tolist())) == ws


def test_tensor_examples():
    assert A1.tensor_multiplicities((1,), (1,)) == {(0,): 1, (2,): 1}
    assert A2.tensor_multiplicities((1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    # unit law
    for rd, lam in [(A2, (2, 1)), (build_root_datum("C", 2), (1, 1))]:
        assert rd.tensor_multiplicities(lam, tuple([0] * rd.rank)) == {lam: 1}


def test_tensor_symmetry_and_dimension():
    rng = random.Random(11)
    for t, r in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        rd = build_root_datum(t, r)
        for _ in range(5):
            lam = tuple(rng.randrange(0, 2) for _ in range(r))
            mu = tuple(rng.randrange(0, 2) for _ in range(r))
            # Klimyk over either factor; the cached product is one of them
            ab = rd.tensor_with_character(lam, rd.weight_system(mu))
            ba = rd.tensor_with_character(mu, rd.weight_system(lam))
            assert ab == ba
            assert rd.tensor_multiplicities(lam, mu) == ab
            total = sum(m * rd.weyl_dimension(eta) for eta, m in ab.items())
            assert total == rd.weyl_dimension(lam) * rd.weyl_dimension(mu)
            assert all(m > 0 for m in ab.values())


def test_tensor_cache_hit_matches_direct_klimyk():
    rd = RootDatum("C", 3)    # a private instance: it has no cache entries yet

    def entries():
        return sum(key[0] is rd for key in RootDatum._tensor.cache)

    pairs = [((1, 0, 1), (0, 2, 0)), ((0, 0, 1), (2, 1, 0)), ((1, 1, 0), (1, 1, 0))]
    for lam, mu in pairs:
        direct = rd.tensor_with_character(lam, rd.weight_system(mu))
        first = rd.tensor_multiplicities(lam, mu)
        size = entries()
        first[lam] = first.get(lam, 0) + 7    # the caller owns its copy
        for a, b in ((lam, mu), (mu, lam)):
            assert rd.tensor_multiplicities(a, b) == direct
        assert entries() == size   # both orders were hits
    assert entries() == len(pairs)


def test_character_examples():
    # (A1, omega, rho_check/3): 2 cos(pi/3) = 1
    val, = chi(A1, (1,), [(Fraction(1, 3),)])
    assert abs(val - 1.0) < 1e-12
    # trivial character
    for rd in (A1, A2, build_root_datum("G", 2)):
        xi = random_regular_xi(rd, random.Random(5))
        assert abs(chi(rd, tuple([0] * rd.rank), [xi])[0] - 1) < 1e-12
    # (A1, 2 omega, rho_check/4): weight sum e^{i pi/2} + 1 + e^{-i pi/2} = 1,
    # frozen from the weight-multiplicity oracle
    xi = (Fraction(1, 4),)
    byw, = chi_by_weights(A1, (2,), [xi])
    expect = sum(np.exp(2j * np.pi * Fraction(k, 4) * Fraction(1, 2) * 2)
                 for k in (1, 0, -1))
    assert abs(byw - expect) < 1e-12
    assert abs(byw - 1.0) < 1e-12
    assert abs(chi(A1, (2,), [xi])[0] - byw) < 1e-12


def test_character_two_way_agreement():
    rng = random.Random(17)
    for t, r in [("A", 1), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        rd = build_root_datum(t, r)
        lams = [lam for lam in
                [tuple(rng.randrange(0, 3) for _ in range(r)) for _ in range(8)]
                if rd.weyl_dimension(lam) <= 500]
        for lam in lams:
            xis = [random_regular_xi(rd, rng) for _ in range(3)]
            for a, b in zip(chi(rd, lam, xis), chi_by_weights(rd, lam, xis)):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_character_multiplicativity():
    rng = random.Random(23)
    for t, r in [("A", 2), ("C", 2), ("G", 2)]:
        rd = build_root_datum(t, r)
        lam = tuple(rng.randrange(0, 2) for _ in range(r))
        mu = tuple(rng.randrange(0, 2) for _ in range(r))
        xis = [random_regular_xi(rd, rng) for _ in range(5)]
        lhs = [a * b for a, b in zip(chi(rd, lam, xis), chi(rd, mu, xis))]
        rhs = [0] * len(xis)
        for eta, m in rd.tensor_multiplicities(lam, mu).items():
            rhs = [acc + m * v for acc, v in zip(rhs, chi(rd, eta, xis))]
        for a, b in zip(lhs, rhs):
            assert abs(a - b) < 1e-8


def test_character_weyl_invariance():
    rng = random.Random(29)
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        rd = build_root_datum(t, r)
        lam = tuple(rng.randrange(0, 3) for _ in range(r))
        xi = random_regular_xi(rd, rng)
        x = list(xi)
        images = []
        for _ in range(6):  # random word in the coweight reflections
            i = rng.randrange(r)
            xi_i = x[i]
            x = [x[k] - xi_i * rd.cartan[i][k] for k in range(r)]
            images.append(tuple(x))
        base, *values = chi(rd, lam, [xi] + images)
        for v in values:
            assert abs(v - base) < 1e-9


def test_character_bound_and_phase_bookkeeping():
    # one int64 count per residue of each point's own denominator; the
    # alternant's counts add up to 0, the oracle's weight counts to dim V(lam)
    rng = random.Random(31)
    for t, r in [("A", 2), ("C", 2)]:
        rd = build_root_datum(t, r)
        lam = (1,) * r
        xis = [random_regular_xi(rd, rng) for _ in range(5)]
        ys = [rd.exponent_vector(xi) for xi in xis]
        for c, y in zip(rd.character_at_exponents(lam, ys), ys):
            assert c.dtype == np.int64 and len(c) == y.den
            assert c.sum() == 0
        for c, y in zip(residue_counts(rd.weight_system(lam), ys), ys):
            assert len(c) == y.den
            assert sum(c) == rd.weyl_dimension(lam)
        for cv in chi(rd, lam, xis) + chi_by_weights(rd, lam, xis):
            assert abs(cv) <= rd.weyl_dimension(lam) + 1e-9


def test_singular_point_raises():
    # on a wall the Weyl numerator vanishes, so no quotient is defined there:
    # a point table refuses such a point
    for rd, xi in ((A1, (Fraction(0, 1),)),
                   (A2, (Fraction(1, 2), Fraction(1, 2)))):     # theta wall
        y = rd.exponent_vector(xi)
        numerator, = fold_counts(rd.character_at_exponents((1,) * rd.rank, [y]), [y])
        assert abs(numerator) < 1e-12
        with pytest.raises(AssertionError, match="singular"):
            _Characters(rd, [y], y.den)
