import itertools
import random
from fractions import Fraction

import numpy as np
from sympy import Matrix

from twistblocks import (build_root_datum, build_twist, enumerate_sigma_c,
                         fold_to_alcove, lattice_orders, weight_alphabet)
from twistblocks.util import integer_determinant, integer_inverse
from oracles import (STANDARD_ROWS, SUPPORTED_TYPES, coweight_point,
                     dual_coxeter_classical, highest_root, long_roots,
                     quotient_order, simple_root_lengths, sl2_admissible,
                     solve_rational, weight_sum)


def tw(t, r, kind):
    return build_twist(build_root_datum(t, r), kind)


def test_lattice_orders_a1_examples():
    a1 = tw("A", 1, "identity")
    assert lattice_orders(a1, 1) == (6, 6)   # |P_check / 3 Q_check| = 3 * 2
    assert lattice_orders(a1, 2) == (8, 8)


def test_lattice_orders_snf_oracle():
    # |T_c| = |P / (c+h) Q_long| in weight coordinates, from sympy's Smith
    # form of (c+h) times the long roots, found as the Weyl orbit of the
    # highest root; on every identity row and the ambient of every standard row
    rows = ([tw(t, r, "identity") for t, r in SUPPORTED_TYPES]
            + [tw(t, r, kind) for t, r, kind in STANDARD_ROWS])
    for data in rows:
        rd = data.ambient
        longs = sorted(long_roots(rd.cartan))
        if data.kind == "identity":
            # adding the basis of M to the long roots keeps their index in P,
            # so M lies in the long-root lattice
            with_m = longs + list(data.lattice_M)
            assert quotient_order([[v[i] for v in with_m] for i in range(rd.rank)]) \
                == quotient_order([[v[i] for v in longs] for i in range(rd.rank)]), rd
        h = dual_coxeter_classical(rd.lie_type, rd.rank)
        for c in (1, 2, 3):
            cols = [[(c + h) * v[i] for v in longs] for i in range(rd.rank)]
            assert lattice_orders(data, c)[0] == quotient_order(cols), (rd, c)


def test_integer_determinant_against_sympy():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 6)
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:          # singular, or a zero leading pivot
            mat[rng.randrange(n)] = [0] * n if rng.random() < 0.5 else mat[0]
        assert integer_determinant(mat) == Matrix(mat).det(), mat
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([]) == 1


def test_integer_inverse_against_sympy():
    # adj / det is the inverse on every supported Cartan matrix and on 1x1
    mats = [build_root_datum(t, r).cartan.tolist() for t, r in SUPPORTED_TYPES]
    mats += [[[x]] for x in (1, -1, 2, 7)]
    for mat in mats:
        adj, det = integer_inverse(mat)
        assert all(type(x) is int for row in adj for x in row) and type(det) is int
        assert Matrix(adj) / det == Matrix(mat).inv(), mat


def test_lattice_orders_twisted_rows():
    # |T^sigma_c| = [P_sigma : M] (c+h)^rank; the index is 2 for C_n/B_n
    # root lattices and 1 for the standard4 weight lattice, G2 and F4
    expected_index = {("A", 3, "diagram2"): 2, ("A", 5, "diagram2"): 2,
                      ("A", 4, "standard4"): 1, ("D", 4, "diagram2"): 2,
                      ("D", 4, "diagram3"): 1, ("E", 6, "diagram2"): 1}
    for (t, r, kind), idx in expected_index.items():
        data = tw(t, r, kind)
        for c in (1, 2):
            n = c + data.dual_coxeter
            _, order_ts = lattice_orders(data, c)
            assert order_ts == idx * n ** data.fixed.rank


def test_lattice_order_divisibility():
    # lattice inclusion: the order at level c divides the order at c'
    # whenever (c + h) | (c' + h)
    for (t, r, kind) in [("A", 1, "identity"), ("A", 3, "diagram2"),
                         ("C", 2, "identity")]:
        data = tw(t, r, kind)
        h = data.dual_coxeter
        for c in (1, 2, 3):
            n = c + h
            for k in (2, 3):
                cp = k * n - h
                t1 = lattice_orders(data, c)
                t2 = lattice_orders(data, cp)
                assert t2[0] % t1[0] == 0 and t2[1] % t1[1] == 0


def test_enumerate_a1_identity():
    data = tw("A", 1, "identity")
    enum = enumerate_sigma_c(data, 1)
    assert [coweight_point(data.fixed.cartan, y) for y in enum.points] \
        == [(Fraction(1, 3),), (Fraction(2, 3),)]
    assert enum.order_T == 6


def test_points_are_the_documented_coweights():
    # xi_j = scale_j (label_j + 1) / (c + h), read back from the integer
    # exponents as xi = A^T y:
    # * identity: labels A_c, scale |alpha_j|^2 / |theta|^2;
    # * standard4: labels D_{c,sigma}, twice that scale;
    # * diagram: labels {lam_check dominant : (lam_check, theta_l) <= c},
    #   scale 1, theta_l the highest root of the fixed algebra
    rows = [("A", 2, "identity"), ("B", 3, "identity"), ("C", 3, "identity"),
            ("F", 4, "identity"), ("G", 2, "identity"), ("A", 2, "standard4"),
            ("A", 4, "standard4"), ("A", 3, "diagram2"), ("D", 4, "diagram2"),
            ("D", 4, "diagram3"), ("E", 6, "diagram2")]
    for t, r, kind in rows:
        data = tw(t, r, kind)
        cartan = data.fixed.cartan
        n = dual_coxeter_classical(t, r)
        if kind.startswith("diagram"):
            marks = highest_root(cartan)[1]
            scale = [1] * len(marks)
        else:
            scale = [(2 if kind == "standard4" else 1) * x
                     for x in simple_root_lengths(cartan)]
        for c in (1, 2, 3):
            if kind.startswith("diagram"):
                labels = [v for v in itertools.product(range(c + 1), repeat=len(marks))
                          if sum(m * x for m, x in zip(marks, v)) <= c]
            else:
                labels = weight_alphabet(data, c).members
            expect = [tuple(Fraction(s * (x + 1), c + n) for s, x in zip(scale, lab))
                      for lab in labels]
            got = [coweight_point(cartan, y) for y in enumerate_sigma_c(data, c).points]
            assert got == expect, (t, r, kind, c)


def test_enumeration_cardinality():
    # |Sigma_c| = |D_{c,sigma}| for every supported twist row, c <= 4
    rows = list(STANDARD_ROWS) + [("A", 1, "identity"), ("A", 2, "identity"),
                                  ("C", 2, "identity"), ("G", 2, "identity"),
                                  ("B", 3, "identity")]
    for (t, r, kind) in rows:
        data = tw(t, r, kind)
        for c in (1, 2, 3, 4):
            enum = enumerate_sigma_c(data, c)
            assert len(enum.points) == len(weight_alphabet(data, c)), (t, r, kind, c)


def test_d4_triality_points_have_trivial_stabilizer():
    data = tw("D", 4, "diagram3")
    fixed = data.fixed  # G2
    # coweight-coordinate reflection matrices, full group by closure
    gens = []
    for i in range(fixed.rank):
        m = np.eye(fixed.rank, dtype=np.int64)
        m[:, i] -= fixed.cartan[i, :]
        gens.append(m)
    group = [np.eye(fixed.rank, dtype=np.int64)]
    seen = {group[0].tobytes()}
    frontier = list(group)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                if prod.tobytes() not in seen:
                    seen.add(prod.tobytes())
                    nxt.append(prod)
                    group.append(prod)
        frontier = nxt
    assert len(group) == 12
    coroot_cols = [[Fraction(int(fixed.cartan[j][i])) for i in range(fixed.rank)]
                   for j in range(fixed.rank)]
    for c in (1, 2):
        for pt in enumerate_sigma_c(data, c).points:
            xi = np.array(coweight_point(fixed.cartan, pt), dtype=object)
            stab = 0
            for m in group:
                diff = list(m @ xi - xi)
                coords = solve_rational(coroot_cols, diff)
                if all(x.denominator == 1 for x in coords):
                    stab += 1
            assert stab == 1  # only the identity fixes the point mod Q_check


def test_fold_idempotent_on_alphabet():
    for (t, r, kind) in STANDARD_ROWS:
        data = tw(t, r, kind)
        for c in (1, 2):
            for lam in weight_alphabet(data, c):
                res = fold_to_alcove(data, c, lam)
                assert res.status == "interior"
                assert res.weight == lam and res.sign == 1
                assert res.length_parity == 0


def test_fold_wall_example():
    # (A3, diagram2), c=1: marks (1,2), shifted level 5; eta=(0,1) gives
    # (eta+rho, theta_check) = 5, exactly the far wall
    data = tw("A", 3, "diagram2")
    res = fold_to_alcove(data, 1, (0, 1))
    assert res.status == "wall"
    assert res.sign is None and res.weight is None


def test_fold_rank1_mirror_oracle():
    # (A2, standard4): fixed A1 with marks (2,); c=1 puts the wall at
    # x = 2 and the mirror of x = 3 at x = 1 with a single reflection
    data = tw("A", 2, "standard4")
    assert fold_to_alcove(data, 1, (0,)).weight == (0,)
    assert fold_to_alcove(data, 1, (1,)).status == "wall"
    res = fold_to_alcove(data, 1, (2,))
    assert res.status == "interior"
    assert res.weight == (0,) and res.sign == -1 and res.length_parity == 1


def test_fold_translation_invariance():
    rng = random.Random(41)
    identity_rows = (("A", 2, "identity"), ("A", 3, "identity"),
                     ("B", 3, "identity"), ("D", 4, "identity"))
    for (t, r, kind) in STANDARD_ROWS + identity_rows:
        data = tw(t, r, kind)
        nf = data.fixed.rank
        for c in (1, 2):
            nshift = data.shifted_level(c)
            for _ in range(20):
                eta = tuple(rng.randrange(-4, 5) for _ in range(nf))
                coeffs = [rng.randrange(-2, 3) for _ in range(nf)]
                shift = [nshift * sum(coeffs[j] * data.lattice_M[j][i]
                                      for j in range(nf)) for i in range(nf)]
                eta2 = tuple(eta[i] + shift[i] for i in range(nf))
                r1 = fold_to_alcove(data, c, eta)
                r2 = fold_to_alcove(data, c, eta2)
                assert r1.status == r2.status
                if r1.status == "interior":
                    assert r1.weight == r2.weight and r1.sign == r2.sign


def test_fold_translations_have_even_length():
    data = tw("A", 3, "diagram2")
    c = 1
    nshift = data.shifted_level(c)
    for lam in weight_alphabet(data, c):
        for j in range(data.fixed.rank):
            eta = tuple(lam[i] + nshift * data.lattice_M[j][i]
                        for i in range(data.fixed.rank))
            res = fold_to_alcove(data, c, eta)
            assert res.status == "interior"
            assert res.weight == lam and res.sign == 1


def test_identity_fold_reproduces_sl2_fusion():
    # classical sanity: Klimyk weights plus identity-twist folding give the
    # level-truncated Clebsch-Gordan rule
    data = tw("A", 1, "identity")
    a1 = build_root_datum("A", 1)
    for c in (1, 2, 3):
        for a in range(c + 1):
            for b in range(c + 1):
                got = {}
                for (z,), m in a1.weight_system((b,)).items():
                    res = fold_to_alcove(data, c, (a + z,))
                    if res.status == "interior":
                        w = res.weight[0]
                        got[w] = got.get(w, 0) + res.sign * m
                for cc in range(c + 1):
                    want = 1 if sl2_admissible(a, b, cc, c) else 0
                    assert got.get(cc, 0) == want, (c, a, b, cc)


def test_sign_coherence_with_characters():
    # chi_eta(t) = sign * chi_{fold(eta)}(t) on every enumerated point;
    # wall constituents restrict to zero.  This is the character content
    # the Kac-Walton pipeline relies on.
    for (t, r, kind) in [("A", 3, "diagram2"), ("A", 4, "standard4"),
                         ("D", 4, "diagram3")]:
        data = tw(t, r, kind)
        fixed = data.fixed
        for c in (1, 2):
            pts = enumerate_sigma_c(data, c).points
            box = range(0, 4)
            etas = [(a, b) for a in box for b in box]
            for eta in etas:
                res = fold_to_alcove(data, c, eta)
                vals = weight_sum(fixed.weight_system(eta), pts)
                if res.status == "wall":
                    assert all(abs(val) < 1e-8 for val in vals)
                else:
                    refs = weight_sum(fixed.weight_system(res.weight), pts)
                    assert all(abs(val - res.sign * ref) < 1e-8
                               for val, ref in zip(vals, refs))
