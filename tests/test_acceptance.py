"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
from fractions import Fraction

from twistblocks import (ambient_alphabet, build_root_datum, build_twist,
                         classical_verlinde, enumerate_sigma_c, factorized_dimension,
                         fusion_coefficient, general_dimension,
                         kac_walton_dimension, riemann_hurwitz_genus,
                         twisted_three_point, weight_alphabet)
from oracles import (STANDARD_ROWS, SUPPORTED_TYPES, sl2_verlinde, weight_sum,
                     weyl_order_classical, weyl_quotient)

NONTRIVIAL_ROWS = list(STANDARD_ROWS)


def tw(t, r, kind):
    return build_twist(build_root_datum(t, r), kind)


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {desc}", flush=True)
    assert not failures, failures[:10]


def test_acceptance_1_pipeline_agreement():
    failures = []
    grids = [(row, 1) for row in NONTRIVIAL_ROWS]
    grids += [(("A", 3, "diagram2"), 2), (("A", 4, "standard4"), 2),
              (("D", 4, "diagram3"), 2)]
    for (t, r, kind), c in grids:
        data = tw(t, r, kind)
        alphabet = weight_alphabet(data, c).members
        amb = ambient_alphabet(data, c)
        for lam in alphabet:
            for mu in alphabet:
                for nu in amb:
                    res = twisted_three_point(data, c, lam, mu, nu)
                    kw, _ = kac_walton_dimension(data, c, lam, mu, nu)
                    if res != kw or type(res) is not int:
                        failures.append((t, r, kind, c, lam, mu, nu, res, kw))
    _report(1, "Kac-Walton equals the twisted Verlinde sum on the full "
               "alphabet product for every twist row (exact integers)",
            failures)


def test_acceptance_2_factorization_identity():
    failures = []
    data = tw("A", 3, "diagram2")
    c = 1
    alphabet = weight_alphabet(data, c).members
    amb = ambient_alphabet(data, c)
    for gbar in (0, 1, 2):
        for a in (1, 2):
            for b in (0, 1):
                for lams in itertools.product(alphabet, repeat=2 * a):
                    for mus in itertools.product(amb, repeat=b):
                        g = general_dimension(data, c, gbar, lams, mus)
                        f = factorized_dimension(data, c, gbar, lams, mus)
                        if g != f:
                            failures.append((gbar, a, b, lams, mus, g, f))
    _report(2, "general_dimension equals factorized_dimension exactly on the "
               "stable (A3, diagram2) grid, g-bar <= 2, a <= 2, b <= 1, c = 1",
            failures)


def test_acceptance_3_classical_reduction():
    failures = []
    rd = build_root_datum("A", 1)
    ident = tw("A", 1, "identity")
    for c in range(1, 6):
        weights = [(k,) for k in range(c + 1)]
        for g in range(3):
            for s in range(5):
                if g == 0 and s < 3:
                    continue
                for combo in itertools.combinations_with_replacement(weights, s):
                    want = sl2_verlinde(c, g, [w[0] for w in combo])
                    got = classical_verlinde(rd, c, g, combo)
                    via_general = general_dimension(ident, c, g, (), combo)
                    if not (got == want == via_general):
                        failures.append((c, g, combo, got, via_general, want))
    _report(3, "general_dimension (a=0, trivial twist) = classical_verlinde = "
               "independent sl2 fusion oracle, A1, c <= 5, g <= 2, <= 4 points",
            failures)


def test_acceptance_4_orthogonality():
    # exact in F_p for the two primes of each table: sum over the points of
    # chi_nu chi_{nu'*} Delta is |T_c| delta, and so is the dual sum over
    # the weights at a pair of points
    from twistblocks.dims import _primes, _table
    failures = []
    for (t, r) in [("A", 1), ("A", 2), ("C", 2)]:
        rd = build_root_datum(t, r)
        data = tw(t, r, "identity")
        for c in (1, 2, 3):
            table = _table(data, c)
            enum, primes = table.enum, _primes(table.n, 2)
            delta = table.ambient.power(1, 1, 2)
            dc = ambient_alphabet(data, c)
            chi = {nu: table.fixed.char(nu, 2) for nu in dc}
            dual = {nu: table.fixed.char(rd.dual_weight(nu), 2) for nu in dc}
            unit = enum.order_T % primes[:, 0]
            for nu in dc:
                for nup in dc:
                    s = (chi[nu] * dual[nup] % primes * delta % primes).sum(axis=1) \
                        % primes[:, 0]
                    if (s != (unit if nu == nup else 0)).any():
                        failures.append(("points", t, r, c, nu, nup, s))
            # Eq.(48) form: sum over weights at a fixed pair of points
            npts = len(enum.points)
            for p1 in range(npts):
                for p2 in range(npts):
                    s = sum(chi[nu][:, p2] * dual[nu][:, p1] % primes[:, 0]
                            * delta[:, p1] % primes[:, 0] for nu in dc) % primes[:, 0]
                    if (s != (unit if p1 == p2 else 0)).any():
                        failures.append(("weights", t, r, c, s))
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        for c in (1, 2):
            alphabet = weight_alphabet(data, c).members
            zero = tuple([0] * data.fixed.rank)
            for lam in alphabet:
                for mu in alphabet:
                    got = fusion_coefficient(data, c, lam, mu, zero)
                    if got != (1 if lam == mu else 0):
                        failures.append(("twisted", t, r, kind, c, lam, mu, got))
    _report(4, "untwisted orthogonality exact in F_p for A1/A2/C2 (c <= 3); "
               "twisted c^0_{lm} = delta exactly for all six rows (c <= 2)",
            failures)


def test_acceptance_5_cardinality():
    failures = []
    rows = NONTRIVIAL_ROWS + [("A", 1, "identity"), ("A", 2, "identity"),
                              ("B", 2, "identity"), ("C", 3, "identity"),
                              ("G", 2, "identity"), ("D", 4, "identity")]
    for (t, r, kind) in rows:
        data = tw(t, r, kind)
        for c in (1, 2, 3, 4):
            enum = enumerate_sigma_c(data, c)
            want = len(weight_alphabet(data, c))
            if len(enum.points) != want:
                failures.append((t, r, kind, c, len(enum.points), want))
    _report(5, "|Sigma_c| = |D_{c,sigma}| for every supported twist, c <= 4",
            failures)


def test_acceptance_6_character_engine():
    failures = []
    rng = random.Random(2024)
    for (t, r) in SUPPORTED_TYPES:
        rd = build_root_datum(t, r)
        order = sum(len(rows) for rows, _ in rd._orbit_chunks(rd.rho))
        if order != weyl_order_classical(t, r):
            failures.append(("order", t, r, order))
        n_lams = 4 if order > 100000 else 8
        bound = 6 if r <= 2 else 3
        pool = [tuple([0] * r)]
        pool += [w for w in (tuple(int(i == j) for j in range(r)) for i in range(r))
                 if rd.weyl_dimension(w) <= 500]
        for _ in range(400):
            lam = tuple(rng.randrange(0, bound) for _ in range(r))
            if lam not in pool and rd.weyl_dimension(lam) <= 500:
                pool.append(lam)
        rng.shuffle(pool)
        lams = pool[:n_lams]
        n_xis = -(-200 // len(lams))  # ceil: at least 200 cases per datum
        for lam in lams:
            # chi at the dimension limit t -> 1: total weight multiplicity
            if sum(rd.weight_system(lam).values()) != rd.weyl_dimension(lam):
                failures.append(("dim-limit", t, r, lam))
            xis, ys = [], []
            while len(xis) < n_xis:
                q = rd.dual_coxeter + rng.randrange(1, 9)
                xi = tuple(Fraction(rng.randrange(1, 4), q) for _ in range(r))
                y = rd.exponent_vector(xi)
                if rd.point_is_regular(y):
                    xis.append(xi)
                    ys.append(y)
            quotient = weyl_quotient(rd.character_at_exponents(lam, ys), ys, rd.cartan)
            weights = weight_sum(rd.weight_system(lam), ys)
            for xi, a, b in zip(xis, quotient, weights):
                if abs(a - b) > 1e-9 * max(1.0, abs(b)):
                    failures.append(("agree", t, r, lam, xi, abs(a - b)))
    _report(6, "Weyl-quotient and weight-sum characters agree within 1e-9 on "
               "200 randomized cases per root datum; dimension limit exact",
            failures)


def test_acceptance_7_fusion_ring_axioms():
    failures = []
    for (t, r, kind) in NONTRIVIAL_ROWS:
        data = tw(t, r, kind)
        c = 1
        alphabet = weight_alphabet(data, c).members
        zero = tuple([0] * data.fixed.rank)
        table = {}
        for lam in alphabet:
            for mu in alphabet:
                for eta in alphabet:
                    res = fusion_coefficient(data, c, lam, mu, eta)
                    table[(lam, mu, eta)] = res
                    if res < 0 or type(res) is not int:
                        failures.append(("integer", t, r, kind, lam, mu, eta, res))
        for lam in alphabet:
            for mu in alphabet:
                for eta in alphabet:
                    if table[(lam, mu, eta)] != table[(mu, lam, eta)]:
                        failures.append(("symmetry", t, r, kind, lam, mu, eta))
            if any(table[(lam, zero, eta)] != (1 if lam == eta else 0)
                   for eta in alphabet):
                failures.append(("unit", t, r, kind, lam))
        for lam, mu, nu, kap in itertools.product(alphabet, repeat=4):
            lhs = sum(table[(lam, mu, eta)] * table[(eta, nu, kap)]
                      for eta in alphabet)
            rhs = sum(table[(mu, nu, eta)] * table[(lam, eta, kap)]
                      for eta in alphabet)
            if lhs != rhs:
                failures.append(("assoc", t, r, kind, lam, mu, nu, kap))
    _report(7, "fusion-ring symmetry, unit and associativity exhaustively at "
               "c = 1 for all six rows; all coefficients non-negative integers",
            failures)


def test_acceptance_8_riemann_hurwitz():
    failures = []
    if riemann_hurwitz_genus(2, 0, [2, 2]) != 0:
        failures.append("double cover of P1 should have genus 0")
    if riemann_hurwitz_genus(3, 0, [3, 3, 3]) != 1:
        failures.append("triple cover with three full branch points should "
                        "be elliptic")
    _report(8, "Riemann-Hurwitz reproduces the z -> z^m cover and the "
               "elliptic triple cover exactly", failures)
