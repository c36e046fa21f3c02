"""Root-system core: Cartan data, Weyl groups, weight arithmetic, characters.

Conventions used throughout the package
---------------------------------------
* ``cartan[i][j] = <alpha_j, alpha_i^vee>``; column ``j`` of the Cartan
  matrix is the j-th simple root written in fundamental-weight coordinates.
* Weights are tuples of ints in the fundamental-weight basis of their
  root datum; coweights are tuples in the fundamental-coweight basis.
* The invariant form is normalized so long roots have squared length 2.
* A torus point ``xi`` in fundamental-coweight coordinates stands for
  ``t = exp(2*pi*i*xi)``.  It is held as its exponent vector
  ``y[i] = omega_i(xi)``, integers over one least denominator
  (``Exponents``), so every ``lambda(xi)`` is an exact integer residue mod
  that denominator.  A character at a point is returned as its integer
  counts per residue, an element of Z[zeta_den]; no value here is rounded.
  The inverse Cartan matrix and the form are integers over one denominator.
"""

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import IntegralityError, NonDominant, UnsupportedType
from .util import integer_inverse, memo

# (type, min rank, max rank); E7/E8 stay out of the table
_SUPPORTED = {"A": (1, 8), "B": (2, 4), "C": (2, 4), "D": (3, 6),
              "E": (6, 6), "F": (4, 4), "G": (2, 2)}

# entries in one orbit chunk (rows x rank) and in one _phase_sums block (rows
# x points).  Each staging array of a character sum (the chunk, its float64
# copy, the weights of a block, its phases) is at most 64 KiB: below glibc's
# 128 KiB mmap threshold, so it comes from the heap and its memory is reused
# from chunk to chunk, where a larger one would be mapped and unmapped (or,
# once the threshold has moved, fragment the heap) in a pattern that depends
# on the process's earlier allocations
_PHASE_BLOCK = 1 << 13
# the longest phase range of a block, in rows, past which _phase_sums reduces
# the block mod den
_SPAN_PER_ROW = 8


def _chunk_rows(rank):
    """Rows of rank entries in one chunk of _PHASE_BLOCK entries."""
    return max(1, _PHASE_BLOCK // rank)


def _cartan_matrix(lie_type, rank):
    a = 2 * np.eye(rank, dtype=np.int64)
    chain = range(rank - 1)
    if lie_type in ("A", "B", "C"):
        for i in chain:
            a[i, i + 1] = a[i + 1, i] = -1
        if lie_type == "B":      # last root short
            a[rank - 1, rank - 2] = -2
        elif lie_type == "C":    # last root long
            a[rank - 2, rank - 1] = -2
    elif lie_type == "D":
        for i in range(rank - 2):
            a[i, i + 1] = a[i + 1, i] = -1
        a[rank - 3, rank - 1] = a[rank - 1, rank - 3] = -1
    elif lie_type == "E":
        # Bourbaki: chain 1-3-4-5-6 with node 2 hanging off node 4
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            a[i, j] = a[j, i] = -1
    elif lie_type == "F":
        # nodes 1,2 long; 3,4 short
        for i in chain:
            a[i, i + 1] = a[i + 1, i] = -1
        a[2, 1] = -2
    elif lie_type == "G":
        # node 1 long, node 2 short
        a[0, 1] = -1
        a[1, 0] = -3
    return a


def _symmetrizer(a):
    """Coprime integers d_i with d_i a_ij = d_j a_ji; the long roots get
    the largest."""
    n = len(a)
    d = [None] * n
    # each a_ij / a_ji is 1, 2, 3, 1/2 or 1/3, and only one differs from 1
    d[0] = 6
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if a[i][j] != 0 and i != j and d[j] is None:
                d[j] = d[i] * a[i][j] // a[j][i]
                todo.append(j)
    g = math.gcd(*d)
    return tuple(x // g for x in d)


class Exponents(NamedTuple):
    """Exponent vector y = num / den of a torus point, in lowest terms.

    ``den`` is the lcm of the reduced denominators of the y[i], so
    gcd(den, *num) == 1 and lambda(xi) = (lambda . num) / den.
    """
    num: tuple
    den: int


class RootDatum:
    """Immutable simple root system with cached multiplicity data.

    Instances hash by identity; rho's orbit walk, the weight systems and
    the tensor products are held in util.memo tables keyed by the instance,
    so one instance is safe to share between threads.
    """

    def __init__(self, lie_type, rank):
        if lie_type not in _SUPPORTED:
            raise UnsupportedType(f"unknown Lie type {lie_type!r}")
        lo, hi = _SUPPORTED[lie_type]
        if not lo <= rank <= hi:
            raise UnsupportedType(f"{lie_type}{rank} outside supported table "
                                  f"{lie_type}({lo}..{hi})")
        self.lie_type = lie_type
        self.rank = rank
        self.cartan = _cartan_matrix(lie_type, rank)
        # column j as plain ints: the simple root alpha_j in weight coordinates
        self._cols = tuple(tuple(int(x) for x in self.cartan[:, j]) for j in range(rank))
        # A^{-1} = adjugate / determinant
        self._cinv_num, self._cinv_den = integer_inverse(self.cartan.tolist())
        self.rho = tuple([1] * rank)

        self.symmetrizer = _symmetrizer(self.cartan.tolist())
        # form on weight coordinates: F[i][j] = d_i (A^{-1})[i][j] / max(d),
        # in lowest terms
        num = [[d * x for x in row] for d, row in zip(self.symmetrizer, self._cinv_num)]
        den = max(self.symmetrizer) * self._cinv_den
        g = math.gcd(den, *(x for row in num for x in row))
        self._form_num = [[x // g for x in row] for row in num]
        self._form_den = den // g
        # <w, rho^vee> det A = sum_j w_j (column sum j of the adjugate)
        self._heights = tuple(sum(col) for col in zip(*self._cinv_num))

        self._build_roots()
        self._build_theta_data()

    # -- static data -------------------------------------------------

    def _build_roots(self):
        """Positive roots: the simple roots closed under the simple
        reflections that raise them, s_i b = b - <b, alpha_i^vee> alpha_i
        for <b, alpha_i^vee> < 0.  Every other positive root b has some
        <b, alpha_i^vee> > 0, and s_i b is then a lower positive root
        (Humphreys, Introduction to Lie Algebras, 10.2-10.3)."""
        n = self.rank
        a = self.cartan.tolist()
        todo = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        found = set(todo)
        for beta in todo:     # simple-root coordinates
            for i, row in enumerate(a):
                p = sum(map(operator.mul, row, beta))
                if p < 0:
                    up = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                    if up not in found:
                        found.add(up)
                        todo.append(up)
        alpha = np.array(sorted(found, key=lambda r: (sum(r), r)), dtype=np.int64)
        self.positive_roots_alpha = alpha
        self.positive_roots = alpha @ self.cartan.T

    def _build_theta_data(self):
        # the roots go up in height, and theta is the one highest
        pr = self.positive_roots
        self.highest_root = tuple(int(x) for x in pr[-1])
        self.marks = tuple(int(x) for x in self.positive_roots_alpha[-1])

        # <r, .> scaled by form_den, as integer rows, and <r, r> scaled alike
        fr = pr @ np.array(self._form_num, dtype=np.int64).T
        norms = (fr * pr).sum(axis=1)
        assert norms.max() == 2 * self._form_den, \
            "normalized form must give <theta,theta> = 2"
        # per positive root: (r, F r, <r, r>) as ints, so that <x, r> scaled
        # by form_den is x . F r
        self._root_forms = tuple(zip(map(tuple, pr.tolist()), fr.tolist(),
                                     norms.tolist()))
        # the last short root is the highest one; simply laced, every root
        # counts as long
        shorts = [i for i, nm in enumerate(norms) if nm < 2 * self._form_den]
        self.highest_short_root = tuple(int(x) for x in pr[shorts[-1]]) \
            if shorts else self.highest_root

        # coroot of theta in the simple-coroot basis -> dual Kac labels
        # (A^T)^{-1} m with m_j = d_j theta_j / max(d), from the adjugate
        mvec = [d * x for d, x in zip(self.symmetrizer, self.highest_root)]
        scale = max(self.symmetrizer) * self._cinv_den
        dm = [sum(row[i] * m for row, m in zip(self._cinv_num, mvec))
              for i in range(self.rank)]
        assert all(x % scale == 0 for x in dm)
        self.dual_marks = tuple(x // scale for x in dm)
        self.dual_coxeter = 1 + sum(self.dual_marks)

        # per positive root: integer vector cv with lambda(root^vee) = cv . lambda,
        # cv = 2 <r, .> / <r, r>; the form_den scale cancels
        cv, rem = np.divmod(2 * fr, norms[:, None])
        assert not rem.any()
        self.coroot_pairings = cv

    @property
    def simple_roots(self):
        """Simple roots in fundamental-weight coordinates (alpha_j = column j)."""
        return self._cols

    # -- elementary weight arithmetic ---------------------------------

    def exponent_vector(self, xi, den=1):
        """Exponents y with y[i] = omega_i(xi / den) for the coweight-coordinate
        point xi / den; the coordinates of xi are ints or Fractions."""
        scale = math.lcm(*(x.denominator for x in xi))
        a = [x.numerator * (scale // x.denominator) for x in xi]
        # y = (A^{-1})^T xi = (adj^T a) / (det * scale * den), then lowest terms
        num = [sum(row[i] * x for row, x in zip(self._cinv_num, a))
               for i in range(self.rank)]
        den *= self._cinv_den * scale
        g = math.gcd(den, *num)
        return Exponents(tuple(x // g for x in num), den // g)

    def height(self, w):
        """<w, rho^vee> det A as an int: the height of w (the sum of its
        simple-root coordinates), scaled by det A > 0 to stay integral."""
        return sum(map(operator.mul, self._heights, w))

    def is_dominant(self, weight):
        return all(x >= 0 for x in weight)

    def _require_dominant(self, weight):
        if not self.is_dominant(weight):
            raise NonDominant(f"{weight} is not dominant for {self}")

    def dominant_rep_signed(self, vec):
        """Fold vec into the dominant chamber.

        Returns (dominant tuple, sign, on_wall).  A vector fixed by some
        reflection reports on_wall=True (its chamber representative then
        has a zero coordinate).
        """
        v = tuple(int(x) for x in vec)
        sign = 1
        while True:
            i = next((i for i, x in enumerate(v) if x < 0), None)
            if i is None:
                break
            x = v[i]
            v = tuple(a - x * b for a, b in zip(v, self._cols[i]))
            sign = -sign
        return v, sign, 0 in v

    def dominant_rep(self, vec):
        return self.dominant_rep_signed(vec)[0]

    def dual_weight(self, weight):
        """Highest weight of the dual representation, -w0(lambda)."""
        return self.dominant_rep([-x for x in weight])

    # -- Weyl group ----------------------------------------------------

    def _orbit_chunks(self, vec):
        """The Weyl orbit of a strictly dominant vector with (-1)^length
        signs, as a stream of (rows int64, signs int8) chunks.

        The first row is vec, and the rows come layer by layer in the length
        of w in w.vec.  Every chunk but the last holds _PHASE_BLOCK // rank
        rows, cut from consecutive layers; a chunk inside one layer is a view
        of it.  Besides the chunk handed out, only the layer being replayed,
        the one before it and the pieces waiting for a chunk are held.

        Each step of the walk of a regular dominant x applies s_i to rows
        w.x with <w.x, alpha_i^vee> > 0 and keeps an image whose first
        negative coordinate is i.  Both tests read only the signs of the
        roots w^{-1} alpha_j, so the walk of x takes the steps of rho's walk
        in the same order, and its orbit rows come out in the same order
        with the same signs.
        """
        vec = tuple(int(x) for x in vec)
        if min(vec) <= 0:
            raise ValueError("a Weyl orbit stream needs a strictly dominant vector")
        cap = _chunk_rows(self.rank)
        held = []                   # (rows, sign) pieces of the next chunk
        size = 0

        def merged():
            pieces, signs = zip(*held)
            rows = pieces[0] if len(pieces) == 1 else np.vstack(pieces)
            signs = np.repeat(np.array(signs, dtype=np.int8), [len(x) for x in pieces])
            held.clear()            # before the chunk is handed out
            return rows, signs

        for k, layer in enumerate(self._replay(vec)):
            s = 0
            while s < len(layer):
                piece = layer[s:s + cap - size]
                held.append((piece, 1 - 2 * (k & 1)))
                size += len(piece)
                s += len(piece)
                if size == cap:
                    yield merged()
                    size = 0
        if held:
            yield merged()

    def _replay(self, vec):
        """The layers of vec's orbit, each built from the one before by the
        steps of rho's walk."""
        a = self.cartan
        # s_i x = x - x_i alpha_i changes only the coordinates j with
        # a[j, i] != 0: each j != i in place from column i, then x_i -> -x_i,
        # with no temporary of the block's rows x rank
        touched = [[(j, int(a[j, i])) for j in np.flatnonzero(a[:, i]).tolist() if j != i]
                   for i in range(self.rank)]
        layer = np.array([vec], dtype=np.int64)
        yield layer
        for blocks in self._walk_rho():
            nxt = np.empty((sum(len(p) for _, p in blocks), self.rank), dtype=np.int64)
            pos = 0
            for i, parents in blocks:
                rows = nxt[pos:pos + len(parents)]
                # every parent is a row of layer; mode "raise" would stage
                # the block in a buffer before it writes out
                np.take(layer, parents, axis=0, out=rows, mode="clip")
                x = rows[:, i]
                for j, aji in touched[i]:
                    if aji == -1:
                        rows[:, j] += x
                    else:
                        rows[:, j] -= aji * x
                # not np.negative(x, out=x), which numpy 2.4.6 gets wrong on
                # a strided int64 column
                x *= -1
                pos += len(parents)
            layer = nxt
            yield layer

    @memo
    def _walk_rho(self):
        """The steps of rho's orbit walk, walked once: per layer after the
        first, its (reflection i, int32 rows of the layer before) blocks.
        No orbit row is kept."""
        steps = []
        for _ in self._orbit_layers(np.array([self.rho], dtype=np.int64), steps):
            pass
        # the longest element's layer has no images
        return tuple(tuple((i, p) for i, p in layer if len(p)) for layer in steps[:-1])

    def _orbit_layers(self, cur, steps=None):
        """The Weyl orbits of the dominant rows of cur, layer by layer.

        Columns past the rank are a payload that each image copies from its
        parent.  A non-dominant x has one parent s_i.x, with i its first
        negative coordinate (the step dominant_rep_signed takes), so s_i is
        applied to rows with coordinate i > 0 and an image is kept only when
        i is its first negative coordinate: every orbit point is generated
        once.  For regular x these steps go up in the length of w
        (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).

        A list passed as steps receives, per layer, the (i, parents) blocks
        of its images, parents as int32 rows of that layer.
        """
        n = self.rank
        a = self.cartan
        while len(cur):
            yield cur
            nxt, blocks = [], []
            for i in range(n):
                up = cur[:, i] > 0
                w = cur[up]
                w[:, :n] -= w[:, i:i + 1] * a[:, i]
                keep = (w[:, :i] >= 0).all(axis=1)
                nxt.append(w[keep])
                if steps is not None:
                    blocks.append((i, np.flatnonzero(up)[keep].astype(np.int32)))
            if steps is not None:
                steps.append(blocks)
            cur = np.vstack(nxt)

    # -- dimensions and weight multiplicities --------------------------

    def weyl_dimension(self, weight):
        """dim V(lambda) by the Weyl dimension formula, exact."""
        self._require_dominant(weight)
        lr = np.array(weight, dtype=np.int64) + 1
        rho = np.ones(self.rank, dtype=np.int64)
        num = den = 1
        for cv in self.coroot_pairings:
            num *= int(cv @ lr)
            den *= int(cv @ rho)
        assert num % den == 0
        return num // den

    def weight_system(self, weight):
        """All weights of V(lambda) with multiplicities (Freudenthal).

        Returns a dict {weight tuple: multiplicity}, cached.
        """
        key = tuple(int(x) for x in weight)
        self._require_dominant(key)
        return self._weights(key)

    @memo
    def _weights(self, key):
        """weight_system's dict of V(key), the only form that is cached."""
        vecs, mults = self._weight_system_uncached(key)
        return dict(zip(map(tuple, vecs.tolist()), mults.tolist()))

    def _weight_system_uncached(self, lam):
        def norm2(v):
            # <v, v> scaled by form_den
            return sum(x * sum(map(operator.mul, row, v))
                       for x, row in zip(v, self._form_num))

        # The dominant weights of V(lambda) are the dominant mu <= lambda, and
        # each is reached from lambda through dominant weights, one positive
        # root at a time (Stembridge, "The partial order of dominant
        # weights", 1998).
        seen = {lam}
        todo = [lam]
        for mu in todo:
            for r, _, _ in self._root_forms:
                nu = tuple(map(operator.sub, mu, r))
                if nu not in seen and min(nu) >= 0:
                    seen.add(nu)
                    todo.append(nu)
        order = sorted(seen, key=lambda mu: (-self.height(mu), mu))

        # Freudenthal on the dominant weights only, by decreasing height, each
        # mu + k r read at its dominant representative (as in Moody-Patera,
        # "Fast recursion formula for weight multiplicities", 1982).  That
        # representative lies strictly above mu, so it is done already.
        top = norm2([x + 1 for x in lam])
        mult = {lam: 1}
        for mu in order[1:]:
            denom = top - norm2([m + 1 for m in mu])
            assert denom > 0
            acc = 0
            for r, fr, rr in self._root_forms:
                # <mu + k r, r> scaled by form_den, for k = 1, 2, ...; the
                # r-string through mu has no gaps
                pair = sum(map(operator.mul, mu, fr))
                up = mu
                while True:
                    up = tuple(map(operator.add, up, r))
                    m = mult.get(self.dominant_rep(up), 0)
                    if not m:
                        break
                    pair += rr
                    acc += m * pair
            num = 2 * acc
            assert num % denom == 0, "Freudenthal recursion must stay integral"
            mult[mu] = num // denom

        # Every other weight, in one batched walk of the dominant rows'
        # orbits, with the multiplicity riding along as a last column
        n = self.rank
        cur = np.array([mu + (mult[mu],) for mu in order], dtype=np.int64)
        rows = np.vstack(list(self._orbit_layers(cur)))
        return np.ascontiguousarray(rows[:, :n]), rows[:, n].copy()

    # -- tensor products ------------------------------------------------

    def tensor_with_character(self, lam, weights):
        """Decompose V(lam) (x) X where X has the given weight multiset.

        Klimyk: fold lam+rho+mu for every weight mu of X; a vector hitting
        a reflection wall contributes zero.
        """
        self._require_dominant(lam)
        lr = tuple(x + 1 for x in lam)
        out = {}
        for mu, m in weights.items():
            v = tuple(lr[i] + mu[i] for i in range(self.rank))
            dom, sign, wall = self.dominant_rep_signed(v)
            if wall:
                continue
            eta = tuple(x - 1 for x in dom)
            out[eta] = out.get(eta, 0) + sign * m
        out = {k: v for k, v in out.items() if v != 0}
        if any(v < 0 for v in out.values()):
            raise AssertionError("negative tensor multiplicity: corrupted input character")
        return out

    def tensor_multiplicities(self, lam, mu):
        """V(lam) (x) V(mu) as a map {nu: multiplicity}.

        Klimyk runs over the weights of whichever factor has fewer of them;
        the result is cached per unordered pair, and a copy is returned.
        """
        lam = tuple(int(x) for x in lam)
        mu = tuple(int(x) for x in mu)
        self._require_dominant(lam)
        self._require_dominant(mu)
        return dict(self._tensor(*sorted((lam, mu))))

    @memo
    def _tensor(self, lam, mu):
        if len(self.weight_system(lam)) < len(self.weight_system(mu)):
            lam, mu = mu, lam
        return self.tensor_with_character(lam, self.weight_system(mu))

    # -- characters -------------------------------------------------------

    def root_pairings(self, y):
        """r . y.num for every positive root r: the numerators of r(xi) over y.den."""
        return (self.positive_roots @ y.num).tolist()

    def point_is_regular(self, y):
        """exp(2 pi i y-pairing) differs from 1 on every root."""
        return all(p % y.den for p in self.root_pairings(y))

    def character_at_exponents(self, lam, ys):
        """Residue counts of the Weyl numerator of chi_lambda at every point
        y of ys: one int64 array c of length y.den per point, for
        sum_r c[r] zeta^r with zeta = e^{2 pi i / y.den}.

        The counts are those of the alternating orbit of lam+rho, so the sum
        is chi_lambda(t) e^rho prod_{alpha>0} (1 - e^{-alpha}); no weight
        multiplicity is read.
        """
        self._require_dominant(lam)
        lr = tuple(x + 1 for x in lam)
        return _phase_sums(self._orbit_chunks(lr), ys, self._reach(lr))

    def _reach(self, v):
        """max <v, beta^vee> over the positive coroots, for dominant v: no
        coordinate of a weight in W.v is larger in size."""
        return max(sum(map(operator.mul, cv, v)) for cv in self.coroot_pairings.tolist())

    def __repr__(self):
        return f"RootDatum({self.lie_type}{self.rank})"


def _phase_sums(chunks, ys, reach):
    """Per point y of ys, the int64 counts c of length y.den, c[r] the sum of
    weights[j] over the rows j of the (rows, weights) chunks with
    rows[j] . y.num = r (mod y.den); no row entry is above reach in size.

    The points are taken in blocks of one denominator den, at most
    _PHASE_BLOCK phases a block, and each block costs the same few numpy
    calls however many points it holds.  One float64 matrix product gives
    its integer phases, exact because the guard below keeps them under
    2^53.  Point k's phases are shifted by a multiple of den to start in
    [k n, k n + den), for n the longest range of the block rounded up to a
    multiple of den; one bincount then sums the weights per phase, and one
    reshape-sum folds each point's n entries onto its den residues.  Where
    n is more than _SPAN_PER_ROW times the chunk's rows (a huge weight), the
    phases are reduced mod den first, so memory follows the rows, not the
    weight.
    """
    if not ys:
        return []
    dens = np.array([y.den for y in ys], dtype=np.int64)
    # with y.num reduced mod den into [-den/2, den/2), each of the rank terms
    # of a phase is below den * reach in size, and the phases of a chunk
    # spread over about half the range they would from [0, den)
    if len(ys[0].num) * int(dens.max()) * reach >= 1 << 53:
        raise IntegralityError("torus-point phases reach 2^53: float64 "
                               "products would not be exact")
    # per denominator: its points, their exponents and their counts
    groups = []
    for den in sorted(set(dens.tolist())):
        idx = np.flatnonzero(dens == den).tolist()
        nums = np.array([[(x + den // 2) % den - den // 2 for x in ys[k].num]
                         for k in idx], dtype=np.float64)
        groups.append((den, idx, nums, np.zeros((len(idx), den), dtype=np.int64)))
    most = max(len(idx) for _, idx, _, _ in groups)
    work = {}

    def scratch(name, size, dtype):
        # a flat work array kept across chunks and blocks, grown as needed
        if name not in work or work[name].size < size:
            work[name] = np.empty(size, dtype)
        return work[name][:size]

    for rows, weights in chunks:
        m = len(rows)
        step = min(max(1, _PHASE_BLOCK // m), most)     # points per block
        rows_f = scratch("rows", rows.size, np.float64).reshape(rows.shape)
        np.copyto(rows_f, rows)
        # the weights once per point of a full block
        tiled = scratch("weights", step * m, np.float64)
        np.copyto(tiled.reshape(step, m), weights)
        offsets = np.arange(step)
        for den, _, nums, counts in groups:
            for s in range(0, len(nums), step):
                block = nums[s:s + step]
                p = len(block)
                # the float64 product, converted to int64 in place: numpy
                # copies between the same flat memory element by element,
                # with no temporary
                flat = scratch("phases", p * m, np.int64)
                np.matmul(block, rows_f.T, out=flat.view(np.float64).reshape(p, m))
                np.copyto(flat, flat.view(np.float64), casting="unsafe")
                phases = flat.reshape(p, m)
                lo = phases.min(axis=1)
                lo -= lo % den
                n = int((phases.max(axis=1) - lo).max()) // den * den + den
                if n > _SPAN_PER_ROW * m:
                    np.remainder(phases, den, out=phases)
                    lo[:] = 0
                    n = den
                phases -= (lo - n * offsets[:p])[:, None]
                raw = np.bincount(flat, weights=tiled[:p * m], minlength=p * n)
                mine = counts[s:s + p]
                np.add(mine, raw.reshape(p, -1, den).sum(axis=1), out=mine,
                       casting="unsafe")
    out = [None] * len(ys)
    for _, idx, _, counts in groups:
        for k, c in zip(idx, counts):
            out[k] = c
    return out


@memo
def build_root_datum(lie_type, rank):
    """Construct (or fetch the cached) RootDatum for a supported type."""
    return RootDatum(lie_type, rank)
