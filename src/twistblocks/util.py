"""Small exact-arithmetic helpers: rational linear algebra, Smith normal form,
deterministic summation, and the package's one cache idiom."""

import functools
import threading
from fractions import Fraction
from math import gcd


def memo(fn):
    """Cache fn by its positional arguments, process-wide.

    A miss computes outside the lock and stores with setdefault, so racing
    callers all get the first stored value: one object per key, which the
    identity-keyed tables downstream rely on.  The table is ``.cache``.
    """
    cache = {}
    lock = threading.Lock()

    @functools.wraps(fn)
    def cached(*args):
        hit = cache.get(args)
        if hit is None:
            value = fn(*args)
            with lock:
                hit = cache.setdefault(args, value)
        return hit

    cached.cache = cache
    return cached


def rational_inverse(mat):
    """Invert a square integer/rational matrix exactly.

    Returns a list of rows of Fractions.  Gauss-Jordan with exact pivots;
    fine for the rank <= 8 matrices used here.
    """
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def solve_rational(mat, vec):
    """Solve mat @ x = vec exactly; mat square integer/rational."""
    inv = rational_inverse(mat)
    n = len(vec)
    return tuple(sum(inv[i][j] * Fraction(vec[j]) for j in range(n)) for i in range(n))


def fraction_lcm_den(xs):
    """lcm of the denominators of an iterable of Fractions."""
    d = 1
    for x in xs:
        x = Fraction(x)
        d = d * x.denominator // gcd(d, x.denominator)
    return d


def tree_sum(values):
    """Pairwise (tree) accumulation of complex values.

    The result depends only on the input order, so the Verlinde point sums
    are reproducible bit for bit.
    """
    xs = list(values)
    if not xs:
        return 0j
    while len(xs) > 1:
        nxt = []
        for i in range(0, len(xs) - 1, 2):
            nxt.append(xs[i] + xs[i + 1])
        if len(xs) % 2:
            nxt.append(xs[-1])
        xs = nxt
    return complex(xs[0])


def round_half_away(x):
    """Round a real number half-away-from-zero to an int."""
    if x >= 0:
        return int(x + 0.5)
    return -int(-x + 0.5)


def smith_normal_form(mat):
    """Smith normal form of an integer matrix.

    Returns (divisors, U, V) with U @ mat @ V diagonal = diag(divisors),
    U, V unimodular.  Plain textbook algorithm over Python ints.
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + f * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, m):
                if a[i][t] % a[t][t] != 0:
                    done = False
                q = a[i][t] // a[t][t]
                if q:
                    add_row(t, i, -q)
                if a[i][t] != 0:
                    swap_rows(t, i)
                    done = False
            for j in range(t + 1, n):
                if a[t][j] % a[t][t] != 0:
                    done = False
                q = a[t][j] // a[t][t]
                if q:
                    add_col(t, j, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    done = False
            if done:
                break
        for i in range(t + 1, m):
            a[i][t] = 0
        for j in range(t + 1, n):
            a[t][j] = 0
        t += 1

    # enforce divisibility chain d_i | d_{i+1}
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if a[i][i] and a[i + 1][i + 1] % a[i][i] != 0:
                add_col(i + 1, i, 1)
                # re-reduce the 2x2 block
                while a[i + 1][i] != 0:
                    if abs(a[i + 1][i]) <= abs(a[i][i]):
                        qq = a[i][i] // a[i + 1][i]
                        add_row(i + 1, i, -qq)
                    swap_rows(i, i + 1)
                while a[i][i + 1] != 0:
                    qq = a[i][i + 1] // a[i][i]
                    add_col(i, i + 1, -qq)
                changed = True
    divisors = [abs(a[i][i]) for i in range(r)]
    return divisors, U, V


def lattice_index(big_basis, sub_basis):
    """Index [L_big : L_sub] for sub-lattice given by columns of each basis.

    Both bases are rational column matrices over the same coordinates; the
    sublattice must actually be contained in the big one.  The index is the
    product of the Smith divisors of the (integer) change-of-basis matrix.
    """
    n = len(big_basis)
    inv = rational_inverse(big_basis)
    x = [[sum(inv[i][k] * Fraction(sub_basis[k][j]) for k in range(n))
          for j in range(n)] for i in range(n)]
    xi = []
    for row in x:
        irow = []
        for v in row:
            v = Fraction(v)
            if v.denominator != 1:
                raise ValueError("sub_basis does not span a sublattice of big_basis")
            irow.append(int(v))
        xi.append(irow)
    divisors, _, _ = smith_normal_form(xi)
    if len(divisors) < n or any(d == 0 for d in divisors):
        raise ValueError("sub_basis is not full rank")
    idx = 1
    for d in divisors:
        idx *= d
    return idx


def dual_lattice_basis(constraint_rows):
    """Basis (columns, Fractions) of {x : r . x in Z for every row r}.

    constraint_rows is an integer matrix of full column rank n.
    """
    rows = [list(map(int, r)) for r in constraint_rows]
    n = len(rows[0])
    divisors, _, V = smith_normal_form(rows)
    if len(divisors) < n or any(d == 0 for d in divisors):
        raise ValueError("constraints do not have full column rank")
    vinv = rational_inverse(V)
    # x = V^{-1} diag(1/d) Z^n  (columns of V^{-1} scaled)
    basis = [[vinv[i][j] / divisors[j] for j in range(n)] for i in range(n)]
    return basis

