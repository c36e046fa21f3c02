"""Small exact-arithmetic helpers: rational linear algebra, integer
determinants, deterministic summation, and the package's one cache idiom."""

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


def integer_determinant(mat):
    """Exact determinant of a square integer matrix.

    Fraction-free (Bareiss) elimination over Python ints: every division
    is exact, so no entry grows past the size of a minor.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
