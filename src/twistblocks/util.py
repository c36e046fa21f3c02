"""Small exact-arithmetic helpers: integer determinants and inverses, and
the package's one cache idiom."""

import functools
import threading


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


def integer_determinant(mat):
    """Exact determinant of a square integer matrix.

    Fraction-free (Bareiss) elimination over Python ints: every division
    is exact, so no entry grows past the size of a minor.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    if n == 0:
        return 1
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


def integer_inverse(mat):
    """(adjugate, determinant) of a square integer matrix, so that
    mat^{-1} = adj / det; adj[i][j] is the cofactor of entry (j, i)."""
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    adj = [[(-1) ** (i + j) * integer_determinant(
                [row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j])
            for j in range(n)] for i in range(n)]
    return adj, integer_determinant(a)
