"""Rational Gauss-Jordan oracles, independent of the library's kernel.

:func:`rref` is textbook Gauss-Jordan elimination over ``Fraction``: each
pivot row is divided by its pivot and the pivot column cleared above and
below.  The library reads ``rank``, ``integer_nullspace``,
``integer_solve`` and ``unimodular_inverse`` off a fraction-free integer
elimination instead; the functions here answer the same questions the
slow, obvious way so tests can compare the two, the rational answers
scaled by :func:`integer_kernel` and :func:`integer_solution` to the
library's integer ones.  :func:`mat_mul`, the
integer matrix product, checks the library's inverses and transforms.
"""

from fractions import Fraction
from math import gcd, lcm


def rref(m, ncols=None, steps=None):
    """Reduced row echelon form of ``m`` over the rationals.

    Returns ``(a, pivots, det)`` with pivots sought in the first ``ncols``
    columns; ``det`` is the product of the pivots times the sign of the
    row swaps, the determinant when ``m`` is square (0 when singular).
    Given a list ``steps``, each elimination step appends its pivot, before
    the pivot row is divided by it, and the number of other rows that are
    0 in the pivot column.
    """
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det *= a[r][c]
        if steps is not None:
            steps.append((a[r][c], sum(1 for i in range(nrows) if i != r and a[i][c] == 0)))
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    if len(pivots) < ncols:
        det = Fraction(0)
    return a, pivots, det


def rank(m):
    return len(rref(m)[1])


def det(m):
    return int(rref(m)[2])


def nullspace(m):
    a, pivots, _ = rref(m)
    ncols = len(m[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        basis.append(tuple(vec))
    return basis


def solve(m, b):
    ncols = len(m[0])
    a, pivots, _ = rref([list(row) + [bb] for row, bb in zip(m, b)], ncols)
    if any(row[ncols] != 0 for row in a[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        sol[pc] = a[i][ncols]
    return tuple(sol)


def integer_kernel(m):
    """:func:`nullspace` with each vector scaled to a primitive integer
    vector, positive in its free column."""
    out = []
    for vec in nullspace(m):
        ints = [int(x * lcm(*(x.denominator for x in vec))) for x in vec]
        out.append(tuple(x // gcd(*ints) for x in ints))
    return out


def integer_solution(m, b):
    """:func:`solve` when its answer is an integer vector, else None."""
    sol = solve(m, b)
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def inverse(m):
    """Rational inverse of a nonsingular square matrix, or None."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    a, pivots, _ = rref(aug, n)
    if len(pivots) < n:
        return None
    return tuple(tuple(row[n:]) for row in a)


def mat_mul(a, b):
    """The integer matrix product of row tuples, as a tuple of row tuples."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("matrix product of mismatched shapes")
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)
