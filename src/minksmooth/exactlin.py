"""Exact integer linear algebra kernels.

Everything operates on immutable tuples of Python ints (arbitrary
precision); every answer is an integer, no ``Fraction`` is made, and there
is no floating point anywhere.  Vectors are ``tuple[int, ...]``, matrices
are tuples of row vectors.  A rational kernel comes back as primitive
integer vectors, and a linear system is solved only where its answer is
an integer vector.

``rank``, ``det``, ``kernel_vector``, ``integer_nullspace``,
``integer_solve`` and ``adjugate`` (so ``unimodular_inverse``) all read
their answers off one kernel, :func:`_gauss_jordan`: fraction-free Gauss-Jordan elimination over the
integers (Bareiss's single-step division by the previous pivot, in the
Gauss-Jordan form of Nakos, Turner and Williams), which returns ``d``
times the reduced row echelon form with ``d`` a minor of the input.  A
step with pivot ``p`` maps each other row x to (p * x - f * y) / d, with
f its entry in the pivot column and y the pivot row.  A row with f == 0
only becomes p * x / d: it is left alone when p == d, as in the
near-identity matrices whose inverses ``summand_matrices`` takes, and
only rescaled otherwise.

The lattice normal forms rest on one unimodular reduction,
:func:`_hermite`.  :func:`hnf` runs it on the matrix with the identity
appended, so the transform rides along; ``complete_to_basis`` reads a
basis off that transform.  ``snf_invariant_factors`` alternates it on a
matrix and its transpose and reads only the forms, so it builds no
transform.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, mul, sub

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class NotPrimitive(ValueError):
    """Rows do not extend to a lattice basis (some invariant factor != 1)."""


class NotUnimodular(ValueError):
    """Square integer matrix whose determinant is not +-1."""


class CrossCheckError(RuntimeError):
    """An internal cross-check failed: a result contradicts its own invariant."""


def as_vec(seq) -> IntVec:
    return tuple(map(int, seq))


def as_mat(rows) -> IntMat:
    return tuple(as_vec(r) for r in rows)


def dot(u, v) -> int:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def vec_add(u, v) -> IntVec:
    return tuple(map(add, u, v))


def vec_sub(u, v) -> IntVec:
    return tuple(map(sub, u, v))


def vec_neg(u) -> IntVec:
    return tuple(-a for a in u)


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def primitive(u) -> IntVec:
    """Divide a nonzero vector by the gcd of its entries; direction is kept."""
    g = gcd(*u)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in u)


def sign_normalized(u) -> IntVec:
    """Flip sign so the first nonzero entry is positive (for line directions)."""
    for a in u:
        if a != 0:
            return u if a > 0 else vec_neg(u)
    return u


def identity(n) -> IntMat:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def support(points, c) -> int:
    """max over v in ``points`` of <c, -v>: the support function of their
    hull at ``c``.  It adds up under Minkowski sums, h_{A+B} = h_A + h_B."""
    return max(-dot(c, v) for v in points)


def gcdex(a, b) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``x a + y b = g = gcd(a, b) >= 0``, by extended Euclid."""
    r0, r1, x0, x1, y0, y1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
    return (r0, x0, y0) if r0 >= 0 else (-r0, -x0, -y0)


def transpose(m) -> IntMat:
    return tuple(zip(*m)) if m else ()


def _gauss_jordan(m, ncols=None):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns ``(a, pivots, d, sign)``.  Row ``i < len(pivots)`` of ``a`` is
    ``d`` times row ``i`` of the reduced row echelon form of ``m``, with
    its pivot in column ``pivots[i]``; ``d`` is the last pivot, a minor of
    ``m`` (1 when there is none), and ``sign`` the sign of the row swaps,
    so ``sign * d`` is the determinant of a nonsingular square ``m``.
    Pivots are sought only in the first ``ncols`` columns (all by default),
    so augmented columns ride along; the rows below the pivot rows then
    hold ``d`` times what is left of them.  Each step divides exactly by
    the previous pivot (Bareiss), so every entry stays a minor of ``m``.
    """
    a = [list(r) for r in m]
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots = []
    d, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        for piv in range(r, len(a)):
            if a[piv][c]:
                break
        else:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p, prow = a[r][c], a[r]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                if f:
                    a[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
                elif p != d:
                    # (p * x - 0 * y) / d: a row that is 0 in the pivot
                    # column is only rescaled, and left alone when p == d
                    a[i] = [p * x // d for x in row]
        d = p
        pivots.append(c)
    return a, pivots, d, sign


def rank(m) -> int:
    """Rank over the rationals of an integer matrix (a sequence of int rows)."""
    return len(_gauss_jordan(m)[1])


def _hermite(a, ncols) -> list[list[int]]:
    """Row Hermite normal form of the list of int rows ``a``, in place.

    Pivots are sought only in the first ``ncols`` columns, so augmented
    columns ride along with the row operations (:func:`hnf` carries its
    transform that way).
    """
    nrows = len(a)
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if a[i][c] != 0]
            if not nz:
                break
            i0 = nz[0] if len(nz) == 1 else min(nz, key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, nrows):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < nrows and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q != 0:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
            if r == nrows:
                break
    return a


def hnf(m) -> tuple[IntMat, IntMat]:
    """Row Hermite normal form.

    Returns ``(h, u)`` with ``u`` unimodular and ``u @ m == h``.  Convention:
    row echelon, pivots positive, entries above each pivot reduced into
    ``[0, pivot)``.
    """
    if not m:
        raise ValueError("empty matrix")
    ncols = len(m[0])
    a = _hermite([[*map(int, r), *e] for r, e in zip(m, identity(len(m)))], ncols)
    return tuple(tuple(r[:ncols]) for r in a), tuple(tuple(r[ncols:]) for r in a)


def snf_invariant_factors(m) -> list[int]:
    """Diagonal of the Smith normal form (nonnegative, each dividing the next).

    Row Hermite forms of the matrix and of its transpose alternate until
    no off-diagonal entry is left; only the forms are needed, so they are
    built with no transform (:func:`_hermite`).  Each step is unimodular,
    so that diagonal matrix is equivalent to ``m``; as diag(a, b) is
    equivalent to diag(gcd(a, b), lcm(a, b)), one gcd/lcm pass over its
    diagonal gives the divisibility chain, zeros last.
    """
    if not m:
        raise ValueError("empty matrix")
    a = [list(map(int, r)) for r in m]
    while any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a)):
        a = _hermite(a, len(a[0]))
        at = _hermite([list(r) for r in zip(*a)], len(a))
        a = [list(r) for r in zip(*at)]
    d = [abs(a[i][i]) for i in range(min(len(a), len(a[0])))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d


def complete_to_basis(v) -> IntMat:
    """Complete primitive rows to a lattice basis, canonically.

    Given an m x n integer matrix whose rows form a primitive system,
    return the (n-m) x n matrix ``e`` such that stacking ``[v; e]`` is
    unimodular.  The choice is the HNF-based one, hence deterministic.
    """
    v = as_mat(v)
    if not v:
        raise ValueError("empty matrix")
    mrows, n = len(v), len(v[0])
    if mrows > n or any(f != 1 for f in snf_invariant_factors(v)):
        raise NotPrimitive(f"rows do not extend to a basis of Z^{n}")
    h, u = hnf(transpose(v))
    # primitivity forces h == [I; 0], so v == first m rows of (u^{-1})^T
    uinv = unimodular_inverse(u)
    x = transpose(uinv)
    if x[:mrows] != v:
        raise CrossCheckError("HNF completion failed to reproduce input rows")
    return x[mrows:]


def det(x) -> int:
    """Determinant of a square integer matrix: one elimination of ``x``
    alone, over n columns where :func:`adjugate` takes 2n."""
    _, pivots, d, sign = _gauss_jordan(x)
    return sign * d if len(pivots) == len(x) else 0


def kernel_vector(m, ncols) -> IntVec | None:
    """The primitive integer vector spanning the kernel of an integer matrix
    with ``ncols`` columns and rank ``ncols - 1``, up to sign; None when the
    rank is lower.  Two rows in Q^3, the common case of a Minkowski sum off
    the plane, give their cross product at a fifth of an elimination's
    cost; otherwise it is :func:`integer_nullspace`'s one vector.  With no
    rows the kernel is the whole space, one-dimensional iff ``ncols`` is 1."""
    if ncols == 3 and len(m) == 2:
        (a, b, c), (x, y, z) = m
        w = (b * z - c * y, c * x - a * z, a * y - b * x)
        return primitive(w) if any(w) else None
    if not m:
        return (1,) if ncols == 1 else None
    kernel = integer_nullspace(m)
    return kernel[0] if len(kernel) == 1 else None


def adjugate(x) -> tuple[int, IntMat]:
    """``(det x, adj x)`` for a square integer matrix, with ``adj x = det x * x^{-1}``;
    the adjugate is ``()`` when ``det x`` is 0."""
    n = len(x)
    a, pivots, d, sign = _gauss_jordan([tuple(row) + e for row, e in zip(x, identity(n))], n)
    if len(pivots) < n:
        return 0, ()
    # a == d * [I | x^{-1}] and det x == sign * d
    return sign * d, tuple(tuple(sign * v for v in row[n:]) for row in a)


def unimodular_inverse(x) -> IntMat:
    """Exact integer inverse of a matrix with determinant +-1."""
    x = as_mat(x)
    if any(len(r) != len(x) for r in x):
        raise ValueError("unimodular inverse needs a square matrix")
    dt, adj = adjugate(x)
    if dt not in (1, -1):
        raise NotUnimodular(f"determinant is {dt}, not +-1")
    return adj if dt == 1 else tuple(tuple(-v for v in row) for row in adj)


def integer_nullspace(m) -> list[IntVec]:
    """Basis of the rational kernel {x : m x = 0} of an integer matrix, one
    primitive integer vector per free column, positive there: the free
    column gets ``d`` and each pivot column minus its row's free entry, off
    ``d`` times the reduced row echelon form."""
    if not m:
        return []
    a, pivots, d, _ = _gauss_jordan(m)
    ncols = len(m[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        w = [0] * ncols
        w[fc] = d
        for row, pc in zip(a, pivots):
            w[pc] = -row[fc]
        basis.append(primitive(w if d > 0 else vec_neg(w)))
    return basis


def integer_solve(m, b) -> IntVec | None:
    """The solution of m x = b whose free variables are zero, when it is an
    integer vector; None when it is not, or when m x = b is inconsistent.
    ``b`` needs one entry per row of ``m``.
    """
    if len(b) != len(m):
        raise ValueError(f"dimension mismatch: {len(m)} rows vs {len(b)} right-hand sides")
    if not m:
        return ()
    ncols = len(m[0])
    a, pivots, d, _ = _gauss_jordan([tuple(row) + (bb,) for row, bb in zip(m, b)], ncols)
    if any(row[ncols] != 0 for row in a[len(pivots):]):
        return None
    sol = [0] * ncols
    for row, pc in zip(a, pivots):
        q, r = divmod(row[ncols], d)
        if r:
            return None
        sol[pc] = q
    return tuple(sol)
