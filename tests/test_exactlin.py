import itertools
import random
from math import gcd

import linalg_oracle as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minksmooth.exactlin import (
    NotPrimitive,
    NotUnimodular,
    adjugate,
    complete_to_basis,
    det,
    hnf,
    identity,
    integer_nullspace,
    integer_solve,
    kernel_vector,
    rank,
    snf_invariant_factors,
    unimodular_inverse,
    vec_neg,
)

@st.composite
def wide_matrices(draw):
    """1-6 x 1-6 integer matrices with entries up to 10^6, many of them 0 or
    +-1 so that pivots need row swaps, some rows drawn as small
    combinations of earlier ones and some columns zeroed."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.integers(-10**6, 10**6) | st.sampled_from([0, 0, 1, -1])
    entries = st.lists(entry, min_size=ncols, max_size=ncols)
    m = [draw(entries) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            coeffs = [draw(st.integers(-3, 3)) for _ in range(i)]
            m[i] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(ncols)]
    for j in range(ncols):
        if draw(st.integers(0, 4)) == 0:
            for row in m:
                row[j] = 0
    return tuple(tuple(row) for row in m)


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=4
    )
)


def test_hnf_example():
    h, u = hnf(((2, 4), (1, 1)))
    assert h == ((1, 1), (0, 2))
    assert oracle.mat_mul(u, ((2, 4), (1, 1))) == h
    assert oracle.det(u) in (1, -1)


def test_hnf_identity_fixed_point():
    h, u = hnf(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_zero_row():
    h, u = hnf(((0, 0),))
    assert h == ((0, 0),)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_hnf_transform_invariants(rows):
    m = tuple(tuple(r) for r in rows)
    h, u = hnf(m)
    assert oracle.mat_mul(u, m) == h
    assert oracle.det(u) in (1, -1)
    # echelon with positive pivots, entries above reduced into [0, pivot)
    last = -1
    for row in h:
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        if nz is None:
            continue
        assert nz > last
        last = nz
        assert row[nz] > 0
    for i, row in enumerate(h):
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        if nz is None:
            continue
        for above in range(i):
            assert 0 <= h[above][nz] < row[nz]


def test_snf_examples():
    assert snf_invariant_factors(((2, 0), (0, 3))) == [1, 6]
    assert snf_invariant_factors(identity(3)) == [1, 1, 1]
    assert snf_invariant_factors(((1, 0), (0, 0))) == [1, 0]


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_snf_divisibility_chain(rows):
    inv = snf_invariant_factors(tuple(tuple(r) for r in rows))
    for a, b in zip(inv, inv[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


@st.composite
def matrices_with_zero_lines(draw):
    """1-4 x 1-4 integer matrices, some rows and columns zeroed."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(st.integers(-30, 30), min_size=ncols, max_size=ncols)
    m = [draw(row) for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
        m[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for r in m:
            r[j] = 0
    return tuple(tuple(r) for r in m)


@settings(max_examples=150, deadline=None)
@given(matrices_with_zero_lines())
@example(((4, 6, 10),))  # 1 x n
@example(((6,), (0,), (-9,), (15,)))  # n x 1
@example(((2, 4, 6, 8, 10, 12), (0, 3, 0, 9, 0, 3)))  # wide
@example(((1, 0, 2, 0, 3, 0, 4), (0, 2, 0, 4, 0, 6, 0), (3, 0, 6, 0, 9, 0, 12)))
def test_snf_matches_determinantal_divisors(m):
    # the k-th invariant factor is d_k / d_{k-1}, d_k the gcd of all k x k
    # minors (d_0 = 1), and 0 once d_k is 0
    nrows, ncols = len(m), len(m[0])
    d = [1]
    for k in range(1, min(nrows, ncols) + 1):
        minors = (
            oracle.det(tuple(tuple(m[i][j] for j in cols) for i in rows))
            for rows in itertools.combinations(range(nrows), k)
            for cols in itertools.combinations(range(ncols), k)
        )
        d.append(gcd(*minors))
    want = [b // a if b else 0 for a, b in zip(d, d[1:])]
    assert snf_invariant_factors(m) == want


def _sparse_case(rng):
    """An n x n matrix, n <= 12, and a right-hand side: the identity after a
    few elementary row operations, or a zero-heavy singular matrix."""
    n = rng.randint(1, 12)
    if rng.random() < 0.5:
        m = [list(r) for r in identity(n)]
        for _ in range(rng.randint(0, 5)):
            i, j = rng.randrange(n), rng.randrange(n)
            kind = rng.randrange(3)
            if kind == 0:
                m[i], m[j] = m[j], m[i]
            elif kind == 1:
                m[i] = [-x for x in m[i]]
            elif i != j:
                c = rng.choice((-2, -1, 1, 2))
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    else:
        m = [[rng.choice((0, 0, 0, 0, 0, 1, -1, 2, -2)) for _ in range(n)] for _ in range(n)]
        i = rng.randrange(n)
        if n < 3 or rng.random() < 0.5:
            m[i] = [0] * n
        else:
            j, k = rng.sample([r for r in range(n) if r != i], 2)
            m[i] = [x + y for x, y in zip(m[j], m[k])]
    return tuple(map(tuple, m)), tuple(rng.randint(-9, 9) for _ in range(n))


def _check_adjugate(m):
    dt, adj = adjugate(m)
    assert dt == det(m) == oracle.det(m)
    inv = oracle.inverse(m)
    assert adj == (() if inv is None else tuple(tuple(dt * x for x in row) for row in inv))


def _check_sparse_case(m, b):
    """Compare every reader of the elimination with the rational oracle on
    ``m``.  Returns how many rows the elimination of ``m`` meets that are 0
    in the pivot column, where the pivot equals the previous one (p == d:
    the row is kept) and where it does not (the row is scaled by p / d).
    The kernel's pivot is the previous one times the oracle's, so p == d
    exactly where the oracle's pivot is 1."""
    assert rank(m) == oracle.rank(m)
    _check_adjugate(m)
    if oracle.det(m) in (1, -1):
        assert unimodular_inverse(m) == oracle.inverse(m)
    else:
        with pytest.raises(NotUnimodular):
            unimodular_inverse(m)
    assert integer_nullspace(m) == oracle.integer_kernel(m)
    assert integer_solve(m, b) == oracle.integer_solution(m, b)
    rhs = tuple(sum(x * y for x, y in zip(row, b)) for row in m)
    assert integer_solve(m, rhs) == oracle.integer_solution(m, rhs)
    steps = []
    oracle.rref(m, steps=steps)
    return sum(z for p, z in steps if p == 1), sum(z for p, z in steps if p != 1)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False).map(_sparse_case))
@example((((1, 0, 0), (0, 0, 0), (0, 0, 2)), (1, 0, 1)))
@example((((0, 1, 0), (1, 2, 0), (0, 0, -1)), (4, -4, 4)))
def test_sparse_kernel_matches_rational_oracle(case):
    _check_sparse_case(*case)


def test_sparse_eliminations_keep_and_scale_rows():
    # both row rules occur: pivots 1 (most of the near-identity matrices')
    # keep the rows that are 0 in the pivot column, others rescale them
    rng = random.Random(20261019)
    kept = scaled = 0
    for _ in range(200):
        k, s = _check_sparse_case(*_sparse_case(rng))
        kept, scaled = kept + k, scaled + s
    assert kept > 0 and scaled > 0


def test_complete_to_basis_examples():
    assert complete_to_basis(((1, 1),)) == ((0, 1),)
    assert complete_to_basis(identity(2)) == ()
    with pytest.raises(NotPrimitive):
        complete_to_basis(((2, 0),))


def test_complete_to_basis_random_primitive_rows():
    rng = random.Random(20240229)
    done = 0
    while done < 1000:
        n = rng.randint(1, 5)
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        try:
            e = complete_to_basis((v,))
        except NotPrimitive:
            from math import gcd
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g != 1
            continue
        stacked = (v,) + e
        assert oracle.det(stacked) in (1, -1)
        done += 1


def test_unimodular_inverse():
    m = ((1, 1), (0, -1))
    assert unimodular_inverse(m) == m  # self inverse
    assert unimodular_inverse(identity(4)) == identity(4)
    with pytest.raises(NotUnimodular):
        unimodular_inverse(((2, 0), (0, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4))
def test_unimodular_inverse_roundtrip(n):
    rng = random.Random(n * 7919)
    m = [list(r) for r in identity(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-3, 3)
            for col in range(n):
                m[i][col] += c * m[j][col]
    m = tuple(tuple(r) for r in m)
    inv = unimodular_inverse(m)
    assert oracle.mat_mul(m, inv) == identity(n)
    assert oracle.mat_mul(inv, m) == identity(n)


def test_rank_and_solvers():
    assert rank(((1, 2), (2, 4))) == 1
    assert rank(()) == 0
    assert integer_nullspace(((1, 1, 0), (0, 1, 1))) == [(1, -1, 1)]
    # the kernel of (2, 3) is spanned by (-3/2, 1), which scales to (-3, 2)
    assert integer_nullspace(((2, 3),)) == [(-3, 2)]
    assert integer_solve(((1, 0), (0, 2)), (3, 4)) == (3, 2)
    # consistent, but the solution (3, 3/2) is not an integer vector
    assert integer_solve(((1, 0), (0, 2)), (3, 3)) is None
    assert integer_solve(((1, 0), (1, 0)), (1, 2)) is None


@pytest.mark.parametrize("m,b", [(((1, 0), (0, 1)), (1,)), (((1, 0),), (1, 2)), ((), (1,))])
def test_rational_solve_rejects_mismatched_rhs(m, b):
    with pytest.raises(ValueError):
        integer_solve(m, b)


@settings(max_examples=300, deadline=None)
@given(wide_matrices(), st.data())
def test_kernel_matches_rational_oracle(m, data):
    ncols = len(m[0])
    assert rank(m) == oracle.rank(m)
    kernel = oracle.integer_kernel(m)
    assert integer_nullspace(m) == kernel
    b = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(m), max_size=len(m)))
    assert integer_solve(m, b) == oracle.integer_solution(m, b)
    x = data.draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
    b = tuple(sum(a * y for a, y in zip(row, x)) for row in m)
    assert integer_solve(m, b) == oracle.integer_solution(m, b)
    # a kernel of dimension 1 has a primitive integer generator, up to sign
    assert kernel_vector(m, ncols) in ([kernel[0], vec_neg(kernel[0])] if len(kernel) == 1 else [None])
    # no rows: the kernel is the whole space, one-dimensional on one column
    assert kernel_vector((), 1) == (1,) and kernel_vector((), 2) is None
    k = min(len(m), ncols)
    sq = tuple(row[:k] for row in m[:k])
    _check_adjugate(sq)
    if oracle.det(sq) in (1, -1):
        assert unimodular_inverse(sq) == oracle.inverse(sq)
    else:
        with pytest.raises(NotUnimodular):
            unimodular_inverse(sq)
    # L U with unit triangular factors cut from sq is unimodular; reversing
    # its rows or negating one keeps it so, with other pivots and signs
    lower = tuple(tuple(sq[i][j] if j < i else int(i == j) for j in range(k)) for i in range(k))
    upper = tuple(tuple(sq[i][j] if j > i else int(i == j) for j in range(k)) for i in range(k))
    u = oracle.mat_mul(lower, upper)
    for v in (u, u[::-1], (vec_neg(u[0]),) + u[1:]):
        assert unimodular_inverse(v) == oracle.inverse(v)
