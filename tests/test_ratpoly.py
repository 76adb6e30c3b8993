"""The elimination's kernel against sympy, which is only a test oracle.

Each primitive of :mod:`minksmooth.zpoly` and :mod:`minksmooth.ratpoly` is
compared with sympy's dense layer, or with the ``Fraction`` oracle of
``ratpoly_oracle``, on random polynomials, on the chart polynomials and
resultants of random planar summand pairs, and on cases chosen to reach
each branch of the factorization.
"""

import math
import random
from unittest import mock
from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Poly
from sympy.polys.densebasic import dmp_from_dict, dmp_zero_p
from sympy.polys.densearith import dmp_exquo, dup_mul, dup_pow, dup_rem
from sympy.polys.euclidtools import dmp_resultant, dup_gcd, dup_invert
from sympy.polys.factortools import dup_factor_list
from sympy.polys.sqfreetools import dup_sqf_list, dup_sqf_part

from minksmooth import ratpoly as rp
from minksmooth import zpoly as zp
from minksmooth.polytope import require_admissible

import ratpoly_oracle as oracle
from test_potential import _planar, _planar_summands

y, x = sympy.symbols("y x")


def bpoly(expr):
    """A polynomial in Z[y, x] as a dense list: y is eliminated, x is kept."""
    return Poly(expr, y, x, domain=ZZ).rep.to_list()


def upoly(expr):
    """A polynomial in Z[x] as a dense list."""
    return Poly(expr, x, domain=ZZ).rep.to_list()


def to_oracle(p):
    """The same polynomial as the oracle's tuple in Q[x][y], y being the
    main variable of the dense list ``p``."""
    return oracle.btrim([oracle.utrim(reversed(u)) for u in reversed(p)])


def ucoeffs(u):
    """Ascending Fraction coefficients of a univariate dense list, trimmed."""
    return oracle.utrim(Fraction(int(c.numerator), int(c.denominator)) for c in reversed(u))


def as_fractions(gcd):
    """A gcd (rows, den) of ``kgcd_y`` as rows of ``Fraction``s, checking
    that den is positive and shares no factor with all the rows."""
    rows, den = gcd
    assert den > 0 and math.gcd(den, *(c for u in rows for c in u)) == 1
    return [[Fraction(c, den) for c in u] for u in rows]


def nterms(p):
    """The number of nonzero terms of a bivariate dense list."""
    return sum(1 for u in p for c in u if c)


def random_expr(rng, max_deg=2, coeff=3):
    """A random polynomial expression in y and x."""
    return sum(
        rng.randint(-coeff, coeff) * y ** j * x ** i
        for j in range(rng.randint(1, max_deg + 1))
        for i in range(rng.randint(1, max_deg + 1))
    )


def test_resultant_matches_sympy_on_random_pairs():
    rng = random.Random(2718)
    done = 0
    while done < 40:
        f = random_expr(rng)
        g = random_expr(rng)
        if len(bpoly(f)) < 2 or len(bpoly(g)) < 2:
            continue
        done += 1
        mine = rp.bresultant_y(bpoly(f), bpoly(g))[0]
        theirs = sympy.resultant(f, g, y)
        # a polynomial in x alone
        assert all(not isinstance(c, list) for c in mine)
        assert sympy.expand(Poly(mine, x).as_expr() - theirs) == 0


def test_resultant_degenerate_degrees():
    const = bpoly(1 + x)  # y-degree 0
    lin = bpoly(1 + x * y)
    assert rp.bresultant_y(const, lin)[0] == upoly(1 + x)
    assert rp.bresultant_y(const, const)[0] == upoly(1)


def test_gcd_detects_common_factor():
    p = bpoly(1 + x + y)
    q = bpoly((1 + x + y) * (x + y))
    assert nterms(rp.bgcd(p, q)) == 3  # the common 1 + x + y, up to scaling


def test_gcd_coprime_is_constant():
    p = bpoly(1 + x + y)
    q = bpoly(1 + x * y)
    assert nterms(rp.bgcd(p, q)) == 1


def test_gcd_divides_both_random():
    rng = random.Random(31415)
    for _ in range(25):
        f = random_expr(rng)
        g = random_expr(rng)
        common = random_expr(rng, max_deg=1)
        if dmp_zero_p(bpoly(f), 1) or dmp_zero_p(bpoly(g), 1) or dmp_zero_p(bpoly(common), 1):
            continue
        fc, gc = bpoly(f * common), bpoly(g * common)
        gcd = rp.bgcd(fc, gc)
        # exquo raises unless the division is exact
        dmp_exquo(fc, gcd, 1, ZZ), dmp_exquo(gc, gcd, 1, ZZ), dmp_exquo(gcd, bpoly(common), 1, ZZ)


def sympy_factors(f):
    """sympy's irreducible factors of an integer list, as a sorted multiset."""
    return sorted((list(map(int, p)), m) for p, m in dup_factor_list(f, ZZ)[1])


def test_squarefree_and_factor():
    f = upoly(x ** 2 + x - 1)
    assert rp.factor_rational(dup_pow(f, 2, ZZ)) == [(f, 2)]
    assert rp.factor_rational(dup_sqf_part(dup_pow(f, 2, ZZ), ZZ)) == [(f, 1)]
    factors = rp.factor_rational(upoly(x ** 4 - 1))
    assert factors == [(upoly(x - 1), 1), (upoly(x + 1), 1), (upoly(x ** 2 + 1), 1)]


def test_number_field_inverse_and_gcd():
    f = upoly(x ** 2 + x - 1)  # x^-1 = x + 1 in Q[x]/(f)
    p1 = bpoly(y + 1 + x)
    p2 = bpoly(x * y + 1)  # monic only after multiplying by x^-1
    h = rp.kgcd_y(f, rp.bresultant_y(p1, p2)[1])
    assert as_fractions(h) == [[Fraction(1)], [Fraction(1), Fraction(1)]]  # partner is -(1 + x)
    # a side that vanishes in K[y] leaves the survivor, made monic, whether
    # the PRS puts it second (equal degrees) or first (higher degree)
    low, high = bpoly((x ** 2 + x - 1) * y), bpoly((x ** 2 + x - 1) * (y ** 2 + 1))
    assert rp.kgcd_y(f, rp.bresultant_y(p1, low)[1]) == h
    assert rp.kgcd_y(f, rp.bresultant_y(high, p2)[1]) == h
    assert rp.kgcd_y(f, rp.bresultant_y(high, low)[1]) == ([], 1)


def test_transpose_involution():
    # the second elimination order swaps the generators; the oracle's
    # transpose must mean the same thing for the differential tests
    rng = random.Random(999)
    for _ in range(20):
        expr = random_expr(rng)
        f = bpoly(expr)
        assert oracle.b_transpose(to_oracle(f)) == to_oracle(Poly(expr, x, y, domain=ZZ).rep.to_list())
        assert oracle.b_transpose(oracle.b_transpose(to_oracle(f))) == to_oracle(f)


small_bpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-5, 5), min_size=1, max_size=8
).map(lambda terms: dmp_from_dict(terms, 1, ZZ)).filter(lambda p: not dmp_zero_p(p, 1))


@settings(max_examples=150, deadline=None)
@given(small_bpolys, small_bpolys)
def test_primitives_match_fraction_oracle(f, g):
    of, og = to_oracle(f), to_oracle(g)
    res, prs = rp.bresultant_y(f, g)
    want = oracle.bresultant_y(of, og)
    # sympy 1.14 drops the sign (-1)^(deg f * deg g) when deg f < deg g (it
    # gives Res(y + 1, y^3) = 1, the Sylvester determinant is -1); the library
    # only reads the resultant up to a unit
    assert ucoeffs(res) in (want, oracle.uneg(want))
    assert nterms(rp.bgcd(f, g)) == oracle.b_num_terms(oracle.bgcd(of, og))
    if len(res) <= 1:
        return
    factors = rp.factor_rational(res)
    expected = oracle.factor_rational(want)
    # the library orders its factors by degree, the oracle as sympy does
    assert sorted((tuple(ucoeffs(p)), m) for p, m in factors) == sorted(
        (oracle.u_int_coeffs(p), m) for p, m in expected
    )
    # the PRS read-off is the gcd only where the PRS's first entry, the
    # input of higher degree in y, keeps its leading coefficient modulo p
    top = to_oracle(prs[0])[-1]
    for p, _ in factors:
        K = oracle.NumberField(ucoeffs(p))
        if not K.reduce(top):
            continue
        want = oracle.kgcd_y(K, oracle.btrim([K.reduce(u) for u in of]), oracle.btrim([K.reduce(u) for u in og]))
        assert tuple(ucoeffs(c) for c in reversed(as_fractions(rp.kgcd_y(p, prs)))) == want


# ---------------------------------------------------------------------------
# the integer kernel against sympy's dense layer


def _cyclotomic_product(*orders):
    out = Poly(1, x)
    for m in orders:
        out *= sympy.cyclotomic_poly(m, x, polys=True)
    return out.rep.to_list()


def _swinnerton_dyer(*roots):
    """The minimal polynomial of the sum of the square roots of ``roots``:
    irreducible over Q, with factors of degree at most 2 modulo every prime,
    so its modular factors must be recombined."""
    return upoly(sympy.minimal_polynomial(sum(map(sympy.sqrt, roots)), x))


def _tt_resultant(a):
    """Res_y(1 + x y^a + y, 1 + x^a y + x) over its factor x^k: the
    elimination of tt(a)'s pair of thin triangles, of degree a^2 - 1."""
    res = upoly(sympy.resultant(1 + x * y ** a + y, 1 + x ** a * y + x, y))
    while not res[-1]:
        res.pop()
    return res


_TT6 = _tt_resultant(6)
# one square-free factor of degree 1, 2 and 3 each; a product with repeated
# factors; random integer polynomials of low degree
_factors = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(zp._trim).filter(len)
_products = st.lists(st.tuples(_factors, st.integers(1, 3)), min_size=1, max_size=4).map(
    lambda fs: [c for f, e in fs for c in [f] * e]
)


def _multiply(factors):
    out = [1]
    for f in factors:
        out = dup_mul(out, f, ZZ)
    return out


@settings(max_examples=200, deadline=None)
@given(_products.map(_multiply))
@example(_cyclotomic_product(1, 3, 4, 12, 15, 21))
@example(_multiply([_cyclotomic_product(3, 8)] * 2 + [_cyclotomic_product(1, 2, 9)]))
@example([1] + [0] * 59 + [-1])  # x^60 - 1
@example([1] + [0] * 104 + [-1])  # x^105 - 1: eight cyclotomic factors, up to degree 48
@example([1, 0, 0, 0, 1])  # x^4 + 1: irreducible, two or four factors modulo every prime
@example(_swinnerton_dyer(2, 3, 5))
@example(_multiply([_swinnerton_dyer(2, 3, 5), _swinnerton_dyer(2, 3, 7), [1, 1]]))
@example([7])
@example([])
@example([2, -3])
@example([1, 0])
@example(_multiply([[10**300, 1, -7], [3, 0, 10**299 + 1, 5], [1, 0, 0]]))
@example(_TT6)  # factors of degree 2, 7 and 26
def test_factor_rational_matches_sympy(f):
    assert sorted(rp.factor_rational(f)) == sympy_factors(f)


def test_tt6_resultant_factors_by_lifting():
    # 2, 7 and 26: x^2 + x + 1 is split off by division, and the other two
    # are recombined from their modular factors
    assert [(len(f) - 1, m) for f, m in rp.factor_rational(_TT6)] == [(2, 1), (7, 1), (26, 1)]


@settings(max_examples=150, deadline=None)
@given(_products, _products)
@example([[10**300 + 1, 3]], [[10**300 + 1, 3], [1, 1]])
@example([[1]], [[5, 0]])
def test_gcd_and_square_free_parts_match_sympy(fs, gs):
    f, g = _multiply(fs), _multiply(gs + fs[:1])
    assert zp.gcd(f, g) == dup_gcd(f, g, ZZ)
    assert zp.sqf_part(f) == dup_sqf_part(f, ZZ)
    assert sorted(zp.sqf_list(f)) == sorted((list(map(int, p)), m) for p, m in dup_sqf_list(f, ZZ)[1])
    q = zp.quotient(f, g)
    assert q is None if dup_rem(f, g, ZZ) else q == dmp_exquo(f, g, 0, ZZ)


@settings(max_examples=100, deadline=None)
@given(_products, _products)
@example([[10**300 + 1, 3]], [[10**300 + 1, 3], [1, 1]])
@example([[1]], [[5, 0]])
@example([[1, 1], [1, -1]], [[3, 0, 0, 1]])
@example(*[[[1] + [0] * 59 + [-1]]] * 2)  # x^60 - 1 with itself
def test_gcd_fallback_matches_sympy(fs, gs):
    # GCDHEU succeeds on every input the decision and the tests meet, so
    # the primitive remainder sequence behind it runs only when forced
    f, g = _multiply(fs), _multiply(gs + fs[:1])
    with (
        mock.patch.object(zp, "_heugcd", return_value=None),
        mock.patch.object(zp, "_prs_gcd", wraps=zp._prs_gcd) as prs,
    ):
        assert zp.gcd(f, g) == dup_gcd(f, g, ZZ)
        assert prs.called == (len(f) > 1 and len(g) > 1)
        assert sorted(zp.sqf_list(f)) == sorted((list(map(int, p)), m) for p, m in dup_sqf_list(f, ZZ)[1])
        assert sorted(rp.factor_rational(f)) == sympy_factors(f)


@settings(max_examples=100, deadline=None)
@given(_factors, _factors)
@example([1, 1, 1], [1, 0])
@example([1, 0, 0, 0, 0, 0, 0, 2], [-5, 0, 0, 0, 0, 0, 1])
def test_inverse_modulo_an_irreducible_matches_sympy(m, a):
    for f, _ in dup_factor_list(m, ZZ)[1]:
        f = list(map(int, f))
        if len(f) < 2 or not dup_rem(a, f, ZZ):
            continue
        s = rp._inverse_multiple(zp.pdivmod(a, f)[1], f)
        # s a is a nonzero integer c modulo f, so a^-1 = s / c
        ((c,), den) = rp._reduce(zp.mul(s, a), f)
        inverse = [Fraction(u * den, c) for u in rp._reduce(s, f)[0]]
        want = dup_invert(dup_rem([QQ(u) for u in a], [QQ(u) for u in f], QQ), [QQ(u) for u in f], QQ)
        assert inverse == [Fraction(int(u.numerator), int(u.denominator)) for u in want]


@settings(max_examples=60, deadline=None)
@given(_planar_summands, _planar_summands)
def test_chart_polynomials_and_resultants_match_sympy(first, second):
    # the shapes the decision meets: a pair's chart polynomial, and the
    # resultant and subresultant PRS of its cleared factors
    mats = require_admissible(_planar([first, second]))
    g = rp._chart_points(mats[0], mats[1])
    if g:
        assert sorted(rp.factor_rational(g)) == sympy_factors(g)
        assert zp.gcd(g, [1, 1, 0]) == dup_gcd(g, [1, 1, 0], ZZ)
    bi, bj = rp._clear_to_bpoly(mats[0]), rp._clear_to_bpoly(mats[1])
    res, prs = rp.bresultant_y(bi, bj)
    want, want_prs = dmp_resultant(bi, bj, 1, ZZ, includePRS=True)
    assert res in (want, [-c for c in want])
    # the PRS entries agree up to sign, as sympy's releases differ in it
    assert len(prs) == len(want_prs)
    for p, q in zip(prs, want_prs):
        assert p in (q, [[-c for c in u] for u in q])
    res = rp._strip_x(res)
    assert zp.sqf_part(res) == dup_sqf_part(res, ZZ)
    if len(res) > 1:
        assert sorted(rp.factor_rational(res)) == sympy_factors(res)
