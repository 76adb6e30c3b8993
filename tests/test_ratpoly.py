import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Poly
from sympy.polys.densebasic import dmp_from_dict, dmp_zero_p
from sympy.polys.densearith import dmp_exquo, dup_pow
from sympy.polys.sqfreetools import dup_sqf_part

from minksmooth import ratpoly as rp

import ratpoly_oracle as oracle

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
    assert h == [[QQ(1)], [QQ(1), QQ(1)]]  # partner is -(1 + x)
    # a side that vanishes in K[y] leaves the survivor, made monic, whether
    # the PRS puts it second (equal degrees) or first (higher degree)
    low, high = bpoly((x ** 2 + x - 1) * y), bpoly((x ** 2 + x - 1) * (y ** 2 + 1))
    assert rp.kgcd_y(f, rp.bresultant_y(p1, low)[1]) == h
    assert rp.kgcd_y(f, rp.bresultant_y(high, p2)[1]) == h
    assert rp.kgcd_y(f, rp.bresultant_y(high, low)[1]) == []


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
    assert [(tuple(ucoeffs(p)), m) for p, m in factors] == [(oracle.u_int_coeffs(p), m) for p, m in expected]
    # the PRS read-off is the gcd only where the PRS's first entry, the
    # input of higher degree in y, keeps its leading coefficient modulo p
    top = to_oracle(prs[0])[-1]
    for p, _ in factors:
        K = oracle.NumberField(ucoeffs(p))
        if not K.reduce(top):
            continue
        want = oracle.kgcd_y(K, oracle.btrim([K.reduce(u) for u in of]), oracle.btrim([K.reduce(u) for u in og]))
        assert tuple(ucoeffs(c) for c in reversed(rp.kgcd_y(p, prs))) == want
