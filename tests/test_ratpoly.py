import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Poly

from minksmooth import ratpoly as rp

import ratpoly_oracle as oracle

y, x = sympy.symbols("y x")


def bpoly(expr):
    """A polynomial in Z[y, x]: y is eliminated, x is kept."""
    return Poly(expr, y, x, domain=ZZ)


def to_oracle(p):
    """The same polynomial as the oracle's tuple in Q[x][y], y being the
    first generator of ``p``."""
    if p.is_zero:
        return ()
    coeffs = dict(p.terms())
    dy, dx = (max(e[k] for e in coeffs) for k in (0, 1))
    return oracle.btrim([oracle.utrim([coeffs.get((j, i), 0) for i in range(dx + 1)]) for j in range(dy + 1)])


def ucoeffs(u):
    """Ascending Fraction coefficients of a univariate Poly, trimmed."""
    return oracle.utrim(Fraction(int(c.p), int(c.q)) for c in reversed(u.all_coeffs()))


def random_bpoly(rng, max_deg=2, coeff=3):
    return bpoly(
        sum(
            rng.randint(-coeff, coeff) * y ** j * x ** i
            for j in range(rng.randint(1, max_deg + 1))
            for i in range(rng.randint(1, max_deg + 1))
        )
    )


def test_resultant_matches_sympy_on_random_pairs():
    rng = random.Random(2718)
    done = 0
    while done < 40:
        f = random_bpoly(rng)
        g = random_bpoly(rng)
        if f.degree(y) < 1 or g.degree(y) < 1:
            continue
        done += 1
        mine = rp.bresultant_y(f, g)[0]
        theirs = sympy.resultant(f.as_expr(), g.as_expr(), y)
        assert mine.gens == (x,)
        assert sympy.expand(mine.as_expr() - theirs) == 0


def test_resultant_degenerate_degrees():
    const = bpoly(1 + x)  # y-degree 0
    lin = bpoly(1 + x * y)
    assert rp.bresultant_y(const, lin)[0] == Poly(1 + x, x)
    assert rp.bresultant_y(const, const)[0] == Poly(1, x)


def test_gcd_detects_common_factor():
    p = bpoly(1 + x + y)
    q = bpoly((1 + x + y) * (x + y))
    assert len(rp.bgcd(p, q).terms()) == 3  # the common 1 + x + y, up to scaling


def test_gcd_coprime_is_constant():
    p = bpoly(1 + x + y)
    q = bpoly(1 + x * y)
    assert len(rp.bgcd(p, q).terms()) == 1


def test_gcd_divides_both_random():
    rng = random.Random(31415)
    for _ in range(25):
        f = random_bpoly(rng)
        g = random_bpoly(rng)
        common = random_bpoly(rng, max_deg=1)
        if f.is_zero or g.is_zero or common.is_zero:
            continue
        fc, gc = f * common, g * common
        gcd = rp.bgcd(fc, gc)
        # exquo raises unless the division is exact
        fc.exquo(gcd), gc.exquo(gcd), gcd.exquo(common)


def test_squarefree_and_factor():
    f = Poly(x ** 2 + x - 1, x)
    assert rp.factor_rational(f ** 2) == [(f, 2)]
    assert rp.factor_rational((f ** 2).sqf_part()) == [(f, 1)]
    factors = rp.factor_rational(Poly(x ** 4 - 1, x))
    assert factors == [(Poly(x - 1, x), 1), (Poly(x + 1, x), 1), (Poly(x ** 2 + 1, x), 1)]


def test_number_field_inverse_and_gcd():
    f = Poly(x ** 2 + x - 1, x)  # x^-1 = x + 1 in Q[x]/(f)
    p1 = bpoly(y + 1 + x)
    p2 = bpoly(x * y + 1)  # monic only after multiplying by x^-1
    h = rp.kgcd_y(f, rp.bresultant_y(p1, p2)[1])
    assert h == [Poly(1, x, domain=QQ), Poly(x + 1, x, domain=QQ)]  # partner is -(1 + x)
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
        f = random_bpoly(rng)
        assert oracle.b_transpose(to_oracle(f)) == to_oracle(f.reorder(x, y))
        assert oracle.b_transpose(oracle.b_transpose(to_oracle(f))) == to_oracle(f)


small_bpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-5, 5), min_size=1, max_size=8
).map(lambda terms: Poly.from_dict(terms, y, x, domain=ZZ)).filter(lambda p: not p.is_zero)


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
    assert len(rp.bgcd(f, g).terms()) == oracle.b_num_terms(oracle.bgcd(of, og))
    if res.degree() <= 0:
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
