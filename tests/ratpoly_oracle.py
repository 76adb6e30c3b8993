"""The planar critical-point decision on hand-written ``Fraction`` polynomials.

An elimination layer written apart from the library's integer kernel
(:mod:`minksmooth.zpoly`), kept whole as an independent reference:
univariate and bivariate arithmetic over Q, resultants by fraction-free
Bareiss elimination on the Sylvester matrix, gcds by the primitive
pseudo-remainder sequence, arithmetic in Q[x]/(f), and the pairwise driver
:func:`critical_exists` on top of them.  Univariate polynomials are tuples
of Fractions indexed by degree, trimmed; bivariate ones live in Q[x][y] as
a tuple of univariate coefficients, the i-th that of y^i.  Only
factorization goes through sympy, which the library no longer imports, so
it is also an oracle for the kernel's Zassenhaus factoring.  Tests compare
the library's primitives and its ``CriticalReport`` with these, field by
field and the witnesses bit for bit; the unit-circle flag here tests the
numeric roots of both minimal polynomials, where the library decides it
exactly from the pair's summand shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import sympy

from minksmooth.exactlin import CrossCheckError
from minksmooth.polytope import require_admissible
from minksmooth.ratpoly import CriticalReport

from potential_oracle import factor

# two numeric critical points are one when both coordinates are this close
_POINT_TOL = 1e-8
# a root is on the unit circle when its modulus is this close to 1
_CIRCLE_TOL = 1e-12


@dataclass
class OracleFamily:
    """The fields of ``ratpoly.CriticalFamily``, with the witnesses and the
    unit-circle flag computed here."""

    z1_minpoly: tuple[int, ...]
    z2_minpoly: tuple[int, ...]
    pair: tuple[int, int]
    points: list[tuple[complex, complex]]
    on_unit_circle: bool


def _roots_on_unit_circle(int_coeffs) -> bool:
    if len(int_coeffs) <= 1:
        return True
    roots = np.roots(list(reversed(int_coeffs)))
    return bool(np.all(np.abs(np.abs(roots) - 1.0) < _CIRCLE_TOL))


UPoly = tuple[Fraction, ...]
BPoly = tuple[UPoly, ...]

UZERO: UPoly = ()
UONE: UPoly = (Fraction(1),)


def utrim(c) -> UPoly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(Fraction(x) for x in c)


def upoly(*coeffs) -> UPoly:
    return utrim(coeffs)


def udeg(f) -> int:
    return len(f) - 1


def uadd(f, g) -> UPoly:
    n = max(len(f), len(g))
    return utrim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def uneg(f) -> UPoly:
    return tuple(-x for x in f)


def usub(f, g) -> UPoly:
    return uadd(f, uneg(g))


def umul(f, g) -> UPoly:
    if not f or not g:
        return UZERO
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return utrim(out)


def uscale(c, f) -> UPoly:
    c = Fraction(c)
    if c == 0:
        return UZERO
    return tuple(c * x for x in f)


def udivmod(f, g) -> tuple[UPoly, UPoly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = list(f)
    dg, lg = udeg(g), g[-1]
    while len(r) >= len(g) and utrim(r):
        r = list(utrim(r))
        if len(r) < len(g):
            break
        c = r[-1] / lg
        k = len(r) - len(g)
        q[k] = c
        for i in range(len(g)):
            r[i + k] -= c * g[i]
        r = list(utrim(r))
    return utrim(q), utrim(r)


def udiv_exact(f, g) -> UPoly:
    q, r = udivmod(f, g)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def umonic(f) -> UPoly:
    if not f:
        return f
    return uscale(1 / f[-1], f)


def ugcd(f, g) -> UPoly:
    a, b = f, g
    while b:
        a, b = b, udivmod(a, b)[1]
    return umonic(a)


def uderiv(f) -> UPoly:
    return utrim([i * f[i] for i in range(1, len(f))])


def usquarefree(f) -> UPoly:
    if udeg(f) <= 0:
        return umonic(f) if f else f
    return umonic(udiv_exact(f, ugcd(f, uderiv(f))))


def ueval(f, x):
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def u_int_coeffs(f) -> tuple[int, ...]:
    """Primitive integer coefficient vector, positive leading coefficient."""
    if not f:
        return ()
    lcm = 1
    for c in f:
        d = c.denominator
        g = _igcd(lcm, d)
        lcm = lcm * d // g
    ints = [int(c * lcm) for c in f]
    g = 0
    for v in ints:
        g = _igcd(g, abs(v))
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _igcd(a, b):
    while b:
        a, b = b, a % b
    return a


def factor_rational(f) -> list[tuple[UPoly, int]]:
    """Irreducible factorization over Q via sympy; monic factors."""
    x = sympy.Symbol("x")
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f)], x, domain="QQ")
    _, factors = expr.factor_list()
    out = []
    for poly, mult in factors:
        coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(poly.all_coeffs())]
        out.append((umonic(utrim(coeffs)), int(mult)))
    return out


# ---------------------------------------------------------------------------
# bivariate layer: Q[x][y]


def btrim(c) -> BPoly:
    c = [utrim(u) for u in c]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def bdeg_y(f) -> int:
    return len(f) - 1


def bzero() -> BPoly:
    return ()


def bconst(u) -> BPoly:
    return btrim([u])


def badd(f, g) -> BPoly:
    n = max(len(f), len(g))
    return btrim([uadd(f[i] if i < len(f) else UZERO, g[i] if i < len(g) else UZERO) for i in range(n)])


def bneg(f) -> BPoly:
    return tuple(uneg(u) for u in f)


def bmul(f, g) -> BPoly:
    if not f or not g:
        return ()
    out = [UZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = uadd(out[i + j], umul(a, b))
    return btrim(out)


def buscale(u, f) -> BPoly:
    return btrim([umul(u, c) for c in f])


def b_num_terms(f) -> int:
    return sum(sum(1 for c in u if c != 0) for u in f)


def b_transpose(f, deg_x=None) -> BPoly:
    """Swap the roles of x and y."""
    if not f:
        return ()
    dx = max((udeg(u) for u in f if u), default=0) if deg_x is None else deg_x
    rows = []
    for i in range(dx + 1):
        rows.append(utrim([f[j][i] if i < len(f[j]) else 0 for j in range(len(f))]))
    return btrim(rows)


def bcontent(f) -> UPoly:
    g = UZERO
    for u in f:
        g = ugcd(g, u)
        if udeg(g) == 0 and g:
            return UONE
    return g if g else UONE


def bprimitive(f) -> BPoly:
    c = bcontent(f)
    if c == UONE or not f:
        return f
    return tuple(udiv_exact(u, c) for u in f)


def bpseudo_rem(f, g) -> BPoly:
    """Pseudo-remainder of f by g (in y): lc(g)^(df-dg+1) f mod g."""
    df, dg = bdeg_y(f), bdeg_y(g)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    r = f
    lg = g[-1]
    while bdeg_y(r) >= dg and r:
        dr = bdeg_y(r)
        lead = r[-1]
        shifted = btrim([UZERO] * (dr - dg) + [umul(lead, c) for c in g])
        r = badd(buscale(lg, r), bneg(shifted))
    return r


def bgcd(f, g) -> BPoly:
    """Gcd in Q[x, y] via the primitive pseudo-remainder sequence in y."""
    f, g = btrim(f), btrim(g)
    if not f:
        return _bnormalize(g)
    if not g:
        return _bnormalize(f)
    if bdeg_y(f) == 0 and bdeg_y(g) == 0:
        return bconst(ugcd(f[0], g[0]))
    cf, cg = bcontent(f), bcontent(g)
    a, b = bprimitive(f), bprimitive(g)
    if bdeg_y(a) < bdeg_y(b):
        a, b = b, a
    while b and bdeg_y(b) > 0:
        r = bprimitive(bpseudo_rem(a, b))
        a, b = b, r
    if b:  # nonzero constant in y: gcd of primitive parts is a content, i.e. 1
        pp = bconst(UONE)
    else:
        pp = bprimitive(a)
    return _bnormalize(bmul(bconst(ugcd(cf, cg)), pp))


def _bnormalize(f) -> BPoly:
    """Scale so the leading coefficient (in y, then x) is monic."""
    f = btrim(f)
    if not f:
        return f
    lead = f[-1][-1]
    return tuple(uscale(1 / lead, u) for u in f)


def bresultant_y(f, g) -> UPoly:
    """Resultant with respect to y, as a polynomial in x.

    Fraction-free Bareiss elimination on the Sylvester matrix over Q[x];
    every division in the pivot recurrence is exact in the domain.
    """
    f, g = btrim(f), btrim(g)
    m, n = bdeg_y(f), bdeg_y(g)
    if m < 0 or n < 0:
        return UZERO
    if m == 0 and n == 0:
        return UONE
    if m == 0:
        return _upow(f[0], n)
    if n == 0:
        return _upow(g[0], m)
    size = m + n
    mat = [[UZERO] * size for _ in range(size)]
    fr = list(reversed(f))  # leading first
    gr = list(reversed(g))
    for i in range(n):
        for j, c in enumerate(fr):
            mat[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(gr):
            mat[n + i][i + j] = c
    sign = 1
    prev = UONE
    for k in range(size - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, size) if mat[i][k]), None)
            if swap is None:
                return UZERO
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = usub(umul(mat[i][j], mat[k][k]), umul(mat[i][k], mat[k][j]))
                mat[i][j] = udiv_exact(num, prev) if num else UZERO
            mat[i][k] = UZERO
        prev = mat[k][k]
    res = mat[size - 1][size - 1]
    return uneg(res) if sign < 0 else res


def _upow(f, e) -> UPoly:
    out = UONE
    for _ in range(e):
        out = umul(out, f)
    return out


# ---------------------------------------------------------------------------
# arithmetic in K = Q[x]/(f), f irreducible, and gcd of K[y] polynomials

class NumberField:
    """Q[x]/(f) for irreducible monic f; elements are reduced UPolys."""

    def __init__(self, modulus: UPoly):
        self.modulus = umonic(modulus)

    def reduce(self, a) -> UPoly:
        return udivmod(a, self.modulus)[1]

    def mul(self, a, b) -> UPoly:
        return self.reduce(umul(a, b))

    def inv(self, a) -> UPoly:
        a = self.reduce(a)
        if not a:
            raise ZeroDivisionError("inverse of zero in number field")
        # extended Euclid on (modulus, a)
        r0, r1 = self.modulus, a
        s0, s1 = UZERO, UONE
        while r1:
            q, r = udivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, usub(s0, umul(q, s1))
        if udeg(r0) != 0:
            raise ArithmeticError("modulus is not irreducible")
        return self.reduce(uscale(1 / r0[0], s0))


def kgcd_y(field: NumberField, f: BPoly, g: BPoly) -> BPoly:
    """Monic gcd in K[y] where K = Q[x]/(modulus); inputs are BPolys whose
    x-parts are reduced modulo the field."""

    def reduce_b(h):
        return btrim([field.reduce(u) for u in h])

    def monic_b(h):
        h = reduce_b(h)
        if not h:
            return h
        inv = field.inv(h[-1])
        return btrim([field.mul(inv, u) for u in h])

    def rem(a, b):
        b = reduce_b(b)
        lb_inv = field.inv(b[-1])
        r = reduce_b(a)
        while r and bdeg_y(r) >= bdeg_y(b):
            c = field.mul(r[-1], lb_inv)
            shift = bdeg_y(r) - bdeg_y(b)
            sub = btrim([UZERO] * shift + [field.mul(c, u) for u in b])
            r = reduce_b(badd(r, bneg(sub)))
        return r

    a, b = reduce_b(f), reduce_b(g)
    if not a:
        return monic_b(b)
    if not b:
        return monic_b(a)
    while b:
        a, b = b, rem(a, b)
    return monic_b(a)


# ---------------------------------------------------------------------------
# the pairwise planar driver


def _clear_to_bpoly(p) -> BPoly:
    """Shift a two-variable Laurent polynomial into Q[x][y] by a monomial."""
    if not p.terms:
        return ()
    min1 = min(e[0] for e in p.terms)
    min2 = min(e[1] for e in p.terms)
    dy = max(e[1] for e in p.terms) - min2
    dx = max(e[0] for e in p.terms) - min1
    rows = []
    for j in range(dy + 1):
        coeffs = [Fraction(0)] * (dx + 1)
        for (e1, e2), c in p.terms.items():
            if e2 - min2 == j:
                coeffs[e1 - min1] += c
        rows.append(utrim(coeffs))
    return btrim(rows)


def _strip_x(u: UPoly) -> UPoly:
    """Drop the monomial factor x^k; torus roots are unaffected."""
    k = 0
    while k < len(u) and u[k] == 0:
        k += 1
    return utrim(u[k:])


def _pair_families(bi, bj, pair):
    """Common torus zeros of a pair of cleared integer polynomials.

    Returns ("positive", None) when the gcd carries a non-monomial factor,
    else ("finite", families).
    """
    g = bgcd(bi, bj)
    if b_num_terms(g) > 1:
        return "positive", None
    res = bresultant_y(bi, bj)
    res = _strip_x(res)
    if udeg(res) <= 0:
        return "finite", []
    res = usquarefree(res)
    families = []
    for f, _mult in factor_rational(res):
        if udeg(f) < 1 or f == upoly(0, 1):  # constant or the root x = 0
            continue
        K = NumberField(f)
        ri = btrim([K.reduce(u) for u in bi])
        rj = btrim([K.reduce(u) for u in bj])
        # one side may vanish identically above these roots; the gcd routine
        # then returns the survivor, whose zeros are the common zeros here
        h = _kmonic_strip(K, kgcd_y(K, ri, rj))
        if h is None or bdeg_y(h) < 1:
            continue
        z2_ann = _partner_minpoly(f, h)
        numeric = _numeric_points(f, h)
        circle = _roots_on_unit_circle(u_int_coeffs(f)) and _roots_on_unit_circle(u_int_coeffs(z2_ann))
        families.append(
            OracleFamily(
                z1_minpoly=u_int_coeffs(f),
                z2_minpoly=u_int_coeffs(z2_ann),
                pair=pair,
                points=numeric,
                on_unit_circle=circle,
            )
        )
    return "finite", families


def _kmonic_strip(K, h):
    """Remove partner roots at zero (non-torus) from h in K[y]."""
    h = btrim([K.reduce(u) for u in h])
    while h and not h[0]:
        h = h[1:]
    return btrim(h) if h else None


def _partner_minpoly(f, h) -> UPoly:
    """Squarefree annihilator of the second coordinate over the family:
    eliminate x between f(x) and the lifted h(x, y) by a resultant taken in
    Q[y][x] (swap the nesting, then eliminate the new inner variable)."""
    h_swapped = b_transpose(btrim(list(h)))
    f_swapped = b_transpose(btrim([f]))
    res = bresultant_y(h_swapped, f_swapped)
    return usquarefree(_strip_x(res))


def _numeric_points(f, h):
    """Numeric witnesses: roots of f paired with the roots of h above each."""
    pts = []
    z1_roots = np.roots([float(c) for c in reversed(u_int_coeffs(f))])
    hcoeffs = list(h)
    for alpha in z1_roots:
        poly_y = []
        for u in hcoeffs:
            val = 0j
            for c in reversed(u):
                val = val * alpha + complex(c)
            poly_y.append(val)
        arr = list(reversed(poly_y))
        z2_roots = np.roots(arr) if len(arr) > 1 else []
        for beta in z2_roots:
            pts.append((complex(alpha), complex(beta)))
    return pts


def _distinct_point_count(point_lists):
    """The number of numeric points after merging those within
    ``_POINT_TOL`` in both coordinates."""
    pts = []
    for group in point_lists:
        for p in group:
            if all(abs(p[0] - q[0]) > _POINT_TOL or abs(p[1] - q[1]) > _POINT_TOL for q in pts):
                pts.append(p)
    return len(pts)


def critical_exists(d) -> CriticalReport:
    """``ratpoly.critical_exists`` for planar decompositions, on this
    module's arithmetic.  The count is independent of the library's: both
    elimination orders' numeric points, merged within ``_POINT_TOL``."""
    require_admissible(d)
    if d.n != 2:
        raise ValueError("the elimination oracle is planar only")
    cleared = [_clear_to_bpoly(factor(s)) for s in d.summands]
    families = []
    for (i, bi), (j, bj) in combinations(enumerate(cleared), 2):
        kind, fams = _pair_families(bi, bj, (i + 1, j + 1))
        if kind == "positive":
            return CriticalReport(
                verdict="positive_dimensional",
                note=f"factors {i + 1} and {j + 1} share a curve of torus zeros",
            )
        # confirm with the other elimination order
        kind2, fams2 = _pair_families(b_transpose(bi), b_transpose(bj), (i + 1, j + 1))
        if kind2 == "positive" or _distinct_point_count(
            [f.points for f in fams]
        ) != _distinct_point_count([f.points for f in fams2]):
            raise CrossCheckError("elimination orders disagree on the solution count")
        families.extend(fams)
    count = _distinct_point_count([f.points for f in families])
    if count == 0:
        return CriticalReport(verdict="none", count=0)
    return CriticalReport(verdict="finite", count=count, families=families)
