"""Exact elimination primitives for the planar critical-point decision.

Polynomials are sympy's dense coefficient lists, leading first, over its
``ZZ`` and ``QQ`` domains: a univariate polynomial is one list, and a
bivariate one a list, in the main variable, of lists in the other.  The
main variable, called y here, is the one eliminated; the other, x, is kept.
Each primitive is the sympy dense-layer routine that ``sympy.Poly`` wraps,
called on the lists directly, so the results are the same integers and
rationals with no ``Poly`` built.  Resultants and gcds take integer lists:
over ZZ the subresultant sequence divides exactly in Z[x], and over QQ the
same sequence ran 3.7 times slower on the lens(97,30) decision.  Gcds over a
number field K = Q[x]/(f) are read off that sequence, not recomputed.
Pairs with a triangle are decided here (:func:`_chart_pair`); no other
module imports sympy.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from sympy.polys.densearith import dup_exquo, dup_mul, dup_rem
from sympy.polys.densebasic import dmp_from_dict, dmp_terms_gcd, dup_convert, dup_from_dict
from sympy.polys.densetools import dmp_clear_denoms
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dmp_gcd, dmp_resultant, dup_gcd, dup_invert
from sympy.polys.factortools import dup_factor_list
from sympy.polys.sqfreetools import dup_sqf_part

from .exactlin import CrossCheckError, dot
from .potential import CriticalFamily, _require_degree

# the divisors of x^3 - 1 other than 1, lowest degree first
_CUBE_ROOT_POLYS = {(-1, 1), (1, 1, 1), (-1, 0, 0, 1)}


def bresultant_y(f: list, g: list) -> tuple[list, list[list]]:
    """Resultant with respect to the main variable of two integer bivariate
    lists, as an integer list in the other, and its subresultant PRS, which
    starts with the input of higher degree in y and is empty when an input is
    zero.  The resultant is up to sign: sympy 1.14 drops the factor
    (-1)^(deg f * deg g) when deg f < deg g.
    """
    return dmp_resultant(f, g, 1, ZZ, includePRS=True)


def bgcd(f: list, g: list) -> list:
    """Gcd in Z[y, x]; no library caller, the tests' shared-curve oracle."""
    return dmp_gcd(f, g, 1, ZZ)


def kgcd_y(modulus: list, prs: list[list]) -> list[list]:
    """Monic gcd in K[y], K = Q[x]/(modulus) with the integer ``modulus``
    irreducible, of the pair with subresultant PRS ``prs``: by the
    specialization property, the image of the lowest entry whose leading
    coefficient does not vanish in K.  Coefficients in y, leading first, each
    a list over QQ reduced modulo ``modulus``; ``[]`` when no entry qualifies.

    Exact when the first entry keeps its leading coefficient in K.  For two
    admissible planar factors that fails only above x = -1, when the first
    is a triangle whose top edge in y is parallel to the x axis: its image
    is then a monomial in y, so the true gcd has no torus root, and ``[]``
    gives the same empty fibre.
    """
    m = dup_convert(modulus, ZZ, QQ)
    for p in reversed(prs):
        coeffs = [dup_rem(dup_convert(c, ZZ, QQ), m, QQ) for c in p]
        if coeffs[0]:
            inv = dup_invert(coeffs[0], m, QQ)
            return [dup_rem(dup_mul(inv, c, QQ), m, QQ) for c in coeffs]
    return []


def factor_rational(f: list) -> list[tuple[list, int]]:
    """Irreducible factors over Q of a univariate integer list, with their
    multiplicities: primitive integer lists in sympy's order."""
    return dup_factor_list(f, ZZ)[1]


def _clear_to_bpoly(sm) -> list:
    """Shift the factor 1 + sum z^v over the rows v of ``sm.v`` into
    Z[z2, z1] by a monomial, as a dense list; z2 is the main variable, so
    it is the one the resultant eliminates."""
    exps = [(0, 0), *sm.v]
    min1, min2 = (min(e[s] for e in exps) for s in (0, 1))
    terms = {(e2 - min2, e1 - min1): 1 for e1, e2 in exps}
    _require_degree(max(max(e) for e in terms))
    return dmp_from_dict(terms, 1, ZZ)


def _strip_x(u: list) -> list:
    """Drop the monomial factor x^k of an integer list; torus roots are
    unaffected."""
    return dmp_terms_gcd(u, 0, ZZ)[1]


def _int_coeffs(u: list) -> tuple[int, ...]:
    """Coefficients of a primitive integer list, lowest degree first."""
    return tuple(int(c) for c in reversed(u))


def _common_fibres(bi, bj):
    """Common torus zeros of a pair of cleared integer bivariate lists, as
    fibres (f, h): f is an irreducible integer factor of the resultant that
    eliminates the main variable y, and h, in K[y] with K = Q[x]/(f), is the
    pair's gcd above the roots of f, one list over QQ per power of y.  The
    chart has ruled out a shared curve.
    """
    res, prs = bresultant_y(bi, bj)
    res = _strip_x(res)
    if len(res) <= 1:
        return []
    fibres = []
    for f, _mult in factor_rational(dup_sqf_part(res, ZZ)):
        # one side may vanish identically above these roots; the gcd read
        # off the PRS is then the survivor, whose zeros are the common zeros
        h = kgcd_y(f, prs)
        while h and not h[-1]:  # partner roots at zero are off the torus
            h = h[:-1]
        if len(h) >= 2:
            fibres.append((f, h))
    return fibres


def _partner_minpoly(f, h) -> list:
    """Squarefree annihilator of the second coordinate over the family:
    eliminate x between f(x) and the lifted h(x, y) by a resultant in x (a
    power of h when h does not involve x)."""
    top = len(h) - 1
    terms = {(len(u) - 1 - ex, top - k): c for k, u in enumerate(h) for ex, c in enumerate(u) if c}
    lifted = dmp_clear_denoms(dmp_from_dict(terms, 1, QQ), 1, QQ, ZZ, convert=True)[1]
    res = bresultant_y(lifted, [[c] if c else [] for c in f])[0]
    return dup_sqf_part(_strip_x(res), ZZ)


def _chart_points(sm_i, sm_j) -> list:
    """An integer list, squarefree in t; zero iff f_j = 1 + sum z^u over
    the rows u of ``sm_j.v`` vanishes on V(f_i), one irreducible curve, else
    its roots are the common torus zeros.  With [v; e]^-1 = [a | c] of the segment or
    triangle i, z^u = w1^(u.col0) t^(u.col1) on V(f_i), where w1 = -1 on a
    segment and -1 - t on a triangle; t = 0 and t = -1 (w1 = 0) are off the
    torus."""
    cols = (sm_i.a_column(0), sm_i.c_column(0) if sm_i.m == 1 else sm_i.a_column(1))
    exps = [tuple(dot(u, col) for col in cols) for u in [(0, 0), *sm_j.v]]
    p0, q0 = (min(e[s] for e in exps) for s in (0, 1))
    _require_degree(max(q - q0 + (p - p0 if sm_i.m == 2 else 0) for p, q in exps))
    coeffs = {}
    for p, q in exps:
        top = p - p0 if sm_i.m == 2 else 0  # w1^p = (-1)^p (1 + t)^p; clear (1 + t)^-p0
        for r in range(top + 1):
            coeffs[q - q0 + r] = coeffs.get(q - q0 + r, 0) + (-1 if p % 2 else 1) * comb(top, r)
    g = dup_sqf_part(dup_from_dict(coeffs, ZZ), ZZ)
    return dup_exquo(g, dup_gcd(g, [1, 1, 0] if sm_i.m == 2 else [1, 0], ZZ), ZZ)


def _chart_pair(mats, i, j, chart, bpoly):
    """A pair with a triangle, decided in summand i's chart: ``None`` on a
    shared curve, else the number of roots of its chart polynomial on no
    factor l < j other than i and no point, and one family per fibre of its
    elimination."""
    g = chart(i, j)
    if not g:
        return None
    fibres = _common_fibres(bpoly(i), bpoly(j))
    if len(g) - 1 != sum((len(f) - 1) * (len(h) - 1) for f, h in fibres):
        raise CrossCheckError("the chart and the elimination disagree on the solution count")
    for l in range(j):
        if l != i and mats[l].m and len(g) > 1:
            g = dup_exquo(g, dup_gcd(g, chart(i, l), ZZ), ZZ)
    families = []
    for f, h in fibres:
        z1, z2 = _int_coeffs(f), _int_coeffs(_partner_minpoly(f, h))
        # a zero coefficient of h is the list [0], as in the segment fibres
        exact = [[Fraction(int(c.numerator), int(c.denominator)) for c in u] or [Fraction(0)] for u in h]
        fibre = (list(z1[::-1]), exact)
        families.append(CriticalFamily(z1, z2, (i + 1, j + 1), {z1, z2} <= _CUBE_ROOT_POLYS, lambda fh=fibre: fh))
    return len(g) - 1, families
