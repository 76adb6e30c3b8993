"""Exact elimination for the planar critical-point decision.

Polynomials are the dense integer lists of :mod:`.zpoly`, leading
coefficient first: a univariate polynomial is one list, and a bivariate one
a list, in the main variable, of lists in the other.  The main variable,
called y here, is the one eliminated; the other, x, is kept.  Resultants
and gcds stay in Z[x]: the subresultant sequence divides exactly there, and
gcds over a number field K = Q[x]/(f) are read off that sequence, not
recomputed, with the inverses and remainders in K taken by integer
pseudo-division, so a gcd comes back as integer lists over one common
denominator.  A pair with a triangle is decided on its chart polynomial
(:func:`_chart_points`) and its fibres (:func:`_common_fibres`).
"""

from __future__ import annotations

from math import comb, gcd

from . import zpoly as zp
from .exactlin import dot

# the planar decision builds no dense polynomial of higher degree in any
# variable, and lists no more common zeros of two segments
_MAX_DEGREE = 10**5
# Phi_m for m <= 12, leading first: factors are tried against them, one
# division each, before any modular work
_CYCLOTOMIC = [zp.cyclotomic(m) for m in range(1, 13)]


class DegreeTooLarge(ValueError):
    """A polynomial or a point list of the planar decision would exceed
    ``_MAX_DEGREE``, or a report's witnesses would take eigenproblems of
    more than ``potential._MAX_EIGEN_WORK`` operations in all."""


def _require_degree(deg):
    """Refuse a dense polynomial of degree, or a list of points, over
    ``_MAX_DEGREE`` before it is built."""
    if deg > _MAX_DEGREE:
        raise DegreeTooLarge(f"the planar decision needs a polynomial of degree over {_MAX_DEGREE}")


def bresultant_y(f: list, g: list) -> tuple[list, list[list]]:
    """Resultant with respect to the main variable of two integer bivariate
    lists, as an integer list in the other, and its subresultant PRS, which
    starts with the input of higher degree in y and is empty when an input is
    zero.  The resultant is up to sign: the factor (-1)^(deg f * deg g) is
    dropped when deg f < deg g."""
    if not f or not g:
        return [], []
    prs, s = zp.subresultants(f, g)
    return ([] if len(prs[-1]) > 1 else s[-1]), prs


def _primitive_y(f: list) -> tuple[list, list]:
    """The gcd in Z[x] of a bivariate list's coefficients, and the list
    over it."""
    c = []
    for u in f:
        c = zp.gcd(c, u)
    return c, (f if c == [1] else [zp.exquo(u, c) for u in f])


def bgcd(f: list, g: list) -> list:
    """Gcd in Z[y, x] by the primitive PRS in y, with a positive leading
    coefficient; no library caller, the tests' shared-curve oracle."""
    if not f or not g:
        h = f or g
    else:
        (cf, f), (cg, g) = _primitive_y(f), _primitive_y(g)
        if len(f) < len(g):
            f, g = g, f
        while len(g) > 1:
            f, g = g, _primitive_y(zp.bprem(f, g))[1]
        c = zp.gcd(cf, cg)
        h = [zp.mul(c, u) for u in ([[1]] if g else _primitive_y(f)[1])]
    return [zp.neg(u) for u in h] if h and h[0][0] < 0 else h


def _inverse_multiple(a: list, modulus: list) -> list:
    """An integer list s with s a equal to a nonzero integer modulo the
    irreducible ``modulus``, of which ``a`` is no multiple: the extended
    primitive remainder sequence, each row (r, s) with s a = r modulo the
    modulus divided by its content."""
    r0, r1, s0, s1 = modulus, a, [], [1]
    while len(r1) > 1:
        e = len(r0) - len(r1) + 1
        q, r = zp.pdivmod(r0, r1)
        s = zp.sub([r1[0] ** e * c for c in s0], zp.mul(q, s1))
        c = gcd(*r, *s)
        r0, r1, s0, s1 = r1, [u // c for u in r], s1, [u // c for u in s]
    if not r1:
        raise ArithmeticError("the modulus is not irreducible")
    return s1


def _reduce(u: list, modulus: list) -> tuple[list, int]:
    """u modulo ``modulus`` over Q as (integer list, denominator)."""
    return zp.pdivmod(u, modulus)[1], modulus[0] ** max(len(u) - len(modulus) + 1, 0)


def kgcd_y(modulus: list, prs: list[list]) -> tuple[list[list], int]:
    """Monic gcd in K[y], K = Q[x]/(modulus) with the integer ``modulus``
    irreducible and lc(modulus) > 0, of the pair with subresultant PRS
    ``prs``: by the specialization property, the image of the lowest entry
    whose leading coefficient does not vanish in K.  It is (rows, den):
    the coefficients in y, leading first, are the integer lists ``rows``,
    reduced modulo ``modulus``, over the one positive integer ``den``, with
    no factor common to all of them; ``([], 1)`` when no entry qualifies.

    Exact when the first entry keeps its leading coefficient in K.  For two
    admissible planar factors that fails only above x = -1, when the first
    is a triangle whose top edge in y is parallel to the x axis: its image
    is then a monomial in y, so the true gcd has no torus root, and no rows
    give the same empty fibre.
    """
    for p in reversed(prs):
        top = zp.pdivmod(p[0], modulus)[1]
        if top:
            s = _inverse_multiple(top, modulus)
            rows = [_reduce(zp.mul(s, u), modulus) for u in p]
            # s times the leading coefficient is k / d0; each row's d is a
            # power of lc(modulus) > 0, so the largest is their lcm
            (k,), d0 = rows[0]
            big = max(d for _, d in rows)
            rows = [[c * d0 * (big // d) for c in r] for r, d in rows]
            g = gcd(big * k, *(c for r in rows for c in r)) * (1 if k > 0 else -1)
            return [[c // g for c in r] for r in rows], big * k // g
    return [], 1


def factor_rational(f: list) -> list[tuple[list, int]]:
    """Irreducible factors over Q of a univariate integer list, with their
    multiplicities: primitive integer lists with positive leading
    coefficients, by degree and then coefficients.  The square-free parts
    are Yun's; each loses its factors x and Phi_m, m <= 12, by division,
    and Zassenhaus splits the rest."""
    k = len(f) - len(zp._trim(f[::-1]))  # the power of x
    out = [([1, 0], k)] if k and f else []
    for g, mult in zp.sqf_list(f[: len(f) - k]):
        for phi in _CYCLOTOMIC:
            q = zp.quotient(g, phi) if len(phi) <= len(g) else None
            if q is not None:
                out.append((phi, mult))
                g = q
        if len(g) > 1:
            out += [(u, mult) for u in zp.factor_squarefree(g)]
    return sorted(out, key=lambda um: (len(um[0]), um[0]))


def _clear_to_bpoly(sm) -> list:
    """Shift the factor 1 + sum z^v over the rows v of ``sm.v`` into
    Z[z2, z1] by a monomial, as a dense list; z2 is the main variable, so
    it is the one the resultant eliminates."""
    exps = [(0, 0), *sm.v]
    min1, min2 = (min(e[s] for e in exps) for s in (0, 1))
    deg1, deg2 = (max(e[s] for e in exps) - low for s, low in ((0, min1), (1, min2)))
    _require_degree(max(deg1, deg2))
    rows = [[0] * (deg1 + 1) for _ in range(deg2 + 1)]
    for e1, e2 in exps:
        rows[deg2 - e2 + min2][deg1 - e1 + min1] = 1
    return [zp._trim(u) for u in rows]


def _strip_x(u: list) -> list:
    """Drop the monomial factor x^k of an integer list; torus roots are
    unaffected."""
    return zp._trim(u[::-1])[::-1]


def _common_fibres(bi, bj):
    """Common torus zeros of a pair of cleared integer bivariate lists, as
    fibres (f, h, den): f is an irreducible integer factor other than x of
    the resultant that eliminates the main variable y, and h / den, in K[y]
    with K = Q[x]/(f), is the pair's gcd above the roots of f, one integer
    list per power of y (:func:`kgcd_y`), a zero one as ``[0]`` as in the
    segment fibres.  The chart has ruled out a shared curve.
    """
    res, prs = bresultant_y(bi, bj)
    fibres = []
    for f, _mult in factor_rational(res):
        if f == [1, 0]:  # x = 0 is off the torus
            continue
        # one side may vanish identically above these roots; the gcd read
        # off the PRS is then the survivor, whose zeros are the common zeros
        h, den = kgcd_y(f, prs)
        while h and not h[-1]:  # partner roots at zero are off the torus
            h = h[:-1]
        if len(h) >= 2:
            fibres.append((f, [u or [0] for u in h], den))
    return fibres


def _partner_minpoly(f, h) -> list:
    """Squarefree annihilator of the second coordinate over the family:
    eliminate x between f(x) and the lifted h(x, y), h in integers over any
    denominator, by a resultant in x (a power of h when h does not involve
    x)."""
    top = max(map(len, h)) - 1
    # main variable x, leading first; each coefficient a list in y
    lifted = [zp._trim([u[len(u) - 1 - ex] if ex < len(u) else 0 for u in h]) for ex in range(top, -1, -1)]
    res = bresultant_y(lifted, [[c] if c else [] for c in f])[0]
    return zp.sqf_part(_strip_x(res))


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
    g = zp.sqf_part(zp._trim([coeffs.get(k, 0) for k in range(max(coeffs), -1, -1)]))
    return zp.exquo(g, zp.gcd(g, [1, 1, 0] if sm_i.m == 2 else [1, 0]))
