"""The planar critical-point decision and its exact elimination.

The potential W = z_{n+1} * prod_i (1 + sum z^v) of :mod:`.potential` is
the last variable times a product of summand factors, so torus critical
points exist exactly when two distinct factors vanish simultaneously on the
torus.  For planar decompositions it is decided exactly, pair by pair, on
each summand's ``require_admissible`` matrices alone
(:func:`critical_exists`).  Two segments meet in a coset of a finite
subgroup of the unit torus: torsion arithmetic lists it, and the orders of
its points name the families, with cyclotomic polynomials and binomial
gcds.  A pair with a triangle is one integer polynomial in a summand's
chart (:func:`_chart_points`), zero on a shared curve and otherwise
counting the points, and one resultant names its families
(:func:`_common_fibres`); a point's factor 1 meets nothing.  In any
dimension, fewer than two factors other than 1 give no critical point, as
no admissible factor has a singular torus zero.  Other dimensions get the
verdict "heuristic".  The report is a plain record; its families' points
are :func:`witnesses`, and the search on W is :mod:`.numeric`'s.

Polynomials are the dense integer lists of :mod:`.zpoly`, leading
coefficient first, but a family's two printed ones, lowest degree first: a
univariate polynomial is one list, and a bivariate one a list, in the main
variable, of lists in the other.  The main variable, called y here, is the
one eliminated; the other, x, is kept.  Resultants and gcds stay in Z[x]:
the subresultant sequence divides exactly there, and gcds over a number
field K = Q[x]/(f) are read off that sequence, not recomputed, with the
inverses and remainders in K taken by integer pseudo-division, so a gcd
comes back as integer lists over one common denominator.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from itertools import combinations
from math import comb, gcd
from typing import NamedTuple

from . import zpoly as zp
from .exactlin import CrossCheckError, dot, gcdex
from .polytope import MinkowskiDecomposition, require_admissible

# the planar decision builds no dense polynomial of higher degree in any
# variable, and lists no more common zeros of two segments
_MAX_DEGREE = 10**5
# Phi_m for m <= 12, leading first: factors are tried against them, one
# division each, before any modular work
_CYCLOTOMIC = [zp.cyclotomic(m) for m in range(1, 13)]
# the divisors of x^3 - 1 other than 1, lowest degree first
_CUBE_ROOT_POLYS = {(-1, 1), (1, 1, 1), (-1, 0, 0, 1)}
# a report's witnesses solve, per family, companion eigenproblems of sizes
# deg f and, above each root of f, deg h: deg f^3 + deg f * deg h^3 summed
# over the families.  On a 2-core host the roots of a binomial take 1.7 s
# at degree 1000 (10^9) and 8.8 s at degree 2000 (8 * 10^9)
_MAX_EIGEN_WORK = 10**9


class DegreeTooLarge(ValueError):
    """A polynomial or a point list of the planar decision would exceed
    ``_MAX_DEGREE``, or a report's witnesses would take eigenproblems of
    more than ``_MAX_EIGEN_WORK`` operations in all."""


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


# ---------------------------------------------------------------------------
# critical points


class _CriticalFamilyFields(NamedTuple):
    z1_minpoly: tuple[int, ...]
    z2_minpoly: tuple[int, ...]
    pair: tuple[int, int]
    on_unit_circle: bool


class CriticalFamily(_CriticalFamilyFields):
    """One algebraic family of isolated torus solutions in the first two
    variables; the last variable is free along each.

    ``z1_minpoly`` is irreducible over Q and differs between the families of
    one pair, which a report lists by its degree, then by its coefficients
    leading first.  ``z2_minpoly`` is the squarefree annihilator of the
    partner coordinate across the whole family; it is the minimal polynomial
    when the family carries a single partner per root and may factor further
    otherwise (it never vanishes at zero).
    ``on_unit_circle``: every point of the family lies on the unit torus.
    Such a common zero of two admissible factors is torsion, so the pair's
    summand shapes decide it.  Two segments vanish together where
    z^v = z^u = -1 with det[v; u] != 0, which forces |z| = 1 and rational
    angles: the flag holds on every segment pair.  A triangle's factor is
    1 + w1 + w2 with (w1, w2) = (z^a, z^b) for a lattice basis (a, b), and
    |w1| = |w2| = 1 forces {w1, w2} = {w, conj(w)}, w a primitive cube root
    of unity, so every coordinate is a cube root of unity: on a pair with a
    triangle the flag holds iff both polynomials divide x^3 - 1.
    ``fibre()`` returns the fibre (f, h, den) that the witnesses are rooted
    on, as the integer lists of :mod:`.zpoly`, leading first: f the
    coefficients of z1's polynomial, and den * h its gcd in y, one list of
    coefficients in z1 per power of y, a zero coefficient as ``[0]``, over
    one positive integer den.  On a pair with a triangle it is the
    elimination fibre of :func:`_common_fibres`; on a segment pair its
    closed form (:func:`_binomial_fibre`), with den = 1, so no segment pair
    is ever eliminated.  ``fibre`` is an attribute outside the tuple, so
    ``==``, ``hash`` and ``repr`` ignore it.
    """

    def __new__(cls, z1_minpoly, z2_minpoly, pair, on_unit_circle, fibre: Callable[[], tuple]):
        self = super().__new__(cls, z1_minpoly, z2_minpoly, pair, on_unit_circle)
        self.fibre = fibre
        return self


class CriticalReport(NamedTuple):
    """The decision, a plain record.  Its numeric points are computed where
    they are printed: the families' by :func:`witnesses`, and those of the
    verdict "heuristic" by :func:`.numeric.heuristic_points` on W."""

    verdict: str  # "none" | "finite" | "positive_dimensional" | "heuristic"
    count: int | None = None
    families: tuple[CriticalFamily, ...] = ()
    note: str = ""


def witnesses(report: CriticalReport) -> list[list[tuple[complex, complex]]]:
    """Each family's points, rooted on its fibre's coefficient lists by
    :mod:`.numeric` and sorted by :func:`_point_key`.  Refused before numpy
    is loaded when the report's eigenproblems, deg f^3 + deg f * deg h^3
    with the degrees read off the list lengths, exceed ``_MAX_EIGEN_WORK``;
    with no family nothing is loaded."""
    if not report.families:
        return []
    fibres = [fam.fibre() for fam in report.families]
    work = sum((len(f) - 1) ** 3 + (len(f) - 1) * (len(h) - 1) ** 3 for f, h, _ in fibres)
    if work > _MAX_EIGEN_WORK:
        raise DegreeTooLarge(f"the witnesses need eigenproblems of {work} operations, over {_MAX_EIGEN_WORK}")
    from . import numeric

    return [sorted(numeric._numeric_points(*fibre), key=_point_key) for fibre in fibres]


def _point_key(p):  # report order: the coordinates rounded to 9 digits
    return tuple((round(z.real, 9), round(z.imag, 9)) for z in p)


def _hermite_2x2(a, b, c, d):
    """The row Hermite form of [[a, b], [c, d]] with ad - bc != 0, as
    :func:`.exactlin.hnf` returns it, from one extended Euclid: the rows
    span a lattice whose vectors with first entry 0 are the multiples of
    (0, h22), so with x a + y c = h11 = gcd(a, c) > 0 the first row is
    (h11, x b + y d) reduced modulo h22 = |ad - bc| / h11.  The form is
    unique, so no other Bezout pair changes it."""
    h11, x, y = gcdex(a, c)
    h22 = abs(a * d - b * c) // h11
    return (h11, (x * b + y * d) % h22), (0, h22)


def _torsion_angles(v, u, det):
    """Common zeros of 1 + z^v and 1 + z^u with det = det[v; u] != 0, as
    the integer numerators n in [0, D)^2 of their angles theta = n / D over
    D = 2 |det|, z = exp(2 pi i theta): <v, theta> = <u, theta> = 1/2 mod 1,
    the coset theta0 + M^-1 Z^2 of M = [v; u], with
    theta0 = M^-1 (1/2, 1/2) = sign(det) (u2 - v2, v1 - u1) / D.  The rows of
    adj(M)^T span det * M^-1 Z^2; their Hermite basis (h11, h12), (0, h22)
    has h11 * h22 = |det|, so the coset is the grid
    theta0 + 2 (i * h11, i * h12 + j * h22) / D, 0 <= i < h22, 0 <= j < h11."""
    (h11, h12), (_, h22) = _hermite_2x2(u[1], -u[0], -v[1], v[0])
    size, sign = 2 * abs(det), 1 if det > 0 else -1
    n1, n2 = sign * (u[1] - v[1]), sign * (v[0] - u[0])
    return [
        ((n1 + 2 * i * h11) % size, (n2 + 2 * (i * h12 + j * h22)) % size)
        for i in range(h22)
        for j in range(h11)
    ]


def _cyclotomic_product(orders) -> tuple[int, ...]:
    """The product of the cyclotomic polynomials Phi_m over the distinct
    orders m, lowest degree first, as a family's polynomial is printed."""
    out = [1]
    for m in orders:
        out = zp.mul(out, zp.cyclotomic(m))
    return tuple(out[::-1])


def _binomial_fibre(v, u, m, z1):
    """The fibre of the segments v = (a, b), u = (c, d) above f = Phi_m,
    whose coefficients ``z1`` are lowest first, in the shape of
    :meth:`CriticalFamily.fibre` with the denominator 1 and equal to the
    fibre :func:`_common_fibres` finds.  Above a root x their factors read
    y^b = -x^-a and y^d = -x^-c, so the monic gcd in K[y] is
    y^g - r: g = s b + t d = gcd(b, d) > 0 and r = (-1)^(s + t) x^e with
    e = -(s a + t c) mod m, as x^m = 1, reduced modulo the monic Phi_m by
    pseudo-division.  A segment with b = 0 vanishes identically above
    f = x + 1, and h is the other one's binomial.  Any Bezout pair gives
    the same remainder: the monic gcd is unique."""
    g, s, t = gcdex(v[1], u[1])
    f = list(z1[::-1])
    rem = zp.pdivmod([1 if (s + t) % 2 else -1] + [0] * (-(s * v[0] + t * u[0]) % m), f)[1]  # -r
    return f, [[1]] + [[0]] * (g - 1) + [rem], 1


def _segment_pair(mats, i, j, cyclotomic):
    """A pair of segments, decided on its torsion coset (:func:`_torsion_angles`):
    ``None`` on a shared curve, else the number of its points on no factor
    l < j other than i, and its families, one per order of z1, with fibres
    from :func:`_binomial_fibre`.  ``cyclotomic`` maps a frozenset of orders
    to :func:`_cyclotomic_product` of it."""
    (v,), (u,) = mats[i].v, mats[j].v
    det = v[0] * u[1] - v[1] * u[0]
    if det == 0:
        return None
    _require_degree(abs(det))
    size = 2 * abs(det)
    points = _torsion_angles(v, u, det)
    # a triangle's factor vanishes on the unit torus only where its two
    # monomials are the primitive cube roots of unity, at angles in
    # (1/3) Z^2, where no <v, theta> is 1/2: only an earlier segment can
    # have counted a point of this pair
    earlier = [mats[l].v[0] for l in range(j) if l != i and mats[l].m == 1]
    count = sum(all((w[0] * n1 + w[1] * n2) % size != size // 2 for w in earlier) for n1, n2 in points)
    # the order of n / D is D / gcd(n, D)
    partners = {}
    for n1, n2 in points:
        partners.setdefault(size // gcd(n1, size), set()).add(size // gcd(n2, size))
    families = []
    for m1, m2s in partners.items():
        z1 = cyclotomic(frozenset((m1,)))
        fibre = lambda m1=m1, z1=z1: _binomial_fibre(v, u, m1, z1)
        families.append(CriticalFamily(z1, cyclotomic(frozenset(m2s)), (i + 1, j + 1), True, fibre))
    return count, families


def _chart_pair(mats, i, j, chart, bpoly):
    """A pair with a triangle, decided in summand i's chart: ``None`` on a
    shared curve, else the number of roots of its chart polynomial on no
    factor l < j other than i and no point, and one family per fibre of its
    elimination (:func:`_common_fibres`)."""
    g = chart(i, j)
    if not g:
        return None
    fibres = _common_fibres(bpoly(i), bpoly(j))
    if len(g) - 1 != sum((len(f) - 1) * (len(h) - 1) for f, h, _ in fibres):
        raise CrossCheckError("the chart and the elimination disagree on the solution count")
    for l in range(j):
        if l != i and mats[l].m and len(g) > 1:
            g = zp.exquo(g, zp.gcd(g, chart(i, l)))
    families = []
    for f, h, den in fibres:
        z1, z2 = tuple(f[::-1]), tuple(_partner_minpoly(f, h)[::-1])
        families.append(CriticalFamily(z1, z2, (i + 1, j + 1), {z1, z2} <= _CUBE_ROOT_POLYS, lambda fh=(f, h, den): fh))
    return len(g) - 1, families


def critical_exists(d: MinkowskiDecomposition) -> CriticalReport:
    """Decide torus critical points of the potential.

    Planar case: exact, pair by pair, each point counted at its first pair,
    read from the summands' matrices alone.  A pair with a point is skipped.
    A pair of segments is decided by torsion arithmetic alone
    (:func:`_segment_pair`); any other pair by its polynomial in a summand's
    chart, which decides a shared curve and counts the points, and one
    elimination, which names the families (:func:`_chart_pair`).
    Each pair's families are sorted here, in :class:`CriticalFamily`'s
    order, so no factoring routine decides it.  No unit-circle flag needs a
    witness.  Fewer than two factors other than 1: "none", in any dimension.
    Anything else: the verdict "heuristic", with no points; ``analyze``
    prints those of :func:`.numeric.heuristic_points` on W beside it.
    """
    mats = require_admissible(d)
    factors = [i for i, sm in enumerate(mats) if sm.m]
    if len(factors) < 2:
        return CriticalReport(verdict="none", count=0)
    if d.n != 2:
        return CriticalReport(verdict="heuristic", note="dimension is not 2: numeric multi-start search, not a proof")
    bpoly = cache(lambda i: _clear_to_bpoly(mats[i]))
    chart = cache(lambda i, l: _chart_points(mats[i], mats[l]))
    cyclotomic = cache(_cyclotomic_product)
    families, count = [], 0
    for i, j in combinations(factors, 2):
        if mats[i].m == mats[j].m == 1:
            found = _segment_pair(mats, i, j, cyclotomic)
        else:
            found = _chart_pair(mats, i, j, chart, bpoly)
        if found is None:
            return CriticalReport(
                verdict="positive_dimensional",
                note=f"factors {i + 1} and {j + 1} share a curve of torus zeros",
            )
        count += found[0]
        # by degree, then the z1 coefficients leading first
        families += sorted(found[1], key=lambda fam: (len(fam.z1_minpoly), fam.z1_minpoly[::-1]))
    if count == 0:
        return CriticalReport(verdict="none", count=0)
    return CriticalReport(verdict="finite", count=count, families=tuple(families))
