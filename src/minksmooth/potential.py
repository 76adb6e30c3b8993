"""Laurent-polynomial superpotentials: construction, Newton polytope, and
the critical-point decision.

The potential W = z_{n+1} * prod_i (1 + sum z^v), one factor per summand,
is multiplied on packed exponents: each exponent vector is one int in a
mixed radix whose box holds every partial product, so the k factors cost
dict operations on ints, and W is unpacked once (:func:`build_potential`).
Its terms keep the insertion order of the term-by-term fold, which the
numeric search sums them in.

The critical-locus analysis hinges on one reduction: the potential is the
last variable times a product of summand factors, so torus critical points
exist exactly when two distinct factors vanish simultaneously on the torus.
For planar decompositions it is decided exactly, pair by pair, on each
summand's ``require_admissible`` matrices alone.  Two segments meet in a
coset of a finite subgroup of the unit torus: torsion arithmetic lists it,
and the orders of its points name the families, with cyclotomic polynomials
and binomial gcds.  A pair with a triangle is one integer polynomial in a
summand's chart, zero on a shared curve and otherwise counting the points,
and one resultant names its families (:mod:`.ratpoly`); a point's factor 1
meets nothing.  Every polynomial there is an integer list of :mod:`.zpoly`
but a family's two printed ones, lowest degree first.  In any dimension,
fewer than two factors other than 1 give no critical point, as no
admissible factor has a singular torus zero.  Other dimensions get the
verdict "heuristic".  The report is a plain record; its families' points
are :func:`witnesses`, and the search on W is :mod:`.numeric`'s.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from itertools import accumulate, combinations, repeat
from math import gcd
from operator import add, floordiv, mod, mul, sub
from typing import NamedTuple

from . import ratpoly as rp
from . import zpoly as zp
from .exactlin import CrossCheckError, gcdex
from .polytope import LatticePolytope, MinkowskiDecomposition, convex_hull, require_admissible
from .ratpoly import DegreeTooLarge

# the divisors of x^3 - 1 other than 1, lowest degree first
_CUBE_ROOT_POLYS = {(-1, 1), (1, 1, 1), (-1, 0, 0, 1)}
# a report's witnesses solve, per family, companion eigenproblems of sizes
# deg f and, above each root of f, deg h: deg f^3 + deg f * deg h^3 summed
# over the families.  On a 2-core host the roots of a binomial take 1.7 s
# at degree 1000 (10^9) and 8.8 s at degree 2000 (8 * 10^9)
_MAX_EIGEN_WORK = 10**9


class ZeroPolynomial(ValueError):
    pass


class LaurentPoly:
    """Integer-coefficient Laurent polynomial keyed by exponent vectors."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exp, coeff in dict(terms).items():
                if coeff:
                    self.terms[tuple(exp)] = int(coeff)

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls(len(exp), {tuple(exp): coeff})

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(self.nvars, out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def derivative(self, var):
        out = {}
        for exp, c in self.terms.items():
            k = exp[var]
            if k:
                new = list(exp)
                new[var] = k - 1
                key = tuple(new)
                out[key] = out.get(key, 0) + c * k
        return LaurentPoly(self.nvars, out)

    def evaluate(self, point):
        point = list(point)
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = 0j
        for exp, c in self.terms.items():
            val = complex(c)
            for z, e in zip(point, exp):
                if e:
                    val *= z ** e
            total += val
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(f"z{i + 1}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def build_potential(d: MinkowskiDecomposition) -> LaurentPoly:
    """Last variable times the product of the summand factors 1 + sum z^v,
    one monomial per nonzero vertex.

    The product runs on packed exponents (Kronecker substitution): the
    vector e is the int sum_j (e_j - low_j) R_j, where low_j sums the
    summands' least j-th coordinates, and the radix R_j multiplies the
    spans of the coordinates before j, each the sum of the summands' ranges
    plus one.  Every exponent of a partial product lies in that box, so
    adding packed ints adds exponents with no carry, and the dicts of ints
    are multiplied factor by factor and unpacked once.  The loops keep the
    order of a term-by-term fold: the terms so far outside, each factor's
    terms inside, 1 first and then the nonzero vertices in the summand's
    order.  So W's terms keep the insertion order that
    :class:`.numeric._TermTable` sums them in.
    """
    require_admissible(d)
    n = d.n
    least = [tuple(map(min, zip(*s.vertices))) for s in d.summands]
    most = [tuple(map(max, zip(*s.vertices))) for s in d.summands]
    lows = [sum(col) for col in zip(*least)]
    spans = [sum(col) - low + 1 for col, low in zip(zip(*most), lows)]
    radix = list(accumulate(spans, mul, initial=1))
    terms = {0: 1}
    for s, lo in zip(d.summands, least):
        keys = [sum(map(mul, map(sub, v, lo), radix)) for v in ((0,) * n, *s.nonzero_vertices())]
        product = {}
        get = product.get
        for k, coeff in terms.items():
            for f in keys:
                product[k + f] = get(k + f, 0) + coeff
        terms = product
    packed, digits = list(terms), []
    for low, span in zip(lows, spans):
        digits.append(list(map(add, map(mod, packed, repeat(span)), repeat(low))))
        packed = list(map(floordiv, packed, repeat(span)))
    out = LaurentPoly(n + 1)
    out.terms = dict(zip(zip(*digits, repeat(1)), terms.values()))
    return out


def newton_polytope(p: LaurentPoly) -> LatticePolytope:
    if not p:
        raise ZeroPolynomial("zero polynomial has no Newton polytope")
    return convex_hull(list(p.terms.keys()))


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
    elimination fibre of :mod:`.ratpoly`; on a segment pair its closed form
    (:func:`_binomial_fibre`), with den = 1, so no segment pair is ever
    eliminated.  ``fibre`` is an attribute outside the tuple, so ``==``,
    ``hash`` and ``repr`` ignore it.
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
    fibre :func:`.ratpoly._common_fibres` finds.  Above a root x their
    factors read y^b = -x^-a and y^d = -x^-c, so the monic gcd in K[y] is
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
    rp._require_degree(abs(det))
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
    elimination (:func:`.ratpoly._common_fibres`)."""
    g = chart(i, j)
    if not g:
        return None
    fibres = rp._common_fibres(bpoly(i), bpoly(j))
    if len(g) - 1 != sum((len(f) - 1) * (len(h) - 1) for f, h, _ in fibres):
        raise CrossCheckError("the chart and the elimination disagree on the solution count")
    for l in range(j):
        if l != i and mats[l].m and len(g) > 1:
            g = zp.exquo(g, zp.gcd(g, chart(i, l)))
    families = []
    for f, h, den in fibres:
        z1, z2 = tuple(f[::-1]), tuple(rp._partner_minpoly(f, h)[::-1])
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
    bpoly = cache(lambda i: rp._clear_to_bpoly(mats[i]))
    chart = cache(lambda i, l: rp._chart_points(mats[i], mats[l]))
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
