"""Laurent-polynomial superpotentials: construction, mutation, Newton
polytope, and the critical-point decision.

The critical-locus analysis hinges on one reduction: the potential is the
last variable times a product of summand factors, so torus critical points
exist exactly when two distinct factors vanish simultaneously on the torus.
For planar decompositions it is decided exactly, pair by pair, on each
summand's ``require_admissible`` matrices alone.  Two segments meet in a
coset of a finite subgroup of the unit torus: torsion arithmetic lists it,
and the orders of its points name the families, with cyclotomic polynomials
and binomial gcds.  A pair with a triangle is one integer polynomial in a
summand's chart, zero on a shared curve and otherwise counting the points,
and one resultant names its families; a point's factor 1 meets nothing.
The chart and the elimination run on sympy's dense coefficient lists, with
the dense-layer routines that ``sympy.Poly`` wraps (:mod:`.ratpoly`), and
build no ``Poly``.
Other dimensions get the verdict "heuristic", whose report runs the damped
Newton search of :func:`heuristic_points` for witnesses when first read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import combinations
from math import comb, gcd, prod

import numpy as np
from numpy.linalg import _umath_linalg
from sympy.polys.densearith import dup_exquo
from sympy.polys.densebasic import dmp_from_dict, dmp_terms_gcd, dup_from_dict
from sympy.polys.densetools import dmp_clear_denoms
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.sqfreetools import dup_sqf_part

from .exactlin import CrossCheckError, dot, hnf
from .polytope import (
    LatticePolytope,
    MinkowskiDecomposition,
    OriginNotVertex,
    convex_hull,
    require_admissible,
)
from . import ratpoly as rp


# the planar decision builds no dense polynomial of higher degree in any
# variable, and lists no more common zeros of two segments
_MAX_DEGREE = 10**5
# a report's witnesses solve, per family, companion eigenproblems of sizes
# deg f and, above each root of f, deg h: deg f^3 + deg f * deg h^3 summed
# over the families.  numpy 2.4 on a 2-core host takes 1.7 s for np.roots of
# a binomial of degree 1000 (10^9) and 8.8 s at degree 2000 (8 * 10^9)
_MAX_EIGEN_WORK = 10**9
# the divisors of x^3 - 1 other than 1, lowest degree first
_CUBE_ROOT_POLYS = {(-1, 1), (1, 1, 1), (-1, 0, 0, 1)}
# the n != 2 search: seeded starts, Newton steps per start, and the gradient
# size below which a start has converged
_SEARCH_STARTS = 40
_SEARCH_ITERS = 80
_SEARCH_TOL = 1e-10
_SEARCH_SEED = 7


class ZeroPolynomial(ValueError):
    pass


class DegreeTooLarge(ValueError):
    """A polynomial or a point list of the planar decision would exceed
    ``_MAX_DEGREE``, or a report's witnesses would take eigenproblems of
    more than ``_MAX_EIGEN_WORK`` operations in all."""


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
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(self.nvars, out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers of polynomials are not Laurent")
        out = LaurentPoly.one(self.nvars)
        for _ in range(e):
            out = out * self
        return out

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

    def lift(self, nvars):
        """Pad exponent vectors with zeros up to ``nvars`` variables."""
        pad = nvars - self.nvars
        if pad < 0:
            raise ValueError("cannot drop variables")
        return LaurentPoly(nvars, {e + (0,) * pad: c for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(f"z{i + 1}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def factor(mi: LatticePolytope) -> LaurentPoly:
    """Constant term one plus one monomial per nonzero vertex."""
    if not mi.origin_is_vertex:
        raise OriginNotVertex("factor needs the origin as a vertex")
    out = LaurentPoly.one(mi.ambient_dim)
    for v in mi.nonzero_vertices():
        out = out + LaurentPoly.monomial(v)
    return out


def build_potential(d: MinkowskiDecomposition) -> LaurentPoly:
    """Last variable times the product of the summand factors."""
    require_admissible(d)
    n = d.n
    out = LaurentPoly.monomial((0,) * n + (1,))
    for s in d.summands:
        out = out * factor(s).lift(n + 1)
    return out


def mutate(p: LaurentPoly, summand: LatticePolytope) -> LaurentPoly:
    """Wall-crossing substitution: last variable -> last variable times the
    summand factor, everything else fixed; expanded and collected."""
    n = p.nvars
    fac = factor(summand).lift(n)
    out = LaurentPoly.zero(n)
    for exp, c in p.terms.items():
        e_last = exp[-1]
        if e_last < 0:
            raise ValueError("mutation needs nonnegative exponents in the last variable")
        out = out + LaurentPoly(n, {exp: c}) * (fac ** e_last)
    return out


def newton_polytope(p: LaurentPoly) -> LatticePolytope:
    if not p:
        raise ZeroPolynomial("zero polynomial has no Newton polytope")
    return convex_hull(list(p.terms.keys()))


# ---------------------------------------------------------------------------
# critical points


@dataclass
class CriticalFamily:
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
    ``fibre()`` returns the fibre (f, h) that the witnesses are rooted on,
    as exact coefficient lists, leading first: f the integer coefficients of
    z1's polynomial, and h its gcd in y, one list of int or ``Fraction``
    coefficients in z1 per power of y.  On a pair with a triangle it is the
    elimination fibre, read once off sympy's dense lists (each rational as
    a ``Fraction``, a zero coefficient as ``[Fraction(0)]``); on a segment
    pair its closed form in integers (:func:`_binomial_fibre`), so no
    segment pair is ever eliminated and its witnesses call no sympy routine.
    """

    z1_minpoly: tuple[int, ...]
    z2_minpoly: tuple[int, ...]
    pair: tuple[int, int]
    on_unit_circle: bool
    fibre: Callable[[], tuple] = field(compare=False, repr=False)


@dataclass
class CriticalReport:
    """The decision, with the numeric points of its families (``witnesses``)
    or of the verdict "heuristic" computed when first read."""

    verdict: str  # "none" | "finite" | "positive_dimensional" | "heuristic"
    count: int | None = None
    families: list[CriticalFamily] = field(default_factory=list)
    note: str = ""
    search: Callable[[], list] = field(default=list, compare=False, repr=False)  # run by heuristic_points

    @cached_property
    def heuristic_points(self) -> list[tuple[complex, ...]]:
        """Witnesses of the verdict "heuristic", searched for when first read."""
        return self.search()

    @cached_property
    def witnesses(self) -> list[list[tuple[complex, complex]]]:
        """Each family's points, rooted on its fibre's coefficient lists
        (:func:`_numeric_points`), refused before any root is taken when the
        report's eigenproblems, deg f^3 + deg f * deg h^3 with the degrees
        read off the list lengths, exceed ``_MAX_EIGEN_WORK``."""
        fibres = [fam.fibre() for fam in self.families]
        work = sum((len(f) - 1) ** 3 + (len(f) - 1) * (len(h) - 1) ** 3 for f, h in fibres)
        if work > _MAX_EIGEN_WORK:
            raise DegreeTooLarge(f"the witnesses need eigenproblems of {work} operations, over {_MAX_EIGEN_WORK}")
        return [sorted(_numeric_points(f, h), key=_point_key) for f, h in fibres]


def _point_key(p):  # report order: the coordinates rounded to 9 digits
    return tuple((round(z.real, 9), round(z.imag, 9)) for z in p)


def _clear_to_bpoly(sm) -> list:
    """Shift the factor 1 + sum z^v over the rows v of ``sm.v`` into
    Z[z2, z1] by a monomial, as a dense list (see :mod:`.ratpoly`); z2 is
    the main variable, so it is the one the resultant eliminates."""
    exps = [(0, 0), *sm.v]
    min1, min2 = (min(e[s] for e in exps) for s in (0, 1))
    terms = {(e2 - min2, e1 - min1): 1 for e1, e2 in exps}
    _require_degree(max(max(e) for e in terms))
    return dmp_from_dict(terms, 1, ZZ)


def _require_degree(deg):
    """Refuse a dense polynomial of degree, or a list of points, over
    ``_MAX_DEGREE`` before it is built."""
    if deg > _MAX_DEGREE:
        raise DegreeTooLarge(f"the planar decision needs a polynomial of degree over {_MAX_DEGREE}")


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
    res, prs = rp.bresultant_y(bi, bj)
    res = _strip_x(res)
    if len(res) <= 1:
        return []
    fibres = []
    for f, _mult in rp.factor_rational(dup_sqf_part(res, ZZ)):
        # one side may vanish identically above these roots; the gcd read
        # off the PRS is then the survivor, whose zeros are the common zeros
        h = rp.kgcd_y(f, prs)
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
    res = rp.bresultant_y(lifted, [[c] if c else [] for c in f])[0]
    return dup_sqf_part(_strip_x(res), ZZ)


def _numeric_points(f, h):
    """Numeric witnesses of a fibre in coefficient lists: the roots of f
    paired with the roots of h above each.  Each exact coefficient is
    rounded once, by ``float`` or ``complex`` of an int or a ``Fraction``."""
    pts = []
    z1_roots = np.roots([float(c) for c in f])
    hcoeffs = [[complex(c) for c in u] for u in h]
    for alpha in z1_roots:  # h's coefficients at alpha by Horner's rule
        arr = [reduce(lambda val, c: val * alpha + c, u, 0j) for u in hcoeffs]
        pts += [(complex(alpha), complex(beta)) for beta in np.roots(arr)]
    return pts


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


def _torsion_angles(v, u, det):
    """Common zeros of 1 + z^v and 1 + z^u with det = det[v; u] != 0, as
    the integer numerators n in [0, D)^2 of their angles theta = n / D over
    D = 2 |det|, z = exp(2 pi i theta): <v, theta> = <u, theta> = 1/2 mod 1,
    the coset theta0 + M^-1 Z^2 of M = [v; u], with
    theta0 = M^-1 (1/2, 1/2) = sign(det) (u2 - v2, v1 - u1) / D.  The rows of
    adj(M)^T span det * M^-1 Z^2; their Hermite basis (h11, h12), (0, h22)
    has h11 * h22 = |det|, so the coset is the grid
    theta0 + 2 (i * h11, i * h12 + j * h22) / D, 0 <= i < h22, 0 <= j < h11."""
    (h11, h12), (_, h22) = hnf([[u[1], -u[0]], [-v[1], v[0]]])[0]
    size, sign = 2 * abs(det), 1 if det > 0 else -1
    n1, n2 = sign * (u[1] - v[1]), sign * (v[0] - u[0])
    return [
        ((n1 + 2 * i * h11) % size, (n2 + 2 * (i * h12 + j * h22)) % size)
        for i in range(h22)
        for j in range(h11)
    ]


def _prime_factors(m):
    """The distinct primes dividing m >= 1, increasing, by trial division;
    the orders of the planar decision are at most 2 * ``_MAX_DEGREE``, so no
    trial divisor passes 447."""
    primes, p = [], 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return primes + [m] if m > 1 else primes


def _cyclotomic_product(orders) -> tuple[int, ...]:
    """The product of the cyclotomic polynomials Phi_m over the distinct
    orders m, lowest degree first.  Phi_m is the product over d | m of
    (x^d - 1)^mu(m/d), so the product is one of factors 1 - x^d and their
    inverses, expanded as a power series up to its degree, and negated when
    Phi_1 = x - 1 is a factor."""
    exps, degree = {}, 0
    for m in orders:
        primes = _prime_factors(m)
        degree += m // prod(primes) * prod(p - 1 for p in primes)
        for k in range(len(primes) + 1):
            for sub in combinations(primes, k):
                d = m // prod(sub)
                exps[d] = exps.get(d, 0) + (-1) ** k
    coeffs = [1] + [0] * degree
    for d, e in exps.items():
        for _ in range(abs(e)):
            if e > 0:  # times 1 - x^d
                for k in range(degree, d - 1, -1):
                    coeffs[k] -= coeffs[k - d]
            else:  # over 1 - x^d
                for k in range(d, degree + 1):
                    coeffs[k] += coeffs[k - d]
    return tuple(-c for c in coeffs) if 1 in orders else tuple(coeffs)


def _binomial_fibre(v, u, m, z1):
    """The fibre of the segments v = (a, b), u = (c, d) above f = Phi_m,
    whose coefficients ``z1`` are lowest first, as coefficient lists (see
    :attr:`CriticalFamily.fibre`) equal to those of the fibre
    :func:`_common_fibres` finds.  Above a root x their factors read
    y^b = -x^-a and y^d = -x^-c, so the monic gcd in K[y] is y^g - r:
    g = s b + t d = gcd(b, d) > 0 and r = (-1)^(s + t) x^e with
    e = -(s a + t c) mod m, as x^m = 1.  r is reduced modulo the monic Phi_m
    by integer long division.  A segment with b = 0 vanishes identically
    above f = x + 1, and h is the other one's binomial."""
    ((g,), _), ((s, t), _) = hnf([[v[1]], [u[1]]])
    rem = [0] * max(len(z1) - 1, m)
    rem[-(s * v[0] + t * u[0]) % m] = 1 if (s + t) % 2 else -1  # -r
    top = len(z1) - 1
    lower = [(k, c) for k, c in enumerate(z1[:-1]) if c]
    for k in range(len(rem) - 1, top - 1, -1):  # subtract rem[k] x^(k - top) Phi_m
        if rem[k]:
            for j, c in lower:
                rem[k - top + j] -= rem[k] * c
    del rem[top:]
    while len(rem) > 1 and not rem[-1]:
        rem.pop()
    return list(z1[::-1]), [[1]] + [[0]] * (g - 1) + [rem[::-1]]


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


def critical_exists(d: MinkowskiDecomposition) -> CriticalReport:
    """Decide torus critical points of the potential.

    Planar case: exact, pair by pair, each point counted at its first pair,
    read from the summands' matrices alone.  A pair with a point is skipped.
    A pair of segments is decided by torsion arithmetic alone
    (:func:`_segment_pair`); any other pair by its polynomial in a summand's
    chart, which decides a shared curve and counts the points, and one
    elimination, which names the families (:func:`_chart_pair`).  Each
    pair's families are sorted here, in :class:`CriticalFamily`'s order, so
    no factoring routine decides it.  No unit-circle flag needs a witness.
    Anything else: the verdict "heuristic", whose report runs
    :func:`heuristic_points` only when its witnesses are read.
    """
    mats = require_admissible(d)
    if d.n != 2:
        note = "dimension is not 2: numeric multi-start search, not a proof"
        return CriticalReport(verdict="heuristic", note=note, search=lambda: heuristic_points(d))
    bpoly = cache(lambda i: _clear_to_bpoly(mats[i]))
    chart = cache(lambda i, l: _chart_points(mats[i], mats[l]))
    cyclotomic = cache(_cyclotomic_product)
    families, count = [], 0
    # a point's factor 1 meets nothing
    for i, j in combinations([i for i, sm in enumerate(mats) if sm.m], 2):
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
    return CriticalReport(verdict="finite", count=count, families=families)


class _TermTable:
    """Laurent polynomials compiled for evaluation at many points at once,
    bit for bit ``LaurentPoly.evaluate`` on every finite value.

    The table is term-major and ragged.  The polynomials are ranked by
    decreasing term count, ties in list order, so the terms at place ``t``
    of their dictionary order are those of the first ``counts[t]`` ranked
    polynomials; the table holds place 0 of every polynomial, then place 1,
    and so on, with no padding.  Variables past the first ``nfree`` are
    pinned to ``1 + 0j`` and skipped, which is exact.  A term is its
    coefficient times the powers of its free variables in variable order.
    Each variable's distinct nonzero exponents are powered once by
    ``np.power``, which matches scalar ``**``, into slots 1, 2, ...; slot 0
    holds ``1 + 0j``, which a term without the variable gathers.  Where
    ``evaluate`` skips a variable or multiplies the coefficient's zero
    imaginary part, the table's products differ at most in the sign of a
    zero, and a zero's sign never reaches a nonzero value or a sum started
    from ``+0.0``.  Complex products are split into real ones so no fused
    multiply-add can enter.  Each polynomial's terms are added to its
    running sum one place at a time, in order, never by numpy's pairwise
    reduction.  An overflow may read ``nan`` where ``evaluate`` reads
    ``inf``: both are non-finite.
    """

    __slots__ = ("columns", "counts", "coeffs", "factors")

    def __init__(self, polys, nfree):
        ranked = sorted(range(len(polys)), key=lambda a: -len(polys[a].terms))
        terms = [list(polys[a].terms.items()) for a in ranked]
        # the sum of polynomial a is row columns[a] of the ranked sums
        self.columns = np.argsort(ranked)
        self.counts = [sum(len(ts) > t for ts in terms) for t in range(len(terms[0]) if terms else 0)]
        table = [ts[t] for t, count in enumerate(self.counts) for ts in terms[:count]]
        self.coeffs = np.array([c for _, c in table], dtype=float).reshape(-1, 1)
        # per free variable that any term carries: its distinct nonzero
        # exponents, and each term's slot
        self.factors = []
        for var in range(nfree):
            column = [exp[var] for exp, _ in table]
            powers = sorted(set(column) - {0})
            if powers:
                slot = np.array([powers.index(e) + 1 if e else 0 for e in column])
                self.factors.append((var, np.array(powers, dtype=np.int64)[:, None], slot))

    def evaluate(self, z):
        """Values at the rows of ``z`` (shape ``(points, nfree)``), one column
        per polynomial."""
        re, im = self.coeffs, np.zeros(self.coeffs.shape)
        for k, (var, powers, slot) in enumerate(self.factors):
            pw = np.ones((len(powers) + 1, len(z)), dtype=complex)
            pw[1:] = np.power(z[:, var], powers)
            pr, pi = pw.real[slot], pw.imag[slot]
            if k:  # re + i im times pr + i pi, formed in the gathered powers
                t = im * pi
                im *= pr
                pi *= re
                im += pi
                pr *= re
                pr -= t
            else:  # the real coefficient times the first power
                pr *= re
                pi *= re
                im = pi
            re = pr
        sums = np.zeros((2, len(self.columns), len(z)))
        start = 0
        for count in self.counts:
            sums[0, :count] += re[start : start + count]
            sums[1, :count] += im[start : start + count]
            start += count
        out = np.empty((len(z), len(self.columns)), dtype=complex)
        out.real, out.imag = sums[:, self.columns].transpose(0, 2, 1)
        return out


def _lstsq_raise(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(a, b):
    """Least-squares solutions of the complex systems ``a[i] @ x = b[i]``,
    bit for bit ``np.linalg.lstsq(a[i], b[i], rcond=None)[0]``: one call of the
    LAPACK ``gelsd`` gufunc that ``lstsq`` wraps, over the whole stack, with
    its cutoff ``eps * max(m, n)``.  A singular value decomposition that does
    not converge raises ``LinAlgError``, as in ``lstsq``.
    """
    m, n = a.shape[-2:]
    with np.errstate(call=_lstsq_raise, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(a, b[..., None], np.finfo(float).eps * max(m, n), signature="DDd->Ddid")[0]
    return x[..., 0]


def _norm_below(vals, tol):
    """Which rows of ``vals`` have ``np.linalg.norm(row) < tol``, decided as
    ``norm`` decides it.  A row's sum of squares settles it unless it lies
    within a relative 1e-12 of ``tol**2``, far beyond the few ulps by which
    sums in another order can differ; only those rows go through ``norm``.
    """
    sq = (vals.real**2 + vals.imag**2).sum(axis=1)
    below = sq < tol * tol * (1 - 1e-12)
    for row in np.flatnonzero(~below & (sq <= tol * tol * (1 + 1e-12))):
        below[row] = np.linalg.norm(vals[row]) < tol
    return below


def _abs_sign(vals, bound):
    """The sign of ``abs(v) - bound`` for each entry ``v`` of ``vals``, as
    the scalar ``abs`` decides it.  The squared modulus settles it unless it
    lies within a relative 1e-12 of ``bound**2``; only those entries go
    through ``abs``."""
    gap = vals.real**2 + vals.imag**2 - bound * bound
    sign = np.sign(gap)
    for idx in zip(*np.nonzero(np.abs(gap) <= 1e-12 * bound * bound)):
        a = abs(vals[idx])
        sign[idx] = (a > bound) - (a < bound)
    return sign


def heuristic_points(d: MinkowskiDecomposition) -> list[tuple[complex, ...]]:
    """Torus critical points found by damped Newton on the full gradient with
    the last variable pinned to 1, sorted by the first coordinate.
    Non-authoritative by construction: witnesses of the verdict "heuristic".

    All starts step in lockstep, each step a handful of array operations over
    the live starts: the gradient and the Hessian are one term-major
    :class:`_TermTable`, the least-squares steps one stacked ``gelsd`` call
    (:func:`_lstsq_stack`), and the finiteness tests, the norm test
    (:func:`_norm_below`), the damped update and the drop of starts that
    reach a coordinate hyperplane act on all rows at once.  So do the final
    residual, torus and duplicate tests: every modulus is compared with its
    bound as the scalar ``abs`` compares it (:func:`_abs_sign`), and a start
    is kept when some coordinate is more than 1e-6 from that of every start
    kept before it.  Each of these rounds exactly as its one-start form
    does, so the points are bit for bit those of the one-start-at-a-time
    search with ``LaurentPoly.evaluate`` and ``np.linalg.lstsq``; the report
    prints them to 12 digits.  A start whose final point or gradient is not
    finite is no witness.
    """
    pot = build_potential(d)
    n1 = pot.nvars
    grads = [pot.derivative(i) for i in range(n1)]
    table = _TermTable(grads + [g.derivative(b) for g in grads for b in range(n1 - 1)], n1 - 1)
    rng = np.random.default_rng(_SEARCH_SEED)
    zs = np.array([np.exp(2j * np.pi * rng.random(n1 - 1)) for _ in range(_SEARCH_STARTS)])
    live = np.arange(_SEARCH_STARTS)
    # a diverging start overflows to inf/nan; it is abandoned, not reported
    with np.errstate(all="ignore"):
        for _ in range(_SEARCH_ITERS):
            if not live.size:
                break
            values = table.evaluate(zs[live])
            keep = np.isfinite(values).all(axis=1)
            keep[keep] = ~_norm_below(values[keep, :n1], _SEARCH_TOL)
            live, values = live[keep], values[keep]
            step = _lstsq_stack(values[:, n1:].reshape(-1, n1, n1 - 1), -values[:, :n1])
            keep = np.isfinite(step).all(axis=1)
            live = live[keep]
            zs[live] = zs[live] + 0.5 * step[keep]
            live = live[~(np.abs(zs[live]) < 1e-13).any(axis=1)]
        values = table.evaluate(zs)[:, :n1]
        # converged (every |gradient| < tol) and off the coordinate
        # hyperplanes (every |z| > 1e-9); a non-finite point or gradient is
        # no witness
        ok = np.isfinite(values).all(axis=1) & np.isfinite(zs).all(axis=1)
        ok[ok] = (_abs_sign(values[ok], _SEARCH_TOL) < 0).all(axis=1) & (_abs_sign(zs[ok], 1e-9) > 0).all(axis=1)
        points = zs[ok]
        # a point is new when some coordinate is more than 1e-6 from that
        # of every point kept before it
        far = (_abs_sign(points[:, None] - points[None], 1e-6) > 0).any(axis=2).tolist()
    kept = []
    for i, row in enumerate(far):
        if all(row[j] for j in kept):
            kept.append(i)
    found = [tuple(p) for p in points[kept].tolist()]
    return sorted(found, key=lambda t: (t[0].real, t[0].imag))
