"""Laurent-polynomial superpotentials: construction and Newton polytope.

The potential W = z_{n+1} * prod_i (1 + sum z^v), one factor per summand,
is multiplied on packed exponents: each exponent vector is one int in a
mixed radix whose box holds every partial product, so the k factors cost
dict operations on ints, and W is unpacked once (:func:`build_potential`).
Its terms keep the insertion order of the term-by-term fold, which the
numeric search sums them in.  Its torus critical points are decided in
:mod:`.ratpoly`.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, floordiv, mod, mul, sub

from .polytope import LatticePolytope, MinkowskiDecomposition, convex_hull, require_admissible

# the decision lives in ratpoly; the benchmark's tracer wraps it by this
# name, as the package root keeps cone.sigma_tilde
from .ratpoly import critical_exists


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
