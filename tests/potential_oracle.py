"""Term-by-term oracles of the library's closed-form W and its Newton check.

Crossing the wall of summand M moves the last variable to itself times the
summand's factor 1 + sum z^v and fixes every other variable (Pascaleff and
Tonkonog).  :func:`mutate` makes that substitution term by term, expanding
each power of the factor.  Folding it over the summands from W = z_{n+1},
in any order, must give ``potential.build_potential``, which multiplies
the factors once on packed exponents; tests compare the two with ``==``.
:func:`fold` is that product as ``LaurentPoly`` multiplications in the
library's order, so tests compare its terms' insertion order too.
:func:`newton_is_target` tests every term against every facet, the check
``pipeline`` makes on the ends of the lines of terms.
"""

from minksmooth.polytope import OriginNotVertex
from minksmooth.potential import LaurentPoly


def lift(p: LaurentPoly, nvars) -> LaurentPoly:
    """Pad exponent vectors with zeros up to ``nvars`` variables."""
    pad = nvars - p.nvars
    if pad < 0:
        raise ValueError("cannot drop variables")
    return LaurentPoly(nvars, {e + (0,) * pad: c for e, c in p.terms.items()})


def factor(mi) -> LaurentPoly:
    """Constant term one plus one monomial per nonzero vertex."""
    if not mi.origin_is_vertex:
        raise OriginNotVertex("factor needs the origin as a vertex")
    out = LaurentPoly.one(mi.ambient_dim)
    for v in mi.nonzero_vertices():
        out = out + LaurentPoly.monomial(v)
    return out


def fold(d) -> LaurentPoly:
    """z_{n+1} times each summand's factor in turn, by ``LaurentPoly``
    products: the same terms as ``build_potential``, in the same order."""
    out = LaurentPoly.monomial((0,) * d.n + (1,))
    for s in d.summands:
        out = out * lift(factor(s), d.n + 1)
    return out


def mutate(p: LaurentPoly, summand) -> LaurentPoly:
    """Wall-crossing substitution: last variable -> last variable times the
    summand factor, everything else fixed; expanded and collected."""
    n = p.nvars
    fac = lift(factor(summand), n)
    out = LaurentPoly(n)
    for exp, c in p.terms.items():
        if exp[-1] < 0:
            raise ValueError("mutation needs nonnegative exponents in the last variable")
        term = LaurentPoly(n, {exp: c})
        for _ in range(exp[-1]):
            term = term * fac
        out = out + term
    return out


def newton_is_target(po: LaurentPoly, sigma) -> bool:
    """Whether Newt(po) is the polytope at height one of the cone ``sigma``:
    every term at height one and in sigma, every generator a term."""
    return all(e[-1] == 1 and sigma.contains(e) for e in po.terms) and all(g in po.terms for g in sigma.generators)
