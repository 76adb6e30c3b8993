"""The wall-crossing fold, the oracle of the library's closed-form W.

Crossing the wall of summand M moves the last variable to itself times the
summand's factor 1 + sum z^v and fixes every other variable (Pascaleff and
Tonkonog).  :func:`mutate` makes that substitution term by term, expanding
each power of the factor.  Folding it over the summands from W = z_{n+1},
in any order, must give ``potential.build_potential``, which multiplies
the factors once; tests compare the two with ``==``.
"""

from minksmooth.potential import LaurentPoly, factor


def mutate(p: LaurentPoly, summand) -> LaurentPoly:
    """Wall-crossing substitution: last variable -> last variable times the
    summand factor, everything else fixed; expanded and collected."""
    n = p.nvars
    fac = factor(summand).lift(n)
    out = LaurentPoly(n)
    for exp, c in p.terms.items():
        if exp[-1] < 0:
            raise ValueError("mutation needs nonnegative exponents in the last variable")
        term = LaurentPoly(n, {exp: c})
        for _ in range(exp[-1]):
            term = term * fac
        out = out + term
    return out
