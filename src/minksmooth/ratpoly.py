"""Exact elimination primitives for the planar critical-point decision.

A thin layer over ``sympy.Poly``.  Bivariate polynomials are Polys in two
generators; the first (main) one, called y here, is the one eliminated and
the second, x, is kept.  Resultants and gcds take integer Polys: over ZZ
the subresultant sequence divides exactly in Z[x], and over QQ the same
sequence ran 3.7 times slower on the lens(97,30) decision.  Gcds over a
number field K = Q[x]/(f) are read off that sequence, not recomputed.
"""

from __future__ import annotations

from sympy import QQ, Poly


def bresultant_y(f: Poly, g: Poly) -> tuple[Poly, list[Poly]]:
    """Resultant with respect to the main generator, as a Poly in the other,
    and its subresultant PRS, which starts with the input of higher degree
    in y and is empty when an input is zero.  The resultant is up to sign:
    sympy 1.14 drops the factor (-1)^(deg f * deg g) when deg f < deg g.
    """
    return f.resultant(g, includePRS=True)


def bgcd(f: Poly, g: Poly) -> Poly:
    """Gcd in Z[y, x]; no library caller, the tests' shared-curve oracle."""
    return f.gcd(g)


def kgcd_y(modulus: Poly, prs: list[Poly]) -> list[Poly]:
    """Monic gcd in K[y], K = Q[x]/(modulus) with ``modulus`` irreducible, of
    the pair with subresultant PRS ``prs``: by the specialization property,
    the image of the lowest entry whose leading coefficient does not vanish
    in K.  Coefficients in y, leading first, each reduced modulo ``modulus``;
    ``[]`` when no entry qualifies.

    Exact when the first entry keeps its leading coefficient in K.  For two
    admissible planar factors that fails only above x = -1, when the first
    is a triangle whose top edge in y is parallel to the x axis: its image
    is then a monomial in y, so the true gcd has no torus root, and ``[]``
    gives the same empty fibre.
    """
    m = modulus.to_field()
    for p in reversed(prs):
        coeffs = [Poly.from_list(c, m.gen, domain=QQ).rem(m) for c in p.rep.to_list()]
        if not coeffs[0].is_zero:
            inv = coeffs[0].invert(m)
            return [(inv * c).rem(m) for c in coeffs]
    return []


def factor_rational(f: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factors over Q of a univariate Poly over ZZ, with their
    multiplicities: primitive integer Polys in sympy's order."""
    return f.factor_list()[1]
