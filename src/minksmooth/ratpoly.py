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
"""

from __future__ import annotations

from sympy.polys.densearith import dup_mul, dup_rem
from sympy.polys.densebasic import dup_convert
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dmp_gcd, dmp_resultant, dup_invert
from sympy.polys.factortools import dup_factor_list


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
