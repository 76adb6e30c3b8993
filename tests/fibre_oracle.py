"""Closed-form segment fibres in sympy, the oracle of the library's integer
ones.

:func:`binomial_fibre` builds the fibre (f, h) of two segments above the
cyclotomic polynomial Phi_m with sympy ``Poly``s, reducing r = +-x^e modulo
Phi_m by ``Poly.rem`` over Q.  ``ratpoly._binomial_fibre`` returns the
same fibre as integer lists over the denominator 1, (f, h, 1), with the
remainder taken by pseudo-division by the monic Phi_m;
:func:`coefficient_lists` turns a sympy fibre into lists of ``Fraction``s,
so tests compare the two with ``==``.  A fibre (f, h, den) of a pair with
a triangle is compared once h / den is in ``Fraction``s too.

Both take the Bezout pair of ``exactlin.gcdex``.  Where the segments meet
above Phi_m every pair gives the same h, the monic gcd; the tests also
draw orders m where they do not, and there h depends on the pair.
"""

from fractions import Fraction

from sympy import QQ, ZZ, Poly, symbols

from minksmooth.exactlin import gcdex

_Z1 = symbols("z1")


def binomial_fibre(v, u, m, z1):
    """The fibre (f, h) of the segments v = (a, b), u = (c, d) above
    f = Phi_m, with coefficients ``z1`` lowest first: h = y^g - r in K[y],
    g = s b + t d = gcd(b, d) > 0 and r = (-1)^(s + t) x^-(s a + t c)."""
    g, s, t = gcdex(v[1], u[1])
    f = Poly.from_list(z1[::-1], _Z1, domain=ZZ)
    r = Poly.from_dict({(-(s * v[0] + t * u[0]) % m,): -1 if (s + t) % 2 else 1}, _Z1, domain=QQ)
    return f, [Poly(1, _Z1, domain=QQ)] + [Poly(0, _Z1, domain=QQ)] * (g - 1) + [-r.rem(f.to_field())]


def coefficient_lists(f, h):
    """A sympy fibre as coefficient lists, leading first, each coefficient
    an exact ``Fraction``."""
    exact = lambda p: [Fraction(int(c.p), int(c.q)) for c in p.all_coeffs()]
    return exact(f), [exact(u) for u in h]
