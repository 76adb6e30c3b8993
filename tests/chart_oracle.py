"""The paper's chart formulas, as oracles: the identities that define a
summand's matrix package, and a character's exponents in the chart of
summand p.  The library only reads the matrices; tests check the formulas
built on them here.  Checks raise rather than assert, so that ``python -O``
keeps them.
"""

from collections import namedtuple

from minksmooth.exactlin import CrossCheckError, as_vec, dot, identity, transpose, vec_add, vec_sub
from minksmooth.polytope import phi, summand_at

from linalg_oracle import mat_mul


class UnknownLabel(KeyError):
    pass


def vector(g, label):
    """The character vector that generator set ``g`` labels ``label``."""
    for lab, vec in g.entries:
        if lab == label:
            return vec
    raise UnknownLabel(str(label))


def verify_matrix_relations(sm) -> bool:
    """The defining identities: [v; e] [a c] = Id, that is v*a = Id,
    v*c = 0, e*a = 0 and e*c = Id, and b = -(sum of the columns of a)."""
    inverse = tuple(a + c for a, c in zip(sm.a, sm.c))
    return mat_mul(sm.v + sm.e, inverse) == identity(sm.n) and sm.b == tuple(-sum(row) for row in sm.a)


# a character in the chart of summand p: plain coordinates xi_x on the x's,
# or in the singular chart xi_plus copies of y_p and nonnegative xi_shifted
# on the x's, with t_p's exponent zero; xi_w on the w's either way
ChartExpression = namedtuple("ChartExpression", "p singular xi_plus xi_shifted xi_x xi_w t_exponents")


def express_in_chart(d, zhat, p: int, singular: bool) -> ChartExpression:
    zhat = as_vec(zhat)
    if not any(zhat):
        raise ValueError("zero vector has no chart expression")
    sm = summand_at(d, p)
    m = sm.m
    xi = tuple(dot(row, zhat) for row in sm.v + sm.e)
    xi_x, xi_w = xi[:m], xi[m:]
    tail = phi(d, zhat)
    # the singular chart trades xi_plus copies of y_p for nonnegative x's
    xi_plus = max([0] + [-v for v in xi_x]) if singular else 0
    xi_shifted = tuple(v + xi_plus for v in xi_x)
    if singular and tail[p - 1] != xi_plus:
        raise CrossCheckError("singular chart exponent must match the phi tail")
    acc = tuple(xi_plus * t for t in phi(d, sm.b))
    for coord, col in zip(xi_shifted + xi_w, transpose(sm.a) + transpose(sm.c)):
        acc = vec_add(acc, tuple(coord * t for t in phi(d, col)))
    t_exp = vec_sub(tail, acc)
    if not singular:
        return ChartExpression(p, False, None, None, xi_x, xi_w, t_exp)
    if t_exp[p - 1] != 0:
        raise CrossCheckError("t_p must not appear in a singular chart")
    return ChartExpression(p, True, xi_plus, xi_shifted, None, xi_w, t_exp)
