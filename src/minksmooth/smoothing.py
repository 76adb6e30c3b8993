"""Labeled character generators, the deformation exponents of their
binomial relations, singular-fibre models, and the homogeneity certificate.

Characters are tagged by :class:`CharLabel`.  Kinds follow the coordinate
roles in the smoothing: ``t`` for the deformation slots, ``x``/``y`` for the
vanishing-allowed chart coordinates of a summand, ``w+``/``w-`` for the
invertible pair attached to a kernel column, and ``extra`` for remaining
Hilbert-basis characters.  Summand vertex rows are in canonical (sorted)
order, so a label like ``x[1,2]`` is deterministic but can differ from an
ad-hoc hand numbering of the same vector set.
"""

from __future__ import annotations

from typing import NamedTuple

from .cone import PolyhedralCone, dual, hilbert_basis
from .exactlin import (
    CrossCheckError,
    IntVec,
    as_vec,
    identity,
    integer_nullspace,
    vec_add,
    vec_neg,
)
from .polytope import MinkowskiDecomposition, phi, require_admissible, sigma_tilde, summand_at


class CharLabel(NamedTuple):
    kind: str  # "t", "x", "y", "w+", "w-", "extra"
    i: int = 0
    j: int = 0

    def __str__(self):
        if self.kind in ("t", "y"):
            return f"{self.kind}[{self.i}]"
        if self.kind == "extra":
            return f"extra[{self.i}]"
        return f"{self.kind}[{self.i},{self.j}]"


def T(i):
    return CharLabel("t", i)


def X(i, j):
    return CharLabel("x", i, j)


def Y(i):
    return CharLabel("y", i)


def WPlus(i, l):
    return CharLabel("w+", i, l)


def WMinus(i, l):
    return CharLabel("w-", i, l)


def Extra(idx):
    return CharLabel("extra", idx)


class GeneratorSet(NamedTuple):
    n: int
    k: int
    entries: tuple[tuple[CharLabel, IntVec], ...]

    def vectors(self) -> list[IntVec]:
        return sorted({vec for _, vec in self.entries})


def _tagged(d, v) -> IntVec:
    return as_vec(v) + phi(d, v)


def generator_set(d: MinkowskiDecomposition) -> GeneratorSet:
    """The labeled character set: deformation slots, per-summand chart
    vectors, and whatever else of the Hilbert basis is left over."""
    mats = require_admissible(d)
    n, k = d.n, d.k
    entries = []
    for i, tag in enumerate(identity(k), start=1):
        entries.append((T(i), (0,) * n + tag))
    for i, sm in enumerate(mats, start=1):
        for j in range(1, sm.m + 1):
            entries.append((X(i, j), _tagged(d, sm.a_column(j - 1))))
        if sm.m > 0:  # a point summand contributes only its deformation slot
            entries.append((Y(i), _tagged(d, sm.b)))
        for l in range(1, n - sm.m + 1):
            col = sm.c_column(l - 1)
            entries.append((WPlus(i, l), _tagged(d, col)))
            entries.append((WMinus(i, l), _tagged(d, vec_neg(col))))
    labeled_vectors = {vec for _, vec in entries}
    # a basis element with a nonzero head is (v, phi(v)), else a tag splits
    # it; the zero-head elements are the tags, which are labeled already
    extras = sorted(set(hilbert_basis(dual(sigma_tilde(d))).elements) - labeled_vectors)
    for idx, vec in enumerate(extras, start=1):
        entries.append((Extra(idx), vec))
    return GeneratorSet(n, k, tuple(entries))


def verify_generates(g: GeneratorSet, c: PolyhedralCone, box: int) -> bool:
    """Whether the generator vectors generate the semigroup of lattice points
    of the pointed full-dimensional cone ``c``.

    Exact: they do iff each lies in ``c`` and together they contain its
    Hilbert basis, since every generating set of that semigroup contains
    the basis.  ``box`` is accepted for compatibility and ignored.
    """
    gens = set(g.vectors())
    return all(c.contains(v) for v in gens) and set(hilbert_basis(c).elements) <= gens


def relation_xy(d: MinkowskiDecomposition, p: int) -> IntVec:
    """Deformation exponents of y_p * prod_l x_{p,l}: the vector beta with
    beta_j the t_j-exponent.  Its own slot is always 1."""
    sm = summand_at(d, p)
    if sm.m == 0:
        raise ValueError(f"summand {p} is a point and has no chart relation")
    beta = phi(d, sm.b)
    for j in range(sm.m):
        beta = vec_add(beta, phi(d, sm.a_column(j)))
    if beta[p - 1] != 1:
        raise CrossCheckError("own deformation slot must carry exponent 1")
    return beta


def relation_w(d: MinkowskiDecomposition, p: int, j: int) -> IntVec:
    """Deformation exponents of w+_{p,j} * w-_{p,j}; the p-th slot vanishes."""
    sm = summand_at(d, p)
    if not 1 <= j <= sm.n - sm.m:
        raise IndexError(f"kernel column index {j} out of range for summand {p}")
    col = sm.c_column(j - 1)
    eta = vec_add(phi(d, col), phi(d, vec_neg(col)))
    if eta[p - 1] != 0:
        raise CrossCheckError("own deformation slot must carry exponent 0")
    return eta


class FibreModel(NamedTuple):
    """Local model of the fibre attached to summand p: the vanishing product
    over the listed coordinates inside C^{m_p+1} x (C*)^{n-m_p}.  The general
    fibre away from the critical values is an n-torus."""

    p: int
    m_p: int
    n: int
    product_coords: tuple[CharLabel, ...]
    unit_coords: tuple[CharLabel, ...]

    @property
    def equation(self) -> str:
        return " * ".join(str(c) for c in self.product_coords) + " = 0"


def fibre_model(d: MinkowskiDecomposition, p: int) -> FibreModel:
    sm = summand_at(d, p)
    if sm.m == 0:
        raise ValueError(f"summand {p} is a point; its fibre is a smooth torus")
    prod_coords = (Y(p),) + tuple(X(p, j) for j in range(1, sm.m + 1))
    unit_coords = tuple(WPlus(p, l) for l in range(1, sm.n - sm.m + 1))
    return FibreModel(p, sm.m, sm.n, prod_coords, unit_coords)


def check_homogeneity(g: GeneratorSet) -> tuple[IntVec, int] | None:
    """Integer grading (u, deg) with <m, u> = deg > 0 for every generator
    vector, when one exists.  Solved exactly over the rationals."""
    vecs = g.vectors()
    if not vecs:
        return None
    rows = [v + (-1,) for v in vecs]
    for ints in integer_nullspace(rows):
        if ints[-1] != 0:
            if ints[-1] < 0:
                ints = vec_neg(ints)
            return ints[:-1], ints[-1]
    return None
