"""Base-diagram combinatorics: collapsing cycles, wall regions, monodromy
shears, transferring the cut, and the duality check for the final diagram.

The cut direction is fixed to the last coordinate axis.  Transferring the
cut for summand p adds the summand's support term to the boundary height;
the per-region affine shears are kept as metadata so the cancellation
identities can be checked, while the height bookkeeping itself only needs
the support function (the per-summand maxima add up to the target's).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .cone import PolyhedralCone, cone_over, dual
from .exactlin import (
    IntMat,
    IntVec,
    identity,
    integer_solve,
    sign_normalized,
    support,
    transpose,
    vec_neg,
    vec_sub,
)
from .polytope import LatticePolytope, MinkowskiDecomposition, require_admissible, summand_at
from .smoothing import CharLabel, X, Y


class AlreadyApplied(ValueError):
    pass


class CutsRemaining(ValueError):
    pass


class CollapsingCycle(NamedTuple):
    """A 1-cycle of the torus fibre that dies on a codimension-2 stratum,
    tagged by the two chart coordinates that vanish there."""

    vector: IntVec
    vanishing: tuple[CharLabel, CharLabel]


def collapsing_cycles(d: MinkowskiDecomposition, p: int) -> tuple[CollapsingCycle, ...]:
    rows = summand_at(d, p).v
    cycles = [CollapsingCycle(v, (Y(p), X(p, i + 1))) for i, v in enumerate(rows)]
    for (i, u), (j, v) in combinations(enumerate(rows, start=1), 2):
        cycles.append(CollapsingCycle(sign_normalized(vec_sub(u, v)), (X(p, i), X(p, j))))
    return tuple(cycles)


class Region(NamedTuple):
    """Open region cut out by strict inequalities <a, lambda> > 0."""

    j: int
    normals: IntMat


def regions(d: MinkowskiDecomposition, p: int) -> tuple[Region, ...]:
    """Wall complement for summand p: region 0 sees all vertex functionals
    positive, region j flips vertex j below the others."""
    rows = summand_at(d, p).v
    m = len(rows)
    out = [Region(0, rows)]
    for j in range(1, m + 1):
        vj = rows[j - 1]
        normals = [vec_neg(vj)]
        normals += [vec_sub(rows[l], vj) for l in range(m) if l != j - 1]
        out.append(Region(j, tuple(normals)))
    return tuple(out)


def _shear_last_row(v, n) -> IntMat:
    return identity(n + 1)[:n] + (tuple(v) + (1,),)


def _shear_last_column(v, n) -> IntMat:
    return transpose(_shear_last_row(v, n))


def _stratum_vertex(d: MinkowskiDecomposition, p: int, j: int) -> IntVec:
    rows = summand_at(d, p).v
    if not 1 <= j <= len(rows):
        raise IndexError(f"stratum index {j} out of range for summand {p}")
    return rows[j - 1]


def monodromy(d: MinkowskiDecomposition, p: int, j: int) -> IntMat:
    """Topological monodromy around the j-th stratum of summand p: identity
    with the vertex vector in the last column."""
    return _shear_last_column(_stratum_vertex(d, p, j), d.n)


def affine_monodromy(d: MinkowskiDecomposition, p: int, j: int) -> IntMat:
    """Transpose inverse of the topological monodromy: identity with minus
    the vertex vector in the last row."""
    return _shear_last_row(vec_neg(_stratum_vertex(d, p, j)), d.n)


CUT_DIRECTION_NOTE = (
    "cuts point along (0,...,0,1); analytic wall heights are presentation "
    "artifacts and are not modeled"
)


class BaseDiagram(NamedTuple):
    """Combinatorial state of the convex base diagram.

    ``applied`` is the set of summand indices whose cut has been transferred;
    the boundary height over a functional c is the sum of the applied
    summands' support terms, so nothing applied means height zero.  The
    shear of region j under the cut of summand p is
    :func:`affine_monodromy`, and the stratum tags of summand p are
    :func:`collapsing_cycles`.
    """

    decomposition: MinkowskiDecomposition
    applied: frozenset[int]

    @property
    def cut_direction(self) -> IntVec:
        return tuple([0] * self.decomposition.n + [1])


def new_base_diagram(d: MinkowskiDecomposition) -> BaseDiagram:
    require_admissible(d)
    return BaseDiagram(d, frozenset())


def transfer_cut(b: BaseDiagram, p: int) -> BaseDiagram:
    """Transfer the cut of summand p, folding its support term into the
    boundary.  The per-region shears compose consistently: crossing from
    region i to region j inside the cut is the shear by their vertex
    difference, which is exactly what the applied affine monodromies cancel.
    """
    summand_at(b.decomposition, p)  # p in range, decomposition admissible
    if p in b.applied:
        raise AlreadyApplied(f"cut {p} was already transferred")
    return b._replace(applied=b.applied | {p})


def final_cone(b: BaseDiagram) -> PolyhedralCone:
    """The cone swept out once every cut is transferred: sigma dual.

    The boundary height is the sum of the summand support terms, and
    h_Q = h_{M_1} + ... + h_{M_k} for Q = M_1 + ... + M_k, so the region
    above it is cut out by the rows (w_1 + ... + w_k, 1) over all vertex
    choices w_p of M_p.  A sum that is not a vertex of Q gives a convex
    combination of the rows (u, 1) over the vertices u of Q, so those rows
    alone cut out the cone: the dual of the cone over the target.  The
    pipeline still reports ``final_cone_equals_dual_sigma``.
    """
    d = b.decomposition
    if b.applied != frozenset(range(1, d.k + 1)):
        missing = sorted(set(range(1, d.k + 1)) - b.applied)
        raise CutsRemaining(f"cuts {missing} not yet transferred")
    return dual(cone_over(d.target))


def height_one_normalization(c: PolyhedralCone):
    """Unimodular shear putting all extreme rays at last coordinate one.

    Returns ``(matrix, polytope)`` when an integer w exists with
    <w, head> + tail = 1 on every extreme ray (c_r, d_r); the matrix is the
    identity with last row (w, 1) and the polytope collects the ray heads.
    The shear leaves the heads alone and puts every extreme ray at height
    one, so the heads are the vertices of its slice there: no hull needed.
    Returns None when the exact linear system has no integer solution.
    """
    dim = c.ambient_dim
    axis = tuple([0] * (dim - 1) + [1])
    if not c.contains(axis):
        raise ValueError("cone does not contain the vertical axis ray")
    rays = c.generators
    rows = [r[:-1] for r in rays]
    rhs = [1 - r[-1] for r in rays]
    w = integer_solve(rows, rhs)
    if w is None:
        return None
    mat = _shear_last_row(w, dim - 1)
    heads = LatticePolytope(dim - 1, tuple(sorted(r[:-1] for r in rays)))
    return mat, heads
