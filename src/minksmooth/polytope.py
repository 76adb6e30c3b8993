"""Lattice polytopes, Minkowski decompositions, support data, admissibility.

A :class:`LatticePolytope` stores only its minimal vertex set, sorted
lexicographically; that ordering is the canonical one used everywhere
downstream (summand matrices, regions, monodromies), so golden values stay
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .cone import PolyhedralCone, box_points, cone_from_generators, cone_over
from .exactlin import (
    IntMat,
    IntVec,
    NotPrimitive,
    as_mat,
    as_vec,
    complete_to_basis,
    dot,
    identity,
    is_zero_vec,
    rank,
    snf_invariant_factors,
    support,
    unimodular_inverse,
)


class DimensionMismatch(ValueError):
    pass


class OriginNotVertex(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


@dataclass(frozen=True)
class LatticePolytope:
    ambient_dim: int
    vertices: IntMat  # minimal vertex set, lexicographically sorted

    def __post_init__(self):
        if any(len(v) != self.ambient_dim for v in self.vertices):
            raise DimensionMismatch("vertex dimension mismatch")

    @property
    def origin_is_vertex(self) -> bool:
        return any(is_zero_vec(v) for v in self.vertices)

    def nonzero_vertices(self) -> IntMat:
        return tuple(v for v in self.vertices if not is_zero_vec(v))


def convex_hull(points) -> LatticePolytope:
    """Hull with a minimal vertex set, via the cone over the points."""
    pts = as_mat(points)
    if not pts:
        raise ValueError("need at least one point")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimensionMismatch("points of mixed dimension")
    cone = cone_from_generators([p + (1,) for p in sorted(set(pts))], dim + 1)
    verts = tuple(sorted(r[:-1] for r in cone.generators))
    return LatticePolytope(dim, verts)


def minkowski_sum(a: LatticePolytope, b: LatticePolytope) -> LatticePolytope:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("summands live in different dimensions")
    sums = [tuple(x + y for x, y in zip(u, v)) for u in a.vertices for v in b.vertices]
    return convex_hull(sums)


def lattice_points(p: LatticePolytope) -> list[IntVec]:
    """All integer points of the hull: bounding-box scan with exact facet
    tests, refused (``BasisTooLarge``) on a box of more than 10^6 points."""
    facets = cone_over(p).inequalities
    lo = [min(v[j] for v in p.vertices) for j in range(p.ambient_dim)]
    hi = [max(v[j] for v in p.vertices) for j in range(p.ambient_dim)]
    out = []
    for pt in box_points(lo, hi):
        if all(dot(f, pt + (1,)) >= 0 for f in facets):
            out.append(pt)
    return out


@dataclass(frozen=True)
class MinkowskiDecomposition:
    summands: tuple[LatticePolytope, ...]
    target: LatticePolytope

    @property
    def n(self) -> int:
        return self.target.ambient_dim

    @property
    def k(self) -> int:
        return len(self.summands)

    @cached_property
    def admissibility(self) -> AdmissibilityResult:
        """:func:`is_admissible` of this decomposition, computed on first use."""
        return is_admissible(self)


def decomposition(summands) -> MinkowskiDecomposition:
    """Build a decomposition whose target is the Minkowski sum of the summands."""
    summands = tuple(summands)
    if not summands:
        raise ValueError("need at least one summand")
    dims = {s.ambient_dim for s in summands}
    if len(dims) != 1:
        raise DimensionMismatch("summands live in different dimensions")
    for i, s in enumerate(summands):
        if not s.origin_is_vertex:
            raise OriginNotVertex(f"summand {i + 1} does not have the origin as a vertex")
    return MinkowskiDecomposition(summands, reduce(minkowski_sum, summands))


def phi(d: MinkowskiDecomposition, v) -> IntVec:
    """Per-summand support values: component i is max over M_i of <v, -vertex>."""
    v = as_vec(v)
    if len(v) != d.n:
        raise DimensionMismatch("vector dimension mismatch")
    return tuple(support(s.vertices, v) for s in d.summands)


@dataclass(frozen=True)
class SummandMatrices:
    """The matrix package attached to one summand.

    ``v`` has the nonzero vertices as rows (m x n), ``e`` completes them to a
    lattice basis, and ``(a, c)`` is the integer inverse of ``[v; e]`` split
    into its first m and last n-m columns, so that v*a = Id, v*c = 0,
    e*a = 0, e*c = Id.  ``b`` is minus the sum of the columns of ``a``.
    """

    v: IntMat
    e: IntMat
    a: IntMat  # n x m
    c: IntMat  # n x (n - m)
    b: IntVec

    @property
    def m(self) -> int:
        return len(self.v)

    @property
    def n(self) -> int:
        return len(self.b)

    def a_column(self, j) -> IntVec:
        return tuple(row[j] for row in self.a)

    def c_column(self, l) -> IntVec:
        return tuple(row[l] for row in self.c)


def summand_matrices(mi: LatticePolytope) -> SummandMatrices:
    if not mi.origin_is_vertex:
        raise OriginNotVertex("summand must contain the origin as a vertex")
    n = mi.ambient_dim
    v = mi.nonzero_vertices()
    m = len(v)
    if m == 0:
        # the point {0}: empty vertex system, everything degenerates cleanly
        e = identity(n)
        a = tuple(() for _ in range(n))
        return SummandMatrices((), e, a, e, tuple([0] * n))
    if m > n or any(f != 1 for f in snf_invariant_factors(v)):
        raise NotPrimitive("nonzero vertices do not extend to a lattice basis")
    e = complete_to_basis(v)
    x = v + e
    z = unimodular_inverse(x)
    a = tuple(row[:m] for row in z)
    c = tuple(row[m:] for row in z)
    b = tuple(-sum(row) for row in a)
    return SummandMatrices(v, e, a, c, b)


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    matrices: tuple[SummandMatrices, ...] | None
    violations: tuple[str, ...]


def is_admissible(d: MinkowskiDecomposition) -> AdmissibilityResult:
    """Check the per-summand gate: origin vertex, independent primitive vertices."""
    violations = []
    matrices = []
    for i, s in enumerate(d.summands, start=1):
        if not s.origin_is_vertex:
            violations.append(f"summand {i}: origin is not a vertex")
            continue
        nz = s.nonzero_vertices()
        if not nz:
            if d.k < 2:
                violations.append(f"summand {i}: degenerate point summand needs k >= 2")
            else:
                matrices.append(summand_matrices(s))
            continue
        if len(nz) > s.ambient_dim:
            violations.append(f"summand {i}: nonzero vertices are not linearly independent")
            continue
        if any(f != 1 for f in snf_invariant_factors(nz)):
            violations.append(f"summand {i}: nonzero vertices are not a primitive system")
            continue
        matrices.append(summand_matrices(s))
    if violations:
        return AdmissibilityResult(False, None, tuple(violations))
    return AdmissibilityResult(True, tuple(matrices), ())


def require_admissible(d: MinkowskiDecomposition) -> tuple[SummandMatrices, ...]:
    res = d.admissibility
    if not res.ok:
        raise NotAdmissible("; ".join(res.violations))
    return res.matrices


def require_spanning(d: MinkowskiDecomposition) -> None:
    """NotAdmissible unless ``d`` is admissible and its target spans its
    ambient space (sigma dual is otherwise not pointed): every summand has
    the origin as a vertex, so one rank of all their vertices decides it."""
    require_admissible(d)
    require_rank([v for s in d.summands for v in s.vertices], d.n)


def require_rank(rows, n) -> None:
    """NotAdmissible, a flat target, unless the integer ``rows`` span Q^n."""
    if rank(rows) < n:
        raise NotAdmissible(
            "target polytope is not full-dimensional in its ambient space;"
            " restate the input in the dimension it actually spans"
        )


def spanning_sigma(d: MinkowskiDecomposition) -> PolyhedralCone:
    """sigma of a decomposition that :func:`require_spanning` admits."""
    require_spanning(d)
    return cone_over(d.target)


def summand_at(d: MinkowskiDecomposition, p: int) -> SummandMatrices:
    """The matrix package of summand p, 1 <= p <= k; admissibility first."""
    mats = require_admissible(d)
    if not 1 <= p <= d.k:
        raise IndexError(f"summand index {p} out of range")
    return mats[p - 1]
