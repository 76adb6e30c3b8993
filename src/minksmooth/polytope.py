"""Lattice polytopes, Minkowski decompositions, support data, admissibility.

A :class:`LatticePolytope` stores only its minimal vertex set, sorted
lexicographically; that ordering is the canonical one used everywhere
downstream (summand matrices, regions, monodromies), so golden values stay
reproducible.

The target Q = M_1 + ... + M_k of a decomposition is one
:func:`minkowski_sum`.  In the plane it merges the summands' edges by angle
(de Berg et al., *Computational Geometry*, ch. 13) and takes a single hull
of the merged walk, which drops the collinear points where summands share
an edge direction and sorts the vertices.  In other dimensions Q's facet
normals are among the normals of the summands' vertex-pair directions
taken r - 1 at a time, r the dimension of Q, and one bitmask walk over
those normals sums the summands' vertices with no double description
(Fukuda, *From the zonotope construction to the Minkowski addition of
convex polytopes*, 2004), the walk :func:`cone.fan_cones` runs.  Where
those subsets outnumber the vertex sums a fold of pairwise hulls can
form, the product of the distinct summands' vertex counts, as for a
simplex of high dimension, the sum folds pairwise hulls instead.
"""

from __future__ import annotations

from functools import cached_property, cmp_to_key, lru_cache, reduce
from itertools import accumulate, combinations
from math import comb, prod
from typing import NamedTuple

from .cone import PolyhedralCone, _vertex_walk, box_points, cone_from_generators, cone_over
from .exactlin import (
    IntMat,
    IntVec,
    NotPrimitive,
    as_mat,
    as_vec,
    complete_to_basis,
    dot,
    identity,
    integer_nullspace,
    is_zero_vec,
    kernel_vector,
    primitive,
    rank,
    sign_normalized,
    snf_invariant_factors,
    support,
    unimodular_inverse,
    vec_add,
    vec_neg,
    vec_sub,
)


class DimensionMismatch(ValueError):
    pass


class OriginNotVertex(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


class _LatticePolytopeFields(NamedTuple):
    ambient_dim: int
    vertices: IntMat  # minimal vertex set, lexicographically sorted


class LatticePolytope(_LatticePolytopeFields):
    __slots__ = ()

    def __new__(cls, ambient_dim, vertices):
        if any(len(v) != ambient_dim for v in vertices):
            raise DimensionMismatch("vertex dimension mismatch")
        return super().__new__(cls, ambient_dim, vertices)

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


def minkowski_sum(*summands: LatticePolytope) -> LatticePolytope:
    """M_1 + ... + M_k; a single summand is its own sum.

    In the plane each summand's edges, counterclockwise from its lex-least
    vertex, have angles rising in (-pi/2, 3pi/2], and so do Q's from its
    lex-least vertex, which is the sum of theirs.  So Q's boundary is the
    walk from that vertex along all edges sorted by angle, and one
    :func:`convex_hull` of the walk (all edges but the last, which closes
    it) gives Q's canonical vertex set: the hull drops the collinear points
    where summands share an edge direction.  Other dimensions take
    :func:`_sum_off_the_plane`.
    """
    if not summands:
        raise ValueError("need at least one summand")
    if len({s.ambient_dim for s in summands}) != 1:
        raise DimensionMismatch("summands live in different dimensions")
    if len(summands) == 1:
        return summands[0]
    if summands[0].ambient_dim != 2:
        return _sum_off_the_plane(summands)
    edges = sorted((e for s in summands for e in _ccw_edges(s.vertices)), key=cmp_to_key(_angle_order))
    start = tuple(map(sum, zip(*(s.vertices[0] for s in summands))))
    return convex_hull(list(accumulate(edges[:-1], vec_add, initial=start)))


def _sum_off_the_plane(summands) -> LatticePolytope:
    """M_1 + ... + M_k in dimension n != 2, k >= 2: one bitmask walk over
    the summands, or pairwise hulls folded left to right, by one count.

    The walk (``cone._vertex_walk``) runs no double description; its cost
    is set by the (r - 1)-subsets that :func:`_candidate_normals` takes of
    the vertex-pair directions, at most S = C(sum_i C(|M_i|, 2), r - 1) of
    them, r the dimension of Q.  The fold's is set by the vertices of its
    partial sums, each the sum of one vertex per summand, so at most
    D = prod |M| over the distinct summands: k copies of M sum to kM, whose
    vertices are k times M's, so a copy adds none.  The sum walks when
    S <= D and folds otherwise.  Many segments, as in cube(n), walk; a
    simplex of high dimension has many directions and few vertices, and
    copies of one summand add directions but no vertices, so their sums
    fold.
    """
    r = rank([vec_sub(v, s.vertices[0]) for s in summands for v in s.vertices[1:]])
    subsets = comb(sum(comb(len(s.vertices), 2) for s in summands), max(r - 1, 0))
    if subsets <= prod(len(s.vertices) for s in set(summands)):
        slots = [s.vertices for s in summands]
        return LatticePolytope(summands[0].ambient_dim, tuple(_vertex_walk(_candidate_normals(summands, r), slots, r)))
    return reduce(lambda p, s: convex_hull([vec_add(u, v) for u in p.vertices for v in s.vertices]), summands)


def _candidate_normals(summands, r) -> tuple[IntVec, ...]:
    """Linear functionals among which are the inner facet normals of
    Q = M_1 + ... + M_k in the span V of its edges, r = dim V.

    Each edge of Q is a sum of faces of the summands, each a point or an
    edge parallel to it, so Q's edge directions are among the summands'
    vertex-pair directions D (every pair of a simplex spans an edge, so
    for simplices they are exactly the edge directions), and D spans V.  A facet of Q is spanned by r - 1
    independent edge directions, so its normal in V is the normal in V of
    some (r - 1)-subset of D: the kernel of the subset and of a basis of
    V's orthogonal complement.  Both signs of each are taken; the walk
    needs only that the facet normals are among them.
    """
    dirs = sorted({sign_normalized(primitive(vec_sub(v, u))) for s in summands for u, v in combinations(s.vertices, 2)})
    if not dirs:
        return ()
    n = len(dirs[0])
    perp = tuple(integer_nullspace(dirs))
    normals = set()
    for sub in combinations(dirs, r - 1):
        a = kernel_vector(sub + perp, n)
        if a is not None:
            normals.update((a, vec_neg(a)))
    return tuple(normals)


def _ccw_edges(vertices) -> list[IntVec]:
    """The edge vectors of a lattice polygon, segment or point given by its
    sorted minimal vertex set, counterclockwise from its lex-least vertex:
    out along the vertices below the line from the first vertex to the
    last, in sorted order, and back along those above it, reversed."""
    (x0, y0), (x1, y1) = vertices[0], vertices[-1]
    side = [(x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) for x, y in vertices]
    below = [v for v, s in zip(vertices, side) if s < 0]
    above = [v for v, s in zip(vertices, side) if s > 0]
    cycle = [vertices[0], *below, vertices[-1], *reversed(above), vertices[0]]
    return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(cycle, cycle[1:]) if a != b]


def _angle_order(e, f) -> int:
    """Compare edge directions by angle in (-pi/2, 3pi/2]: the half-plane
    first (e > (0, 0) lexicographically, that is right or straight up,
    before the rest), then the sign of the cross product."""
    if (e > (0, 0)) != (f > (0, 0)):
        return -1 if e > (0, 0) else 1
    cross = e[0] * f[1] - e[1] * f[0]
    return (cross < 0) - (cross > 0)


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


class _MinkowskiDecompositionFields(NamedTuple):
    summands: tuple[LatticePolytope, ...]
    target: LatticePolytope


class MinkowskiDecomposition(_MinkowskiDecompositionFields):
    """Summands and their sum.  No ``__slots__``: the admissibility memo
    lives in the instance's dict, outside ``==`` and ``hash``."""

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
    for i, s in enumerate(summands):
        if not s.origin_is_vertex:
            raise OriginNotVertex(f"summand {i + 1} does not have the origin as a vertex")
    return MinkowskiDecomposition(summands, minkowski_sum(*summands))


def phi(d: MinkowskiDecomposition, v) -> IntVec:
    """Per-summand support values: component i is max over M_i of <v, -vertex>."""
    v = as_vec(v)
    if len(v) != d.n:
        raise DimensionMismatch("vector dimension mismatch")
    return tuple(support(s.vertices, v) for s in d.summands)


class SummandMatrices(NamedTuple):
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


class AdmissibilityResult(NamedTuple):
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


@lru_cache(maxsize=256)
def sigma_tilde(d: MinkowskiDecomposition) -> PolyhedralCone:
    """Cone on the tagged vertices ``(v, e_i)`` of the summands (their
    lattice points: an admissible summand is a unimodular simplex), read
    off sigma with no double description.  Each is a vertex of the Cayley
    polytope (the Cayley trick of Huber-Rambau-Santos), so an extreme ray.
    The dual ``{(v, s) : s_i >= phi_i(v)}`` has a ray ``(a, phi(a))`` over
    each facet ``(a, h_Q(a))`` of sigma (the phi_i are sublinear), and
    ``(0, e_i)`` unless the other summands lie in a hyperplane
    ``<u, .> = 0``, which splits it as ``(u, s) + (-u, e_i - s)``
    (Altmann, 1997).
    """
    n, tags, sigma = d.n, identity(d.k), spanning_sigma(d)
    gens = sorted(v + tag for s, tag in zip(d.summands, tags) for v in s.vertices)
    facets = {a[:n] + phi(d, a[:n]) for a in sigma.inequalities}
    for i, tag in enumerate(tags):
        if rank([v for j, s in enumerate(d.summands) if j != i for v in s.vertices]) == n:
            facets.add((0,) * n + tag)
    return PolyhedralCone(n + d.k, tuple(gens), tuple(sorted(facets)))


def summand_at(d: MinkowskiDecomposition, p: int) -> SummandMatrices:
    """The matrix package of summand p, 1 <= p <= k; admissibility first."""
    mats = require_admissible(d)
    if not 1 <= p <= d.k:
        raise IndexError(f"summand index {p} out of range")
    return mats[p - 1]
