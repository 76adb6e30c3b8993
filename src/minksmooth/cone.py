"""Rational polyhedral cones: duality and Hilbert bases.

The workhorse is :func:`halfspace_description`, a double description pass
that turns a list of inequality normals into the extreme rays (plus a
lineality basis) of the cone they cut out, all in exact integer arithmetic.
The facet normals of ``Cone(G)`` are the extreme rays of ``{y : <g, y> >= 0
for g in G}``.  The cone over Q knows its extreme rays, so one pass gives
it; sigma-tilde, read off sigma, needs none (``polytope.sigma_tilde``).
Duality is then a swap of the two halves (Fukuda-Prodon, *Double
description method revisited*, 1996).

Each ray carries its zero set, the indices of the inequalities tight on it.
Inserting an inequality keeps the rays on its nonnegative side and combines
a positive ray p with a negative ray q only when they are adjacent, that
is when no third ray's zero set contains Z(p) & Z(q) (the combinatorial
test of the same paper).  Adjacent rays span a 2-face, so Z(p) & Z(q)
holds at least d - l - 2 indices in dimension d with lineality dimension
l (the algebraic test); a pair with fewer is skipped before the scan, and
the scan for a third ray stops at the first one.  The new ray's zero set
is that intersection plus the new index, so the rays stay exactly one per
extreme ray, modulo the lineality space, with no rank computation.  The
rank-pruned kernel in ``tests/cone_oracle.py`` is the test oracle.

Each vector the pass holds is primitive.  So a lineality vector or ray on
which a new inequality is 0 projects to itself and is kept as it is, and a
projection or combination whose content (gcd) is 1 is not divided.

Hilbert bases need no double description.  A lifted cone (sigma dual,
sigma-tilde dual) is read off the normal fan of a polytope Q whose facet
normals are the heads of the cone's extreme rays; Q's vertices and each
fan cone C_u (the normals tight at u, the edges of Q at u) follow from
their incidences, held as bitmasks (:func:`fan_cones`), and both lifted
cones of one input share that fan.  Each element of each C_u's basis
lifts linearly, and every lift is irreducible, so only the unit tags are
tested for a split.  A planar cone, each C_u of a planar input among
them, takes the Hirzebruch-Jung continued fraction walk
(:func:`_planar_hilbert_basis`), linear in its output; in any other
dimension a cone is triangulated and each simplicial cone's fundamental
parallelepiped enumerated (:func:`_cone_basis`), so a unimodular
triangulation costs no point at all.  Either refuses an answer past its
budget with :class:`BasisTooLarge`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from .exactlin import (
    IntMat,
    IntVec,
    adjugate,
    as_mat,
    det,
    dot,
    gcdex,
    hnf,
    identity,
    primitive,
    rank,
    sign_normalized,
    vec_add,
    vec_neg,
    vec_sub,
)


class NotPointed(ValueError):
    """Cone has a nontrivial lineality space."""


class NotFullDim(ValueError):
    """Cone does not span its ambient space."""


class BasisTooLarge(ValueError):
    """A planar Hilbert basis would exceed ``_MAX_BASIS`` elements, or the
    fundamental parallelepipeds of a cone, or a box of lattice points,
    ``_MAX_BOX`` points; refused before any is made."""


_MAX_BASIS = 10**5
_MAX_BOX = 10**6


def halfspace_description(ineqs, dim) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of ``{x : <a, x> >= 0 for a in ineqs}``.

    Returns ``(lineality, rays)``, both primitive; the lineality vectors are
    sign-normalized, rays keep their direction.  A pair of rays is tested
    for adjacency (the combinatorial test) only when it shares at least
    ``dim - len(lin) - 2`` tight inequalities (the algebraic test), and the
    scan for a third ray stops at the first one.  A normal whose length is
    not ``dim`` raises ``ValueError``.
    """
    lin = list(identity(dim))
    # each extreme ray with its zero set: bit j set iff <ineqs[j], ray> == 0
    rays: list[tuple[IntVec, int]] = []
    done = 0
    for j, a in enumerate(ineqs):
        if len(a) != dim:
            raise ValueError(f"dimension mismatch: {len(a)} vs {dim}")
        if not any(a):
            continue
        bit = 1 << j
        vals = [sum(map(mul, a, l)) for l in lin]
        for i0, v0 in enumerate(vals):
            if v0:
                break
        else:
            v0 = 0
        if v0:
            l0 = lin.pop(i0)
            del vals[i0]
            if v0 < 0:
                l0, v0 = vec_neg(l0), -v0
            # project the rest of the lineality basis, then the rays, onto the
            # hyperplane of `a` along l0: x -> (v0 * x - <a, x> * l0) / gcd.
            # Each x is primitive, so one with <a, x> == 0 stays as it is; a
            # ray is never a lineality direction, so none projects to zero
            kept = len(lin)
            xs = lin + [r for r, _ in rays]
            vals += [sum(map(mul, a, r)) for r, _ in rays]
            for i, ax in enumerate(vals):
                if ax:
                    w = [v0 * t - ax * t0 for t, t0 in zip(xs[i], l0)]
                    g = gcd(*w)
                    xs[i] = tuple(w) if g == 1 else tuple(t // g for t in w)
            lin = xs[:kept]
            # l0 was a lineality direction, so every earlier inequality is tight on it
            rays = [(x, z | bit) for x, (_, z) in zip(xs[kept:], rays)]
            rays.append((l0, done))
        else:
            pos, neg, zero = [], [], []
            for r, z in rays:
                v = sum(map(mul, a, r))
                if v > 0:
                    pos.append((r, z, v))
                elif v < 0:
                    neg.append((r, z, v))
                else:
                    zero.append((r, z | bit))
            zsets = [z for _, z in rays]
            # adjacent rays span a 2-face, so they share at least this many
            # tight inequalities (the rank of the face's equality set)
            need = dim - len(lin) - 2
            combos = []
            for p, zp, vp in pos:
                for q, zq, vq in neg:
                    s = zp & zq
                    if s.bit_count() < need:
                        continue
                    # adjacent iff no third ray is tight wherever both are
                    hits = 0
                    for z in zsets:
                        if z & s == s:
                            hits += 1
                            if hits == 3:
                                break
                    if hits == 2:
                        w = [vp * y - vq * x for x, y in zip(p, q)]
                        g = gcd(*w)
                        combos.append((tuple(w) if g == 1 else tuple(t // g for t in w), s | bit))
            rays = [(r, z) for r, z, _ in pos] + zero + combos
        done |= bit
    lin = sorted(set(sign_normalized(l) for l in lin))
    return lin, sorted(r for r, _ in rays)


class PolyhedralCone(NamedTuple):
    """A rational polyhedral cone in canonical dual form.

    ``generators`` are the primitive extreme rays (plus a +-pair for each
    lineality direction when the cone is not pointed), sorted.
    ``inequalities`` are the primitive facet normals in the same canonical
    form; membership is `all(<a, x> >= 0)` over them, with equality pairs
    encoding lower-dimensional cones.
    """

    ambient_dim: int
    generators: IntMat
    inequalities: IntMat

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return all(dot(a, v) >= 0 for a in self.inequalities)


def _canonical_vrep(lin, rays) -> IntMat:
    gens = set(rays)
    for l in lin:
        gens.add(l)
        gens.add(vec_neg(l))
    return tuple(sorted(gens))


def cone_from_generators(gens, dim) -> PolyhedralCone:
    """Two passes: the facets, then the extreme rays among ``gens``.  The
    oracle of :func:`cone_over` and ``polytope.sigma_tilde``."""
    gens = as_mat(gens)
    if any(len(g) != dim for g in gens):
        raise ValueError("generator dimension mismatch")
    lin_d, rays_d = halfspace_description(gens, dim)
    ineqs = _canonical_vrep(lin_d, rays_d)
    lin_p, rays_p = halfspace_description(ineqs, dim)
    return PolyhedralCone(dim, _canonical_vrep(lin_p, rays_p), ineqs)


@lru_cache(maxsize=256)
def cone_over(q) -> PolyhedralCone:
    """Cone in one higher dimension on the generators ``(v, 1)``.

    ``q`` stores its minimal vertex set, sorted, so these generators are
    its extreme rays in canonical order, and one pass finds the facets.
    Cached: sigma, sigma-tilde, the final base-diagram cone and the Newton
    check of a run share it.
    """
    dim, gens = q.ambient_dim + 1, tuple(v + (1,) for v in q.vertices)
    return PolyhedralCone(dim, gens, _canonical_vrep(*halfspace_description(gens, dim)))


def dual(c: PolyhedralCone) -> PolyhedralCone:
    """``{y : <g, y> >= 0 for g in c.generators}``, generated by ``c.inequalities``.

    Exactly a fresh double description of it when ``c`` is pointed and
    full-dimensional (both halves are then unique), else the same cone.
    """
    return PolyhedralCone(c.ambient_dim, c.inequalities, c.generators)


def is_strongly_convex(c: PolyhedralCone) -> bool:
    return rank(c.inequalities) == c.ambient_dim


def is_full_dimensional(c: PolyhedralCone) -> bool:
    return rank(c.generators) == c.ambient_dim


def cones_equal(a: PolyhedralCone, b: PolyhedralCone) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return all(b.contains(g) for g in a.generators) and all(
        a.contains(g) for g in b.generators
    )


class HilbertBasisResult(NamedTuple):
    elements: IntMat


@lru_cache(maxsize=256)
def hilbert_basis(c: PolyhedralCone) -> HilbertBasisResult:
    """Minimal generating set of the semigroup ``c intersect Z^d``.

    A cone whose facet normals all read ``(p, e_i)`` (a unit vector in the
    last k coordinates, every slot used) is a lifted cone
    ``{(v, s) : s_i >= psi_i(v)}``; both sigma-tilde dual and sigma dual
    have that form.  Its basis is read off the normal fan of the sum of the
    slot polytopes (:func:`_lifted_candidates`), which needs Hilbert bases
    in dimension d - k only.  Every candidate ``(h, psi(h))`` is
    irreducible: psi is sublinear, so a split ``(x, s) + (y, t)`` has
    ``s = psi(x)``, ``t = psi(y)`` and ``psi(x) + psi(y) = psi(h)``, which
    puts x and y in one cone of the common refinement of the slots' fans,
    so in one C_u, against h in the basis of C_u; and x = 0 forces s = 0.
    So only the unit tags are tested, each against the lifts below it in
    the positive functional that sums the facet normals.  Every other cone
    goes to :func:`_cone_basis`.
    """
    if not is_strongly_convex(c):
        raise NotPointed("Hilbert basis needs a pointed cone")
    if not is_full_dimensional(c):
        raise NotFullDim("Hilbert basis needs a full-dimensional cone")
    slots = _slot_polytopes(c)
    if slots is None:
        return HilbertBasisResult(_cone_basis(c))
    candidates = _lifted_candidates(c, slots)
    n = c.ambient_dim - len(slots)
    tags = {(0,) * n + tag for tag in identity(len(slots))}
    weight = [sum(col) for col in zip(*c.inequalities)]
    bound = max(dot(weight, t) for t in tags)
    light = [g for g in candidates - tags if dot(weight, g) < bound]
    split = {t for t in tags if any(c.contains(vec_sub(t, g)) for g in light)}
    return HilbertBasisResult(tuple(sorted(candidates - split)))


@lru_cache(maxsize=256)
def _cone_basis(c: PolyhedralCone) -> IntMat:
    """Hilbert basis of a pointed full-dimensional cone C: the continued
    fraction walk in the plane; in any other dimension, the bases of the
    simplicial cones S of a pulling triangulation (:func:`_parallelepiped`)
    less the elements reducible in C, since an element irreducible in C is
    irreducible in the S holding it (Bruns-Koch, 2001).  The basis of S
    lies in its rays and its fundamental parallelepiped, of |det S| lattice
    points; their sum is checked against ``_MAX_BOX`` before any is made,
    and when every |det S| is 1 the rays are the basis.  Each |det S| is
    one elimination; the adjugate that locates the points is formed only
    for an S with |det S| > 1.  Cached, so sigma dual and sigma-tilde dual
    share their fan cones' bases.
    """
    if c.ambient_dim == 2:
        return _planar_hilbert_basis(c)
    rays = c.generators
    facets = [sum(1 << j for j, r in enumerate(rays) if not dot(a, r)) for a in c.inequalities]
    simplices = [
        [r for j, r in enumerate(rays) if s >> j & 1] for s in _pulling((1 << len(rays)) - 1, c.ambient_dim, facets)
    ]
    dets = [det(s) for s in simplices]
    total = sum(map(abs, dets))
    if total > _MAX_BOX:
        raise BasisTooLarge(f"fundamental parallelepipeds hold {total} lattice points, over {_MAX_BOX}")
    if total == len(simplices):
        return rays
    points = set(rays)
    for s, d in zip(simplices, dets):
        if d not in (1, -1):
            points.update(_parallelepiped(s, *adjugate(s)))
    return _irreducible(c, points)


def _pulling(face: int, dim: int, facets: list[int]) -> list[int]:
    """The simplices of the pulling triangulation of a face of a pointed
    cone, as bitmasks of its rays: the face's lowest ray joined to each
    simplex of the facets that miss it, the facets of a facet F being the
    largest of the sets ``F & G``, G another facet (De Loera-Rambau-Santos,
    *Triangulations*, 4.3)."""
    if face.bit_count() == dim:
        return [face]
    low = face & -face
    out = []
    for f in facets:
        if not f & low:
            meets = {f & g for g in facets if g != f}
            ridges = [m for m in meets if not any(m & g == m != g for g in meets)]
            out += [low | t for t in _pulling(f, dim - 1, ridges)]
    return out


def _minimal(cols) -> list[IntVec]:
    """Of the nonnegative vectors whose entries the columns ``cols`` list,
    the nonzero ones that dominate no other nonzero one, in order of their
    sum, which exceeds the sum of any vector they dominate.  Each is packed
    into one int, a field of ``width`` bits per entry under the sum: c
    dominates k iff no guard bit, the top bit of a field, of
    ``(c | guard) - k`` is cleared by a borrow.
    """
    n = len(cols)
    width = max(map(max, cols)).bit_length() + 1
    packed = [sum(c) << n * width for c in zip(*cols)]
    for i, col in enumerate(cols):
        packed = [p | x << i * width for p, x in zip(packed, col)]
    guard = sum(1 << (i + 1) * width - 1 for i in range(n))
    kept = []
    for p in sorted(packed):
        if not p:
            continue
        top = p | guard
        for k in kept:
            if (top - k) & guard == guard:
                break
        else:
            kept.append(p)
    low = (1 << width) - 1
    return [tuple(p >> i * width & low for i in range(n)) for p in kept]


def _parallelepiped(rays, det, adj) -> list[IntVec]:
    """The Hilbert basis, rays left out, of the simplicial cone on the rows
    ``rays``, with ``adj = det * rays^-1``.

    The lattice point x has the parallelepiped point ``sum_i (c_i / D) r_i``
    of its coset, D = |det|, with ``c = +-x adj mod D``; the c form a group,
    so the sign does not matter, and the box of the Hermite form's diagonal
    holds one x per coset.  The c_i are the facet values, scaled, so the
    basis is the nonzero c that dominate no other (:func:`_minimal`).
    """
    n, big = len(rays), abs(det)
    h, _ = hnf(rays)
    cols = [[0] for _ in range(n)]
    for j, row in enumerate(adj):
        ts = range(h[j][j])
        cols = [[(x + t * y) % big for x in col for t in ts] for col, y in zip(cols, row)]
    return [tuple(sum(ci * r[j] for ci, r in zip(c, rays)) // big for j in range(n)) for c in _minimal(cols)]


def _det2(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _planar_hilbert_basis(c: PolyhedralCone) -> IntMat:
    """Hilbert basis of a pointed full-dimensional cone in the plane.

    The Hirzebruch-Jung continued fraction (Cox-Little-Schenck, *Toric
    Varieties*, 10.2): with the rays ordered so that D = det[r1; r2] > 0,
    the basis runs u_0 = r1, u_1, ..., r2 with det[u_i; u_(i+1)] = 1.  u_1
    is the point with det[r1; u_1] = 1 (an extended gcd) nearest the ray
    r2, that is with 0 <= det[u_1; r2] < D; then
    ``u_(i+1) = b_i u_i - u_(i-1)`` with the least b_i that keeps
    det[u_(i+1); r2] >= 0, which strictly decreases to 0 at r2.  The walk
    is linear in its output and refuses one past ``_MAX_BASIS`` elements.
    """
    r1, r2 = c.generators
    if _det2(r1, r2) < 0:
        r1, r2 = r2, r1
    _, s, t = gcdex(r1[0], r1[1])
    u = (-t, s)  # det[r1; u] = s r1[0] + t r1[1] = 1, as r1 is primitive
    prev, dprev = r1, _det2(r1, r2)
    q = _det2(u, r2) // dprev
    u = (u[0] - q * r1[0], u[1] - q * r1[1])
    du = _det2(u, r2)
    basis = [r1]
    while du:
        basis.append(u)
        if len(basis) >= _MAX_BASIS:
            raise BasisTooLarge(f"planar Hilbert basis exceeds {_MAX_BASIS} elements")
        b = -(-dprev // du)
        prev, u = u, (b * u[0] - prev[0], b * u[1] - prev[1])
        dprev, du = du, b * du - dprev
    basis.append(r2)
    return tuple(sorted(basis))


def box_points(lo, hi):
    """The lattice points of the box ``[lo, hi]``, in lexicographic order;
    a box of more than ``_MAX_BOX`` points is refused before any is made."""
    if prod(b - a + 1 for a, b in zip(lo, hi)) > _MAX_BOX:
        raise BasisTooLarge(f"box scan exceeds {_MAX_BOX} lattice points")
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def _irreducible(c: PolyhedralCone, candidates) -> IntMat:
    """The candidates that are not a candidate plus a nonzero point of ``c``.

    Exact for any finite set of nonzero lattice points of ``c`` that
    generates its semigroup: every reducible element then dominates some
    generator.  h - g lies in ``c`` iff the facet values of g are
    componentwise below those of h; they are nonnegative on ``c`` and tell
    points apart, as the facets span, so the basis is the points of the
    minimal value vectors (:func:`_minimal`), found in O(N |basis|).
    """
    points = list(candidates)
    vals = [tuple(dot(a, p) for p in points) for a in c.inequalities]
    point = dict(zip(zip(*vals), points))
    return tuple(sorted(point[v] for v in _minimal(vals)))


def _slot_polytopes(c: PolyhedralCone) -> list[list[IntVec]] | None:
    """The point sets ``N_i = {p : (p, e_i) is a facet normal}`` when every
    facet normal of ``c`` has that form and every slot i occurs, else None.
    """
    dim = c.ambient_dim
    for k in range(1, dim):
        n = dim - k
        slots: list[list[IntVec]] = [[] for _ in range(k)]
        for a in c.inequalities:
            tail = a[n:]
            if sum(tail) != 1 or any(x not in (0, 1) for x in tail):
                break
            slots[tail.index(1)].append(a[:n])
        else:
            if all(slots):
                return slots
    return None


def fan_cones(c: PolyhedralCone, slots) -> dict[IntVec, tuple[PolyhedralCone, tuple[IntVec, ...]]]:
    """The normal cone ``C_u = {v : <v, w - u> >= 0 for all w in Q}`` of each
    vertex u of ``Q = sum_i conv(slots[i])``, with the point of each slot
    that sums to u, for the lifted cone ``c`` cut out by the normals
    ``(p, e_i)``, p in ``slots[i]`` (see :func:`_lifted_candidates`).

    The nonzero heads of the extreme rays of ``c`` are the primitive inner
    facet normals of Q, so :func:`_vertex_walk` over them finds Q's
    vertices with their tight rays, and the cones come from
    :func:`_normal_fan`, sorted as a double description returns them.
    """
    n = c.ambient_dim - len(slots)
    rays = tuple(r[:n] for r in c.generators if any(r[:n]))
    walk = _vertex_walk(rays, slots, n)
    cones = _normal_fan(rays, tuple(walk), tuple(m for _, m in walk.values()))
    return {u: (cu, parts) for (u, (parts, _)), cu in zip(walk.items(), cones)}


def _vertex_walk(rays, slots, need) -> dict[IntVec, tuple[tuple[IntVec, ...], int]]:
    """The vertices u of ``Q = sum_i conv(slots[i])``, sorted, each with the
    point of each slot that sums to it and the bitmask of ``rays`` tight at
    u (minimal there), for linear functionals ``rays`` among which are the
    inner facet normals of Q in the span of its edges, of dimension
    ``need``.

    Q's normal fan in that span refines the fan of every partial sum P, so
    each normal cone of P is spanned by the facet normals of Q it holds.
    The rays tight at a point w of P are those in the normal cone of the
    face F of P holding w in its relative interior.  For a proper face G of
    F that cone is a proper face of G's, which a facet normal of Q outside
    it helps span: the tight set grows strictly as the face shrinks, and
    rays that are no facet normal of Q cannot undo that.  A vertex's
    normal cone is full-dimensional, so it lies in no other cone of P's
    fan and has at least ``need`` tight rays.  So w is a vertex of P iff no
    other point's tight set strictly contains w's.  The vertices of Q come
    from summing the slots one at a time, keeping the vertices after each
    step, each the sum of one vertex of either summand.  A ray is tight at
    ``u + p`` iff it is tight at both, so each tight set, a bitmask over
    the rays, is an AND.
    """
    bits = [1 << j for j in range(len(rays))]
    walk = {(0,) * len(slots[0][0]): ((), sum(bits))}
    for pts in slots:
        vals = [[sum(map(mul, a, p)) for a in rays] for p in pts]
        low = list(map(min, zip(*vals)))
        tight = [sum(b for b, x, m in zip(bits, row, low) if x == m) for row in vals]
        sums = {
            vec_add(u, p): (parts + (p,), mu & mp) for u, (parts, mu) in walk.items() for p, mp in zip(pts, tight)
        }
        # a set inside another lies inside a largest one, which has more
        # rays; holds[j] has bit i when the i-th kept set has ray j, so m
        # lies inside a kept set iff the AND of holds over m's rays is not 0
        top, holds = [], [0] * len(rays)
        for m in sorted({m for _, m in sums.values() if m.bit_count() >= need}, key=int.bit_count, reverse=True):
            inside, rest = (1 << len(top)) - 1, m
            while rest and inside:
                low = rest & -rest
                inside &= holds[low.bit_length() - 1]
                rest ^= low
            if not inside:
                rest = m
                while rest:
                    low = rest & -rest
                    holds[low.bit_length() - 1] |= 1 << len(top)
                    rest ^= low
                top.append(m)
        top = set(top)
        walk = {w: sums[w] for w in sorted(sums) if sums[w][1] in top}
    return walk


@lru_cache(maxsize=256)
def _normal_fan(rays, verts, masks) -> tuple[PolyhedralCone, ...]:
    """The normal cone of each vertex in ``verts`` of a polytope Q whose
    normal fan has the rays ``rays``, from the bitmask of rays tight at
    each vertex.  C_u is spanned by the rays tight at u, and its facets are
    the primitive edges w - u of Q at u.  The vertices tight on every ray
    tight at both u and w are those of the smallest face holding both, so
    w is a neighbour of u iff no third vertex is (Ziegler, *Lectures on
    Polytopes*, ch. 2), found as an AND of bitmasks over the vertices; an
    edge's normal cone spans n - 1 dimensions, so u and w share at least
    n - 1 rays.  Cached: sigma dual and sigma-tilde dual reach the same fan.
    """
    n = len(verts[0])
    on = [sum(1 << k for k, m in enumerate(masks) if m >> j & 1) for j in range(len(rays))]
    edges = [[] for _ in verts]
    for i, (u, mu) in enumerate(zip(verts, masks)):
        for j in range(i + 1, len(verts)):
            s = mu & masks[j]
            if s.bit_count() < n - 1:
                continue
            common = (1 << len(verts)) - 1
            while s:
                common &= on[(s & -s).bit_length() - 1]
                s &= s - 1
            if common.bit_count() == 2:
                w = verts[j]
                edges[i].append(primitive(vec_sub(w, u)))
                edges[j].append(primitive(vec_sub(u, w)))
    return tuple(
        PolyhedralCone(n, tuple(a for j, a in enumerate(rays) if m >> j & 1), tuple(sorted(e)))
        for m, e in zip(masks, edges)
    )


def _lifted_candidates(c: PolyhedralCone, slots) -> set[IntVec]:
    """A finite generating set of the lifted cone ``c`` cut out by the
    normals ``(p, e_i)``, p in ``slots[i]``.

    That cone is ``{(v, s) : s_i >= psi_i(v)}`` with
    ``psi_i(v) = max over p in slots[i] of <-p, v>``, so every lattice point
    is ``(v, psi(v)) + sum_i (s_i - psi_i(v)) t_i`` for the unit tags t_i.
    Each psi_i is linear on the normal cone C_u of every vertex
    ``u = sum_i p_i(u)`` of ``Q = sum_i conv(slots[i])``, where it is
    ``<-p_i(u), .>``, so v splits along the Hilbert basis of the C_u
    containing it and each element h lifts to ``(h, -<p_1(u), h>, ...)``
    (Altmann's tagged-summand construction).  The C_u and the p_i(u) come
    from :func:`fan_cones`, with no double description, and go straight
    to :func:`_cone_basis`: Q spans, so each C_u is pointed, and it is
    full-dimensional at a vertex, so no rank check is needed.  Each slot is
    already a vertex set: a non-vertex gives no extreme normal.
    """
    k = len(slots)
    n = c.ambient_dim - k
    out = {(0,) * n + tag for tag in identity(k)}
    for fan_cone, parts in fan_cones(c, slots).values():
        for h in _cone_basis(fan_cone):
            out.add(h + tuple(-dot(p, h) for p in parts))
    return out
