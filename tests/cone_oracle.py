"""Double-description oracles for the cone constructions the library reads
off data it already holds.

The library's :func:`~minksmooth.cone.dual` swaps the two halves of a
cone, its ``final_cone`` is the dual of the cone over the target, and its
``sigma_tilde`` tags the vertices of each summand.  The functions here
build the same cones the long way, with fresh double description passes on
the raw data, so tests can compare the two.

:func:`rank_pruned_halfspace_description` is the double description pass
itself the long way: the library's kernel combines only adjacent rays,
found from their zero sets, while this one combines every pair and prunes
by rank.
"""

from itertools import product

from minksmooth.cone import (
    PolyhedralCone,
    _canonical_vrep,
    cone_from_generators,
    halfspace_description,
)
from minksmooth.exactlin import (
    IntVec,
    as_mat,
    as_vec,
    dot,
    is_zero_vec,
    primitive,
    rank,
    sign_normalized,
    vec_neg,
    vec_sub,
)
from minksmooth.polytope import lattice_points


def dd_dual(c: PolyhedralCone) -> PolyhedralCone:
    """The dual cone by two double description passes on ``c.inequalities``."""
    return cone_from_generators(c.inequalities, c.ambient_dim)


def cone_from_inequalities_two_pass(ineqs, dim) -> PolyhedralCone:
    """The cone cut out by ``ineqs``: its rays first, then their facets."""
    ineqs = as_mat(ineqs)
    lin_p, rays_p = halfspace_description(ineqs, dim)
    gens = _canonical_vrep(lin_p, rays_p)
    lin_d, rays_d = halfspace_description(gens, dim)
    return PolyhedralCone(dim, gens, _canonical_vrep(lin_d, rays_d))


def vertex_sum_rows(d) -> list[IntVec]:
    """The rows (w_1 + ... + w_k, 1) over all prod |vert M_p| vertex choices
    of the decomposition ``d``."""
    return [tuple(sum(c) for c in zip(*combo)) + (1,) for combo in product(*(s.vertices for s in d.summands))]


def final_cone_all_vertex_sums(d) -> PolyhedralCone:
    """The region above the summed support terms of the decomposition ``d``,
    cut out by its :func:`vertex_sum_rows`."""
    return cone_from_inequalities_two_pass(vertex_sum_rows(d), d.n + 1)


def sigma_tilde_on_lattice_points(d) -> PolyhedralCone:
    """The cone on every lattice point of each summand, tagged by its slot."""
    k = len(d.summands)
    gens = []
    for i, s in enumerate(d.summands):
        tag = tuple(1 if j == i else 0 for j in range(k))
        gens += [pt + tag for pt in lattice_points(s)]
    return cone_from_generators(gens, d.n + k)


def rank_pruned_halfspace_description(ineqs, dim) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of ``{x : <a, x> >= 0 for a in ineqs}``
    by the rank test instead of the library's adjacency test.

    Every positive/negative pair of rays becomes a candidate, and after each
    inequality a ray is kept iff its tight normals have rank d - l - 1 (d the
    dimension, l the lineality dimension).  Returns ``(lineality, rays)``,
    both primitive; the lineality vectors are sign-normalized, rays keep
    their direction.
    """
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays: list[IntVec] = []
    seen: list[IntVec] = []
    for a in ineqs:
        a = as_vec(a)
        if is_zero_vec(a):
            continue
        vals = [dot(a, l) for l in lin]
        if any(v != 0 for v in vals):
            i0 = next(i for i, v in enumerate(vals) if v != 0)
            l0 = lin[i0] if vals[i0] > 0 else vec_neg(lin[i0])
            v0 = abs(vals[i0])

            def project(x):
                # scaled projection onto the hyperplane of `a` along l0
                return vec_sub(tuple(v0 * t for t in x), tuple(dot(a, x) * t for t in l0))

            lin = [primitive(project(l)) for i, l in enumerate(lin) if i != i0]
            rays = [primitive(p) for p in map(project, rays) if not is_zero_vec(p)]
            rays.append(l0)
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            zero = [r for r in rays if dot(a, r) == 0]
            neg = [r for r in rays if dot(a, r) < 0]
            if neg:
                combos = []
                for p, q in product(pos, neg):
                    w = vec_sub(tuple(dot(a, p) * x for x in q), tuple(dot(a, q) * x for x in p))
                    if not is_zero_vec(w):
                        combos.append(primitive(w))
                rays = pos + zero + combos
        seen.append(a)
        rays = _prune_extreme(rays, seen, dim, len(lin))
    rays = sorted(set(rays))
    lin = sorted(set(sign_normalized(l) for l in lin))
    return lin, rays


def _prune_extreme(rays, ineqs, dim, lin_dim):
    target = dim - lin_dim - 1
    kept = []
    seen = set()
    for r in rays:
        if r in seen:
            continue
        seen.add(r)
        tight = [a for a in ineqs if dot(a, r) == 0]
        if rank(tight) == target:
            kept.append(r)
    return kept
