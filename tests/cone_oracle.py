"""Double-description oracles for the cone constructions the library reads
off data it already holds.

The library's :func:`~minksmooth.cone.dual` swaps the two halves of a
cone, its ``final_cone`` is the dual of the cone over the target, and its
``sigma_tilde`` tags the vertices of each summand.  The functions here
build the same cones the long way, with fresh double description passes on
the raw data, so tests can compare the two.
"""

from itertools import product

from minksmooth.cone import (
    PolyhedralCone,
    _canonical_vrep,
    cone_from_generators,
    halfspace_description,
)
from minksmooth.exactlin import as_mat
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


def final_cone_all_vertex_sums(d) -> PolyhedralCone:
    """The region above the summed support terms of the decomposition ``d``,
    cut out by the rows (w_1 + ... + w_k, 1) over all prod |vert M_p| vertex
    choices."""
    rows = []
    for combo in product(*(s.vertices for s in d.summands)):
        rows.append(tuple(sum(c) for c in zip(*combo)) + (1,))
    return cone_from_inequalities_two_pass(rows, d.n + 1)


def sigma_tilde_on_lattice_points(d) -> PolyhedralCone:
    """The cone on every lattice point of each summand, tagged by its slot."""
    k = len(d.summands)
    gens = []
    for i, s in enumerate(d.summands):
        tag = tuple(1 if j == i else 0 for j in range(k))
        gens += [pt + tag for pt in lattice_points(s)]
    return cone_from_generators(gens, d.n + k)
