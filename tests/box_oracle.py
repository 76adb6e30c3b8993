"""Box-bounded semigroup oracles, independent of the library's Hilbert bases.

:func:`lattice_points_in_box` enumerates a cone's lattice points in a cube
and :func:`semigroup_contains` decides membership in a finitely generated
semigroup by depth-first search.  The library decides generation exactly
through the Hilbert basis; these brute-force routines check it from the
outside.  :func:`box_hilbert_basis` is the library's earlier Hilbert basis
in dimension other than 2, a scan of the zonotope's bounding box, and
:func:`order_interval_hilbert_basis` a scan over a larger box found by a
double description pass.
"""

from itertools import product

from minksmooth.cone import (
    NotPointed,
    PolyhedralCone,
    _irreducible,
    box_points,
    cone_from_generators,
    halfspace_description,
    is_strongly_convex,
)
from minksmooth.exactlin import IntMat, IntVec, as_mat, as_vec, dot, is_zero_vec, vec_neg, vec_sub


class BoundTooSmall(RuntimeError):
    """Search depth exhausted before membership could be decided."""


def lattice_points_in_box(c: PolyhedralCone, box: int) -> list[IntVec]:
    """All lattice points of ``c`` with every coordinate in ``[-box, box]``."""
    d = c.ambient_dim
    out = []
    for pt in product(range(-box, box + 1), repeat=d):
        if c.contains(pt):
            out.append(pt)
    return out


def box_hilbert_basis(c: PolyhedralCone) -> IntMat:
    """Hilbert basis of a pointed full-dimensional cone by a box scan.

    Gordan's lemma: every irreducible element lies in the zonotope
    ``sum_j [0, 1] r_j`` of the primitive extreme rays, so the lattice
    points of that zonotope generate the semigroup and discarding the
    reducible ones leaves exactly the Hilbert basis.  The scan runs over the
    zonotope's bounding box ``[sum_j min(r_j, 0), sum_j max(r_j, 0)]`` and
    keeps the points of the order interval ``c intersect (sum_j r_j - c)``,
    which contains the zonotope.  The cost grows with the volume of that
    box, which :func:`minksmooth.cone.box_points` refuses past
    ``_MAX_BOX`` points before making any.
    """
    rays = c.generators
    total = tuple(sum(col) for col in zip(*rays))
    lo = [sum(min(x, 0) for x in col) for col in zip(*rays)]
    hi = [sum(max(x, 0) for x in col) for col in zip(*rays)]
    candidates = {
        pt
        for pt in box_points(lo, hi)
        if not is_zero_vec(pt) and c.contains(pt) and c.contains(vec_sub(total, pt))
    }
    return _irreducible(c, candidates | set(rays))


def order_interval_box(c: PolyhedralCone) -> list[range]:
    """Per coordinate, the integer range of the bounding box of the order
    interval ``c intersect (r - c)``, r the sum of the extreme rays.

    The interval is homogenized to a cone in one higher dimension, whose
    rays dehomogenize to its vertices.
    """
    d = c.ambient_dim
    total = tuple(sum(col) for col in zip(*c.generators))
    rows = [a + (0,) for a in c.inequalities]
    rows += [vec_neg(a) + (dot(a, total),) for a in c.inequalities]
    lin, rays = halfspace_description(rows + [(0,) * d + (1,)], d + 1)
    if lin or any(r[-1] <= 0 for r in rays):
        raise ValueError("order interval is unbounded")
    # exact floor and ceiling of each vertex coordinate r[j] / r[-1]
    return [range(min(r[j] // r[-1] for r in rays), max(-(-r[j] // r[-1]) for r in rays) + 1) for j in range(d)]


def order_interval_hilbert_basis(c: PolyhedralCone) -> IntMat:
    """Hilbert basis of a pointed full-dimensional cone from the nonzero
    lattice points of its order interval, which contains the zonotope of
    the extreme rays and so every irreducible element."""
    total = tuple(sum(col) for col in zip(*c.generators))
    candidates = {
        pt
        for pt in product(*order_interval_box(c))
        if not is_zero_vec(pt) and c.contains(pt) and c.contains(vec_sub(total, pt))
    }
    return _irreducible(c, candidates | set(c.generators))


def positive_functional(c: PolyhedralCone) -> IntVec:
    """Integer functional strictly positive on ``c`` minus the origin."""
    if not is_strongly_convex(c):
        raise NotPointed("no strictly positive functional on a non-pointed cone")
    return tuple(sum(col) for col in zip(*c.inequalities))


def semigroup_contains(gens, v, bound, _cache=None) -> bool:
    """Decide whether ``v`` is a nonnegative integer combination of ``gens``.

    Depth-first search over the cone spanned by the generators, pruned by a
    strictly positive functional ``w`` (the sum of the facet normals).  Every
    representation of ``v`` has coefficient sum at most ``<w, v>``, so when
    ``<w, v> <= bound`` a failed search is a definite negative.  Otherwise a
    failure under the budget raises :class:`BoundTooSmall`.
    """
    gens = as_mat(gens)
    if not gens:
        return is_zero_vec(v)
    dim = len(gens[0])
    v = as_vec(v)
    cone = cone_from_generators(gens, dim)
    if not is_strongly_convex(cone):
        raise NotPointed("generators must span a pointed cone")
    w = positive_functional(cone)
    if any(dot(w, g) <= 0 for g in gens):
        raise AssertionError("positive functional failed on a generator")
    if is_zero_vec(v):
        return True
    if not cone.contains(v):
        return False
    certified = dot(w, v) <= bound
    cache = {} if _cache is None else _cache

    def reach(x):
        if x in cache:
            return cache[x]
        cache[x] = False  # cycle guard; w strictly decreases so cycles cannot occur
        ok = False
        for g in gens:
            rem = vec_sub(x, g)
            if is_zero_vec(rem):
                ok = True
                break
            if cone.contains(rem) and reach(rem):
                ok = True
                break
        cache[x] = ok
        return ok

    if certified:
        if reach(v):
            return True
        return False
    # budget-limited search, no memo sharing across budgets
    def reach_budget(x, budget):
        if budget <= 0:
            return False
        for g in gens:
            rem = vec_sub(x, g)
            if is_zero_vec(rem):
                return True
            if cone.contains(rem) and reach_budget(rem, budget - 1):
                return True
        return False

    if reach_budget(v, bound):
        return True
    raise BoundTooSmall(
        f"no combination with coefficient sum <= {bound}; functional value {dot(w, v)} exceeds the bound"
    )
