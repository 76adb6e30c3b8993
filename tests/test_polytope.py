import json
import random
import sys
from functools import reduce
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minksmooth import cone as cone_module
from minksmooth import fibration, polytope, potential, smoothing
from minksmooth.exactlin import NotPrimitive, dot, identity, support
from minksmooth.pipeline import parse_input
from minksmooth.polytope import (
    sigma_tilde,
    DimensionMismatch,
    NotAdmissible,
    OriginNotVertex,
    convex_hull,
    decomposition,
    is_admissible,
    lattice_points,
    minkowski_sum,
    phi,
    require_admissible,
    summand_at,
    summand_matrices,
)

from chart_oracle import express_in_chart, verify_matrix_relations
from conftest import segment, triangle
from linalg_oracle import mat_mul


def test_hull_duplicates_dropped():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (0, 0)])
    assert p.vertices == ((0, 0), (0, 1), (1, 0))
    # a single point, repeated or not, is its own hull
    for pt in [(3,), (2, -1), (0, 4, -2), (0, 0, 0)]:
        assert convex_hull([pt]).vertices == convex_hull([pt, pt]).vertices == (pt,)


def test_hull_collinear_interior_dropped():
    p = convex_hull([(0, 0), (2, 0), (1, 0)])
    assert p.vertices == ((0, 0), (2, 0))


def test_hull_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        convex_hull([(0, 0), (1, 0, 0)])


def test_minkowski_sum_gives_pentagon(d_q5):
    assert d_q5.target.vertices == ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1))


def test_minkowski_sum_gives_hexagon(d_q6_first):
    assert d_q6_first.target.vertices == ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2))


def test_minkowski_identity_element():
    p = convex_hull([(0, 0), (3, 1)])
    origin = convex_hull([(0, 0)])
    assert minkowski_sum(p, origin) == p


def test_minkowski_commutative_associative():
    a, b, c = triangle(), segment((1, 1)), segment((2, 1))
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))


def _all_vertex_sums(summands):
    """The oracle: the hull of every sum of one vertex per summand."""
    return convex_hull([tuple(map(sum, zip(*vs))) for vs in product(*(s.vertices for s in summands))])


@st.composite
def summand_lists(draw):
    """k <= 4 summands in dimension 1, 2 or 3, coordinates in [-5, 5]: the
    hulls of 1 to 7 points, so points, segments, triangles and polygons;
    in dimension 4, k <= 3 hulls of 1 to 4 points in [-3, 3], which keeps
    the oracle's hull of all vertex sums small."""
    n = draw(st.integers(1, 4))
    size, count, bound = (4, 3, 3) if n == 4 else (7, 4, 5)
    point = st.tuples(*[st.integers(-bound, bound)] * n)
    return [convex_hull(draw(st.lists(point, min_size=1, max_size=size))) for _ in range(draw(st.integers(1, count)))]


_HUGE = 10**300


def _cube(n):
    """cube(n): the unit segments of Q^n and the segment to (1, ..., 1)."""
    return [segment(e) for e in identity(n)] + [segment((1,) * n)]


def _simplex_and_diagonal(n):
    """The unimodular simplex conv(0, e_1, ..., e_n) and the segment to (1, ..., 1)."""
    return [convex_hull([(0,) * n, *identity(n)]), segment((1,) * n)]


def _moment_triangles(n, k):
    """moment-triangles(n, k): conv(0, a_i, b_i) for i = 1, ..., k, with
    a_i = (1, i, ..., i^(n-1)) and b_i = (0, 1, 2i, ..., (n - 1) i^(n-2));
    unimodular, as their first 2 x 2 minor is 1."""
    return [
        convex_hull([(0,) * n, tuple(i**j for j in range(n)), tuple(j * i ** (j - 1) if j else 0 for j in range(n))])
        for i in range(1, k + 1)
    ]


def _hull_fold(summands):
    """The oracle for sums too large for all vertex sums: pairwise hulls."""
    return reduce(
        lambda p, s: convex_hull([tuple(map(sum, zip(u, v))) for u in p.vertices for v in s.vertices]), summands
    )


_TRIANGLE_AND_SEGMENT3 = [convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)]), segment((0, 0, 1))]
_SIMPLEX6 = _simplex_and_diagonal(6)[0]


@settings(max_examples=300, deadline=None)
@given(summand_lists())
# parallel edges: the unit square and the segments along its sides
@example([convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]), segment((2, 0)), segment((0, 3))])
# antiparallel edges: a triangle and its negative, and a segment on both
@example([triangle(), convex_hull([(0, 0), (-1, 0), (0, -1)]), segment((1, -1))])
# vertical edges up and down, at the lex-least vertex of every summand
@example([segment((0, 1)), convex_hull([(0, 0), (0, -2), (1, -1)]), convex_hull([(3, 4)])])
@example([convex_hull([(_HUGE, 1), (-_HUGE, _HUGE + 1), (0, 0)]), segment((_HUGE, _HUGE - 1)), segment((0, -_HUGE))])
@example([convex_hull([(2,), (-3,)]), convex_hull([(4,)])])
@example([triangle() for _ in range(4)])
# flat sums: two segments spanning a plane of Q^3, and a triangle and a
# segment in a plane of Q^4 off the origin
@example([segment((1, 2, 0)), segment((0, 1, 0)), convex_hull([(1, 1, 0)])])
@example([convex_hull([(1, 0, 1, 0), (2, 1, 1, 0), (1, 1, 1, 0)]), convex_hull([(0, 0, 2, 2), (3, 2, 2, 2)])])
# only points, in dimensions 3 and 4
@example([convex_hull([(1, -2, 3)]), convex_hull([(4, 0, -1)]), convex_hull([(0, 0, 0)])])
@example([convex_hull([(1, 2, 3, 4)]), convex_hull([(-1, -2, -3, -4)])])
# the unit cube, a non-simplex summand, with a segment along a diagonal
@example([convex_hull(list(product((0, 1), repeat=3))), segment((1, 1, 1))])
@example(_cube(4))
@example([convex_hull([(_HUGE,), (-_HUGE,)]), convex_hull([(0,), (_HUGE + 1,)]), convex_hull([(7,)])])
# the count's boundary: S = D = 6 walks, S = 21 > D = 8 folds
@example(_TRIANGLE_AND_SEGMENT3)
@example(_simplex_and_diagonal(3))
def test_minkowski_sum_matches_all_vertex_sums(summands):
    assert minkowski_sum(*summands) == _all_vertex_sums(summands)


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` wherever the package binds it."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for m in [m for key, m in sys.modules.items() if key.startswith("minksmooth")]:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, counted)
    return calls


@pytest.mark.parametrize("vertices", [[(1, 0), (1, 2)], [(1, 0), (0, 1), (1, 1), (2, 1), (1, 3), (3, 1)]])
@pytest.mark.parametrize("shapes", ["segments", "with a triangle", "with a point"])
def test_parsing_k_planar_summands_takes_k_plus_one_hulls(monkeypatch, vertices, shapes):
    # a hull per summand, then one for the Minkowski sum, each with two
    # double-description passes (three and six for two segments)
    summands = [[[0, 0], list(v)] for v in vertices]
    if shapes == "with a triangle":
        summands.append([[0, 0], [1, 0], [0, 1]])
    elif shapes == "with a point":
        summands.append([[0, 0]])
    k = len(summands)
    hulls = _count_calls(monkeypatch, polytope, "convex_hull")
    passes = _count_calls(monkeypatch, cone_module, "halfspace_description")
    parse_input(json.dumps({"dimension": 2, "summands": [{"vertices": s} for s in summands]}))
    assert (len(hulls), len(passes)) == (k + 1, 2 * (k + 1))


@pytest.mark.parametrize(
    "n, shapes",
    [(1, "segments"), (1, "with a point"), (3, "segments"), (3, "with a triangle"), (3, "with a point")]
    + [(4, "segments"), (4, "with a triangle"), (4, "with a point")],
)
def test_parsing_k_summands_off_the_plane_takes_k_hulls(monkeypatch, n, shapes):
    # a hull per summand, each with two double-description passes; the sum
    # of these few small simplices reads their edges off vertex pairs and
    # walks the normals of those, with no hull and no pass
    summands = [[[0] * n, list(v)] for v in [*identity(n), (-1,) * n]]
    if shapes == "with a triangle":
        summands.append([[0] * n, [1, 1] + [0] * (n - 2), [0, 1] + [1] * (n - 2)])
    elif shapes == "with a point":
        summands.append([[0] * n])
    k = len(summands)
    hulls = _count_calls(monkeypatch, polytope, "convex_hull")
    passes = _count_calls(monkeypatch, cone_module, "halfspace_description")
    d = parse_input(json.dumps({"dimension": n, "summands": [{"vertices": s} for s in summands]})).decomposition
    assert (len(hulls), len(passes)) == (k, 2 * k)
    target = minkowski_sum(*d.summands)
    assert (len(hulls), len(passes)) == (k, 2 * k)
    assert target == d.target == _all_vertex_sums(d.summands)


@pytest.mark.parametrize(
    "summands, hulls, walks, oracle",
    [
        # S candidate subsets of the walk against D vertex sums of the fold:
        # S = C(5, 3) = 10 <= D = 32 and S = C(4, 2) = 6 <= D = 16
        (_cube(4), 0, 1, _all_vertex_sums),
        ([segment(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))], 0, 1, _all_vertex_sums),
        # S = C(29, 6) = 475 020 > D = 16 and S = C(37, 7) = 10 295 472 > D = 18
        (_simplex_and_diagonal(7), 1, 0, _all_vertex_sums),
        (_simplex_and_diagonal(8), 1, 0, _all_vertex_sums),
        # S = C(24, 3) = 2024 <= D = 3^8 = 6561, too many sums for the oracle
        (_moment_triangles(4, 8), 0, 1, _hull_fold),
        # S = C(252, 5) > D = 7: copies add directions but no vertices, and
        # 12 copies of M sum to 12M
        ([_SIMPLEX6] * 12, 11, 0, lambda _: convex_hull([tuple(12 * x for x in v) for v in _SIMPLEX6.vertices])),
        # the boundary: S = D = 6 walks, S = C(7, 2) = 21 > D = 8 folds
        (_TRIANGLE_AND_SEGMENT3, 0, 1, _all_vertex_sums),
        (_simplex_and_diagonal(3), 1, 0, _all_vertex_sums),
    ],
    ids=["cube4", "diagonal-segments3", "simplex7+diagonal", "simplex8+diagonal"]
    + ["moment-triangles4-8", "simplex6-12-copies", "triangle+segment3", "simplex3+diagonal"],
)
def test_sum_off_the_plane_walks_iff_subsets_at_most_sums(
    monkeypatch, summands, hulls, walks, oracle
):
    counted = _count_calls(monkeypatch, polytope, "convex_hull"), _count_calls(monkeypatch, polytope, "_vertex_walk")
    target = minkowski_sum(*summands)
    assert tuple(map(len, counted)) == (hulls, walks)
    assert target == oracle(summands)


def test_parsing_a_simplex_of_q8_with_a_segment(monkeypatch):
    # admissible and one small hull: parsed without the walk's candidates
    summands = _simplex_and_diagonal(8)
    walks = _count_calls(monkeypatch, polytope, "_vertex_walk")
    d = parse_input(json.dumps({"dimension": 8, "summands": [{"vertices": s.vertices} for s in summands]})).decomposition
    assert walks == [] and d.target == _all_vertex_sums(summands) and len(d.target.vertices) == 17
    assert polytope.require_admissible(d)


def test_origin_is_checked_before_the_sum_is_hulled(monkeypatch):
    summands = [triangle(), convex_hull([(1, 0), (0, 1)]), segment((1, 1))]
    hulls = _count_calls(monkeypatch, polytope, "convex_hull")
    with pytest.raises(OriginNotVertex, match="summand 2"):
        decomposition(summands)
    assert hulls == []
    text = json.dumps({"dimension": 2, "summands": [{"vertices": s.vertices} for s in summands]})
    with pytest.raises(NotAdmissible, match="summand 2") as refused:
        parse_input(text)
    assert isinstance(refused.value.__cause__, OriginNotVertex)
    assert len(hulls) == len(summands)


def brute_lattice_points(p):
    lo = [min(v[j] for v in p.vertices) for j in range(p.ambient_dim)]
    hi = [max(v[j] for v in p.vertices) for j in range(p.ambient_dim)]
    # rational membership by checking that the point is a convex combination:
    # for 2d test polytopes, compare against the facet description of the hull
    out = []
    from minksmooth.cone import cone_from_generators

    cone = cone_from_generators([v + (1,) for v in p.vertices], p.ambient_dim + 1)
    for pt in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(dot(f, pt + (1,)) >= 0 for f in cone.inequalities):
            out.append(pt)
    return out


def test_lattice_points_examples():
    assert lattice_points(triangle()) == [(0, 0), (0, 1), (1, 0)]
    assert lattice_points(segment((1, 1))) == [(0, 0), (1, 1)]
    big = convex_hull([(0, 0), (2, 0), (0, 2)])
    pts = lattice_points(big)
    assert len(pts) == 6
    assert pts == brute_lattice_points(big)


def test_eta0_known_values(d_q5):
    # eta0(c), the boundary height of the dual cone, is the target's support
    assert support(d_q5.target.vertices, (0, -1)) == 2
    assert support(d_q5.target.vertices, (-1, -1)) == 3
    assert support(d_q5.target.vertices, (0, 0)) == 0


def test_phi_known_values(d_q5):
    assert phi(d_q5, (-1, -1)) == (1, 2)
    assert phi(d_q5, (0, 0)) == (0, 0)
    assert phi(d_q5, (0, -1)) == (1, 1)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)
def test_phi_sublinear(u, v):
    d = decomposition([triangle(), segment((1, 1))])
    s = tuple(a + b for a, b in zip(u, v))
    pu, pv, ps = phi(d, u), phi(d, v), phi(d, s)
    for i in range(d.k):
        assert ps[i] <= pu[i] + pv[i]


def test_eta0_parametrizes_dual_cone_boundary(all_fixtures):
    # (c, eta0(c)) sits on the dual cone's boundary: it is a member, while
    # one step lower is not
    from minksmooth.cone import cone_over, dual

    rng = random.Random(99)
    for d in all_fixtures.values():
        sv = dual(cone_over(d.target))
        for _ in range(200):
            c = (rng.randint(-6, 6), rng.randint(-6, 6))
            h = support(d.target.vertices, c)
            assert sv.contains(c + (h,))
            assert not sv.contains(c + (h - 1,))


def test_eta0_equals_phi_total(all_fixtures):
    rng = random.Random(1729)
    for d in all_fixtures.values():
        for _ in range(500):
            c = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert support(d.target.vertices, c) == sum(phi(d, c))


def test_summand_matrices_segment():
    sm = summand_matrices(segment((1, 1)))
    assert sm.v == ((1, 1),)
    assert verify_matrix_relations(sm)
    # [a c] must be the exact inverse of [v; e]
    stacked = sm.v + sm.e
    z = tuple(sm.a[i] + sm.c[i] for i in range(sm.n))
    assert mat_mul(stacked, z) == ((1, 0), (0, 1))


def test_summand_matrices_full_triangle():
    sm = summand_matrices(triangle())
    assert sm.m == 2 and sm.e == () and sm.c == ((), ())
    assert verify_matrix_relations(sm)
    assert set(sm.v) == {(0, 1), (1, 0)}
    assert sm.b == (-1, -1)


def test_summand_matrices_rejects():
    with pytest.raises(NotPrimitive):
        summand_matrices(segment((2, 0)))
    with pytest.raises(OriginNotVertex):
        summand_matrices(convex_hull([(1, 0), (2, 0)]))


def test_admissibility(all_fixtures):
    for d in all_fixtures.values():
        res = is_admissible(d)
        assert res.ok, res.violations
        for sm in res.matrices:
            assert verify_matrix_relations(sm)


def test_admissibility_rejects_nonprimitive():
    d = decomposition([segment((2, 0))])
    res = is_admissible(d)
    assert not res.ok
    assert "primitive" in res.violations[0]


def test_admissibility_rejects_dependent_vertices():
    bad = convex_hull([(0, 0), (1, 0), (2, 0), (1, 1)])
    # vertices (1,0),(2,0) are not independent... build a summand with three
    # nonzero vertices in the plane instead
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    res = is_admissible(decomposition([sq]))
    assert not res.ok
    assert "independent" in res.violations[0]


def test_point_summand_needs_company():
    origin_only = convex_hull([(0, 0)])
    res = is_admissible(decomposition([origin_only]))
    assert not res.ok
    res2 = is_admissible(decomposition([origin_only, triangle()]))
    assert res2.ok


def test_admissibility_memo_keeps_equality_and_hash(d_q5):
    memo = d_q5.admissibility
    assert memo.ok and d_q5.admissibility is memo
    assert memo == is_admissible(d_q5)
    fresh = decomposition([triangle(), segment((1, 1))])
    assert "admissibility" in vars(d_q5) and "admissibility" not in vars(fresh)
    assert d_q5 == fresh and hash(d_q5) == hash(fresh)
    # the lru_cache of sigma_tilde keys on the decomposition
    assert sigma_tilde(fresh) is sigma_tilde(d_q5)


# every function that reads one summand's matrix package, called on
# summand p; the chart oracle reads it as the library does
PER_SUMMAND = {
    "summand_at": summand_at,
    "relation_xy": smoothing.relation_xy,
    "relation_w": lambda d, p: smoothing.relation_w(d, p, 1),
    "express_in_chart": lambda d, p: express_in_chart(d, (1, 0), p, False),
    "fibre_model": smoothing.fibre_model,
    "collapsing_cycles": fibration.collapsing_cycles,
    "regions": fibration.regions,
    "monodromy": lambda d, p: fibration.monodromy(d, p, 1),
    "affine_monodromy": lambda d, p: fibration.affine_monodromy(d, p, 1),
    "transfer_cut": lambda d, p: fibration.transfer_cut(fibration.BaseDiagram(d, frozenset()), p),
}

# every function that gates on admissibility, called on summand 1 where it
# takes one
ADMISSIBILITY_GATES = {
    "require_admissible": require_admissible,
    "sigma_tilde": sigma_tilde,
    "generator_set": smoothing.generator_set,
    "new_base_diagram": fibration.new_base_diagram,
    "build_potential": potential.build_potential,
    "critical_exists": potential.critical_exists,
    **{name: (lambda d, f=f: f(d, 1)) for name, f in PER_SUMMAND.items()},
}


@pytest.mark.parametrize("gate", sorted(ADMISSIBILITY_GATES))
def test_inadmissible_rejected_at_every_gate(gate):
    d = decomposition([segment((2, 0)), triangle()])
    with pytest.raises(NotAdmissible, match="primitive"):
        ADMISSIBILITY_GATES[gate](d)
    assert not d.admissibility.ok


@pytest.mark.parametrize("p", [0, -1, 3], ids=["zero", "negative", "k+1"])  # Q5 has k = 2
@pytest.mark.parametrize("name", sorted(PER_SUMMAND))
def test_summand_index_checked_by_every_reader(d_q5, name, p):
    # no negative indexing into the summand matrices: -1 is not summand k
    with pytest.raises(IndexError, match=rf"^summand index {p} out of range$"):
        PER_SUMMAND[name](d_q5, p)
