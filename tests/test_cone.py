import itertools
import random
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from minksmooth import cone as cone_module
from minksmooth.cone import (
    BasisTooLarge,
    NotFullDim,
    NotPointed,
    PolyhedralCone,
    cone_from_generators,
    cone_over,
    cones_equal,
    dual,
    fan_cones,
    halfspace_description,
    hilbert_basis,
    is_full_dimensional,
    is_strongly_convex,
    _canonical_vrep,
    _cone_basis,
    _irreducible,
    _lifted_candidates,
    _planar_hilbert_basis,
    _pulling,
    _slot_polytopes,
)
from minksmooth.exactlin import dot, identity, snf_invariant_factors, support, vec_sub
from minksmooth.polytope import NotAdmissible, convex_hull, decomposition, lattice_points, require_spanning, sigma_tilde

from box_oracle import (
    BoundTooSmall,
    box_hilbert_basis,
    lattice_points_in_box,
    order_interval_box,
    order_interval_hilbert_basis,
    semigroup_contains,
)
from cone_oracle import (
    cone_from_inequalities_two_pass,
    dd_dual,
    rank_pruned_halfspace_description,
    sigma_tilde_on_lattice_points,
    vertex_sum_rows,
)
from conftest import triangle
from linalg_oracle import inverse

Q5_SIGMA = {(0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 1, 1), (1, 2, 1)}
Q5_SIGMA_DUAL_GENS = {
    (-1, -1, 3),
    (-1, 0, 2),
    (-1, 1, 1),
    (0, -1, 2),
    (0, 0, 1),
    (0, 1, 0),
    (1, -1, 1),
    (1, 0, 0),
}
Q5_HILBERT = {
    (-1, -1, 1, 2),
    (-1, 0, 1, 1),
    (-1, 1, 1, 0),
    (0, -1, 1, 1),
    (1, -1, 1, 0),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
}


def test_cone_over_q5(d_q5):
    c = cone_over(d_q5.target)
    assert set(c.generators) == Q5_SIGMA


def test_cone_over_point():
    c = cone_over(convex_hull([(0, 0)]))
    assert c.generators == ((0, 0, 1),)


def test_cone_over_square_keeps_all_four():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    c = cone_over(sq)
    assert len(c.generators) == 4


def test_sigma_tilde_q5(d_q5):
    st = sigma_tilde(d_q5)
    expected = {(0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 1)}
    assert set(st.generators) == expected


def test_sigma_tilde_single_summand_collapses():
    d = decomposition([triangle()])
    st = sigma_tilde(d)
    assert cones_equal(st, cone_over(triangle()))


def test_sigma_tilde_three_segments(d_q6_second):
    st = sigma_tilde(d_q6_second)
    assert len(st.generators) == 6


def test_dual_q5_known_generators(d_q5):
    sv = dual(cone_over(d_q5.target))
    reference = cone_from_generators(sorted(Q5_SIGMA_DUAL_GENS), 3)
    assert cones_equal(sv, reference)
    assert set(sv.generators) == {(-1, -1, 3), (-1, 1, 1), (0, 1, 0), (1, -1, 1), (1, 0, 0)}


def test_dual_first_orthant_self_dual():
    c = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert cones_equal(dual(c), c)


def test_dual_two_dim_example():
    c = cone_from_generators([(1, 0), (1, 2)], 2)
    d = dual(c)
    assert set(d.generators) == {(0, 1), (2, -1)}
    # pairings nonnegative on a rational grid inside the cone
    for a in range(0, 5):
        for b in range(0, 5):
            pt = (a + b, 2 * b)
            assert all(dot(g, pt) >= 0 for g in d.inequalities)


def test_strong_convexity():
    assert is_strongly_convex(cone_over(convex_hull([(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)])))
    plane = cone_from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert not is_strongly_convex(plane)


def test_sigma_tilde_strongly_convex(d_q5):
    assert is_strongly_convex(sigma_tilde(d_q5))


def test_hilbert_q5(d_q5):
    hb = hilbert_basis(dual(sigma_tilde(d_q5)))
    assert set(hb.elements) == Q5_HILBERT


def test_hilbert_of_dual_cones_matches_listed_generators(d_q5, d_q6_first, d_cubic):
    # the generator lists of the dual cones in the worked examples are
    # precisely the Hilbert bases, extreme or not
    assert set(hilbert_basis(dual(cone_over(d_q5.target))).elements) == Q5_SIGMA_DUAL_GENS
    assert set(hilbert_basis(dual(cone_over(d_q6_first.target))).elements) == {
        (-1, 0, 2),
        (-1, 1, 1),
        (0, -1, 2),
        (0, 0, 1),
        (0, 1, 0),
        (1, -1, 1),
        (1, 0, 0),
    }
    assert set(hilbert_basis(dual(cone_over(d_cubic.target))).elements) == {
        (-1, -1, 3),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    }


def test_hilbert_first_orthant():
    c = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert set(hilbert_basis(c).elements) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def brute_force_hilbert(c, cap=4):
    """Oracle: lattice points with coordinates <= cap, irreducibility tested
    exhaustively against all cone points in the box."""
    pts = [p for p in lattice_points_in_box(c, cap) if any(p)]
    basis = []
    for h in pts:
        red = False
        for g in pts:
            if g != h:
                r = vec_sub(h, g)
                if any(r) and c.contains(r):
                    red = True
                    break
        if not red:
            basis.append(h)
    return set(basis)


def test_hilbert_small_cone_vs_bruteforce():
    c = cone_from_generators([(1, 0), (1, 2)], 2)
    hb = hilbert_basis(c)
    assert set(hb.elements) == {(1, 0), (1, 1), (1, 2)}
    assert set(hb.elements) == brute_force_hilbert(c)


def test_hilbert_contains_ray_generators():
    rng = random.Random(99)
    for _ in range(25):
        gens = [tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(3)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = cone_from_generators(gens, 2)
        if not (is_strongly_convex(c) and is_full_dimensional(c)):
            continue
        hb = hilbert_basis(c)
        for r in c.generators:
            assert r in hb.elements


def test_hilbert_minimality_and_generation():
    rng = random.Random(4242)
    cones = 0
    while cones < 12:
        gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = cone_from_generators(gens, 3)
        if not (is_strongly_convex(c) and is_full_dimensional(c)):
            continue
        cones += 1
        hb = hilbert_basis(c)
        box = [p for p in lattice_points_in_box(c, 5) if any(p)]
        # minimality: no basis element splits as g + (cone lattice point)
        for h in hb.elements:
            for g in box:
                if g == h:
                    continue
                r = vec_sub(h, g)
                assert not (any(r) and c.contains(r)), f"{h} = {g} + {r} is reducible"
        # generation: every box point is a nonnegative combination
        for p in box:
            assert semigroup_contains(hb.elements, p, 10 ** 6)


def test_hilbert_requires_pointed_and_fulldim():
    halfplane = cone_from_generators([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(NotPointed):
        hilbert_basis(halfplane)
    flat = cone_from_generators([(1, 0)], 2)
    with pytest.raises(NotFullDim):
        hilbert_basis(flat)


def test_bidual_on_random_pointed_cones():
    rng = random.Random(31337)
    count = 0
    while count < 200:
        dim = rng.randint(2, 4)
        gens = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(rng.randint(2, 6))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = cone_from_generators(gens, dim)
        if not (is_strongly_convex(c) and is_full_dimensional(c)):
            continue
        count += 1
        assert dual(c) == dd_dual(c)
        assert cones_equal(dual(dual(c)), c)


def test_bidual_holds_even_without_pointedness():
    rng = random.Random(2025)
    for _ in range(60):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(0, 6))]
        gens = [g for g in gens if any(g)]
        if rng.random() < 0.4 and gens:
            gens.append(tuple(-x for x in gens[0]))  # force a lineality direction
        c = cone_from_generators(gens, dim)
        if is_strongly_convex(c) and is_full_dimensional(c):
            assert dual(c) == dd_dual(c)
        else:
            assert cones_equal(dual(c), dd_dual(c))
        assert cones_equal(dual(dual(c)), c)
        for g in c.generators:
            assert c.contains(g)


@st.composite
def inequality_systems(draw):
    dim = draw(st.integers(1, 4))
    # fewer than dim normals always leave a lineality space
    ineqs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=6))
    if ineqs and draw(st.booleans()):
        # an opposite pair cuts a hyperplane: a lower-dimensional cone
        ineqs.append(tuple(-x for x in ineqs[0]))
    return ineqs, dim


@settings(max_examples=60, deadline=None)
@given(inequality_systems())
def test_cone_from_inequalities_matches_two_pass_oracle(system):
    # the cone cut out by some normals is the dual of the cone they generate
    assert dual(cone_from_generators(*system)) == cone_from_inequalities_two_pass(*system)


def _segments(*vecs):
    return decomposition([convex_hull([(0,) * len(v), v]) for v in vecs])


def _tagged_vertices(d):
    """The generators of sigma-tilde: each summand vertex tagged by its slot."""
    k = len(d.summands)
    rows = [v + tuple(int(j == i) for j in range(k)) for i, s in enumerate(d.summands) for v in s.vertices]
    return rows, d.n + k


@st.composite
def dd_systems(draw):
    dim = draw(st.integers(1, 5))
    # fewer than dim rows always leave a lineality space
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=9))
    if rows and draw(st.booleans()):
        # an opposite pair cuts a hyperplane
        rows.insert(draw(st.integers(0, len(rows))), tuple(-x for x in draw(st.sampled_from(rows))))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (0,) * dim)
    return rows, dim


def _last_hull_rows(*vecs):
    """The generators of the last hull that parsing segments to ``vecs``
    takes: each vertex of the sum of all but the last segment plus each end
    of the last one, with a 1 appended."""
    head, v = _segments(*vecs[:-1]).target.vertices, vecs[-1]
    return sorted({tuple(x + s * y for x, y in zip(w, v)) + (1,) for w in head for s in (0, 1)}), len(v) + 1


_PLANAR_16 = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (2, 3), (3, 2),
              (1, 3), (3, 1), (3, 4), (4, 3), (1, 4), (4, 1), (3, 5), (5, 3))


@settings(max_examples=150, deadline=None)
@given(dd_systems())
@example((vertex_sum_rows(_segments((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3))), 3))
@example(_last_hull_rows(*_PLANAR_16))
@example(_tagged_vertices(_segments((1, 0, 0), (0, 1, 0), (0, 0, 1))))
@example(([(1, 0, 0), (-1, 0, 0), (0, 1, 1)], 3))
# the first positive/negative pair, e1 and e2, shares no tight row and is
# adjacent: the lineality line e3 lowers the rows an adjacent pair shares
@example(([(1, 0, 0), (0, 1, 0), (1, -2, 0)], 3))
def test_adjacency_kernel_matches_rank_pruned_oracle(system):
    # zero rows, repeated rows, lineality and hyperplane cuts included
    assert halfspace_description(*system) == rank_pruned_halfspace_description(*system)


@st.composite
def sparse_systems(draw):
    """Rows that are mostly zeros, with a few entries of +-1 or +-2: most
    values of a row on the lineality basis and the rays are 0, and most
    projections and combinations have content 1."""
    dim = draw(st.integers(2, 8))
    entry = st.sampled_from([1, -1, 2, -2])
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = [0] * dim
        for j in draw(st.lists(st.integers(0, dim - 1), max_size=3)):
            row[j] = draw(entry)
        rows.append(tuple(row))
    return rows, dim


def _flat_hull_rows(n):
    """The rows of the first pass of a hull of 0, e1 and e2 in dimension n,
    each with a 1 appended, as parsing the segments to e1 and e2 hulls."""
    unit = lambda i: tuple(int(j == i) for j in range(n))
    return [(0,) * n + (1,), unit(0) + (1,), unit(1) + (1,)], n + 1


_FLAT6_FIRST = _flat_hull_rows(6)
_FLAT6_SECOND = list(_canonical_vrep(*halfspace_description(*_FLAT6_FIRST))), 7


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
# both passes of a hull in dimension 6 that spans a plane: nearly every
# value is 0 and every projection has content 1
@example(_FLAT6_FIRST)
@example(_FLAT6_SECOND)
def test_sparse_systems_match_rank_pruned_oracle(system):
    assert halfspace_description(*system) == rank_pruned_halfspace_description(*system)


@pytest.mark.parametrize(
    "system",
    [
        ([(1, 0)], 3),  # the first row, on the lineality space
        ([(1, 0, 0, 2)], 3),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1)], 3),  # a row after the rays
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1, 1)], 3),
    ],
)
def test_double_description_refuses_a_normal_of_the_wrong_length(system):
    with pytest.raises(ValueError, match="dimension mismatch"):
        halfspace_description(*system)


def test_double_description_makes_no_rank_call(monkeypatch, d_q6_first):
    systems = [
        (vertex_sum_rows(d_q6_first), 3),
        _tagged_vertices(d_q6_first),
        ([(1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 0)], 3),  # one redundant row
        ([(1, 0, 2), (0, 1, -1)], 3),  # a lineality line
    ]
    expected = [rank_pruned_halfspace_description(*system) for system in systems]

    def refuse(*args):
        raise AssertionError("rank computed inside the double description")

    monkeypatch.setattr(cone_module, "rank", refuse)
    assert [halfspace_description(*system) for system in systems] == expected


def test_fan_cones_make_no_rank_call(monkeypatch, all_fixtures):
    # vertices and edges of Q come from ray incidences alone; in the 4-d
    # input the repeated segment puts partial sums inside edges of Q whose
    # normal cones have four rays, so counting tight rays is not enough
    ds = list(all_fixtures.values()) + [
        _segments((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 1, 1)),
        _segments((-1, -1, 1, 0), (0, 0, -1, 1), (-1, 0, 1, 0), (0, -1, -1, -1), (-1, -1, 1, -1), (-1, -1, 1, 0)),
    ]
    cases = []
    for d in ds:
        verts = d.target.vertices
        expected = {u: cone_from_inequalities_two_pass([vec_sub(w, u) for w in verts if w != u], d.n) for u in verts}
        cases += [(c, expected) for c in (dual(sigma_tilde(d)), dual(cone_over(d.target)))]

    def refuse(*args):
        raise AssertionError("rank computed inside fan_cones")

    monkeypatch.setattr(cone_module, "rank", refuse)
    for c, expected in cases:
        assert {u: cu for u, (cu, _) in fan_cones(c, _slot_polytopes(c)).items()} == expected


def test_cones_equal_permutation_and_difference():
    a = cone_from_generators([(1, 0), (0, 1)], 2)
    b = cone_from_generators([(0, 1), (1, 0)], 2)
    assert cones_equal(a, b)
    c = cone_from_generators([(1, 0), (1, 1)], 2)
    assert not cones_equal(a, c)


def test_semigroup_contains_examples():
    gens = sorted(Q5_HILBERT)
    assert semigroup_contains(gens, (0, -1, 1, 1), 5)
    assert semigroup_contains([(1, 0), (0, 1)], (0, 0), 1)
    assert not semigroup_contains([(1, 0), (0, 1)], (-1, 0), 5)


def test_semigroup_bound_too_small():
    # (3, 3) needs coefficient sum 6 with the standard basis, and the
    # functional cannot certify exhaustion below that
    with pytest.raises(BoundTooSmall):
        semigroup_contains([(1, 0), (0, 1)], (3, 3), 2)
    assert semigroup_contains([(1, 0), (0, 1)], (3, 3), 6)


def test_semigroup_definitive_negative_with_certificate():
    # (1, 1) is not reachable from (2, 0), (0, 2) parity-wise; the functional
    # value is small so the search is exhaustive and returns a clean False
    assert not semigroup_contains([(2, 0), (0, 2)], (1, 1), 50)


def test_unstructured_cone_keeps_box_scan_answer():
    # one facet normal (1, 0) has no unit tail, so the cone is not a lifted
    # cone: the planar one takes the continued fraction walk, the spatial one
    # the box scan, and both keep the box scan's answer
    c = cone_from_generators([(1, 0), (1, 2)], 2)
    assert _slot_polytopes(c) is None
    assert hilbert_basis(c).elements == ((1, 0), (1, 1), (1, 2))
    mixed = cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
    assert _slot_polytopes(mixed) is None
    assert hilbert_basis(mixed).elements == box_hilbert_basis(mixed)


def test_hilbert_bases_run_no_double_description(monkeypatch, d_q6_second):
    # the fan cones come from the lifted cone's rays and the box from the
    # zonotope, so neither path needs a double description
    cones = [
        dual(sigma_tilde(d_q6_second)),
        dual(cone_over(d_q6_second.target)),
        cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3),
    ]

    def refuse(*args):
        raise AssertionError("double description on the Hilbert-basis path")

    monkeypatch.setattr(cone_module, "halfspace_description", refuse)
    monkeypatch.setattr(cone_module, "hilbert_basis", cone_module.hilbert_basis.__wrapped__)
    for c in cones:
        assert cone_module.hilbert_basis(c).elements


def test_lifted_cone_of_absolute_value():
    # {(v, s) : s >= |v|} has normals (1, 1) and (-1, 1): one slot, and its
    # normal fan cones are the two half-lines of Z
    c = cone_from_generators([(1, 1), (-1, 1)], 2)
    assert _slot_polytopes(c) == [[(-1,), (1,)]]
    assert hilbert_basis(c).elements == ((-1, 1), (0, 1), (1, 1))


def test_lifted_path_drops_reducible_tag(d_no_critical):
    # on the trapezoid t_1 = (0, -1, 1, 0) + (0, 1, 0, 0) is reducible
    c = dual(sigma_tilde(d_no_critical))
    assert _slot_polytopes(c) is not None
    hb = hilbert_basis(c).elements
    assert (0, 0, 1, 0) not in hb and {(0, -1, 1, 0), (0, 1, 0, 0)} <= set(hb)
    assert hb == box_hilbert_basis(c)


def test_lifted_basis_sizes_match_box_scan():
    # the largest lifted cones whose box-scan oracle stays within seconds
    cases = {
        ((1, 0), (0, 1), (1, 1), (1, -1)): 12,
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)): 6,
        ((1, 1), (1, 1), (1, -1)): 11,
    }
    for vecs, size in cases.items():
        d = decomposition([convex_hull([(0,) * len(v), v]) for v in vecs])
        c = dual(sigma_tilde(d))
        assert len(hilbert_basis(c).elements) == size
        assert hilbert_basis(c).elements == box_hilbert_basis(c)


def _zonotope_box_size(c):
    """Lattice points in the bounding box of the zonotope of the extreme
    rays; it tracks the work of the box-scan oracle on ``c``."""
    return prod(
        sum(max(x, 0) for x in col) - sum(min(x, 0) for x in col) + 1 for col in zip(*c.generators)
    )


def _admissible_summand(n):
    vecs = st.tuples(*[st.integers(-2, 2)] * n)
    return (
        st.integers(1, n)
        .flatmap(lambda m: st.lists(vecs, min_size=m, max_size=m, unique=True))
        # nonzero vertices that extend to a lattice basis
        .filter(lambda vs: all(f == 1 for f in snf_invariant_factors(tuple(vs))))
        .map(lambda vs: convex_hull([(0,) * n] + vs))
    )


admissible_decompositions = st.sampled_from([2, 3]).flatmap(
    lambda n: st.lists(_admissible_summand(n), min_size=1, max_size=3)
).map(decomposition)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(admissible_decompositions)
def test_lifted_hilbert_basis_matches_box_scan(d):
    assume(is_full_dimensional(cone_over(d.target)))
    cones = (dual(sigma_tilde(d)), dual(cone_over(d.target)))
    # the oracle's cost grows with the volume of its box in dimension n + k,
    # up to minutes on the largest draws; they are skipped for time alone
    assume(all(_zonotope_box_size(c) <= 2_000 for c in cones))
    for c in cones:
        assert _slot_polytopes(c) is not None
        assert hilbert_basis(c).elements == box_hilbert_basis(c)


@settings(max_examples=40, deadline=None)
@given(admissible_decompositions)
@example(_segments((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3)))
@example(_segments((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 1, 1)))
def test_fan_cones_match_two_pass_oracle(d):
    # both lifted cones have the target as Q; each fan cone C_u, read off
    # the extreme rays and the edges at u, equals the double description of
    # {v : <v, w - u> >= 0 for every vertex w}
    assume(is_full_dimensional(cone_over(d.target)))
    verts = d.target.vertices
    for c in (dual(sigma_tilde(d)), dual(cone_over(d.target))):
        slots = _slot_polytopes(c)
        cones = fan_cones(c, slots)
        assert tuple(cones) == verts
        for u, (cu, parts) in cones.items():
            assert cu == cone_from_inequalities_two_pass([vec_sub(w, u) for w in verts if w != u], d.n)
            # u is the sum of one point of each slot
            assert [p in pts for p, pts in zip(parts, slots)] == [True] * len(slots)
            assert tuple(map(sum, zip(*parts))) == u


@st.composite
def pointed_cones(draw):
    dim = draw(st.integers(2, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=dim, max_size=dim + 2))
    c = cone_from_generators(gens, dim)
    assume(is_strongly_convex(c) and is_full_dimensional(c))
    return c


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pointed_cones())
@example(cone_from_generators([(1, 0), (1, 2)], 2))
@example(cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3))
@example(dual(sigma_tilde(_segments((1, 0), (0, 1), (1, 1)))))
def test_box_scan_matches_order_interval_oracle(c):
    # the oracle's box holds the zonotope's; draws whose box is too large to
    # scan within a second are skipped for time alone
    assume(prod(map(len, order_interval_box(c))) <= 20_000)
    assert box_hilbert_basis(c) == order_interval_hilbert_basis(c)


@settings(max_examples=30, deadline=None)
@given(admissible_decompositions)
def test_sigma_tilde_matches_lattice_point_oracle(d):
    assume(is_full_dimensional(cone_over(d.target)))
    assert sigma_tilde(d) == sigma_tilde_on_lattice_points(d)


# planar admissible decompositions sheared into dimension 3 by
# (x, y) -> (x, y, a x + b y), a split embedding of the lattice, so each
# summand stays admissible and the target spans only a plane
flat_decompositions = st.tuples(
    st.lists(_admissible_summand(2), min_size=1, max_size=3), st.integers(-2, 2), st.integers(-2, 2)
).map(lambda t: decomposition([convex_hull([(x, y, t[1] * x + t[2] * y) for x, y in s.vertices]) for s in t[0]]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(admissible_decompositions, flat_decompositions))
@example(_segments((1, 0), (1, 0)))
@example(_segments((1, 0, 0), (0, 1, 0)))
@example(_segments((1, 0, 2), (0, 1, -1), (1, 1, 1)))
def test_rank_gate_matches_the_cone_over_the_target(d):
    # the double description of sigma is the oracle: one rank of the
    # summands' vertices refuses exactly the targets that are not
    # full-dimensional
    if is_full_dimensional(cone_over(d.target)):
        require_spanning(d)
    else:
        with pytest.raises(NotAdmissible, match="not full-dimensional"):
            require_spanning(d)


# n = 1..3, k = 1..4, point summands included; a lone point is refused
lifted_decompositions = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.just(convex_hull([(0,) * n])) | _admissible_summand(n), min_size=1, max_size=4)
).map(decomposition)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(lifted_decompositions)
@example(_segments((1,), (1,)))
@example(decomposition([convex_hull([(0, 0)]), triangle()]))
@example(_segments((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
def test_cone_over_and_sigma_tilde_match_two_pass_oracle(d):
    # both cones know their extreme rays: the cone over Q takes one double
    # description pass, for its facets, and sigma-tilde reads its facets off
    # sigma's and the summand supports with none
    want_sigma = cone_from_generators([v + (1,) for v in d.target.vertices], d.n + 1)
    assume(d.admissibility.ok and is_full_dimensional(want_sigma))
    want_tilde = cone_from_generators(*_tagged_vertices(d))
    cone_over.cache_clear()
    sigma_tilde.cache_clear()
    with mock.patch.object(cone_module, "halfspace_description", wraps=halfspace_description) as dd:
        assert cone_over(d.target) == want_sigma
        assert dd.call_count == 1
        assert sigma_tilde(d) == want_tilde
        assert dd.call_count == 1


primitive_plane_vectors = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(
    lambda v: gcd(*v) == 1
)


@settings(max_examples=150, deadline=None)
@given(primitive_plane_vectors, primitive_plane_vectors)
@example((1, 0), (0, 1))  # det 1, rays on the axes
@example((0, -1), (1, 0))
@example((2, 1), (1, 1))  # det 1 off the axes
@example((1, 0), (1, 50))  # det 50: the 51 points (1, k)
@example((0, 1), (-49, -50))
@example((50, -49), (-49, 48))  # det -1 with long rays
@example((-1, 0), (3, -50))
def test_planar_walk_matches_box_scan(r1, r2):
    # the Hirzebruch-Jung walk against the zonotope box scan, with the two
    # rays stored in either order, so the walk flips them for either sign of
    # det[r1; r2]
    assume(r1[0] * r2[1] != r1[1] * r2[0])
    c = cone_from_generators([r1, r2], 2)
    want = box_hilbert_basis(c)
    for gens in ((r1, r2), (r2, r1)):
        assert _planar_hilbert_basis(PolyhedralCone(2, gens, c.inequalities)) == want
    assert hilbert_basis(c).elements == want


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(admissible_decompositions)
@example(_segments((1, 0), (0, 1), (1, 1), (1, -1)))
@example(_segments((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 1, 1)))
def test_lifted_basis_keeps_every_lift(d):
    # every lift (h, psi(h)) is irreducible, so testing only the unit tags
    # gives what the full reducibility pass over the candidates gives
    assume(is_full_dimensional(cone_over(d.target)))
    for c in (dual(sigma_tilde(d)), dual(cone_over(d.target))):
        slots = _slot_polytopes(c)
        assert hilbert_basis(c).elements == _irreducible(c, _lifted_candidates(c, slots))


def test_planar_walk_refuses_a_huge_basis():
    # (N, -1) and (0, -1) span a cone whose basis is (k, -1), k = 0..N
    small = cone_from_generators([(5, -1), (0, -1)], 2)
    assert _planar_hilbert_basis(small) == tuple((k, -1) for k in range(6))
    with pytest.raises(BasisTooLarge):
        _planar_hilbert_basis(cone_from_generators([(10**6, -1), (0, -1)], 2))
    huge = _segments((1, 10**300), (1, 0))
    with pytest.raises(BasisTooLarge):
        hilbert_basis(dual(sigma_tilde(huge)))
    with pytest.raises(BasisTooLarge):
        hilbert_basis(dual(cone_over(huge.target)))


@st.composite
def spatial_cones(draw):
    # 3 to 6 rays in dimension 3 or 4: simplicial or not, unimodular or not
    dim = draw(st.sampled_from([3, 4]))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=3, max_size=6))
    c = cone_from_generators(gens, dim)
    assume(is_strongly_convex(c) and is_full_dimensional(c))
    return c


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(spatial_cones())
@example(cone_from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3))  # a square, det 2
@example(cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 3)], 3))  # simplicial, det 3
@example(cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3))  # unimodular, not simplicial
@example(cone_from_generators([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2), (1, -1, 0, 3)], 4))
def test_parallelepiped_basis_matches_box_oracles(c):
    # the triangulation's parallelepipeds against both box scans; draws
    # whose boxes are too large to scan within a second are skipped for
    # time alone
    assume(_zonotope_box_size(c) <= 20_000 and prod(map(len, order_interval_box(c))) <= 20_000)
    want = box_hilbert_basis(c)
    assert _cone_basis.__wrapped__(c) == want
    assert order_interval_hilbert_basis(c) == want


# the cone over a 3-cube: its six facets are squares, so the pulling
# triangulation splits facets as well as the cone
CUBE_CONE = cone_from_generators([(x, y, z, 1) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], 4)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(spatial_cones())
@example(CUBE_CONE)
@example(cone_from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 2)], 3))
def test_pulling_triangulation_tiles_the_cone(c):
    # every simplex spans, every lattice point of the cone near the origin
    # lies in one of them, and none lies inside two
    rays = c.generators
    facets = [sum(1 << j for j, r in enumerate(rays) if not dot(a, r)) for a in c.inequalities]
    masks = _pulling((1 << len(rays)) - 1, c.ambient_dim, facets)
    inverses = [inverse([r for j, r in enumerate(rays) if m >> j & 1]) for m in masks]
    assert None not in inverses
    for pt in itertools.product(range(-4, 5), repeat=c.ambient_dim):
        if c.contains(pt):
            coords = [[sum(x * row[i] for x, row in zip(pt, inv)) for i in range(len(pt))] for inv in inverses]
            assert any(min(cs) >= 0 for cs in coords)
            assert sum(min(cs) > 0 for cs in coords) <= 1


def _lifted_by_box(c, verts):
    """The lifted cone's basis as it was built before fan cones were
    triangulated: a double description of each fan cone C_u, its box-scan
    basis, each element h lifted by the support of every slot at h, and the
    reducible candidates dropped."""
    slots = _slot_polytopes(c)
    n = c.ambient_dim - len(slots)
    candidates = {(0,) * n + tag for tag in identity(len(slots))}
    for u in verts:
        cu = cone_from_inequalities_two_pass([vec_sub(w, u) for w in verts if w != u], n)
        assume(_zonotope_box_size(cu) <= 20_000)
        candidates.update(h + tuple(support(pts, h) for pts in slots) for h in box_hilbert_basis(cu))
    return _irreducible(c, candidates)


# segments and unimodular triangles in dimension 3, up to four of them
spatial_decompositions = st.lists(
    st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=2, unique=True)
    .filter(lambda vs: all(f == 1 for f in snf_invariant_factors(tuple(vs))))
    .map(lambda vs: convex_hull([(0, 0, 0)] + vs)),
    min_size=1,
    max_size=4,
).map(decomposition)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(spatial_decompositions)
@example(_segments((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
@example(_segments((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 1, 1)))
@example(decomposition([convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)]), convex_hull([(0, 0, 0), (1, 2, 2)])]))
def test_spatial_lifted_bases_match_box_scans_of_fan_cones(d):
    # the linear lifts of the parallelepiped bases against the supports of
    # the box-scan bases, on both lifted cones of one input
    assume(is_full_dimensional(cone_over(d.target)))
    for c in (dual(sigma_tilde(d)), dual(cone_over(d.target))):
        assert hilbert_basis(c).elements == _lifted_by_box(c, d.target.vertices)


def test_parallelepipeds_are_counted_before_any_point_is_made(monkeypatch):
    def refuse(*args):
        raise AssertionError("a parallelepiped point was made")

    monkeypatch.setattr(cone_module, "_parallelepiped", refuse)
    # det 1: the rays are the basis, with no point made, where the box
    # oracle refuses a box of 10^300 points
    unimodular = cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 10**300, 1)], 3)
    assert _cone_basis.__wrapped__(unimodular) == unimodular.generators
    with pytest.raises(BasisTooLarge):
        box_hilbert_basis(unimodular)
    # det 10^300: the parallelepiped's 10^300 points are refused
    deep = cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 10**300)], 3)
    with pytest.raises(BasisTooLarge, match=f"hold {10**300} lattice points"):
        _cone_basis.__wrapped__(deep)
    # two simplices of det 600 000 each: the sum is what is bounded
    n = 300_000
    split = cone_from_generators([(1, 0, n), (0, 1, n), (-1, 0, n), (0, -1, n)], 3)
    with pytest.raises(BasisTooLarge, match="hold 1200000 lattice points"):
        _cone_basis.__wrapped__(split)


def test_box_scan_refuses_a_large_box_before_scanning(monkeypatch):
    # the volume is checked before any point is made: product() is never called
    monkeypatch.setattr(cone_module, "product", None)
    with pytest.raises(BasisTooLarge):
        box_hilbert_basis(cone_from_generators([(1, 0, 0), (0, 1, 0), (100, 101, 102)], 3))
    with pytest.raises(BasisTooLarge):
        box_hilbert_basis(cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 10**300, 1)], 3))
    with pytest.raises(BasisTooLarge):
        lattice_points(convex_hull([(0, 0), (10**300, 0), (0, 1)]))
