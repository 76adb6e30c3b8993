import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minksmooth import cone as cone_module
from minksmooth.cone import cone_over, cones_equal, dual
from minksmooth.exactlin import support, transpose, unimodular_inverse
from minksmooth.fibration import (
    AlreadyApplied,
    CutsRemaining,
    affine_monodromy,
    collapsing_cycles,
    final_cone,
    height_one_normalization,
    monodromy,
    new_base_diagram,
    regions,
    transfer_cut,
)
from minksmooth.polytope import convex_hull, is_admissible, phi

from cone_oracle import final_cone_all_vertex_sums
from conftest import lens
from diagram_oracle import boundary_height, region_map
from linalg_oracle import det, mat_mul
from test_potential import _planar, _planar_summands


def test_collapsing_cycles_q5(d_q5):
    assert {c.vector for c in collapsing_cycles(d_q5, 1)} == {(1, 0), (0, 1), (1, -1)}
    assert {c.vector for c in collapsing_cycles(d_q5, 2)} == {(1, 1)}


def test_collapsing_cycle_count(all_fixtures):
    for d in all_fixtures.values():
        mats = is_admissible(d).matrices
        for p in range(1, d.k + 1):
            m = mats[p - 1].m
            assert len(collapsing_cycles(d, p)) == m + m * (m - 1) // 2


def test_segment_summand_single_cycle(d_lens21):
    cyc = collapsing_cycles(d_lens21, 2)
    assert [c.vector for c in cyc] == [(1, 2)]


def test_regions_q5(d_q5):
    fan1 = regions(d_q5, 1)
    assert fan1[0].normals == ((0, 1), (1, 0))
    assert fan1[1].normals == ((0, -1), (1, -1))
    assert fan1[2].normals == ((-1, 0), (-1, 1))
    fan2 = regions(d_q5, 2)
    assert fan2[0].normals == ((1, 1),)
    assert fan2[1].normals == ((-1, -1),)


def _region_contains(r, lam) -> bool:
    """Whether ``lam`` is in the open region ``r``: <a, lam> > 0 on each of its normals."""
    return all(sum(a * x for a, x in zip(n, lam)) > 0 for n in r.normals)


def test_regions_partition(all_fixtures):
    rng = random.Random(555)
    for d in all_fixtures.values():
        fans = [regions(d, p) for p in range(1, d.k + 1)]
        samples = 0
        while samples < 1000:
            lam = (Fraction(rng.randint(-40, 40), 7), Fraction(rng.randint(-40, 40), 9))
            hit_wall = False
            for fan in fans:
                for r in fan:
                    if any(sum(a * x for a, x in zip(n, lam)) == 0 for n in r.normals):
                        hit_wall = True
            if hit_wall:
                continue
            samples += 1
            for p, fan in enumerate(fans, start=1):
                count = sum(1 for r in fan if _region_contains(r, lam))
                assert count == 1, f"lambda {lam} lies in {count} regions of summand {p}"


Q5_TOPOLOGICAL_SHEARS = {
    (1, 1): ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
    (1, 2): ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    (2, 1): ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
}
Q5_AFFINE_SHEARS = {
    (1, 1): ((1, 0, 0), (0, 1, 0), (0, -1, 1)),
    (1, 2): ((1, 0, 0), (0, 1, 0), (-1, 0, 1)),
    (2, 1): ((1, 0, 0), (0, 1, 0), (-1, -1, 1)),
}


def test_monodromies_known_matrices(d_q5):
    for (p, j), expected in Q5_TOPOLOGICAL_SHEARS.items():
        assert monodromy(d_q5, p, j) == expected
    for (p, j), expected in Q5_AFFINE_SHEARS.items():
        assert affine_monodromy(d_q5, p, j) == expected


def test_monodromy_determinants(all_fixtures):
    for d in all_fixtures.values():
        mats = is_admissible(d).matrices
        for p in range(1, d.k + 1):
            for j in range(1, mats[p - 1].m + 1):
                assert det(monodromy(d, p, j)) == 1
                assert det(affine_monodromy(d, p, j)) == 1


def test_affine_is_transpose_inverse(all_fixtures):
    for d in all_fixtures.values():
        mats = is_admissible(d).matrices
        for p in range(1, d.k + 1):
            for j in range(1, mats[p - 1].m + 1):
                top = monodromy(d, p, j)
                assert affine_monodromy(d, p, j) == transpose(unimodular_inverse(top))
                prod = mat_mul(affine_monodromy(d, p, j), transpose(top))
                assert prod == tuple(
                    tuple(1 if a == b else 0 for b in range(d.n + 1)) for a in range(d.n + 1)
                )


def test_cross_wall_cancellation(all_fixtures):
    for d in all_fixtures.values():
        mats = is_admissible(d).matrices
        for p in range(1, d.k + 1):
            rows = mats[p - 1].v
            for i in range(1, len(rows) + 1):
                for j in range(1, len(rows) + 1):
                    if i == j:
                        continue
                    prod = mat_mul(
                        affine_monodromy(d, p, i),
                        unimodular_inverse(affine_monodromy(d, p, j)),
                    )
                    expected_last = tuple(
                        a - b for a, b in zip(rows[j - 1], rows[i - 1])
                    ) + (1,)
                    assert prod[-1] == expected_last
                    assert all(
                        prod[r] == tuple(1 if r == cix else 0 for cix in range(d.n + 1))
                        for r in range(d.n)
                    )


def test_monodromies_q6_first_known_matrices(d_q6_first):
    # the displayed shears of the hexagon's two-triangle analysis
    cols = {(1, 1): (1, 0), (1, 2): (1, 1), (2, 1): (0, 1), (2, 2): (1, 1)}
    for (p, j), col in cols.items():
        top = monodromy(d_q6_first, p, j)
        assert tuple(row[-1] for row in top) == col + (1,)
        assert affine_monodromy(d_q6_first, p, j)[-1] == tuple(-x for x in col) + (1,)


def test_regions_q6_first_known_systems(d_q6_first):
    fan1 = regions(d_q6_first, 1)
    assert fan1[0].normals == ((1, 0), (1, 1))  # x1 > 0, x1 + x2 > 0
    assert fan1[1].normals == ((-1, 0), (0, 1))  # x1 < 0, x2 > 0
    assert fan1[2].normals == ((-1, -1), (0, -1))  # x1 + x2 < 0, x2 < 0
    fan2 = regions(d_q6_first, 2)
    assert fan2[0].normals == ((0, 1), (1, 1))


def test_monodromy_index_errors(d_q5):
    with pytest.raises(IndexError):
        monodromy(d_q5, 1, 3)
    with pytest.raises(IndexError):
        affine_monodromy(d_q5, 2, 2)


def test_transfer_cut_heights_q5(d_q5):
    b = new_base_diagram(d_q5)
    assert boundary_height(b, (-1, -1)) == 0
    b1 = transfer_cut(b, 1)
    assert boundary_height(b1, (-1, -1)) == 1
    b2 = transfer_cut(b1, 2)
    assert boundary_height(b2, (-1, -1)) == 3
    with pytest.raises(AlreadyApplied):
        transfer_cut(b2, 1)


def test_transfer_cut_q6_height(d_q6_first):
    b = new_base_diagram(d_q6_first)
    for p in (1, 2):
        b = transfer_cut(b, p)
    assert boundary_height(b, (-1, 0)) == 2


def test_diagram_metadata(d_q5):
    b = transfer_cut(new_base_diagram(d_q5), 1)
    assert b.cut_direction == (0, 0, 1)
    assert {c.vector for c in collapsing_cycles(b.decomposition, 1)} == {(1, 0), (0, 1), (1, -1)}
    assert region_map(b, 1, 0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert region_map(b, 1, 1) == affine_monodromy(d_q5, 1, 1)
    with pytest.raises(ValueError):
        region_map(b, 2, 1)


def test_final_cone_requires_all_cuts(d_q5):
    b = transfer_cut(new_base_diagram(d_q5), 1)
    with pytest.raises(CutsRemaining):
        final_cone(b)


def test_final_boundary_is_support_of_target(all_fixtures):
    rng = random.Random(808)
    for d in all_fixtures.values():
        b = new_base_diagram(d)
        for p in range(1, d.k + 1):
            b = transfer_cut(b, p)
        for _ in range(500):
            c = (rng.randint(-7, 7), rng.randint(-7, 7))
            assert boundary_height(b, c) == support(d.target.vertices, c) == sum(phi(d, c))


def test_duality_on_all_fixtures(all_fixtures):
    for name, d in all_fixtures.items():
        b = new_base_diagram(d)
        for p in range(1, d.k + 1):
            b = transfer_cut(b, p)
        fc = final_cone(b)
        assert cones_equal(fc, dual(cone_over(d.target))), name
        assert fc == final_cone_all_vertex_sums(d), name


def _transferred(d):
    b = new_base_diagram(d)
    for p in range(1, d.k + 1):
        b = transfer_cut(b, p)
    return b


@settings(max_examples=40, deadline=None)
@given(st.lists(_planar_summands, min_size=1, max_size=4))
@example([[v] for v in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3))])
def test_final_cone_matches_all_vertex_sums(summands):
    # the base-diagram theorem: the region above the summed support terms
    # is the dual of the cone over the target
    d = _planar(summands)
    assert final_cone(_transferred(d)) == final_cone_all_vertex_sums(d)


def test_final_cone_lens21(d_lens21):
    b = new_base_diagram(d_lens21)
    for p in (1, 2):
        b = transfer_cut(b, p)
    fc = final_cone(b)
    # inequality description: the four listed normals (generators of sigma)
    sigma = cone_over(d_lens21.target)
    assert set(sigma.generators) == {(0, 0, 1), (1, 0, 1), (1, 2, 1), (2, 2, 1)}
    assert cones_equal(fc, dual(sigma))


def test_height_one_q5(d_q5):
    b = new_base_diagram(d_q5)
    for p in (1, 2):
        b = transfer_cut(b, p)
    res = height_one_normalization(final_cone(b))
    assert res is not None
    mat, qdual = res
    assert mat[-1] == (1, 1, 1)
    assert set(qdual.vertices) == {(-1, -1), (-1, 1), (0, 1), (1, 0), (1, -1)}


def test_height_one_cubic(d_cubic):
    b = new_base_diagram(d_cubic)
    for p in (1, 2, 3):
        b = transfer_cut(b, p)
    res = height_one_normalization(final_cone(b))
    assert res is not None
    mat, qdual = res
    assert mat[-1] == (1, 1, 1)
    assert set(qdual.vertices) == {(-1, -1), (0, 1), (1, 0)}


def test_height_one_normalization_runs_no_double_description(monkeypatch, all_fixtures):
    # the shear puts every extreme ray at height one, so the heads are
    # already the vertex set and no hull is taken
    cones = [final_cone(_transferred(d)) for d in all_fixtures.values()]
    hulls = [convex_hull([r[:-1] for r in c.generators]) for c in cones]

    def refuse(*args):
        raise AssertionError("double description in height_one_normalization")

    monkeypatch.setattr(cone_module, "halfspace_description", refuse)
    results = [height_one_normalization(c) for c in cones]
    assert sum(res is not None for res in results) >= 2
    for res, hull in zip(results, hulls):
        assert res is None or res[1] == hull


def test_height_one_generic_lens_has_none():
    d = lens(3, 1)
    b = new_base_diagram(d)
    for p in (1, 2):
        b = transfer_cut(b, p)
    assert height_one_normalization(final_cone(b)) is None
