"""Acceptance suite: one test per exit criterion, everything exact except
the stated 1e-9 bound on numeric witness gradients."""

import random

from minksmooth import ratpoly
from minksmooth.cone import (
    cone_from_generators,
    cone_over,
    cones_equal,
    dual,
    hilbert_basis,
    is_full_dimensional,
    is_strongly_convex,
)
from minksmooth.exactlin import vec_sub
from minksmooth.fibration import (
    affine_monodromy,
    final_cone,
    height_one_normalization,
    monodromy,
    new_base_diagram,
    transfer_cut,
)
from minksmooth.polytope import sigma_tilde
from minksmooth.potential import build_potential, newton_polytope
from minksmooth.ratpoly import critical_exists
from minksmooth.smoothing import (
    Extra,
    GeneratorSet,
    T,
    WMinus,
    WPlus,
    X,
    Y,
    generator_set,
    relation_w,
    relation_xy,
    verify_generates,
)

from box_oracle import lattice_points_in_box, semigroup_contains
from chart_oracle import vector
import test_cone
import test_fibration
import test_polytope
import test_potential
import test_smoothing
from test_potential import z3_times


def transferred(d):
    b = new_base_diagram(d)
    for p in range(1, d.k + 1):
        b = transfer_cut(b, p)
    return b


def test_criterion_01_q5_hilbert_basis(d_q5):
    hb = hilbert_basis(dual(sigma_tilde(d_q5)))
    expected = {
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
    assert set(hb.elements) == expected


# A fixed hand assignment of characters for the pentagon.  The canonical
# pipeline builds
# the same vector sets; which x (resp. w+/w-) index lands on which vector is
# a free choice of vertex order and basis completion, so the fifteen
# binomials below are pinned against this explicit labeling.
Q5_LABELED = GeneratorSet(
    2,
    2,
    (
        (X(1, 1), (1, 0, 0, 0)),
        (X(1, 2), (0, 1, 0, 0)),
        (Y(1), (-1, -1, 1, 2)),
        (X(2, 1), (1, 0, 0, 0)),
        (Y(2), (-1, 0, 1, 1)),
        (WPlus(2, 1), (1, -1, 1, 0)),
        (WMinus(2, 1), (-1, 1, 1, 0)),
        (T(1), (0, 0, 1, 0)),
        (T(2), (0, 0, 0, 1)),
        (Extra(1), (0, -1, 1, 1)),  # the leftover character, traditionally z
    ),
)

_L = {
    "x11": X(1, 1),
    "x12": X(1, 2),
    "x21": X(2, 1),
    "y1": Y(1),
    "y2": Y(2),
    "w+": WPlus(2, 1),
    "w-": WMinus(2, 1),
    "t1": T(1),
    "t2": T(2),
    "z": Extra(1),
}

Q5_BINOMIALS = [
    (("x11", "t1"), ("x12", "w+")),
    (("x11", "y1"), ("z", "t2")),
    (("x11", "y2"), ("t1", "t2")),
    (("x11", "w-"), ("x12", "t1")),
    (("x11", "z"), ("w+", "t2")),
    (("x12", "y1"), ("y2", "t2")),
    (("x12", "y2"), ("w-", "t2")),
    (("x12", "z"), ("t1", "t2")),
    (("w+", "w-"), ("t1", "t1")),
    (("y2", "z"), ("y1", "t1")),
    (("w-", "z"), ("y2", "t1")),
    (("y2", "w+"), ("z", "t1")),
    (("y1", "w-"), ("y2", "y2")),
    (("y1", "w+"), ("z", "z")),
    (("y2", "y2", "w+"), ("w-", "z", "z")),
]


def test_criterion_02_q5_relations(d_q5):
    assert len(Q5_BINOMIALS) == 15
    for lhs, rhs in Q5_BINOMIALS:
        # a binomial holds when both sides sum to one character
        sums = [tuple(map(sum, zip(*(vector(Q5_LABELED, _L[s]) for s in side)))) for side in (lhs, rhs)]
        assert sums[0] == sums[1], (lhs, rhs)
    # the canonical pipeline reproduces the same character vectors
    g = generator_set(d_q5)
    assert set(g.vectors()) == set(Q5_LABELED.vectors())
    by_kind = lambda gs, kind: {v for lab, v in gs.entries if lab.kind == kind}
    for kind in ("t", "x", "y"):
        assert by_kind(g, kind) == by_kind(Q5_LABELED, kind)
    assert by_kind(g, "w+") | by_kind(g, "w-") == {(1, -1, 1, 0), (-1, 1, 1, 0)}
    # deformation exponent vectors
    assert relation_xy(d_q5, 1) == (1, 2)
    assert relation_xy(d_q5, 2) == (1, 1)
    assert relation_w(d_q5, 2, 1) == (2, 0)


def test_criterion_03_q5_monodromies(d_q5):
    displayed_topological = {
        (1, 1): ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
        (1, 2): ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
        (2, 1): ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
    }
    displayed_affine = {
        (1, 1): ((1, 0, 0), (0, 1, 0), (0, -1, 1)),
        (1, 2): ((1, 0, 0), (0, 1, 0), (-1, 0, 1)),
        (2, 1): ((1, 0, 0), (0, 1, 0), (-1, -1, 1)),
    }
    for (p, j), mat in displayed_topological.items():
        assert monodromy(d_q5, p, j) == mat
    for (p, j), mat in displayed_affine.items():
        assert affine_monodromy(d_q5, p, j) == mat


def test_criterion_04_duality_on_all_fixtures(all_fixtures):
    for name, d in all_fixtures.items():
        fc = final_cone(transferred(d))
        assert cones_equal(fc, dual(cone_over(d.target))), name


def test_criterion_05_height_one_normalization(d_q5, d_cubic):
    mat, qdual = height_one_normalization(final_cone(transferred(d_q5)))
    assert mat[-1] == (1, 1, 1)
    assert set(qdual.vertices) == {(-1, -1), (-1, 1), (0, 1), (1, 0), (1, -1)}
    mat3, qdual3 = height_one_normalization(final_cone(transferred(d_cubic)))
    assert mat3[-1] == (1, 1, 1)
    assert set(qdual3.vertices) == {(-1, -1), (0, 1), (1, 0)}


def test_criterion_06_potentials_term_for_term(all_fixtures):
    expected = {
        "q5": z3_times([(1, 1)], [(1, 0), (0, 1)]),
        "q6_first": z3_times([(1, 0), (1, 1)], [(0, 1), (1, 1)]),
        "q6_second": z3_times([(1, 0)], [(0, 1)], [(1, 1)]),
        "lens21": z3_times([(1, 0)], [(1, 2)]),
        "cubic": z3_times([(1, 0), (0, 1)], [(1, 0), (0, 1)], [(1, 0), (0, 1)]),
        "trapezoid": z3_times([(1, 0), (0, 1)], [(1, 0)]),
    }
    for name, d in all_fixtures.items():
        assert build_potential(d) == expected[name], name


def test_criterion_07_critical_points(all_fixtures):
    verdicts = {}
    for name, d in all_fixtures.items():
        verdicts[name] = critical_exists(d)
    assert verdicts["q5"].verdict == "finite" and verdicts["q5"].count == 2
    assert verdicts["q5"].families[0].z1_minpoly == (-1, 1, 1)
    assert verdicts["q5"].families[0].z2_minpoly == (-1, 1, 1)

    assert verdicts["q6_first"].verdict == "finite" and verdicts["q6_first"].count == 2
    fam = verdicts["q6_first"].families[0]
    assert fam.z1_minpoly == (1, 1, 1) and fam.z2_minpoly == (1, 1, 1)
    for z1, z2 in ratpoly.witnesses(verdicts["q6_first"])[0]:  # the two primitive cube roots, with z1 = z2
        assert abs(z1 - z2) < 1e-9
        assert abs(z1 ** 3 - 1) < 1e-9 and abs(z1 - 1) > 1e-9

    assert verdicts["q6_second"].verdict == "finite" and verdicts["q6_second"].count == 3
    pts = {
        (round(p[0].real), round(p[1].real))
        for points in ratpoly.witnesses(verdicts["q6_second"])
        for p in points
    }
    assert pts == {(-1, -1), (-1, 1), (1, -1)}

    assert verdicts["lens21"].verdict == "finite" and verdicts["lens21"].count == 2
    lens_fam = verdicts["lens21"].families[0]
    assert lens_fam.z1_minpoly == (1, 1) and lens_fam.z2_minpoly == (-1, 0, 1)

    assert verdicts["cubic"].verdict == "positive_dimensional"
    assert verdicts["trapezoid"].verdict == "none" and verdicts["trapezoid"].count == 0

    # every numeric witness kills the full gradient to 1e-9
    for name, rep in verdicts.items():
        if rep.verdict != "finite":
            continue
        po = build_potential(all_fixtures[name])
        for points in ratpoly.witnesses(rep):
            for z1, z2 in points:
                worst = max(abs(po.derivative(i).evaluate([z1, z2, 1.0])) for i in range(3))
                assert worst < 1e-9, (name, z1, z2, worst)


def test_criterion_08_newton_polytopes(all_fixtures):
    for name, d in all_fixtures.items():
        np_poly = newton_polytope(build_potential(d))
        assert np_poly.vertices == tuple(v + (1,) for v in d.target.vertices), name


def test_criterion_09_property_suites(all_fixtures):
    # the suites a unit test runs are run from there
    test_cone.test_bidual_on_random_pointed_cones()  # 200 random pointed cones
    test_polytope.test_eta0_equals_phi_total(all_fixtures)  # support additivity
    test_potential.test_mutation_fold_order_independent(all_fixtures)  # mutation fold = closed form
    test_potential.test_mutation_fold_on_random_decompositions()
    test_smoothing.test_xi_plus_identity_exhaustive(all_fixtures)  # singular-chart exponents
    test_fibration.test_cross_wall_cancellation(all_fixtures)  # shear cancellation

    # Hilbert minimality and generation against the brute-force box oracle
    rng = random.Random(777)
    cones = 0
    while cones < 8:
        gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = cone_from_generators(gens, 3)
        if not (is_strongly_convex(c) and is_full_dimensional(c)):
            continue
        cones += 1
        hb = hilbert_basis(c)
        box = [pt for pt in lattice_points_in_box(c, 5) if any(pt)]
        for h in hb.elements:
            for g in box:
                if g != h:
                    r = vec_sub(h, g)
                    assert not (any(r) and c.contains(r))
        for pt in box:
            assert semigroup_contains(hb.elements, pt, 10 ** 6)

def test_criterion_10_generator_sets_generate(d_q5, d_q6_first, d_q6_second):
    for d in (d_q5, d_q6_first, d_q6_second):
        g = generator_set(d)
        assert verify_generates(g, dual(sigma_tilde(d)), 3)
