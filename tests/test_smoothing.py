from itertools import product

import pytest

from minksmooth.cone import dual
from minksmooth.exactlin import vec_add
from minksmooth.polytope import convex_hull, decomposition, phi, sigma_tilde
from minksmooth.smoothing import (
    Extra,
    GeneratorSet,
    T,
    WMinus,
    WPlus,
    X,
    Y,
    check_homogeneity,
    fibre_model,
    generator_set,
    relation_w,
    relation_xy,
    verify_generates,
)

from chart_oracle import UnknownLabel, express_in_chart, vector
from conftest import triangle


def by_kind(g, kind, i=None):
    return {vec for lab, vec in g.entries if lab.kind == kind and (i is None or lab.i == i)}


def test_generator_set_q5_matches_hand_values(d_q5):
    g = generator_set(d_q5)
    assert by_kind(g, "t") == {(0, 0, 1, 0), (0, 0, 0, 1)}
    assert by_kind(g, "x", 1) == {(1, 0, 0, 0), (0, 1, 0, 0)}
    assert vector(g, Y(1)) == (-1, -1, 1, 2)
    assert by_kind(g, "x", 2) == {(1, 0, 0, 0)}
    assert vector(g, Y(2)) == (-1, 0, 1, 1)
    assert by_kind(g, "w+", 2) | by_kind(g, "w-", 2) == {(1, -1, 1, 0), (-1, 1, 1, 0)}
    assert by_kind(g, "extra") == {(0, -1, 1, 1)}


def test_generator_set_single_triangle():
    d = decomposition([triangle()])
    g = generator_set(d)
    kinds = {lab.kind for lab, _ in g.entries}
    assert kinds == {"t", "x", "y"}
    assert len(g.entries) == 4  # t1, x11, x12, y1


def test_generator_tails_are_support_values(all_fixtures):
    for d in all_fixtures.values():
        g = generator_set(d)
        for lab, vec in g.entries:
            if lab.kind == "t":
                continue
            assert vec[d.n :] == phi(d, vec[: d.n])


def test_verify_generates_q5(d_q5):
    g = generator_set(d_q5)
    c = dual(sigma_tilde(d_q5))
    assert verify_generates(g, c, 3)


def test_verify_generates_full_basis_trivially(d_q5):
    from minksmooth.cone import hilbert_basis

    c = dual(sigma_tilde(d_q5))
    hb = hilbert_basis(c)
    g = GeneratorSet(2, 2, tuple((Extra(i + 1), v) for i, v in enumerate(hb.elements)))
    assert verify_generates(g, c, 3)


def test_verify_generates_fails_without_y1(d_q5):
    g = generator_set(d_q5)
    pruned = GeneratorSet(g.n, g.k, tuple(e for e in g.entries if e[0] != Y(1)))
    c = dual(sigma_tilde(d_q5))
    assert not verify_generates(pruned, c, 3)


def test_verify_generates_rejects_generator_outside_cone(d_q5):
    g = generator_set(d_q5)
    c = dual(sigma_tilde(d_q5))
    outside = (0, 0, -1, 0)
    assert not c.contains(outside)
    grown = GeneratorSet(g.n, g.k, g.entries + ((Extra(99), outside),))
    assert not verify_generates(grown, c, 3)


def test_verify_generates_ignores_box(d_q6_second):
    # the check is exact: no box is too small to see a missing basis element
    g = generator_set(d_q6_second)
    c = dual(sigma_tilde(d_q6_second))
    assert verify_generates(g, c, 1)
    pruned = GeneratorSet(g.n, g.k, g.entries[:-1])
    assert not verify_generates(pruned, c, 1)


def test_relation_xy_values(d_q5, d_q6_second):
    assert relation_xy(d_q5, 1) == (1, 2)
    assert relation_xy(d_q5, 2) == (1, 1)
    d1 = decomposition([triangle()])
    assert relation_xy(d1, 1) == (1,)
    for p in (1, 2, 3):
        beta = relation_xy(d_q6_second, p)
        assert beta[p - 1] == 1


def test_relation_w_values(d_q5, d_lens21):
    assert relation_w(d_q5, 2, 1) == (2, 0)
    eta = relation_w(d_lens21, 1, 1)
    assert eta[0] == 0
    with pytest.raises(IndexError):
        relation_w(d_q5, 1, 1)  # full-dimensional summand has no kernel column


def character(g, labels):
    """The character of a monomial in the labelled generators: the sum of
    their vectors."""
    return tuple(map(sum, zip(*(vector(g, lab) for lab in labels))))


def test_relations_reverify_as_binomials(all_fixtures):
    for d in all_fixtures.values():
        g = generator_set(d)
        from minksmooth.polytope import is_admissible

        mats = is_admissible(d).matrices
        for p in range(1, d.k + 1):
            beta = relation_xy(d, p)
            lhs = [Y(p)] + [X(p, l) for l in range(1, mats[p - 1].m + 1)]
            rhs = []
            for j, e in enumerate(beta, start=1):
                rhs += [T(j)] * e
            assert character(g, lhs) == character(g, rhs)
            for j in range(1, d.n - mats[p - 1].m + 1):
                eta = relation_w(d, p, j)
                lhs = (WPlus(p, j), WMinus(p, j))
                rhs = []
                for l, e in enumerate(eta, start=1):
                    rhs += [T(l)] * e
                assert character(g, lhs) == character(g, rhs)


def test_vector_lookup_by_label(d_q5):
    g = generator_set(d_q5)
    assert vector(g, T(1)) == (0, 0, 1, 0)
    assert character(g, (X(1, 1),)) != character(g, (T(1),))
    with pytest.raises(UnknownLabel):
        vector(g, X(9, 9))


def test_express_in_chart_z_character(d_q5):
    ce = express_in_chart(d_q5, (0, -1), 1, singular=True)
    assert ce.xi_plus == 1
    assert sorted(ce.xi_shifted) == [0, 1]
    assert ce.t_exponents[0] == 0
    assert sum(ce.t_exponents) == -1  # one inverse deformation parameter


def test_express_in_chart_basis_vector(d_q5):
    # a column of A is a pure x in both modes
    from minksmooth.polytope import is_admissible

    sm = is_admissible(d_q5).matrices[0]
    col = sm.a_column(0)
    plain = express_in_chart(d_q5, col, 1, singular=False)
    assert plain.xi_x == (1, 0) and plain.t_exponents == (0, 0)
    sing = express_in_chart(d_q5, col, 1, singular=True)
    assert sing.xi_plus == 0 and sing.xi_shifted == (1, 0)


def test_express_in_chart_w_minus(d_q5):
    ce = express_in_chart(d_q5, (-1, 1), 2, singular=True)
    assert ce.xi_plus == 0
    assert ce.xi_w == (1,)
    assert ce.t_exponents[1] == 0


def test_express_in_chart_zero_rejected(d_q5):
    with pytest.raises(ValueError):
        express_in_chart(d_q5, (0, 0), 1, singular=True)


def test_xi_plus_identity_exhaustive(all_fixtures):
    for d in all_fixtures.values():
        for p in range(1, d.k + 1):
            for zhat in product(range(-3, 4), repeat=d.n):
                if not any(zhat):
                    continue
                ce = express_in_chart(d, zhat, p, singular=True)
                assert ce.xi_plus >= 0
                assert all(x >= 0 for x in ce.xi_shifted)
                assert min((ce.xi_plus,) + ce.xi_shifted) == 0
                assert phi(d, zhat)[p - 1] == ce.xi_plus


def test_nonsingular_chart_reconstructs_with_tail(all_fixtures):
    # plain-mode coordinates recover the vector, and the deformation
    # exponents close the support tail exactly
    from minksmooth.polytope import is_admissible

    for d in all_fixtures.values():
        mats = is_admissible(d).matrices
        for p in range(1, d.k + 1):
            sm = mats[p - 1]
            for zhat in product(range(-2, 3), repeat=d.n):
                if not any(zhat):
                    continue
                ce = express_in_chart(d, zhat, p, singular=False)
                acc = (0,) * d.n
                tail = [0] * d.k
                for l in range(sm.m):
                    acc = vec_add(acc, tuple(ce.xi_x[l] * t for t in sm.a_column(l)))
                    tail = vec_add(tail, tuple(ce.xi_x[l] * t for t in phi(d, sm.a_column(l))))
                for l in range(sm.n - sm.m):
                    acc = vec_add(acc, tuple(ce.xi_w[l] * t for t in sm.c_column(l)))
                    tail = vec_add(tail, tuple(ce.xi_w[l] * t for t in phi(d, sm.c_column(l))))
                assert acc == zhat
                assert vec_add(tail, ce.t_exponents) == phi(d, zhat)


def test_chart_expressions_reconstruct_vector(d_q5):
    from minksmooth.polytope import is_admissible

    mats = is_admissible(d_q5).matrices
    for p in (1, 2):
        sm = mats[p - 1]
        for zhat in product(range(-2, 3), repeat=2):
            if not any(zhat):
                continue
            ce = express_in_chart(d_q5, zhat, p, singular=True)
            acc = tuple(ce.xi_plus * t for t in sm.b)
            for l in range(sm.m):
                acc = vec_add(acc, tuple(ce.xi_shifted[l] * t for t in sm.a_column(l)))
            for l in range(sm.n - sm.m):
                acc = vec_add(acc, tuple(ce.xi_w[l] * t for t in sm.c_column(l)))
            assert acc == zhat


def test_fibre_models(d_q5, d_cubic):
    f1 = fibre_model(d_q5, 1)
    assert len(f1.product_coords) == 3 and f1.unit_coords == ()
    f2 = fibre_model(d_q5, 2)
    assert len(f2.product_coords) == 2 and len(f2.unit_coords) == 1
    for p in (1, 2, 3):
        fc = fibre_model(d_cubic, p)
        assert len(fc.product_coords) == 3 and fc.unit_coords == ()
    with pytest.raises(IndexError):
        fibre_model(d_q5, 3)


def test_homogeneity_q5(d_q5):
    g = generator_set(d_q5)
    res = check_homogeneity(g)
    assert res is not None
    u, deg = res
    assert deg >= 1
    for vec in g.vectors():
        assert sum(a * b for a, b in zip(vec, u)) == deg


def test_homogeneity_across_fixtures(all_fixtures):
    # the cone-of-a-reflexive-polygon fixtures all carry the all-ones
    # grading; the trapezoid does not admit any grading at all
    for name, d in all_fixtures.items():
        res = check_homogeneity(generator_set(d))
        if name == "trapezoid":
            assert res is None
        else:
            u, deg = res
            assert deg == 1 and set(u) == {1}


def test_homogeneity_standard_basis():
    g = GeneratorSet(2, 0, ((Extra(1), (1, 0)), (Extra(2), (0, 1))))
    u, deg = check_homogeneity(g)
    assert deg == 1 and u == (1, 1)


def test_homogeneity_inconsistent():
    g = GeneratorSet(2, 0, ((Extra(1), (1, 0)), (Extra(2), (2, 0))))
    assert check_homogeneity(g) is None


def test_point_summand_contributes_only_deformation_slot():
    d = decomposition([convex_hull([(0, 0)]), triangle()])
    g = generator_set(d)
    assert all(any(vec) for _, vec in g.entries)  # never the zero vector
    assert not any(lab == Y(1) for lab, _ in g.entries)
    with pytest.raises(ValueError):
        relation_xy(d, 1)
    with pytest.raises(ValueError):
        fibre_model(d, 1)
    assert relation_xy(d, 2)[1] == 1

    assert verify_generates(g, dual(sigma_tilde(d)), 2)
