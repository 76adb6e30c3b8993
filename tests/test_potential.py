import math
import operator
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Poly, cyclotomic_poly, primefactors, symbols
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.densearith import dup_exquo

from minksmooth import numeric
from minksmooth import ratpoly as rp
from minksmooth import zpoly as zp
from minksmooth.cone import cone_over
from minksmooth.exactlin import hnf, rank
from minksmooth.pipeline import _newton_is_target, parse_input
from minksmooth.polytope import OriginNotVertex, convex_hull, decomposition, require_admissible, summand_at
from minksmooth.potential import LaurentPoly, ZeroPolynomial, build_potential, newton_polytope
from minksmooth.ratpoly import critical_exists
from minksmooth.numeric import _lstsq_stack, _norm_below, _TermTable, heuristic_points

from conftest import lens, segment, triangle
import fibre_oracle
import newton_oracle
import ratpoly_oracle
from potential_oracle import factor, fold, mutate, newton_is_target


def expand(*term_lists):
    """Product of factors given as lists of exponent tuples (1 is implied)."""
    nvars = len(term_lists[0][0])
    out = LaurentPoly.one(nvars)
    for terms in term_lists:
        f = LaurentPoly.one(nvars)
        for t in terms:
            f = f + LaurentPoly.monomial(t)
        out = out * f
    return out


def z3_times(*term_lists):
    return LaurentPoly.monomial((0, 0, 1)) * expand(*[[t + (0,) for t in terms] for terms in term_lists])


laurent_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(-4, 4),
    ),
    max_size=5,
).map(lambda terms: LaurentPoly(2, {e: c for e, c in terms}))


@settings(max_examples=80, deadline=None)
@given(laurent_polys, laurent_polys, laurent_polys)
def test_laurent_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    # product rule for the formal derivative
    for var in range(2):
        left = (a * b).derivative(var)
        right = a.derivative(var) * b + a * b.derivative(var)
        assert left == right


def test_factor_examples():
    assert factor(segment((1, 1))) == expand([(1, 1)])
    assert factor(convex_hull([(0, 0)])) == LaurentPoly.one(2)
    assert factor(segment((1, 2))) == expand([(1, 2)])
    with pytest.raises(OriginNotVertex):
        factor(convex_hull([(1, 0), (2, 0)]))


def test_build_potential_q5(d_q5):
    assert build_potential(d_q5) == z3_times([(1, 1)], [(1, 0), (0, 1)])


def test_build_potential_cubic(d_cubic):
    tri = [(1, 0), (0, 1)]
    assert build_potential(d_cubic) == z3_times(tri, tri, tri)


def test_build_potential_q6_second(d_q6_second):
    assert build_potential(d_q6_second) == z3_times([(1, 0)], [(0, 1)], [(1, 1)])


def test_mutate_step_by_step(d_q5):
    start = LaurentPoly.monomial((0, 0, 1))
    after1 = mutate(start, triangle())
    assert after1 == z3_times([(1, 0), (0, 1)])
    after2 = mutate(after1, segment((1, 1)))
    assert after2 == build_potential(d_q5)


def test_mutate_by_point_is_identity():
    p = LaurentPoly.monomial((0, 0, 1))
    assert mutate(p, convex_hull([(0, 0)])) == p


def test_mutation_fold_order_independent(all_fixtures):
    for d in all_fixtures.values():
        closed = build_potential(d)
        for order in permutations(range(d.k)):
            p = LaurentPoly.monomial((0,) * d.n + (1,))
            for i in order:
                p = mutate(p, d.summands[i])
            assert p == closed


def random_admissible_decomposition(rng):
    """Random planar admissible decomposition: unimodular simplices/segments."""
    summands = []
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(1, 2)
        while True:
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(m)
            ]
            from minksmooth.exactlin import snf_invariant_factors

            if all(any(r) for r in rows):
                try:
                    if all(f == 1 for f in snf_invariant_factors(tuple(rows))):
                        break
                except ValueError:
                    pass
        summands.append(convex_hull([(0, 0)] + rows))
    return decomposition(summands)


def test_mutation_fold_on_random_decompositions():
    rng = random.Random(600613)
    for _ in range(50):
        d = random_admissible_decomposition(rng)
        closed = build_potential(d)
        p = LaurentPoly.monomial((0, 0, 1))
        for s in d.summands:
            p = mutate(p, s)
        assert p == closed


@st.composite
def summands(draw, n, bound):
    """A point, a segment or a triangle with the origin as a vertex: its
    nonzero vertices are rows of a lower unitriangular matrix with entries
    in [-bound, bound], columns permuted and signs flipped, so they extend
    to a lattice basis."""
    m = draw(st.integers(0, min(n, 2)))
    # hypothesis favours small integers: half the draws are at least bound / 2
    half = st.integers(bound // 2, bound)
    entries = st.integers(-bound, bound) | half | half.map(operator.neg)
    lower = [[int(i == j) or (draw(entries) if j < i else 0) for j in range(n)] for i in range(n)]
    cols = draw(st.permutations(range(n)))
    rows = [tuple(draw(st.sampled_from((1, -1))) * lower[r][c] for c in cols) for r in draw(st.permutations(range(n)))[:m]]
    return convex_hull([(0,) * n, *rows])


@st.composite
def decompositions(draw, n, bound):
    parts = draw(st.lists(summands(n, bound), min_size=1, max_size=4))
    assume(len(parts) > 1 or len(parts[0].vertices) > 1)
    return decomposition(parts)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 3), st.sampled_from((3, 10**300))).flatmap(lambda nb: decompositions(*nb)))
def test_packed_product_is_the_term_by_term_fold(d):
    # the same terms, inserted in the same order, which numeric's term
    # table sums in, at coordinates up to 10^300 too
    got, want = build_potential(d), fold(d)
    assert got == want
    assert list(got.terms) == list(want.terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_newton_check_matches_the_term_by_term_oracle(data):
    n = data.draw(st.integers(1, 3))
    d, other = data.draw(decompositions(n, 3)), data.draw(decompositions(n, 3))
    assume(rank(d.target.vertices) == n and rank(other.target.vertices) == n)
    po, sigma = build_potential(d), cone_over(d.target)
    assert _newton_is_target(po.terms, sigma) is newton_is_target(po, sigma) is True
    if other.target != d.target:
        # Newt(W) is Q, so it is not another polytope
        elsewhere = cone_over(other.target)
        assert _newton_is_target(po.terms, elsewhere) is newton_is_target(po, elsewhere) is False
    # a wrong potential: a term dropped, or one added at any height
    terms = dict(po.terms)
    if data.draw(st.booleans()):
        del terms[data.draw(st.sampled_from(sorted(terms)))]
    else:
        terms[data.draw(st.tuples(*[st.integers(-9, 9)] * n, st.integers(0, 2)))] = 1
    broken = LaurentPoly(n + 1, terms)
    assert _newton_is_target(broken.terms, sigma) is newton_is_target(broken, sigma)


def test_newton_polytope_is_target(all_fixtures):
    for d in all_fixtures.values():
        np_poly = newton_polytope(build_potential(d))
        assert np_poly.vertices == tuple(v + (1,) for v in d.target.vertices)


def test_newton_polytope_decomposition_independent(d_q6_first, d_q6_second):
    a = newton_polytope(build_potential(d_q6_first))
    b = newton_polytope(build_potential(d_q6_second))
    assert a == b


def test_newton_polytope_single_monomial_and_zero():
    assert newton_polytope(LaurentPoly.monomial((2, -1))).vertices == ((2, -1),)
    with pytest.raises(ZeroPolynomial):
        newton_polytope(LaurentPoly(2))


def test_partial_examples(d_q5):
    po = build_potential(d_q5)
    dz3 = po.derivative(2)
    assert dz3 == expand([(1, 1, 0)], [(1, 0, 0), (0, 1, 0)])
    assert not LaurentPoly.one(3).derivative(0)
    # Euler operator on a monomial multiplies by the total degree
    mono = LaurentPoly.monomial((2, 3, -1), 5)
    total = LaurentPoly(3)
    for i in range(3):
        shift = [0, 0, 0]
        shift[i] = 1
        total = total + LaurentPoly.monomial(tuple(shift)) * mono.derivative(i)
    assert total == LaurentPoly.monomial((2, 3, -1), 20)


def test_critical_q5(d_q5):
    rep = critical_exists(d_q5)
    assert rep.verdict == "finite" and rep.count == 2
    fam = rep.families[0]
    assert fam.z1_minpoly == (-1, 1, 1)
    assert fam.z2_minpoly == (-1, 1, 1)
    assert not fam.on_unit_circle


def test_critical_q6_first(d_q6_first):
    rep = critical_exists(d_q6_first)
    assert rep.verdict == "finite" and rep.count == 2
    fam = rep.families[0]
    assert fam.z1_minpoly == (1, 1, 1)
    assert fam.z2_minpoly == (1, 1, 1)
    assert fam.on_unit_circle


def test_critical_q6_second(d_q6_second):
    rep = critical_exists(d_q6_second)
    assert rep.verdict == "finite" and rep.count == 3
    pts = {
        (round(p[0].real), round(p[1].real))
        for points in rp.witnesses(rep)
        for p in points
    }
    assert pts == {(-1, -1), (-1, 1), (1, -1)}


def test_critical_lens(d_lens21):
    rep = critical_exists(d_lens21)
    assert rep.verdict == "finite" and rep.count == 2
    fam = rep.families[0]
    assert fam.z1_minpoly == (1, 1)
    assert fam.z2_minpoly == (-1, 0, 1)
    assert fam.on_unit_circle
    z2s = sorted(round(p[1].real) for p in rp.witnesses(rep)[0])
    assert z2s == [-1, 1]


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2)])
def test_critical_lens_family_counts(p, q):
    # first coordinate pinned to -1, second running over the p-th roots of
    # (-1)^(q+1), so exactly p isolated families in the torus
    d = lens(p, q)
    rep = critical_exists(d)
    assert rep.verdict == "finite" and rep.count == p
    fam = rep.families[0]
    assert fam.z1_minpoly == (1, 1)
    expected_ann = tuple([-((-1) ** (q + 1))] + [0] * (p - 1) + [1])
    assert fam.z2_minpoly == expected_ann


def test_critical_cubic_positive_dimensional(d_cubic):
    rep = critical_exists(d_cubic)
    assert rep.verdict == "positive_dimensional"


def test_critical_trapezoid_none(d_no_critical):
    rep = critical_exists(d_no_critical)
    assert rep.verdict == "none" and rep.count == 0


def test_critical_single_summand_none():
    rep = critical_exists(decomposition([triangle()]))
    assert rep.verdict == "none" and rep.count == 0


def test_witness_gradients_vanish(all_fixtures):
    for d in all_fixtures.values():
        rep = critical_exists(d)
        if rep.verdict != "finite":
            continue
        po = build_potential(d)
        for points in rp.witnesses(rep):
            for z1, z2 in points:
                grad = max(
                    abs(po.derivative(i).evaluate([z1, z2, 1.0])) for i in range(3)
                )
                assert grad < 1e-9, (d.target.vertices, (z1, z2), grad)


def _planar(summands):
    """Summands given by their nonzero vertices; the origin is added."""
    return decomposition([convex_hull([(0, 0)] + list(vs)) for vs in summands])


_PLANAR_CASES = {
    # bench inputs of the planar decision
    "lens(61,17)": [[(1, 0)], [(17, 61)]],
    # a partner polynomial constant in z1 over a degree-96 field
    "lens(97,30)": [[(1, 0)], [(30, 97)]],
    "dilation(a=4)": [[(1, 4)], [(4, 1)], [(1, -4)]],
    "8-segments": [[v] for v in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (2, 3), (3, 2))],
    # partner coefficients with denominator 11: the witnesses depend on
    # how they are rounded to floats
    "two-triangles": [[(2, -1), (-1, 0)], [(-1, -2), (1, 1)]],
    # above z1 = -1 the triangle's leading coefficient in z2 vanishes, and
    # its image is a monomial: the gcd read off the PRS is empty there
    "top-edge-triangle": [[(0, 1), (1, 1)], [(1, 0)]],
    # its mirror: the same in the other elimination order
    "side-edge-triangle": [[(1, 0), (1, 1)], [(0, 1)]],
    # z = (-1, -1) lies on all three factors: the pairs see 1 + 2 + 1 points
    "triple-point": [[(1, 0)], [(0, 1)], [(1, 2)]],
    # a point summand has no chart, and its factor 1 meets nothing
    "point-summand": [[(1, 0)], [], [(0, 1)]],
    # pair (1, 2) meets in a point, then factors 1 and 3 share a curve
    "opposite-segments": [[(1, 0)], [(0, 1)], [(-1, 0)]],
    "twin-triangles": [[(1, 0), (0, 1)], [(1, 0), (0, 1)]],
    # z1 = -1 is on the unit circle, its partners (1 ± sqrt 5)/2 are not
    "golden-partner": [[(1, 0)], [(0, 1), (1, 2)]],
    # tt(3): three triangles whose pairs have 2 or 3 families each; above
    # two of them the gcd h is free of z1, so the partner resultant is a
    # power of h
    "tt(3)": [[(1, 0), (0, 1)], [(1, 3), (0, 1)], [(3, 1), (1, 0)]],
}


@pytest.mark.parametrize("signs", list(product((1, -1), repeat=2)))
@pytest.mark.parametrize("axes", [(0, 1), (1, 0)])
@pytest.mark.parametrize("name", list(_PLANAR_CASES))
def test_critical_matches_fraction_oracle(name, axes, signs):
    _assert_matches_fraction_oracle(_planar(_moved(vs, axes, signs) for vs in _PLANAR_CASES[name]))


def _assert_matches_fraction_oracle(d):
    # the witnesses are compared bit for bit, the library's already in
    # report order, and the exact unit-circle flag with the oracle's root
    # test of both minimal polynomials
    got, want = critical_exists(d), ratpoly_oracle.critical_exists(d)
    assert (got.verdict, got.count, got.note) == (want.verdict, want.count, want.note)
    fields = lambda f, points: (f.z1_minpoly, f.z2_minpoly, f.pair, f.on_unit_circle, points)
    assert [fields(f, points) for f, points in zip(got.families, rp.witnesses(got))] == [
        fields(f, sorted(f.points, key=rp._point_key)) for f in want.families
    ]


def test_unit_circle_flag_reads_the_partner_coordinate():
    (fam,) = critical_exists(_planar(_PLANAR_CASES["golden-partner"])).families
    assert (fam.z1_minpoly, fam.z2_minpoly) == ((1, 1), (-1, -1, 1))
    assert fam.on_unit_circle is False


@pytest.mark.parametrize(
    "summands, flags",
    [
        ([[(1, 0)], [(1, 2)]], [True]),
        ([[(1, 0)], [(0, 1)], [(1, 1)]], [True, True, True]),
        ([[(1, 0), (1, 1)], [(0, 1), (1, 1)]], [True]),
        (_PLANAR_CASES["golden-partner"], [False]),
    ],
    ids=["lens_2_1", "q6_segments", "q6_triangles", "golden-partner"],
)
def test_unit_circle_flag_ignores_the_witnesses(monkeypatch, summands, flags):
    # the flag follows from the summand shapes and the minimal polynomials;
    # witnesses off the circle by a relative 1e-9 change none of them
    original = numeric._numeric_points
    drifted = lambda f, h, den: [tuple(z * (1 + 1e-9) for z in p) for p in original(f, h, den)]
    monkeypatch.setattr(numeric, "_numeric_points", drifted)
    report = critical_exists(_planar(summands))
    assert [fam.on_unit_circle for fam in report.families] == flags
    assert all(abs(abs(z) - 1) > 1e-10 for points in rp.witnesses(report) for p in points for z in p)


_ROOT = Path(__file__).resolve().parents[1]


def test_triangle_fibres_round_as_their_fractions():
    # a triangle pair's fibre is integer rows over one denominator, each
    # coefficient rounded once as complex(c / den): bit for bit the float of
    # the reduced Fraction, coefficient by coefficient and in the witnesses.
    # The fixtures', tt(6)'s and tt12's fibres all have den = 1; the last two
    # pairs have den = 7 and 17
    paths = [_ROOT / "fixtures" / f"{name}.json" for name in ("q5", "q6_triangles", "trapezoid")]
    paths.append(_ROOT / "tests" / "golden" / "families" / "tt12.json")
    inputs = [parse_input(p.read_text()).decomposition for p in paths]
    tt6 = [[(1, 0), (0, 1)], [(1, 6), (0, 1)], [(6, 1), (1, 0)]]
    inputs += [_planar(s) for s in (tt6, [[(2, -1), (3, -2)], [(3, -4)]], [[(0, 1), (1, 4)], [(-2, -3), (-1, -1)]])]
    bits = lambda zs: [(z.real.hex(), z.imag.hex()) for z in zs]
    counts, dens = [], set()
    for d in inputs:
        mats = require_admissible(d)
        families = critical_exists(d).families
        fibres = [fam.fibre() for fam in families if 2 in (mats[fam.pair[0] - 1].m, mats[fam.pair[1] - 1].m)]
        for f, h, den in fibres:
            coeffs = [c for u in h for c in u]
            assert bits(complex(c / den) for c in coeffs) == bits(complex(Fraction(c, den)) for c in coeffs)
            fractions = [[Fraction(c, den) for c in u] for u in h]
            assert bits(z for p in numeric._numeric_points(f, h, den) for z in p) == bits(
                z for p in numeric._numeric_points(f, fractions, 1) for z in p
            )
            dens.add(den)
        counts.append(sum(len(u) for _, h, _ in fibres for u in h))
    assert counts == [3, 3, 0, 163, 49, 7, 6] and dens == {1, 7, 17}


def test_critical_count_counts_a_shared_point_once():
    # the pair counts add up to 4; (-1, -1) is on every factor
    report = critical_exists(_planar(_PLANAR_CASES["triple-point"]))
    assert (report.verdict, report.count) == ("finite", 2)
    assert sum(map(len, rp.witnesses(report))) == 4


def test_segment_pair_over_the_bound_is_refused(monkeypatch):
    # each factor has degree 400, but the two segments meet in
    # |det| = 159999 points, over the bound: refused before any is listed
    def refuse(*args):
        raise AssertionError("the torsion coset was enumerated")

    monkeypatch.setattr(rp, "_torsion_angles", refuse)
    with pytest.raises(rp.DegreeTooLarge):
        critical_exists(_planar([[(1, 400)], [(400, 1)]]))


def test_chart_degree_over_the_bound_is_refused():
    # the segment's factor has degree 10**5, within the bound, but in the
    # triangle's chart the pair's polynomial has degree 10**5 + 1: the chart
    # refuses it before the elimination
    with pytest.raises(rp.DegreeTooLarge) as excinfo:
        critical_exists(_planar([[(1, 0), (0, 1)], [(1, 10**5)]]))
    assert any(entry.name == "_chart_points" for entry in excinfo.traceback)


_vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_unimodular_triangles = st.tuples(_vectors, _vectors).filter(
    lambda vw: abs(vw[0][0] * vw[1][1] - vw[0][1] * vw[1][0]) == 1
)
# admissible planar summands: a segment to a primitive vector, or a
# unimodular triangle at the origin
_planar_summands = st.one_of(_vectors.filter(lambda v: math.gcd(*v) == 1).map(lambda v: [v]), _unimodular_triangles)


@settings(max_examples=50, deadline=None)
@given(st.lists(_planar_summands, min_size=1, max_size=3))
def test_critical_matches_fraction_oracle_on_random_summands(summands):
    _assert_matches_fraction_oracle(_planar(summands))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(1, 120), min_size=1, max_size=4))
@example({97, 2 * 97, 3 * 5 * 7})  # Phi_p starts the recursion at once on a prime order
@example({1, 2, 4, 1154})  # dilation a=24's largest order, 2 * 577
def test_cyclotomic_product_matches_sympy(orders):
    t = symbols("t")
    want = Poly(1, t)
    for m in orders:
        assert zp.cyclotomic(m) == cyclotomic_poly(m, t, polys=True).rep.to_list()
        want *= cyclotomic_poly(m, t, polys=True)
    # lowest degree first, as a family prints it
    assert rp._cyclotomic_product(orders) == tuple(want.rep.to_list()[::-1])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 * rp._MAX_DEGREE))
@example(1)
@example(2 * rp._MAX_DEGREE)  # 2^6 * 5^5
@example(199_999)  # prime
@example(2 * 99_991)  # 2 times the largest prime under 10^5
@example(443**2)  # the square of the largest prime under 447
@example(443 * 449)  # two primes, the second past the trial divisors
def test_trial_division_matches_sympy_primefactors(m):
    assert zp._prime_factors(m) == primefactors(m)


def _fraction_torsion_angles(v, u, det):
    """The common zeros of 1 + z^v and 1 + z^u as ``Fraction`` angles in
    [0, 1)^2: the grid theta0 + (i * h11, i * h12 + j * h22) / |det| of the
    Hermite basis of adj([v; u])^T, theta0 = [v; u]^-1 (1/2, 1/2)."""
    (h11, h12), (_, h22) = hnf([[u[1], -u[0]], [-v[1], v[0]]])[0]
    t1, t2, size = Fraction(u[1] - v[1], 2 * det), Fraction(v[0] - u[0], 2 * det), abs(det)
    return [
        ((t1 + Fraction(i * h11, size)) % 1, (t2 + Fraction(i * h12 + j * h22, size)) % 1)
        for i in range(h22)
        for j in range(h11)
    ]


_hermite_entries = st.integers(-6, 6) | st.integers(-(10**300), 10**300)


@settings(max_examples=300, deadline=None)
@given(_hermite_entries, _hermite_entries, _hermite_entries, _hermite_entries)
@example(0, 1, -3, 7)  # the first column's gcd is minus its second entry
@example(-4, 9, 0, 5)  # and minus its first; det -20
@example(6, 10**300, -4, -(10**300) + 1)  # det -2 * 10^300 + 6
@example(10**300, 1, 10**300 + 1, 0)  # det -(10^300 + 1), consecutive first entries
def test_two_by_two_hermite_form_is_hnf(a, b, c, d):
    # the Hermite form is unique, so one extended Euclid gives hnf's bytes
    assume(a * d - b * c != 0)
    assert rp._hermite_2x2(a, b, c, d) == hnf([[a, b], [c, d]])[0]


_coset_vectors = st.tuples(st.integers(-15, 15), st.integers(-15, 15))


@settings(max_examples=150, deadline=None)
@given(_coset_vectors, _coset_vectors, st.lists(_coset_vectors, max_size=3))
@example((1, 14), (14, 1), [(29, 16), (2, 0)])  # det -195; the first earlier segment is 1/2 on every point
@example((14, 1), (1, 14), [(1, 0), (0, 1)])  # det 195
def test_integer_torsion_coset_matches_fraction_oracle(v, u, earlier):
    det = v[0] * u[1] - v[1] * u[0]
    assume(det != 0 and abs(det) <= 200)
    want = _fraction_torsion_angles(v, u, det)
    size = 2 * abs(det)
    assert [(Fraction(n1, size), Fraction(n2, size)) for n1, n2 in rp._torsion_angles(v, u, det)] == want
    # the pair after the earlier segments: the points none of them is 1/2
    # on, and one family per order of theta_1 with the orders of its theta_2
    count = sum(all((w[0] * t1 + w[1] * t2) % 1 != Fraction(1, 2) for w in earlier) for t1, t2 in want)
    partners = {}
    for t1, t2 in want:
        partners.setdefault(t1.denominator, set()).add(t2.denominator)
    cyclotomic = rp._cyclotomic_product
    families = {(cyclotomic({m1}), cyclotomic(m2s)) for m1, m2s in partners.items()}
    mats = [SimpleNamespace(v=(w,), m=1) for w in [v, *earlier, u]]
    got = rp._segment_pair(mats, 0, len(mats) - 1, rp._cyclotomic_product)
    # one family per order of theta_1; critical_exists orders them
    assert (got[0], len(got[1]), {(f.z1_minpoly, f.z2_minpoly) for f in got[1]}) == (count, len(families), families)


def _on_unit_circle(coeffs):
    return all(abs(abs(r) - 1) < 1e-6 for r in np.roots(coeffs[::-1]))


def _decided_by_elimination(d):
    """The planar decision with every pair in a summand's chart: a zero chart
    polynomial is a shared curve, the gcds with earlier charts count each
    point at its first pair, the elimination names the families and the
    roots of their polynomials decide the unit-circle flag.  Each family
    carries its elimination fibre (f, h, den) as sympy's exact coefficient
    lists of f and h / den."""
    mats = require_admissible(d)
    bpolys = [rp._clear_to_bpoly(sm) for sm in mats]
    chart = lambda i, l: rp._chart_points(mats[i], mats[l])
    count, families = 0, []
    for i, j in combinations(range(len(mats)), 2):
        g = chart(i, j)
        if not g:
            return "positive_dimensional", None, f"factors {i + 1} and {j + 1} share a curve of torus zeros", []
        for l in range(j):
            if l != i and len(g) > 1:
                g = dup_exquo(g, dup_gcd(g, chart(i, l), ZZ), ZZ)
        count += len(g) - 1
        for f, h, den in rp._common_fibres(bpolys[i], bpolys[j]):
            z1, z2 = tuple(f[::-1]), tuple(rp._partner_minpoly(f, h)[::-1])
            fibre = fibre_oracle.coefficient_lists(Poly(f, _X), [Poly(u, _X, domain=QQ).quo_ground(den) for u in h])
            families.append((z1, z2, (i + 1, j + 1), _on_unit_circle(z1) and _on_unit_circle(z2), fibre))
    return ("finite" if count else "none"), count, "", families


def _fibre_values(f, h, den):
    """A fibre (f, h, den) as the coefficient lists of f and h / den."""
    return f, [[Fraction(c, den) for c in u] for u in h]


_X = symbols("x")
_primitive_vectors = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).filter(lambda v: math.gcd(*v) == 1)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(_primitive_vectors.map(lambda v: [v]), min_size=2, max_size=4),
        st.lists(st.one_of(_primitive_vectors.map(lambda v: [v]), _unimodular_triangles), min_size=2, max_size=4),
    )
)
@example([[(1, 12)], [(12, 1)], [(1, -12)]])  # dilation a=12: z1 orders up to 290
@example(_PLANAR_CASES["lens(97,30)"])
@example([[(3, 2)], [(-1, 0)], [(1, 4)]])  # an axis segment, second then first: b = 0, the survivor fibre
@example([[(2, -3)], [(-5, -7)]])  # both second coordinates negative
def test_segment_pairs_match_the_elimination(summands):
    # the torsion cosets of segment pairs against the chart and the
    # elimination run on every pair: verdict, count, note, and each family's
    # polynomials, pair, place in the list and flag, and its fibre: a
    # segment pair's closed form must be the elimination's f and h / den,
    # every coefficient equal, with den = 1
    d = _planar(summands)
    got = critical_exists(d)
    mats = require_admissible(d)
    segments = [f for f in got.families if mats[f.pair[0] - 1].m == mats[f.pair[1] - 1].m == 1]
    assert all(f.fibre()[2] == 1 for f in segments)
    families = [(f.z1_minpoly, f.z2_minpoly, f.pair, f.on_unit_circle, _fibre_values(*f.fibre())) for f in got.families]
    assert (got.verdict, got.count, got.note, families) == _decided_by_elimination(d)


@settings(max_examples=200, deadline=None)
@given(_vectors, _vectors, st.integers(1, 300))
@example((3, 0), (1, 2), 2)  # an axis segment, b = 0
@example((1, 2), (-4, 0), 7)  # an axis segment second, d = 0, and e = 6 = deg Phi_7
@example((2, -3), (-5, -7), 29)  # both second coordinates negative
@example((3, 2), (5, 4), 12)  # g = 2, and e = 9 >= deg Phi_12 = 4
@example((1, 24), (1, -24), 1154)  # dilation a=24's largest order: g = 24, e = 1153 >= deg = 576
def test_integer_fibre_matches_the_sympy_fibre(v, u, m):
    # pseudo-division by the monic Phi_m against Poly.rem over Q: the same f
    # and h, every coefficient equal, over the denominator 1
    assume(v[1] or u[1])
    z1 = tuple(int(c) for c in reversed(cyclotomic_poly(m, polys=True).all_coeffs()))
    got = rp._binomial_fibre(v, u, m, z1)
    assert got == (*fibre_oracle.coefficient_lists(*fibre_oracle.binomial_fibre(v, u, m, z1)), 1)
    assert all(type(c) is int for coeffs in got[1] for c in coeffs)


def test_heuristic_for_other_dimensions():
    d = decomposition(
        [convex_hull([(0,), (1,)]), convex_hull([(0,), (1,)])]
    )
    assert critical_exists(d).verdict == "heuristic"
    assert any(abs(p[0] + 1) < 1e-6 for p in heuristic_points(build_potential(d)))


@pytest.mark.parametrize("extra", [(), ((-1, -1, -1),)])
def test_heuristic_survives_diverging_starts(extra, recwarn):
    # some Newton starts overflow to inf/nan on these inputs; they are
    # abandoned instead of reaching the least-squares solver
    d = decomposition([convex_hull([(0, 0, 0), v]) for v in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)) + extra])
    po = build_potential(d)
    points = heuristic_points(po)
    assert critical_exists(d).verdict == "heuristic" and points
    for p in points:
        assert max(abs(po.derivative(i).evaluate(list(p) + [1.0])) for i in range(4)) < 1e-8
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _at_origin(*vs):
    """Summands at the origin: a vector is a segment, a list of vectors the
    simplex on them."""
    shapes = [v if isinstance(v, list) else [v] for v in vs]
    return decomposition([convex_hull([(0,) * len(shapes[0][0]), *shape]) for shape in shapes])


def _moved(vs, axes, signs):
    return [tuple(s * v[a] for a, s in zip(axes, signs)) for v in vs]


_BENCH_3D = {
    "unit": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "diagonal": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
}
_NEWTON_CASES = {
    f"{name}-{axes}-{signs}": _moved(vs, axes, signs)
    for name, vs in _BENCH_3D.items()
    for axes, signs in [((0, 1, 2), signs) for signs in product((1, -1), repeat=3)] + [((1, 2, 0), (1, 1, 1))]
}
_NEWTON_CASES["n=1"] = [(1,), (1,)]
_NEWTON_CASES["n=2"] = [(1, 0), (0, 1), (1, 1)]
_NEWTON_CASES["n=4-five"] = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
_NEWTON_CASES["diverging"] = [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
_NEWTON_CASES["diverging+(-1,-1,-1)"] = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, -1)]
# summands with more than one nonzero vertex, so the gradient and Hessian
# entries have unequal term counts: st3, the simplex plus the triangle, has
# no critical point, and every start dies before the last step; a triangle
# with two segments leaves some starts unconverged
_NEWTON_CASES["st3"] = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0)]]
_NEWTON_CASES["triangle+2-segments"] = [[(1, 0, 0), (0, 1, 0)], (0, 0, 1), (1, 1, 1)]


@pytest.mark.parametrize("vs", list(_NEWTON_CASES.values()), ids=list(_NEWTON_CASES))
def test_lockstep_newton_matches_scalar_oracle(vs):
    d = _at_origin(*vs)
    assert heuristic_points(build_potential(d)) == newton_oracle.heuristic_points(d)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
def test_search_stream_matches_numpy_default_rng(seed):
    # the search's starts are numpy's default_rng stream, drawn without
    # numpy.random: SeedSequence mixing, PCG64 and Generator.random, bit for
    # bit for every n up to 9 (40 starts of n doubles each)
    for n in range(1, 10):
        want = np.random.default_rng(seed).random(40 * n)
        got = np.array(numeric._pcg64_doubles(seed, 40 * n))
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _table_polys(nvars):
    term = st.tuples(st.tuples(*[st.integers(-4, 4)] * nvars), st.integers(-10**6, 10**6))
    constant = st.tuples(st.just((0,) * nvars), st.integers(-9, 9))
    return st.lists(
        st.lists(st.one_of(term, constant), max_size=7).map(lambda ts: LaurentPoly(nvars, dict(ts))),
        min_size=1,
        max_size=4,
    )


@st.composite
def _tables(draw):
    nfree = draw(st.integers(1, 3))
    nvars = nfree + draw(st.integers(0, 1))
    polys = draw(_table_polys(nvars))
    value = st.complex_numbers(min_magnitude=0.2, max_magnitude=5, allow_nan=False, allow_infinity=False)
    points = draw(st.lists(st.lists(value, min_size=nfree, max_size=nfree), min_size=1, max_size=5))
    return polys, nfree, np.array(points, dtype=complex)


def _table_case(nvars, nfree, polys, points):
    return [LaurentPoly(nvars, p) for p in polys], nfree, np.array(points, dtype=complex)


# one polynomial of ten terms of mixed magnitudes at one point: numpy's
# pairwise reduction would add them in another order
_TEN_TERMS = {(k,): (-1) ** k * 10 ** (3 * (k % 4)) + k for k in range(-4, 6)}


@settings(max_examples=200, deadline=None)
@given(_tables())
@example(_table_case(1, 1, [{}], [[1 + 0j]]))  # the zero table: no term, no variable
@example(_table_case(1, 1, [{(0,): -7}], [[1 + 0j]]))  # a constant: no free variable
@example(_table_case(2, 1, [{(0, 3): 2, (0, -1): 5}], [[0.5 - 2j]]))  # only the pinned variable
@example(_table_case(1, 1, [_TEN_TERMS], [[0.7 - 1.3j]]))
@example(_table_case(1, 1, [_TEN_TERMS, {(2,): 3}], [[1.1 + 0.4j], [-0.9 + 2j]]))
@example(  # unequal term counts
    _table_case(
        2,
        2,
        [{(1, 0): 1}, {(-2, 1): 3, (0, 0): -1, (1, -3): 4, (2, 2): 1, (0, 1): -9}, {(-1, -1): 2, (3, 0): 1}],
        [[1.5 + 0.5j, -0.5 + 1j]],
    )
)
@example(  # exactly zero real or imaginary parts, of either sign
    _table_case(
        2,
        2,
        [{(1, 0): -3, (0, 2): 1, (-1, -1): 2}, {(2, 1): 5, (0, 0): 1}],
        [[-2 + 0j, 0 - 1.5j], [complex(-0.0, 2), complex(3, -0.0)], [complex(1, -0.0), -1j]],
    )
)
@example(  # repeated and zero polynomials; the same terms in another order,
    # whose sum at (1, 1) rounds otherwise; the same exponents with other
    # coefficients
    _table_case(
        2,
        2,
        [
            {(1, 0): 2, (0, -1): 3},
            {},
            {(1, 0): 10**16, (0, 0): 1, (2, 0): -(10**16)},
            {(1, 0): 2, (0, -1): 3},
            {(1, 0): 10**16, (2, 0): -(10**16), (0, 0): 1},
            {},
            {(1, 0): 2, (0, -1): -3},
            {(1, 0): 2, (0, -1): 3},
        ],
        [[1 + 0j, 1 + 0j], [0.5 + 1j, -2 + 0.3j]],
    )
)
def test_term_table_matches_evaluate_bit_for_bit(case):
    # numpy's complex array multiply may fuse multiply-adds, scalar ** and
    # LaurentPoly.evaluate do not; the split products must keep every bit
    polys, nfree, points = case
    got = _TermTable(polys, nfree).evaluate(points)
    pinned = [1.0 + 0j] * (polys[0].nvars - nfree)
    for row, z in zip(got, points):
        want = np.array([p.evaluate(list(z) + pinned) for p in polys], dtype=complex)
        assert row.view(np.int64).tolist() == want.view(np.int64).tolist()


@st.composite
def _systems(draw):
    m = draw(st.integers(2, 5))
    count = draw(st.integers(1, 6))
    value = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    entries = st.lists(value, min_size=count * m * m, max_size=count * m * m)
    flat = np.array(draw(entries), dtype=complex)
    a = flat[: count * m * (m - 1)].reshape(count, m, m - 1)
    b = flat[count * m * (m - 1) :].reshape(count, m)
    # rank-deficient systems too (a zero column, or a column repeating
    # another) and nearly deficient ones, whose smallest singular value sits
    # just above the cutoff eps * m
    cut = draw(st.sampled_from(["full", "zero", "repeat", "near"]))
    if cut == "zero":
        a[:, :, -1] = 0
    elif cut in ("repeat", "near"):
        a[:, :, -1] = draw(value) * a[:, :, 0]
        if cut == "near":
            a[:, -1, -1] += 1e-12 * (1 + np.abs(a).max())
    return a, b


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_stacked_lstsq_matches_lstsq_bit_for_bit(case):
    # one gelsd call over the stack must round as lstsq does on each system
    a, b = case
    want = np.array([np.linalg.lstsq(ai, bi, rcond=None)[0] for ai, bi in zip(a, b)])
    assert _lstsq_stack(a, b).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_stacked_lstsq_raises_as_lstsq_does():
    # a failed SVD is an error, not a NaN step, as in np.linalg.lstsq
    a, b = np.full((2, 4, 3), np.nan + 0j), np.ones((2, 4), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.lstsq(a[0], b[0], rcond=None)
    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError) as got:
        _lstsq_stack(a, b)
    assert str(got.value) == str(want.value)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3), min_size=2, max_size=5),
    st.lists(st.integers(-40, 40), min_size=1, max_size=8),
)
def test_norm_below_decides_as_norm(row, ulps):
    # rows scaled to within a few ulps of the tolerance, where a sum in
    # another order could round across it, and one far on each side
    tol = 1e-10
    v = np.array(row, dtype=complex)
    v = v * (tol / np.linalg.norm(v))
    rows = [v * (1 + k * np.finfo(float).eps) for k in ulps] + [v * 0.5, v * 2.0]
    vals = np.array(rows)
    assert _norm_below(vals, tol).tolist() == [bool(np.linalg.norm(r) < tol) for r in vals]


def _central_difference_gap(p, point, h):
    """Largest deviation between the formal partials of ``p`` and central
    differences with step ``h`` at ``point``."""
    worst = 0.0
    for i in range(p.nvars):
        up, dn = list(point), list(point)
        up[i] += h
        dn[i] -= h
        numeric = (p.evaluate(up) - p.evaluate(dn)) / (2 * h)
        worst = max(worst, abs(p.derivative(i).evaluate(point) - numeric))
    return worst


def test_derivative_matches_central_differences():
    # cubic terms make the central-difference error genuinely O(h^2)
    po = build_potential(decomposition([triangle(), triangle(), triangle()]))
    pt = [0.7 + 0.1j, -1.3 + 0.4j, 0.9]
    e1 = _central_difference_gap(po, pt, 1e-2)
    e2 = _central_difference_gap(po, pt, 5e-3)
    assert e2 < e1
    assert 2.5 < e1 / e2 < 5.5  # halving h quarters the error
    assert _central_difference_gap(LaurentPoly.one(3), pt, 1e-3) == 0.0


def _counted(monkeypatch, *names, module=rp, calls=None):
    """Count the calls of the named functions of ``module`` in ``calls``, a
    new dict unless given one."""
    calls = {} if calls is None else calls
    calls.update(dict.fromkeys(names, 0))
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "d",
    [lens(13, 5), decomposition([segment((1, 2)), segment((2, 1)), segment((1, -2))])],
    ids=["lens-13-5", "dilation-2"],
)
def test_only_reported_families_are_annotated(monkeypatch, d):
    # segment pairs are decided on their torsion cosets, with no chart and
    # no elimination; the witnesses run the numeric roots once per family,
    # on its closed-form fibre, and still no elimination
    calls = _counted(monkeypatch, "_numeric_points", module=numeric)
    names = ("_chart_points", "_clear_to_bpoly", "_common_fibres", "_partner_minpoly")
    _counted(monkeypatch, *names, "bresultant_y", "bgcd", "kgcd_y", "factor_rational", calls=calls)
    rep = critical_exists(d)
    assert rep.verdict == "finite" and rep.families
    assert calls == dict.fromkeys(calls, 0)
    rp.witnesses(rep)
    assert calls == {**dict.fromkeys(calls, 0), "_numeric_points": len(rep.families)}


def test_triangle_pairs_name_each_family_by_elimination(monkeypatch, d_q5):
    # a pair with a triangle runs one partner polynomial per family and no
    # witnesses; the witnesses are computed only when asked for, once per
    # family
    calls = _counted(monkeypatch, "_partner_minpoly")
    _counted(monkeypatch, "_numeric_points", module=numeric, calls=calls)
    rep = critical_exists(d_q5)
    assert rep.verdict == "finite" and rep.families
    assert calls == {"_partner_minpoly": len(rep.families), "_numeric_points": 0}
    rp.witnesses(rep)
    assert calls == {"_partner_minpoly": len(rep.families), "_numeric_points": len(rep.families)}


@pytest.mark.parametrize(
    "vs", [_PLANAR_CASES["tt(3)"], [[(1, 0), (1, 1)], [(0, 1), (1, 1)]]], ids=["tt(3)", "Q6-triangles"]
)
def test_family_order_is_independent_of_the_factoring(monkeypatch, vs):
    # the decision sorts each pair's families itself, so factors listed in
    # any order give the same report
    want = critical_exists(_planar(vs))
    original = rp.factor_rational
    monkeypatch.setattr(rp, "factor_rational", lambda f: original(f)[::-1])
    got = critical_exists(_planar(vs))
    assert got.families == want.families
    assert rp.witnesses(got) == rp.witnesses(want)


def test_every_partner_polynomial_is_a_resultant(monkeypatch):
    # one resultant per chart pair names its families, then one per family
    # eliminates z1 from its partner polynomial, also where h is free of z1
    calls = _counted(monkeypatch, "_common_fibres", "bresultant_y")
    rep = critical_exists(_planar(_PLANAR_CASES["tt(3)"]))
    assert (calls["_common_fibres"], len(rep.families)) == (3, 7)
    assert calls["bresultant_y"] == calls["_common_fibres"] + len(rep.families)


@pytest.mark.parametrize(
    "vs, verdict",
    [
        ([[(1, 0)], [(0, 1)], [(1, 1)]], "finite"),
        ([[v] for v in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (2, 3), (3, 2))], "finite"),
        ([[(1, 0), (0, 1)]] * 3, "positive_dimensional"),
    ],
    ids=["Q6-segments", "8-segments", "cubic-cone"],
)
def test_one_shared_curve_test_per_factor_pair(monkeypatch, vs, verdict):
    # the chart polynomial of a pair is zero exactly on a shared curve, so
    # the decision runs no bivariate gcd
    calls = []
    original = rp.bgcd

    def counted(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(rp, "bgcd", counted)
    assert critical_exists(_planar(vs)).verdict == verdict
    assert calls == []


@st.composite
def _summand_pairs(draw):
    """Two admissible planar summands, or the point; the second is often the
    first again, its negative, or its translate by minus a vertex."""
    first = draw(st.one_of(st.just([]), _planar_summands))
    how = draw(st.sampled_from(["any", "twin", "negated", "translated"]))
    if how == "any":
        return first, draw(st.one_of(st.just([]), _planar_summands))
    if how == "twin" or not first:
        return first, first
    if how == "negated":
        return first, [(-a, -b) for a, b in first]
    v = draw(st.sampled_from(first))
    return first, [(a - v[0], b - v[1]) for a, b in [(0, 0), *first] if (a, b) != v]


@settings(max_examples=100, deadline=None)
@given(_summand_pairs())
def test_zero_chart_polynomial_is_a_shared_curve(pair):
    # the oracle: two factors share a curve iff their gcd in Z[z2, z1] is
    # not a monomial.  A point's factor 1 shares none, and the decision
    # skips its pair
    d = _planar(pair)
    mats = require_admissible(d)
    shared = sum(1 for u in rp.bgcd(*(rp._clear_to_bpoly(sm) for sm in mats)) for c in u if c) > 1
    if not all(sm.m for sm in mats):
        assert not shared and critical_exists(d).verdict == "none"
        return
    for i, j in ((0, 1), (1, 0)):
        assert (not rp._chart_points(summand_at(d, i + 1), summand_at(d, j + 1))) == shared


# the planar bench base inputs that are not fixtures
_BENCH_PLANAR = {
    "segments(k=4)": [[(1, 0)], [(0, 1)], [(1, 1)], [(1, -1)]],
    "dilation(a=1)": [[(1, 1)], [(1, 1)], [(1, -1)]],
    "dilation(a=2)": [[(1, 2)], [(2, 1)], [(1, -2)]],
    "lens(7,3)": [[(1, 0)], [(3, 7)]],
    "lens(13,5)": [[(1, 0)], [(5, 13)]],
    "triangle+5-segments": [[(1, 0), (0, 1)], [(1, 1)], [(1, -1)], [(1, 2)], [(2, 1)], [(2, 3)]],
    **{name: _PLANAR_CASES[name] for name in ("lens(61,17)", "lens(97,30)", "dilation(a=4)", "8-segments")},
}


def test_planar_decision_reads_only_the_matrices(monkeypatch, all_fixtures):
    # every factor is 1 + sum z^v over the rows v of its summand's matrices,
    # so the decision needs no Laurent polynomial
    cases = list(all_fixtures.values()) + [_planar(vs) for vs in _BENCH_PLANAR.values()]
    want = [critical_exists(d) for d in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the planar decision built a Laurent polynomial")

    monkeypatch.setattr(LaurentPoly, "__init__", refuse)
    got = [critical_exists(d) for d in cases]
    assert [(r.verdict, r.count, r.families) for r in got] == [(r.verdict, r.count, r.families) for r in want]


@pytest.mark.parametrize(
    "summands, charts",
    [
        ([[(1, 0)], []], 0),
        ([[], [(1, 0)]], 0),
        ([[(1, 0), (0, 1)], []], 0),
        ([[], [(1, 0), (0, 1)]], 0),
        # one chart, of the triangle pair; the point between is no earlier factor
        ([[(1, 0), (0, 1)], [], [(1, 1)]], 1),
    ],
    ids=["segment-point", "point-segment", "triangle-point", "point-triangle", "triangle-point-segment"],
)
def test_point_pairs_build_no_polynomial(monkeypatch, summands, charts):
    # a point's factor is 1: its pairs are skipped before any chart or
    # elimination
    names = ("_chart_points", "_clear_to_bpoly", "bresultant_y", "bgcd", "kgcd_y", "factor_rational")
    calls = _counted(monkeypatch, *names)
    rep = critical_exists(_planar(summands))
    assert calls["_chart_points"] == charts
    if not charts:
        assert (rep.verdict, rep.count) == ("none", 0)
        assert calls == dict.fromkeys(calls, 0)
