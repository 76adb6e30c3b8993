"""Tests of the benchmark itself: inputs, symmetries, oracle and tracer.

    python3 -m pytest bench/tests
"""

import contextlib
import io
import itertools
import json
import random

import pytest

import run
import tracing
from oracle import check_analyze, gradient_residual, load_expected
from workloads import BASES, WORKLOADS, Op, Symmetry, argv_for, image_input, round_count, round_ops, write_input

from minksmooth import cli
from minksmooth.cone import cone_over, dual, hilbert_basis, sigma_tilde
from minksmooth.pipeline import parse_input


def _binding_snapshot():
    return {(m.__name__, k): v for m in tracing.package_modules() for k, v in vars(m).items()}


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    w = WORKLOADS[name]
    for rnd in (0, 1, 5):
        first = [image_input(op.base, op.sym) for op in round_ops(w, 7, rnd)]
        again = [image_input(op.base, op.sym) for op in round_ops(w, 7, rnd)]
        assert json.dumps(first) == json.dumps(again)
    assert sorted(op.base.name for op in round_ops(w, 7, 3)) == sorted(n for n, k in w.bases for _ in range(k))
    seeds = {json.dumps([image_input(op.base, op.sym) for op in round_ops(w, s, 1)]) for s in range(6)}
    assert len(seeds) > 1
    # the first op on each base input runs it unmoved
    assert {op.base.name for op in round_ops(w, 7, 0) if op.sym.is_identity} == {n for n, _ in w.bases}


def test_symmetry_round_trip_is_exact():
    rng = random.Random(3)
    for _ in range(200):
        n, k = rng.choice((2, 3)), rng.randint(1, 5)
        sym = Symmetry(tuple(rng.sample(range(n), n)), tuple(rng.choice((1, -1)) for _ in range(n)))
        v = tuple(rng.randint(-9, 9) for _ in range(n + k))
        assert sym.move_back(sym.move(v)) == v
        assert sym.move(sym.move_back(v)) == v


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_run_meets_every_sign_pattern_equally_often(name):
    w = WORKLOADS[name]
    ops = [op for r in range(round_count(w, 15)) for op in round_ops(w, 5, r)]
    for base, _ in w.bases:
        n = BASES[base].dimension
        signs = sorted(op.sym.signs for op in ops if op.base.name == base)
        assert signs == sorted(list(itertools.product((1, -1), repeat=n)) * (len(signs) // 2 ** n))


@pytest.mark.parametrize("name", ["Q5", "trapezoid", "lens-2-1"])
def test_hilbert_bases_move_with_the_symmetry(name):
    base = BASES[name]

    def bases(sym):
        d = parse_input(json.dumps(image_input(base, sym))).decomposition
        return (hilbert_basis(dual(sigma_tilde(d))).elements,
                hilbert_basis(dual(cone_over(d.target))).elements)

    lifted, sigma = bases(Symmetry.identity(2))
    for axes in ((0, 1), (1, 0)):
        for signs in itertools.product((1, -1), repeat=2):
            sym = Symmetry(axes, signs)
            moved_lifted, moved_sigma = bases(sym)
            assert sorted(moved_lifted) == sorted(sym.move(v) for v in lifted)
            assert sorted(moved_sigma) == sorted(sym.move(v) for v in sigma)


def test_expected_values_match_the_worked_examples():
    bases = load_expected()["bases"]
    sizes = {"cubic-cone": (6, 4), "lens-2-1": (10, 9), "Q5": (9, 8),
             "Q6-segments": (9, 7), "Q6-triangles": (8, 7), "trapezoid": (5, 4)}
    verdicts = {"cubic-cone": ("positive_dimensional", None), "lens-2-1": ("finite", 2), "Q5": ("finite", 2),
                "Q6-segments": ("finite", 3), "Q6-triangles": ("finite", 2), "trapezoid": ("none", 0)}
    for name, (lifted, sigma) in sizes.items():
        assert len(bases[name]["sigma_tilde_dual_hilbert_basis"]) == lifted
        assert len(bases[name]["sigma_dual_hilbert_basis"]) == sigma
        assert (bases[name]["critical"]["verdict"], bases[name]["critical"]["count"]) == verdicts[name]
    for w in WORKLOADS.values():
        assert set(load_expected()["digests"][w.name]) == {n for n, _ in w.bases}


def test_oracle_accepts_a_moved_input_and_rejects_a_wrong_basis(tmp_path):
    w = WORKLOADS["summand-scaling"]
    expected = load_expected()
    op = Op(BASES["Q6-segments"], Symmetry((1, 0), (-1, 1)))
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    write_input(src, op)
    code, _ = _run_cli(argv_for(w, src, out, None))
    assert code == 0
    data = out.read_bytes()
    assert check_analyze(op, w, expected, data, None) == []
    report = json.loads(data)
    report["cone"]["sigma_tilde_dual_hilbert_basis"].pop()
    assert check_analyze(op, w, expected, json.dumps(report).encode(), None) != []
    # the identity image is also held to the stored digest
    ident = Op(op.base, Symmetry.identity(2))
    assert check_analyze(ident, w, expected, data, None) != []


def test_gradient_residual_separates_critical_points():
    op = Op(BASES["unit-segments(n=3)"], Symmetry.identity(3))
    assert gradient_residual(op, [-1, -1, 0.3 + 0.2j]) < 1e-12
    assert gradient_residual(op, [0.5, 2, 3]) > 1


def test_tail_has_ten_samples_beyond():
    times = list(range(1, 22))
    value, pct, beyond = run.tail(times)
    assert (value, beyond) == (11, 10)
    assert pct == pytest.approx(100 * 11 / 21)


def test_tracer_counts_calls_and_restores_bindings(tmp_path):
    src = tmp_path / "lens.json"
    src.write_text(json.dumps({"name": "t", "dimension": 2,
                               "summands": [{"vertices": [[0, 0], [1, 0]]}, {"vertices": [[0, 0], [1, 2]]}]}))
    before = _binding_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from minksmooth import cone, polytope

        assert cone.halfspace_description is not before[("minksmooth.cone", "halfspace_description")]
        assert polytope.cone_from_generators is before[("minksmooth.polytope", "cone_from_generators")]
        tracer.begin_op(0, 2)
        code, _ = _run_cli(["potential", str(src)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert _binding_snapshot() == before
    c = tracer.counts
    # parse: a hull per summand plus the Minkowski sum, two DD passes each;
    # admissibility: per segment one SNF check, then the summand matrices
    # (SNF, basis completion with SNF and an inverse, and the final inverse)
    assert c["cli.main.calls"] == 1
    assert c["pipeline.parse_input.calls"] == 1
    assert c["polytope.convex_hull.calls"] == 3
    assert c["cone.halfspace_description.calls"] == 6
    assert c["potential.build_potential.calls"] == 1
    assert c["polytope.is_admissible.calls"] == 1
    assert c["exactlin.snf_invariant_factors.calls"] == 6
    assert c["exactlin.unimodular_inverse.calls"] == 4
    assert c["potential.critical_exists.calls"] == 0
    assert not any(name.startswith("cone.hilbert_basis") for name in c)
    spans = {s[0]: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s[1] == "cli.main")
    assert root[4] is None
    assert all(s[4] in spans for s in tracer.spans if s is not root)
    # self times partition the root span
    assert sum(tracer.self_s.values()) == pytest.approx(root[3] - root[2], rel=1e-9, abs=1e-9)


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    before = _binding_snapshot()
    caches = run.package_caches()
    runner = run.Runner(WORKLOADS["fixtures-full"], load_expected(), tmp_path, caches, caches)
    results = run.run_untraced(runner, seed=11, rounds=1, probes=[])
    assert [r.status for r in results] == ["ok"] * 7
    assert runner.warm_starts == 0
    assert _binding_snapshot() == before


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert run.main(["--workload", "fixtures-full", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
