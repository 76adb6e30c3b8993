"""Benchmark of the minksmooth command line, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one call of ``minksmooth.cli.main`` with the arguments a user
would type, on an input file made from the seed.  Ops run closed-loop in
one process with one client, in whole rounds of the workload's base inputs;
``--seconds`` sets the number of rounds, so that a run takes about that
long on the reference host, set-up and probes included.  Every op starts
with the package's caches cleared, has a time budget, and has its output
checked.

The end-to-end times are host-normalized: an op's wall time is multiplied
by ``P_REF`` over the mean of the host probes timed right before and right
after it, so they read as seconds on the reference host whatever else the
machine is running.  The wall times are printed next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
once untraced and once traced and prints the per-layer metrics (in wall
seconds); the spans go to ``.bench_out/`` in the checkout.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from oracle import check_analyze, check_potential, load_expected  # noqa: E402
from probe import host_probe, scale  # noqa: E402
from tracing import Tracer, package_modules  # noqa: E402
from workloads import WORKLOADS, Op, Workload, argv_for, round_count, round_ops, write_input  # noqa: E402

SETUP_RUNS = 3
# times the import between two host probes of its own interpreter
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from probe import host_probe
before = host_probe()
start = time.perf_counter()
import minksmooth.cli
seconds = time.perf_counter() - start
print(seconds, before, host_probe())
"""


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that ran over its budget; not an
    ``Exception``, so no handler in the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def measure_setup() -> tuple[float, float]:
    """Median time of ``import minksmooth.cli`` in fresh interpreters, in
    wall and in host-normalized seconds.

    One untimed import first writes the bytecode caches, as the first call
    of an installed command does."""
    wall, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, before, after = map(float, proc.stdout.split())
        if i:
            wall.append(seconds)
            scaled.append(seconds * scale(before, after))
    return statistics.median(wall), statistics.median(scaled)


def package_caches():
    """Every ``lru_cache`` the package defines at module level, once each."""
    import minksmooth

    for info in pkgutil.iter_modules(minksmooth.__path__):
        importlib.import_module(f"minksmooth.{info.name}")
    seen = {}
    for m in package_modules():
        for v in vars(m).values():
            if hasattr(v, "cache_clear") and hasattr(v, "cache_info"):
                seen[id(v)] = v
    return list(seen.values())


@dataclass
class OpResult:
    seconds: float
    status: str  # "ok", "crash" (exception or nonzero exit), "wrong" (output differs) or "timeout"
    errors: list = field(default_factory=list)
    scaled: float = 0.0  # seconds on the reference host


@dataclass
class Runner:
    workload: Workload
    expected: dict
    work: Path
    caches: list
    cone_caches: list
    warm_starts: int = 0
    memo_hits: int = 0

    def run(self, op: Op, tracer: Tracer | None = None, op_id: int = 0) -> OpResult:
        from minksmooth import cli

        src, out, svg = self.work / "input.json", self.work / "report.json", self.work / "diagram.svg"
        write_input(src, op)
        for p in (out, svg):
            p.unlink(missing_ok=True)
        for c in self.caches:
            c.cache_clear()
        if any(c.cache_info().currsize for c in self.caches):
            self.warm_starts += 1
        if tracer is not None:
            tracer.begin_op(op_id, op.base.dimension)
        argv = argv_for(self.workload, src, out, svg)
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        start = perf_counter()
        try:
            signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, self.workload.budget_s)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            return OpResult(perf_counter() - start, "timeout", [f"over the {self.workload.budget_s} s budget"])
        except Exception as exc:  # the program crashed: a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        self.memo_hits += sum(c.cache_info().hits for c in self.cone_caches)
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[:200]}"
        if error is not None:
            return OpResult(seconds, "crash", [error])
        try:
            if self.workload.command == "analyze":
                svg_text = svg.read_text(encoding="utf-8") if svg.exists() else None
                errors = check_analyze(op, self.workload, self.expected, out.read_bytes(), svg_text)
            else:
                errors = check_potential(op, self.workload, self.expected, stdout.getvalue().encode("utf-8"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return OpResult(seconds, "wrong" if errors else "ok", errors)


def tail(times):
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest time.  Returns (value, percentile, samples beyond)."""
    ordered = sorted(times)
    beyond = min(10, len(ordered) - 1)
    return ordered[len(ordered) - 1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def run_ops(runner: Runner, ops, probes: list, tracer: Tracer | None = None, first_id: int = 0):
    """Run ``ops`` in turn, each between two host probes."""
    results = []
    before = host_probe()
    probes.append(before)
    for i, op in enumerate(ops):
        result = runner.run(op, tracer, first_id + i)
        after = host_probe()
        probes.append(after)
        result.scaled = result.seconds * scale(before, after)
        results.append(result)
        before = after
    return results


def run_untraced(runner: Runner, seed: int, rounds: int, probes: list):
    ops = [op for rnd in range(rounds) for op in round_ops(runner.workload, seed, rnd)]
    return run_ops(runner, ops, probes)


def run_traced(runner: Runner, seed: int, rounds: int, probes: list):
    """Each round untraced, then again traced; the ratio of the two is the
    tracing overhead."""
    tracer = Tracer()
    plain, traced = [], []
    for rnd in range(rounds):
        ops = round_ops(runner.workload, seed, rnd)
        plain += run_ops(runner, ops, probes)
        hits_before = runner.memo_hits
        tracer.install()
        try:
            traced += run_ops(runner, ops, probes, tracer, len(traced))
        finally:
            tracer.uninstall()
        tracer.counts["cone.memo.hits"] += runner.memo_hits - hits_before
    return tracer, plain, traced


PER_OP_COUNTS = (
    "cone.hilbert_basis.lifted.elements", "cone.hilbert_basis.sigma_dual.elements",
    "cone.halfspace_description.calls", "exactlin.rank.calls", "cone.memo.hits",
    "smoothing.verify_generates.box_points", "smoothing.generators", "smoothing.extras",
    "polytope.is_admissible.calls", "exactlin.snf_invariant_factors.calls",
    "exactlin.unimodular_inverse.calls", "potential.critical.exact_ops", "potential.critical.heuristic_ops",
)
PER_OP_SELF_S = (
    "cone.hilbert_basis.lifted", "cone.hilbert_basis.sigma_dual", "cone.halfspace_description",
    "exactlin.rank", "smoothing.verify_generates", "smoothing.generator_set", "polytope.is_admissible",
    "polytope.convex_hull", "polytope.lattice_points", "fibration.transfer_cut", "fibration.final_cone",
    "potential.critical_exists", "potential.build_potential", "ratpoly.bresultant_y", "ratpoly.bgcd",
    "ratpoly.kgcd_y", "ratpoly.factor_rational", "pipeline.parse_input", "pipeline.run_pipeline",
    "pipeline.AnalysisReport.to_json", "svg.emit_svg", "cli.main",
)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "minksmooth" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'minksmooth'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import minksmooth.cli  # noqa: F401

    if Path(sys.modules["minksmooth"].__file__).resolve().parent != SRC / "minksmooth":
        print("minksmooth was imported from outside the checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    caches = package_caches()
    runner = Runner(workload, load_expected(), work, caches,
                    [c for c in caches if c.__module__ == "minksmooth.cone"])
    rounds = round_count(workload, args.seconds)
    probes = []
    origin = perf_counter()
    try:
        if args.trace:
            tracer, plain, traced = run_traced(runner, args.seed, rounds, probes)
            results = plain + traced
        else:
            setup_wall, setup_s = measure_setup()
            results = run_untraced(runner, args.seed, rounds, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_s = statistics.median(probes)

    attempted = len(results)
    failed = sum(r.status != "ok" for r in results)
    wrong = sum(r.status == "wrong" for r in results)
    for r in [r for r in results if r.status != "ok"][:5]:
        print(f"failed op: {r.status}: {'; '.join(r.errors)}")
    print(f"workload {workload.name}, seed {args.seed}: {attempted} ops in {rounds} rounds, "
          f"{perf_counter() - origin:.1f} s; {failed} failed (failed_ratio {failed / attempted:g} ratio); "
          f"warm starts {runner.warm_starts}; host.probe_s {probe_s:.5f} s")

    if args.trace:
        n = len(traced)
        op_s = sum(r.seconds for r in traced) / n
        overhead = sum(r.scaled for r in traced) / sum(r.scaled for r in plain) - 1.0
        metrics = {f"{name}.self_s": metric(tracer.self_s[name] / n, "s") for name in PER_OP_SELF_S}
        metrics.update({name: metric(tracer.counts[name] / n, "count") for name in PER_OP_COUNTS})
        metrics["cone.memo.warm_starts"] = metric(runner.warm_starts, "count")
        metrics["bench.op_s"] = metric(op_s, "s")
        metrics["bench.tracing_overhead"] = metric(overhead, "ratio")
        metrics["host.probe_s"] = metric(probe_s, "s")
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path, origin)
        print(f"{len(tracer.spans)} spans ({tracer.dropped} over the cap) written to {trace_path}")
    else:
        wall = [r.seconds for r in results]
        times = [r.scaled for r in results]
        tail_s, tail_pct, beyond = tail(times)
        metrics = {
            "throughput_ops_s": metric((attempted - failed) / sum(times), "ops/s"),
            "latency_s.p50": metric(statistics.median(times), "s"),
            "latency_s.tail": metric(tail_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"wall time: throughput {(attempted - failed) / sum(wall):.4g} ops/s, "
              f"p50 {statistics.median(wall):.4g} s, tail {tail(wall)[0]:.4g} s, setup {setup_wall:.4g} s")
        print(f"latency_s.tail is p{tail_pct:.2f}: {beyond} of {attempted} samples beyond it")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": wrong == 0 and runner.warm_starts == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
