"""Write ``expected.json`` from the current program's output on the base inputs.

    python3 bench/make_expected.py

Run it only when the expected values are meant to change, and review the
diff of ``expected.json``: the benchmark's correctness check is only as good
as these values.  ``tests/test_bench.py`` cross-checks them against values
published with the worked examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

from minksmooth import cli  # noqa: E402
from oracle import EXPECTED_PATH, digest, label_kinds, parse_verdict  # noqa: E402
from workloads import BASES, WORKLOADS, Op, Symmetry, argv_for, write_input  # noqa: E402


def _merge(entry: dict, values: dict, name: str):
    for key, value in values.items():
        if entry.setdefault(key, value) != value:
            raise SystemExit(f"{name}: {key} differs between workloads")


def main() -> int:
    work = BENCH_DIR.parent / ".bench_out" / "expected"
    work.mkdir(parents=True, exist_ok=True)
    src, out, svg = work / "input.json", work / "report.json", work / "diagram.svg"
    expected = {"bases": {}, "digests": {}}
    try:
        for workload in WORKLOADS.values():
            digests = expected["digests"].setdefault(workload.name, {})
            for name in workload.bases:
                base = BASES[name]
                write_input(src, Op(base, Symmetry.identity(base.dimension)))
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv_for(workload, src, out, svg))
                if code != 0:
                    raise SystemExit(f"{workload.name}/{name}: exit code {code}")
                entry = expected["bases"].setdefault(name, {})
                if workload.command == "analyze":
                    data = out.read_bytes()
                    report = json.loads(data)
                    crit = report["potential"]["critical"]
                    _merge(entry, {
                        "sigma_tilde_dual_hilbert_basis": report["cone"]["sigma_tilde_dual_hilbert_basis"],
                        "sigma_dual_hilbert_basis": report["cone"]["sigma_dual_hilbert_basis"],
                        "label_kinds": label_kinds(report),
                        "critical": {"verdict": crit["verdict"], "count": crit["count"]},
                    }, name)
                else:
                    data = stdout.getvalue().encode("utf-8")
                    verdict, count = parse_verdict(stdout.getvalue())
                    _merge(entry, {"critical": {"verdict": verdict, "count": count}}, name)
                digests[name] = digest(data)
                print(f"{workload.name}/{name}: {entry['critical']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
