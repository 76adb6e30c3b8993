"""Checks of one op's output against the stored values of its base input.

``expected.json`` holds, per base input, the Hilbert bases of the lifted
dual cone and of the dual cone, the counts of each generator label kind and
the critical-point verdict and count; per workload and base input it holds
the sha256 of the output the unmoved base input produces.  Hilbert bases
are compared after mapping the op's output back through its symmetry.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

from workloads import Op, Workload, image_input

EXPECTED_PATH = Path(__file__).with_name("expected.json")
RESIDUAL_LIMIT = 1e-8
_VERDICT = re.compile(r"^verdict: (\w+)(?: \(count (\d+)\))?$", re.MULTILINE)


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_verdict(text: str):
    """``(verdict, count)`` from the output of ``potential --critical``, or None."""
    m = _VERDICT.search(text)
    if m is None:
        return None
    return m.group(1), None if m.group(2) is None else int(m.group(2))


def label_kinds(report: dict) -> dict:
    counts = Counter(g["label"].split("[")[0] for g in report["smoothing"]["generators"])
    return dict(sorted(counts.items()))


def potential_of(op: Op):
    """``z_{n+1} * prod_i (1 + sum of z^v over the nonzero vertices v of M_i)``
    for the op's input, built directly from the file contents."""
    from minksmooth.potential import LaurentPoly

    obj = image_input(op.base, op.sym)
    n = obj["dimension"]
    out = LaurentPoly.monomial((0,) * n + (1,))
    for s in obj["summands"]:
        fac = LaurentPoly.one(n + 1)
        for v in s["vertices"]:
            if any(v):
                fac = fac + LaurentPoly.monomial(tuple(v) + (0,))
        out = out * fac
    return out


def gradient_residual(op: Op, point) -> float:
    """Largest partial derivative of the potential at ``(point, 1)``."""
    pot = potential_of(op)
    z = list(point) + [1.0 + 0j]
    return max(abs(pot.derivative(i).evaluate(z)) for i in range(pot.nvars))


def _check_critical(op: Op, want: dict, verdict, count, points) -> list[str]:
    if verdict != want["verdict"]:
        return [f"critical verdict {verdict!r}, expected {want['verdict']!r}"]
    if count != want["count"]:
        return [f"critical count {count!r}, expected {want['count']!r}"]
    if verdict == "heuristic":
        worst = max((gradient_residual(op, p) for p in points), default=0.0)
        if worst >= RESIDUAL_LIMIT:
            return [f"heuristic point with gradient residual {worst:.3g}"]
    return []


def check_analyze(op: Op, workload: Workload, expected: dict, report_bytes: bytes, svg_text) -> list[str]:
    want = expected["bases"][op.base.name]
    report = json.loads(report_bytes)
    errors = []
    if report["check_failures"]:
        errors.append(f"check_failures {report['check_failures']}")
    if ("generators_generate_semigroup" in report["checks"]) != ("--fast" not in workload.flags):
        errors.append("generation check ran on the wrong path")
    cone = report["cone"]
    lifted = sorted(list(op.sym.move_back(tuple(v))) for v in cone["sigma_tilde_dual_hilbert_basis"])
    if lifted != want["sigma_tilde_dual_hilbert_basis"]:
        errors.append("Hilbert basis of the lifted dual cone differs")
    sigma = sorted(list(op.sym.move_back(tuple(v))) for v in cone["sigma_dual_hilbert_basis"])
    if sigma != want["sigma_dual_hilbert_basis"]:
        errors.append("Hilbert basis of the dual cone differs")
    if label_kinds(report) != want["label_kinds"]:
        errors.append(f"label kinds {label_kinds(report)}, expected {want['label_kinds']}")
    crit = report["potential"]["critical"]
    points = [[complex(re_, im) for re_, im in p] for p in crit["heuristic_points"]]
    errors += _check_critical(op, want["critical"], crit["verdict"], crit["count"], points)
    if workload.svg and (svg_text is None or "<svg" not in svg_text or not svg_text.rstrip().endswith("</svg>")):
        errors.append("no SVG document written")
    if op.sym.is_identity and digest(report_bytes) != expected["digests"][workload.name][op.base.name]:
        errors.append("report bytes of the base input changed")
    return errors


def check_potential(op: Op, workload: Workload, expected: dict, stdout_bytes: bytes) -> list[str]:
    want = expected["bases"][op.base.name]
    parsed = parse_verdict(stdout_bytes.decode("utf-8"))
    if parsed is None:
        return ["no verdict line"]
    # the command prints no heuristic points, so there is nothing to evaluate
    errors = _check_critical(op, want["critical"], *parsed, [])
    if op.sym.is_identity and digest(stdout_bytes) != expected["digests"][workload.name][op.base.name]:
        errors.append("output bytes of the base input changed")
    return errors

