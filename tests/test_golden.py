"""Each fixture's ``analyze`` report against the committed golden copy in
``tests/golden/``, and the stdout of ``hilbert`` and ``potential
--critical`` against ``tests/golden/cli/``, byte for byte.  The inputs in
``tests/golden/families/`` pin ``hilbert`` in dimensions 3 to 7 (cube(n),
the segments to e_1, ..., e_n and to (1, ..., 1); the 3-d dilation a, the
segments to (1, 0, a), (0, a, 1), (a, 1, 0) and (1, 1, 1); six segments in
dimension 4), as box scans of the fan cones gave it; ``hilbert`` of
seg3(24), the first 24 primitive directions of the ROADMAP's 3-d list, as
the fold of pairwise hulls summed it; and the report and the ``potential
--critical`` stdout of seg(16), sixteen planar segments; and the ``analyze
--fast`` report of unit-segments-3, the segments to e_1, e_2, e_3, whose
numeric search on W gives the only floats of an n != 2 report.

Every field must match exactly, value and JSON type, except the float
witnesses of the critical-point decision, which come from LAPACK and are
compared to within 1e-9 so that a -0.0 or a last-digit difference on
another host does not count.  Regenerate a golden file only when a report
is meant to change:

    PYTHONPATH=src python -m minksmooth.cli analyze fixtures/q5.json --out tests/golden/q5.json
    PYTHONPATH=src python -m minksmooth.cli hilbert fixtures/q5.json > tests/golden/cli/q5.hilbert.txt
    PYTHONPATH=src python -m minksmooth.cli potential fixtures/q5.json --critical > tests/golden/cli/q5.potential-critical.txt
    PYTHONPATH=src python -m minksmooth.cli hilbert tests/golden/families/cube5.json > tests/golden/families/cube5.hilbert.txt
    PYTHONPATH=src python -m minksmooth.cli analyze tests/golden/families/unit-segments-3.json --fast --out tests/golden/families/unit-segments-3.report.json
"""

import json
import re
from pathlib import Path

import pytest

from minksmooth.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
# golden file suffix -> the command line whose stdout it holds
STDOUT_GOLDENS = {"hilbert": ["hilbert"], "potential-critical": ["potential", "--critical"]}
FAMILIES = ROOT / "tests" / "golden" / "families"
FAMILY_HILBERT = sorted(p.name.removesuffix(".hilbert.txt") for p in FAMILIES.glob("*.hilbert.txt"))
FLOAT_WITNESSES = re.compile(r"\.potential\.critical\.(families\[\d+\]\.points|heuristic_points)$")
TOLERANCE = 1e-9


def mismatches(got, want, path="", approx=False):
    """Paths at which ``got`` differs from ``want``."""
    approx = approx or bool(FLOAT_WITNESSES.search(path))
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path]
        return [m for k in sorted(want) for m in mismatches(got[k], want[k], f"{path}.{k}", approx)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]", approx)]
    if approx and type(want) is float:
        return [] if type(got) is float and abs(got - want) <= TOLERANCE else [path]
    return [] if type(got) is type(want) and got == want else [path]


def test_golden_files_match_fixtures():
    assert FIXTURES
    assert sorted(p.name for p in (ROOT / "tests" / "golden").glob("*.json")) == [p.name for p in FIXTURES]
    stdout = sorted(f"{p.stem}.{suffix}.txt" for p in FIXTURES for suffix in STDOUT_GOLDENS)
    assert sorted(p.name for p in (ROOT / "tests" / "golden" / "cli").iterdir()) == stdout


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_analyze_report_matches_golden(tmp_path, fixture):
    out = tmp_path / "report.json"
    assert main(["analyze", str(fixture), "--out", str(out)]) == 0
    want = json.loads((ROOT / "tests" / "golden" / fixture.name).read_text())
    assert mismatches(json.loads(out.read_text()), want) == []


@pytest.mark.parametrize("suffix", sorted(STDOUT_GOLDENS))
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_stdout_matches_golden_bytes(capsys, fixture, suffix):
    command, *options = STDOUT_GOLDENS[suffix]
    assert main([command, str(fixture), *options]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (ROOT / "tests" / "golden" / "cli" / f"{fixture.stem}.{suffix}.txt").read_bytes()


def test_family_goldens_are_present():
    assert FAMILY_HILBERT == [
        "cube3", "cube4", "cube5", "cube6", "cube7", "dilation3d-3", "dilation3d-5", "dilation3d-7", "seg3-24",
        "simplex6-segment", "six-segments-4d",
    ]
    assert (FAMILIES / "seg16.report.json").is_file()
    assert (FAMILIES / "seg16.potential-critical.txt").is_file()
    assert (FAMILIES / "unit-segments-3.json").is_file()
    assert (FAMILIES / "unit-segments-3.report.json").is_file()
    assert (FAMILIES / "tt12.json").is_file()
    assert (FAMILIES / "tt12.potential-critical.txt").is_file()


@pytest.mark.parametrize("name", FAMILY_HILBERT)
def test_family_hilbert_stdout_matches_golden_bytes(capsys, name):
    assert main(["hilbert", str(FAMILIES / f"{name}.json")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (FAMILIES / f"{name}.hilbert.txt").read_bytes()


def test_seg16_report_matches_golden(tmp_path):
    # the same comparison as the fixtures' reports: exact but for the
    # float witnesses, which come from LAPACK
    out = tmp_path / "report.json"
    assert main(["analyze", str(FAMILIES / "seg16.json"), "--out", str(out)]) == 0
    want = json.loads((FAMILIES / "seg16.report.json").read_text())
    assert mismatches(json.loads(out.read_text()), want) == []


def test_unit_segments_3_report_matches_golden(tmp_path):
    # an n != 2 report: the verdict "heuristic" and the points of the
    # seeded Newton search on W, compared as the other reports' witnesses
    out = tmp_path / "report.json"
    assert main(["analyze", str(FAMILIES / "unit-segments-3.json"), "--fast", "--out", str(out)]) == 0
    want = json.loads((FAMILIES / "unit-segments-3.report.json").read_text())
    assert want["potential"]["critical"]["verdict"] == "heuristic"
    assert mismatches(json.loads(out.read_text()), want) == []


def test_seg16_potential_critical_stdout_matches_golden_bytes(capsys):
    # W's 546 terms and the 120 segment pairs' families, as the term-by-term
    # product and the Hermite forms of exactlin.hnf printed them
    assert main(["potential", str(FAMILIES / "seg16.json"), "--critical"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (FAMILIES / "seg16.potential-critical.txt").read_bytes()


def test_tt12_potential_critical_stdout_matches_golden_bytes(capsys):
    # three triangles whose large pair's resultant has degree 143 and factors
    # of degree 2, 13 and 128: the Hensel lifting and the recombination of
    # the factorization, and a partner polynomial of degree 128
    assert main(["potential", str(FAMILIES / "tt12.json"), "--critical"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (FAMILIES / "tt12.potential-critical.txt").read_bytes()


def test_comparison_tolerates_only_float_witnesses():
    critical = {"count": 1, "families": [{"points": [[[0.5, 0.0]]]}], "heuristic_points": [[[1.0, -0.0]]]}
    report = {"potential": {"critical": critical}, "cone": {"sigma_generators": [[1, 0]]}}
    nudged = json.loads(json.dumps(report))
    got = nudged["potential"]["critical"]
    got["families"][0]["points"][0][0][1] = -1e-12
    got["heuristic_points"][0][0] = [1.0 + 1e-12, 0.0]
    assert mismatches(nudged, report) == []
    got["families"][0]["points"][0][0][0] = 0.5 + 1e-6
    got["count"] = 1.0
    nudged["cone"]["sigma_generators"] = [[1, 0, 0]]
    assert mismatches(nudged, report) == [
        ".cone.sigma_generators[0]",
        ".potential.critical.count",
        ".potential.critical.families[0].points[0][0][0]",
    ]
