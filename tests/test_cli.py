import argparse
import contextlib
import html
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.densearith import dup_mul

import minksmooth
from minksmooth import cli, cone, exactlin, numeric, pipeline, polytope, potential, ratpoly
from minksmooth.cli import main
from minksmooth.exactlin import NotUnimodular
from minksmooth.pipeline import (
    AnalysisReport,
    SchemaError,
    TargetMismatch,
    _c,
    parse_input,
    run_pipeline,
)
from minksmooth.polytope import NotAdmissible
from minksmooth.svg import UnsupportedDimension, _escape, emit_svg

import newton_oracle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Q5_INPUT = {
    "name": "Q5",
    "dimension": 2,
    "summands": [
        {"vertices": [[0, 0], [1, 0], [0, 1]]},
        {"vertices": [[0, 0], [1, 1]]},
    ],
    "target": [[0, 0], [1, 0], [0, 1], [2, 1], [1, 2]],
}

Q3_INPUT = {
    "name": "Q3",
    "dimension": 2,
    "summands": [{"vertices": [[0, 0], [1, 0], [0, 1]]}] * 3,
}


def _svg(rep):
    # the report holds everything the diagram draws
    data = rep.data
    return emit_svg(data["name"], data["cone"]["sigma_dual_hilbert_basis"], data["polytope"]["summands"])


def write_input(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_round_trip():
    req = parse_input(json.dumps(Q5_INPUT))
    d = req.decomposition
    canonical = {
        "name": req.name,
        "dimension": d.n,
        "summands": [{"vertices": [list(v) for v in s.vertices]} for s in d.summands],
        "target": [list(v) for v in d.target.vertices],
    }
    again = parse_input(json.dumps(canonical, indent=2, sort_keys=True))
    assert again.decomposition == d
    assert again.name == req.name


def test_parse_rejects_non_integer():
    bad = json.loads(json.dumps(Q5_INPUT))
    bad["summands"][0]["vertices"][0][0] = 0.5
    with pytest.raises(SchemaError) as err:
        parse_input(json.dumps(bad))
    assert "summands[0].vertices[0][0]" in str(err.value)


def test_parse_rejects_boolean_dimension(tmp_path):
    # JSON true is a Python int; like a vertex entry, it is not a dimension
    payload = {"dimension": True, "summands": [{"vertices": [[0], [1]]}, {"vertices": [[0], [1]]}]}
    with pytest.raises(SchemaError) as err:
        parse_input(json.dumps(payload))
    assert str(err.value).startswith("dimension:")
    assert main(["analyze", write_input(tmp_path, payload)]) == 2


def test_parse_rejects_bad_json_with_line_info():
    with pytest.raises(SchemaError) as err:
        parse_input("{\n  \"name\": }")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        pytest.param(
            '{"dimension": ' + "9" * 5000 + "}",
            "Exceeds the limit (4300 digits)",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no integer string-conversion limit"
            ),
        ),
    ],
    ids=["too-deep", "too-long"],
)
def test_json_the_parser_cannot_load_is_a_schema_error(tmp_path, capsys, text, message):
    # json.loads raises RecursionError or a plain ValueError here, not a
    # JSONDecodeError; both are refused as schema errors in one line
    with pytest.raises(SchemaError, match=re.escape(message)):
        parse_input(text)
    path = tmp_path / "in.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(["hilbert", str(path)]) == cli.EXIT_SCHEMA == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: cannot load JSON: ") and err.count("\n") == 1


def test_parse_rejects_target_mismatch():
    bad = json.loads(json.dumps(Q5_INPUT))
    bad["target"] = [[0, 0], [1, 0], [0, 1]]
    with pytest.raises(TargetMismatch):
        parse_input(json.dumps(bad))


def test_parse_rejects_unknown_field():
    # former option fields are not accepted at the top level either
    for field, value in (
        ("extra", 1),
        ("hilbert_box", 3),
        ("verify_level", "fast"),
    ):
        bad = json.loads(json.dumps(Q5_INPUT))
        bad[field] = value
        with pytest.raises(SchemaError) as err:
            parse_input(json.dumps(bad))
        assert f"unknown fields ['{field}']" in str(err.value)


def test_parse_rejects_bad_option_values():
    # "options" and its former fields are gone; the verification level is
    # the --fast flag alone, so any options object, valid or not, is refused
    for options in (
        {},
        {"verify_level": "fast"},
        {"hilbert_box": 3},
        {"root_circle_tol": 1e-12},
        {"verify_level": "thorough"},
        {"root_circle_tol": -1e-9},
        {"emit_svg": 5},
        {"emit_svg": "x.svg"},
        {"unknown_option": 1},
    ):
        bad = json.loads(json.dumps(Q5_INPUT))
        bad["options"] = options
        with pytest.raises(SchemaError) as err:
            parse_input(json.dumps(bad))
        assert "unknown fields ['options']" in str(err.value)


def test_pipeline_q5_golden_values():
    req = parse_input(json.dumps(Q5_INPUT))
    rep = run_pipeline(req)
    assert rep.failures == []
    data = rep.data
    assert data["checks"]["final_cone_equals_dual_sigma"]
    assert data["checks"]["newton_polytope_is_target_at_height_one"]
    assert data["checks"]["generators_generate_semigroup"]
    assert len(data["cone"]["sigma_tilde_dual_hilbert_basis"]) == 9
    assert len(data["cone"]["sigma_dual_hilbert_basis"]) == 8
    assert data["fibration"]["height_one"]["matrix"][2] == [1, 1, 1]
    assert data["potential"]["critical"]["verdict"] == "finite"
    assert data["potential"]["critical"]["count"] == 2


def test_pipeline_single_summand_triangle():
    req = parse_input(
        json.dumps(
            {
                "name": "one-simplex",
                "dimension": 2,
                "summands": [{"vertices": [[0, 0], [1, 0], [0, 1]]}],
            }
        )
    )
    rep = run_pipeline(req)
    assert rep.failures == []
    assert rep.data["potential"]["critical"]["verdict"] == "none"


def test_pipeline_inadmissible_raises():
    req = parse_input(
        json.dumps(
            {
                "name": "bad",
                "dimension": 2,
                # full-dimensional, so parsing admits it; the first segment
                # is not primitive
                "summands": [{"vertices": [[0, 0], [2, 0]]}, {"vertices": [[0, 0], [0, 1]]}],
            }
        )
    )
    with pytest.raises(NotAdmissible):
        run_pipeline(req)


def test_report_deterministic():
    req1 = parse_input(json.dumps(Q5_INPUT))
    req2 = parse_input(json.dumps(Q5_INPUT))
    assert run_pipeline(req1).to_json() == run_pipeline(req2).to_json()


_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.integers(), max_size=4).map(tuple),
        st.lists(st.lists(st.integers(), max_size=3), max_size=3),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _json_values))
def test_report_text_is_json_dumps(data):
    # the report's own encoder writes json.dumps(indent=2, sort_keys=True)
    # byte for byte: escapes, non-ASCII text, nan and infinities, -0.0,
    # bools among ints, tuples and empty containers
    assert AnalysisReport(data, []).to_json() == json.dumps(data, indent=2, sort_keys=True)


def test_svg_q5_labels():
    req = parse_input(json.dumps(Q5_INPUT))
    rep = run_pipeline(req)
    doc = _svg(rep)
    assert doc.startswith("<?xml")
    for label in ["(-1,-1,3)", "(1,0,0)", "(0,1,0)", "(1,-1,1)", "(-1,1,1)"]:
        assert label in doc
    assert doc.count('stroke="#1f4e8c"') == 8  # one ray per Hilbert-basis element
    assert "stroke-dasharray" in doc
    assert _svg(rep) == doc  # deterministic


def test_svg_q3_ray_count():
    req = parse_input(json.dumps(Q3_INPUT))
    rep = run_pipeline(req)
    doc = _svg(rep)
    assert doc.count('stroke="#1f4e8c"') == 4


def test_svg_rejects_other_dimensions():
    with pytest.raises(UnsupportedDimension):
        emit_svg("x", [(1, 0, 0, 0)], [[(0, 0, 0)]])


def test_cli_analyze_success(tmp_path, capsys):
    path = write_input(tmp_path, Q5_INPUT)
    out = tmp_path / "report.json"
    svg = tmp_path / "diagram.svg"
    code = main(["analyze", path, "--out", str(out), "--svg", str(svg)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["check_failures"] == []
    assert svg.read_text().startswith("<?xml")


def test_cli_exit_codes(tmp_path):
    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text('{"name": 3}')
    assert main(["analyze", str(bad_schema)]) == 2

    inadmissible = write_input(
        tmp_path,
        {"name": "bad", "dimension": 2, "summands": [{"vertices": [[0, 0], [2, 0]]}]},
        "inadmissible.json",
    )
    assert main(["analyze", inadmissible]) == 3

    q5 = write_input(tmp_path, Q5_INPUT, "q5.json")
    with pytest.raises(SystemExit) as exc:  # a former flag, now an argparse usage error
        main(["analyze", q5, "--hilbert-box", "1"])
    assert exc.value.code == 2
    # a former input field, now unknown; the verification level is --fast alone
    assert main(["analyze", write_input(tmp_path, {**Q5_INPUT, "options": {"verify_level": "fast"}})]) == 2

    mismatch = json.loads(json.dumps(Q5_INPUT))
    mismatch["target"] = [[0, 0], [1, 0], [0, 1]]
    assert main(["analyze", write_input(tmp_path, mismatch, "mismatch.json")]) == 3


def test_cli_missing_file_and_flat_target(tmp_path, capsys):
    assert main(["hilbert", str(tmp_path / "absent.json")]) == 2
    flat = write_input(
        tmp_path,
        {"name": "flat", "dimension": 2, "summands": [{"vertices": [[0, 0], [1, 0]]}]},
        "flat.json",
    )
    # a segment does not span the plane: the lifted dual cone has no Hilbert
    # basis, so the pipeline rejects the input instead of crashing
    assert main(["analyze", flat]) == 3
    assert main(["hilbert", flat]) == 3
    assert main(["diagram", flat, "--svg", str(tmp_path / "flat.svg")]) == 3
    # the segments to e1 and e2 in dimension 40 span a plane: parsing finds
    # it flat before any hull, so every command refuses it with one line,
    # diagram and analyze --svg before their dimension check
    unit = lambda i: [int(j == i) for j in range(40)]
    flat40 = write_input(
        tmp_path,
        {"dimension": 40, "summands": [{"vertices": [[0] * 40, unit(i)]} for i in (0, 1)]},
        "flat40.json",
    )
    flatness = (
        "inadmissible input: target polytope is not full-dimensional in its ambient space;"
        " restate the input in the dimension it actually spans\n"
    )
    for argv in (
        ["analyze", flat40],
        ["hilbert", flat40],
        ["diagram", flat40, "--svg", str(tmp_path / "flat40.svg")],
        ["analyze", flat40, "--svg", str(tmp_path / "flat40.svg")],
    ):
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr() == ("", flatness)
    assert not (tmp_path / "flat.svg").exists() and not (tmp_path / "flat40.svg").exists()


@pytest.mark.parametrize(
    "summands",
    [
        [[[0, 0], [2, 0]]],  # a non-primitive segment
        [[[1, 0], [2, 0]]],  # the origin is not a vertex
        [[[0, 0], [1, 0]], [[0, 0], [3, 0]]],
    ],
    ids=["non-primitive", "origin-not-vertex", "two-parallel"],
)
def test_parse_reports_flatness_before_admissibility(summands):
    # flat and inadmissible: the rank check runs before any hull, so the
    # input is refused as flat
    with pytest.raises(NotAdmissible, match="not full-dimensional"):
        parse_input(json.dumps({"dimension": 2, "summands": [{"vertices": s} for s in summands]}))


def test_parse_takes_no_hull_of_a_flat_input(monkeypatch):
    # the rank of the summands' point differences refuses it; a points-only
    # input has rank 0, and the target is checked for its schema first
    def refuse(points):
        raise AssertionError("hull taken of a flat input")

    monkeypatch.setattr(pipeline, "convex_hull", refuse)
    for payload in (
        {"dimension": 3, "summands": [{"vertices": [[0, 0, 0], [1, 0, 0]]}, {"vertices": [[0, 0, 0], [0, 1, 0]]}]},
        {"dimension": 2, "summands": [{"vertices": [[0, 0]]}, {"vertices": [[0, 0]]}]},
    ):
        with pytest.raises(NotAdmissible, match="not full-dimensional"):
            parse_input(json.dumps(payload))
    with pytest.raises(SchemaError, match="target"):
        parse_input(json.dumps({"dimension": 2, "summands": [{"vertices": [[0, 0]]}], "target": [[0]]}))


def test_cli_potential_refuses_a_flat_target(tmp_path, capsys):
    # the rank gate that hilbert passes through spanning_sigma: exit 3 with
    # hilbert's line, before anything is printed
    unit = lambda i: [int(j == i) for j in range(40)]
    for payload in (
        {"dimension": 2, "summands": [{"vertices": [[0, 0], [1, 0]]}]},
        {"dimension": 40, "summands": [{"vertices": [[0] * 40, unit(i)]} for i in (0, 1)]},
    ):
        path = write_input(tmp_path, payload)
        capsys.readouterr()
        assert main(["hilbert", path]) == 3
        refusal = capsys.readouterr()
        assert refusal.out == "" and "not full-dimensional" in refusal.err
        for flags in ([], ["--critical"]):
            assert main(["potential", path, *flags]) == 3
            assert capsys.readouterr() == ("", refusal.err)


def test_cli_write_failures_name_the_write(tmp_path, capsys):
    # an output that cannot be written exits 2 like an unreadable input, but
    # says which of the two failed
    q5, missing = str(FIXTURES / "q5.json"), str(tmp_path / "absent" / "out")
    runs = [["analyze", q5, "--out", missing], ["analyze", q5, "--fast", "--svg", missing], ["diagram", q5, "--svg", missing]]
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("cannot write output: [Errno 2]")
    assert main(["analyze", missing]) == 2
    assert capsys.readouterr().err.startswith("cannot read input: [Errno 2]")


def test_cli_undecodable_input_cannot_be_read(tmp_path, capsys):
    # input is read as UTF-8; a Latin-1 file is an unreadable input, not a
    # library error
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(dict(Q5_INPUT, name="Q5 caf\u00e9"), ensure_ascii=False).encode("latin-1"))
    capsys.readouterr()
    assert main(["analyze", str(path)]) == cli.EXIT_SCHEMA == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read input: 'utf-8' codec can't decode byte 0xe9") and err.count("\n") == 1


def test_cli_broken_stdout_is_a_failed_write(monkeypatch, capsys):
    # stdout closed early, as by `| head -1`, is an output that cannot be
    # written, not an unreadable input; stdout then points at os.devnull, so
    # the flush at exit raises no second BrokenPipeError
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    capsys.readouterr()
    assert main(["potential", str(FIXTURES / "q5.json"), "--critical"]) == cli.EXIT_SCHEMA == 2
    assert capsys.readouterr().err == "cannot write output: [Errno 32] Broken pipe\n"
    with sys.stdout as devnull:
        assert devnull.name == os.devnull
        print("more", flush=True)


@pytest.mark.parametrize("name", ["Q5 \u0001", "Q5 \ud800"], ids=["control", "lone-surrogate"])
def test_cli_name_the_svg_cannot_hold_leaves_no_file(tmp_path, capsys, name):
    # XML 1.0 forbids a control character even escaped, and UTF-8 cannot
    # encode a lone surrogate: the name is refused before any file is opened
    path = write_input(tmp_path, dict(Q5_INPUT, name=name))
    out, svg = tmp_path / "r.json", tmp_path / "d.svg"
    for argv in (["analyze", path, "--fast", "--out", str(out), "--svg", str(svg)], ["diagram", path, "--svg", str(svg)]):
        capsys.readouterr()
        assert main(argv) == cli.EXIT_SCHEMA == 2
        assert capsys.readouterr().err.startswith("schema error: name: ")
        assert not out.exists() and not svg.exists()


def test_cli_refuses_out_and_svg_naming_one_file(tmp_path, capsys):
    # the SVG would overwrite the report: refused before any file is opened,
    # however the two paths are spelled
    q5, same = str(FIXTURES / "q5.json"), tmp_path / "same.txt"
    (tmp_path / "sub").mkdir()
    for other in (str(same), str(tmp_path / "sub" / ".." / "same.txt")):
        capsys.readouterr()
        assert main(["analyze", q5, "--fast", "--out", str(same), "--svg", other]) == cli.EXIT_SCHEMA == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: --out and --svg name one file") and err.count("\n") == 1
        assert not same.exists()
    same.write_bytes(b"older report\n")
    assert main(["analyze", q5, "--fast", "--out", str(same), "--svg", str(same)]) == 2
    assert same.read_bytes() == b"older report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["same.txt", "sub"]


def test_parse_keeps_every_name_xml_allows():
    # tab, newline, non-ASCII and astral characters stay in the name
    for name in ("Q5\tcaf\u00e9\n\U0001f600", "\x7f\ue000\ufffd"):
        assert parse_input(json.dumps(dict(Q5_INPUT, name=name))).name == name
    for name in ("\x1f", "\udfff", "\ufffe"):
        with pytest.raises(SchemaError, match="^name: "):
            parse_input(json.dumps(dict(Q5_INPUT, name=name)))


def test_cli_failed_svg_write_leaves_no_report(tmp_path, capsys):
    # the report is written with the SVG or not at all: a failed command
    # leaves no file, and prints no report to stdout either
    q5, out, missing = str(FIXTURES / "q5.json"), tmp_path / "r.json", str(tmp_path / "absent" / "d.svg")
    assert main(["analyze", q5, "--out", str(out), "--svg", missing]) == 2
    assert not out.exists()
    out.write_text("older report\n")
    assert main(["analyze", q5, "--fast", "--out", str(out), "--svg", missing]) == 2
    assert not out.exists()
    capsys.readouterr()
    assert main(["analyze", q5, "--fast", "--svg", missing]) == 2
    assert capsys.readouterr().out == ""


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


@pytest.mark.parametrize(
    "owner, target, exc",
    [
        (cli, "run_pipeline", cone.NotPointed("cone contains a line")),
        (cli, "run_pipeline", cone.NotFullDim("cone is not full-dimensional")),
        (cli, "run_pipeline", NotUnimodular("not unimodular")),
        (cli, "run_pipeline", ValueError("stray\nvalue")),
        (cli, "hilbert_basis", cone.NotPointed("cone contains a line")),
        (numeric, "_lstsq_stack", np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")),
    ],
    ids=["NotPointed", "NotFullDim", "NotUnimodular", "ValueError", "hilbert-NotPointed", "LinAlgError"],
)
def test_cli_library_errors_exit_5_in_one_line(tmp_path, monkeypatch, capsys, owner, target, exc):
    # a ValueError no other handler claims exits 5 with a one-line message;
    # a LinAlgError of the Newton search is one, raised from the real pipeline
    monkeypatch.setattr(owner, target, _raise(exc))
    path = write_input(tmp_path, SPATIAL_SEGMENTS_K4)
    out = tmp_path / "r.json"
    argv = ["hilbert", path] if target == "hilbert_basis" else ["analyze", path, "--fast", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == cli.EXIT_LIBRARY == 5
    assert capsys.readouterr().err == f"library error: {type(exc).__name__}: {' '.join(str(exc).split())}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "exc", [RecursionError("maximum recursion depth exceeded"), MemoryError()], ids=["RecursionError", "MemoryError"]
)
@pytest.mark.parametrize(
    "owner, target, argv",
    [
        (cli, "run_pipeline", ["analyze", "--fast", "--out", "r.json"]),
        (potential, "critical_exists", ["potential", "--critical"]),
    ],
    ids=["analyze", "potential"],
)
def test_cli_resource_errors_exit_5_in_one_line(tmp_path, monkeypatch, capsys, owner, target, argv, exc):
    # neither a ValueError nor an ArithmeticError, still one line and no
    # traceback, no report and nothing on stdout
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(owner, target, _raise(exc))
    path = write_input(tmp_path, Q5_INPUT)
    capsys.readouterr()
    assert main([argv[0], path, *argv[1:]]) == cli.EXIT_LIBRARY
    out, err = capsys.readouterr()
    assert err == f"library error: {type(exc).__name__}: {exc}\n"
    assert out == ""
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv",
    [["hilbert"], ["analyze", "--fast", "--out", "r.json", "--svg", "d.svg"], ["diagram", "--svg", "d.svg"]],
    ids=["hilbert", "analyze", "diagram"],
)
def test_cli_arithmetic_errors_exit_5_in_one_line(tmp_path, monkeypatch, capsys, argv):
    # a coordinate so large that a fan cone's Hilbert basis would hold about
    # 10**300 elements exceeds the planar walk's budget; that is a library
    # error, not a traceback
    monkeypatch.chdir(tmp_path)
    summands = [{"vertices": [[0, 0], [1, 10**300]]}, {"vertices": [[0, 0], [1, 0]]}]
    path = write_input(tmp_path, {"dimension": 2, "summands": summands})
    capsys.readouterr()
    assert main([argv[0], path, *argv[1:]]) == cli.EXIT_LIBRARY == 5
    err = capsys.readouterr().err
    assert err.startswith("library error: BasisTooLarge: ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "d.svg").exists()


@pytest.mark.parametrize("argv", [["hilbert"], ["analyze", "--fast", "--out", "r.json"]], ids=["hilbert", "analyze"])
def test_cli_refuses_a_huge_parallelepiped_in_one_line(tmp_path, monkeypatch, capsys, argv):
    # the segments to e_1, e_2 and (1, 1, 10**300): the fan cones of Q are
    # simplicial of |det| about 10**300, refused before any point is made
    monkeypatch.chdir(tmp_path)
    summands = [{"vertices": [[0, 0, 0], v]} for v in ([1, 0, 0], [0, 1, 0], [1, 1, 10**300])]
    path = write_input(tmp_path, {"dimension": 3, "summands": summands})
    capsys.readouterr()
    assert main([argv[0], path, *argv[1:]]) == cli.EXIT_LIBRARY
    err = capsys.readouterr().err
    assert err.startswith("library error: BasisTooLarge: fundamental parallelepipeds hold ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [["hilbert"], ["potential", "--critical"]], ids=["hilbert", "potential"])
def test_cli_refuses_a_summand_with_many_edges_as_inadmissible(tmp_path, capsys, argv):
    # 60 points on the moment curve span a neighbourly 3-polytope: all
    # C(60, 2) vertex pairs are edges, so the walk would test C(1771, 2)
    # candidate normal subsets; the sum with a segment is one hull instead,
    # and the admissibility gate refuses the summand, exit 3
    moment = [[t, t * t, t**3] for t in range(60)]
    summands = [{"vertices": moment}, {"vertices": [[0, 0, 0], [1, 0, 0]]}]
    path = write_input(tmp_path, {"dimension": 3, "summands": summands})
    capsys.readouterr()
    assert main([argv[0], path, *argv[1:]]) == cli.EXIT_INADMISSIBLE == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("inadmissible input: summand 1: nonzero vertices are not linearly independent")


def test_cli_potential_critical_refuses_a_huge_degree(tmp_path, capsys):
    # the two segments meet in |det| = 10**300 points; the planar decision
    # refuses before listing any, in one line, and before printing anything
    summands = [{"vertices": [[0, 0], [1, 10**300]]}, {"vertices": [[0, 0], [1, 0]]}]
    path = write_input(tmp_path, {"dimension": 2, "summands": summands})
    capsys.readouterr()
    assert main(["potential", path, "--critical"]) == cli.EXIT_LIBRARY == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("library error: DegreeTooLarge: ") and err.count("\n") == 1


def test_cli_analyze_refuses_witnesses_too_large_to_compute(tmp_path, monkeypatch, capsys):
    # the segments (1, 0) and (1, 2000) meet in 2000 points, under the
    # decision's degree bound, and their one family's fibre is the binomial
    # z2^2000 - r: a 2000 x 2000 companion eigenproblem.  It is refused
    # before any root is taken, so numpy.roots is never called
    monkeypatch.setattr(np, "roots", _raise(AssertionError("analyze took roots past the witness budget")))
    summands = [{"vertices": [[0, 0], [1, 0]]}, {"vertices": [[0, 0], [1, 2000]]}]
    path = write_input(tmp_path, {"dimension": 2, "summands": summands})
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["analyze", path, "--fast", "--out", str(out)]) == cli.EXIT_LIBRARY == 5
    err = capsys.readouterr().err
    assert err.startswith("library error: DegreeTooLarge: ") and err.count("\n") == 1
    assert not out.exists()


def _eigen_work(families):
    """The witness budget's count: deg f^3 + deg f * deg h^3 over the families."""
    return sum((len(f) - 1) ** 3 + (len(f) - 1) * (len(h) - 1) ** 3 for f, h, _ in (fam.fibre() for fam in families))


def _segments_report(*vs):
    d = parse_input(json.dumps({"dimension": 2, "summands": [{"vertices": [[0, 0], list(v)]} for v in vs]}))
    return potential.critical_exists(d.decomposition)


# six segments whose 32 families each stay under the budget, 4.93 * 10^9
# operations together
SIX_SEGMENTS = [(1, 0), (1, 999), (1, 997), (1, 995), (1, 993), (1, 991)]


def test_witness_budget_admits_the_largest_tested_family():
    # dilation a=24, the largest report in tests, CI and bench: 10 families,
    # the largest with z1 of degree 576 and one partner above each root,
    # 2.77 * 10^8 operations in all; it stays within the budget
    report = _segments_report((1, 24), (24, 1), (1, -24))
    assert _eigen_work(report.families) == 277_015_964
    assert len(report.families) == len(potential.witnesses(report)) == 10
    assert sum(map(len, potential.witnesses(report))) == 1200


def test_segment_witnesses_build_no_sympy_polynomial():
    # a segment pair's fibre is integer coefficient lists: dilation a=24
    # yields its 10 families and 1200 witnesses in a fresh interpreter that
    # never loads sympy, which no module of the package imports
    code = (
        "import json, sys\n"
        "from minksmooth.pipeline import parse_input\n"
        "from minksmooth.potential import critical_exists, witnesses\n"
        "vs = [(1, 24), (24, 1), (1, -24)]\n"
        "d = parse_input(json.dumps({'dimension': 2, 'summands': [{'vertices': [[0, 0], list(v)]} for v in vs]}))\n"
        "report = critical_exists(d.decomposition)\n"
        "print(len(report.families), sum(map(len, witnesses(report))), 'sympy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["10", "1200", "False"]


def test_witness_budget_bounds_the_whole_report(monkeypatch):
    # the budget counts the report, not each family: at exactly its sum a
    # report is admitted, one operation below it is refused before any root
    six = _segments_report(*SIX_SEGMENTS)
    assert len(six.families) == 32 and _eigen_work(six.families) == 4_925_494_000
    assert all(_eigen_work([fam]) < potential._MAX_EIGEN_WORK for fam in six.families)
    report = _segments_report((1, 0), (0, 1), (1, 1))
    work = _eigen_work(report.families)
    monkeypatch.setattr(potential, "_MAX_EIGEN_WORK", work)
    assert sum(map(len, potential.witnesses(report))) == 3
    monkeypatch.setattr(potential, "_MAX_EIGEN_WORK", work - 1)
    monkeypatch.setattr(np, "roots", _raise(AssertionError("roots taken past the witness budget")))
    with pytest.raises(potential.DegreeTooLarge):
        potential.witnesses(_segments_report((1, 0), (0, 1), (1, 1)))


def test_cli_analyze_refuses_a_report_whose_witnesses_are_too_large(tmp_path, monkeypatch, capsys):
    # no family of the six segments is over the budget, but their sum is:
    # analyze refuses before any root is taken, in one line and with no
    # report
    monkeypatch.setattr(np, "roots", _raise(AssertionError("analyze took roots past the witness budget")))
    path = write_input(tmp_path, {"dimension": 2, "summands": [{"vertices": [[0, 0], list(v)]} for v in SIX_SEGMENTS]})
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["analyze", path, "--fast", "--out", str(out)]) == cli.EXIT_LIBRARY == 5
    err = capsys.readouterr().err
    assert err.startswith("library error: DegreeTooLarge: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    # the parser is built at import; main only parses with it
    monkeypatch.setattr(argparse, "ArgumentParser", _raise(AssertionError("main built a parser")))
    path = write_input(tmp_path, Q5_INPUT)
    assert main(["hilbert", path]) == 0
    assert main(["potential", path]) == 0


def test_analyze_searches_on_the_potential_it_built(tmp_path, monkeypatch):
    # an n != 2 analyze builds W once and hands that W to the search, which
    # runs once; no planar analyze searches, and potential --critical never
    # does
    built, searched = [], []
    build, search = potential.build_potential, numeric.heuristic_points

    def counted_build(d):
        built.append(build(d))
        return built[-1]

    def counted_search(w):
        searched.append(w)
        return search(w)

    _swap_every_binding(monkeypatch, build, counted_build)
    _swap_every_binding(monkeypatch, search, counted_search)
    payload = {"dimension": 3, "summands": [{"vertices": [[0, 0, 0], v]} for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]}
    path = write_input(tmp_path, payload)
    assert main(["analyze", path, "--fast", "--out", str(tmp_path / "r.json")]) == 0
    assert len(built) == len(searched) == 1 and searched[0] is built[0]
    assert main(["potential", path, "--critical"]) == 0
    assert len(built) == 2 and len(searched) == 1
    for fixture in sorted(FIXTURES.glob("*.json")):
        assert main(["analyze", str(fixture), "--fast", "--out", str(tmp_path / "r.json")]) == 0
    assert len(searched) == 1


def test_cli_cross_check_failure_exit(tmp_path, monkeypatch, capsys):
    import minksmooth.cli as cli_mod
    from minksmooth.pipeline import AnalysisReport

    def fake_pipeline(req, fast=False):
        return AnalysisReport({"doctored": True}, ["checks.final_cone_equals_dual_sigma"])

    monkeypatch.setattr(cli_mod, "run_pipeline", fake_pipeline)
    path = write_input(tmp_path, Q5_INPUT)
    assert main(["analyze", path, "--out", str(tmp_path / "r.json")]) == 4
    assert "cross-check" in capsys.readouterr().err


def _swap_every_binding(monkeypatch, original, replacement):
    for module in [m for name, m in sys.modules.items() if name.startswith("minksmooth")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("fixture", ["cubic", "q6_segments"])
def test_pipeline_checks_admissibility_once(monkeypatch, fixture):
    original = polytope.is_admissible
    calls = []

    def counted(d):
        calls.append(d)
        return original(d)

    _swap_every_binding(monkeypatch, original, counted)
    req = parse_input((FIXTURES / f"{fixture}.json").read_text())
    assert run_pipeline(req).failures == []
    assert calls == [req.decomposition]


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_pipeline_derives_sigma_once_and_takes_no_hull(monkeypatch, fixture):
    # sigma, sigma-tilde, the final base-diagram cone and the Newton check
    # share one cone over Q: after parsing, a run makes one double
    # description pass, for sigma's facets, and takes no hull
    req = parse_input((FIXTURES / f"{fixture}.json").read_text())
    want = run_pipeline(req).to_json()
    calls = []

    def counted(ineqs, dim):
        calls.append(dim)
        return original(ineqs, dim)

    def refuse(points):
        raise AssertionError("the Newton check took a hull")

    original = cone.halfspace_description
    _swap_every_binding(monkeypatch, original, counted)
    monkeypatch.setattr(potential, "convex_hull", refuse)
    for cached in [v for v in vars(cone).values() if hasattr(v, "cache_clear")]:
        cached.cache_clear()
    assert run_pipeline(req).to_json() == want
    d = req.decomposition
    assert calls == [d.n + 1]
    # with sigma cached, sigma-tilde is read off it with no pass at all
    polytope.sigma_tilde.cache_clear()
    polytope.sigma_tilde(d)
    assert calls == [d.n + 1]


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_pipeline_takes_hilbert_bases_of_the_lifted_cones_only(monkeypatch, fixture):
    # sigma dual and sigma-tilde dual go through the checked entry point;
    # each fan cone C_u, pointed and full-dimensional by construction, goes
    # straight to the box scan
    req = parse_input((FIXTURES / f"{fixture}.json").read_text())
    original = cone.hilbert_basis
    dims = []

    def counted(c):
        dims.append(c.ambient_dim)
        return original(c)

    _swap_every_binding(monkeypatch, original, counted)
    for cached in [v for v in vars(cone).values() if hasattr(v, "cache_clear")]:
        cached.cache_clear()
    assert run_pipeline(req).failures == []
    d = req.decomposition
    assert set(dims) == {d.n + 1, d.n + d.k}


def _drop_a_vertex(po, d):
    terms = dict(po.terms)
    del terms[max(d.target.vertices) + (1,)]
    return potential.LaurentPoly(po.nvars, terms)


def _add_outside_q(po, d):
    far = tuple(max(v[i] for v in d.target.vertices) + 1 for i in range(d.n))
    return po + potential.LaurentPoly.monomial(far + (1,))


def _add_off_height_one(po, d):
    return po + potential.LaurentPoly.monomial((0,) * d.n + (2,))


@pytest.mark.parametrize("broken", [_drop_a_vertex, _add_outside_q, _add_off_height_one])
def test_newton_check_fails_on_a_wrong_potential(tmp_path, monkeypatch, broken):
    original = potential.build_potential
    monkeypatch.setattr(potential, "build_potential", lambda d: broken(original(d), d))
    path = write_input(tmp_path, Q5_INPUT)
    out = tmp_path / "r.json"
    assert main(["analyze", path, "--out", str(out)]) == 4
    data = json.loads(out.read_text())
    assert data["checks"]["newton_polytope_is_target_at_height_one"] is False
    assert data["check_failures"] == ["checks.newton_polytope_is_target_at_height_one"]
    # build_potential is still the broken one
    po = potential.build_potential(parse_input(json.dumps(Q5_INPUT)).decomposition)
    hull = potential.newton_polytope(po).vertices
    assert data["potential"]["newton_polytope_vertices"] == [list(v) for v in hull]


def _extra_chart_root():
    # a pair's chart polynomial gains a root its elimination does not see
    chart_points = ratpoly._chart_points
    return lambda sm_i, sm_j: dup_mul(chart_points(sm_i, sm_j), [1, -7], ZZ)


def _identity_hnf():
    # a wrong transform: the completed basis no longer starts with the input
    # rows; the Hermite form itself stays right, as the Smith invariant
    # factors are read off it
    hnf = exactlin.hnf
    return lambda m: (hnf(m)[0], exactlin.identity(len(m)))


@pytest.mark.parametrize(
    "command, target, broken",
    [
        (["analyze", "--out", "r.json"], "ratpoly._chart_points", _extra_chart_root),
        (["potential", "--critical"], "ratpoly._chart_points", _extra_chart_root),
        (["analyze", "--out", "r.json"], "exactlin.hnf", _identity_hnf),
    ],
    ids=["analyze-chart-count", "potential-chart-count", "analyze-basis-completion"],
)
def test_cli_cross_check_error_exit(tmp_path, monkeypatch, capsys, command, target, broken):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(f"minksmooth.{target}", broken())
    path = write_input(tmp_path, Q5_INPUT)
    assert main([command[0], path, *command[1:]]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal cross-check failure: ")
    assert "Traceback" not in err


def test_pipeline_three_dimensional_input():
    req = parse_input(
        json.dumps(
            {
                "name": "tetra-plus-diagonal",
                "dimension": 3,
                "summands": [
                    {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                    {"vertices": [[0, 0, 0], [1, 1, 1]]},
                ],
            }
        )
    )
    rep = run_pipeline(req, fast=True)
    assert rep.failures == []
    assert "generators_generate_semigroup" not in rep.data["checks"]
    assert rep.data["potential"]["critical"]["verdict"] == "heuristic"
    assert rep.data["fibration"]["height_one"]["matrix"][-1] == [1, 1, 1, 1]
    with pytest.raises(UnsupportedDimension):
        _svg(rep)


def test_pipeline_q6_second_known_values():
    req = parse_input(
        json.dumps(
            {
                "name": "Q6-segments",
                "dimension": 2,
                "summands": [
                    {"vertices": [[0, 0], [1, 0]]},
                    {"vertices": [[0, 0], [0, 1]]},
                    {"vertices": [[0, 0], [1, 1]]},
                ],
            }
        )
    )
    rep = run_pipeline(req)
    assert rep.failures == []
    crit = rep.data["potential"]["critical"]
    assert crit["verdict"] == "finite" and crit["count"] == 3
    terms = {tuple(e): c for e, c in rep.data["potential"]["terms"]}
    assert terms[(1, 1, 1)] == 2  # doubled interior monomial of the hexagon


def test_cli_hilbert_lists_basis(tmp_path, capsys):
    path = write_input(tmp_path, Q5_INPUT)
    assert main(["hilbert", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert "0 0 1 0" in lines


def test_cli_potential(tmp_path, capsys):
    path = write_input(tmp_path, Q5_INPUT)
    assert main(["potential", path, "--critical"]) == 0
    out = capsys.readouterr().out
    assert "verdict: finite (count 2)" in out
    assert "[-1, 1, 1]" in out


def test_cli_potential_critical_at_dilation_six(tmp_path, capsys):
    # segments (1, a), (a, 1), (1, -a) at a = 6, where elimination on
    # hand-written Fraction polynomials took about five seconds
    data = {"dimension": 2, "summands": [{"vertices": [[0, 0], v]} for v in ([1, 6], [6, 1], [1, -6])]}
    path = write_input(tmp_path, data)
    assert main(["potential", path, "--critical"]) == 0
    assert "verdict: finite (count 82)" in capsys.readouterr().out


HEURISTIC_LINES = "verdict: heuristic\n  note: dimension is not 2: numeric multi-start search, not a proof\n"


@pytest.mark.parametrize(
    "payload, terms",
    [
        (
            {"dimension": 3, "summands": [{"vertices": [[0, 0, 0], v]} for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]},
            "1*z4^1 + 1*z3^1*z4^1 + 1*z2^1*z4^1 + 1*z2^1*z3^1*z4^1 + 1*z1^1*z4^1"
            " + 1*z1^1*z3^1*z4^1 + 1*z1^1*z2^1*z4^1 + 1*z1^1*z2^1*z3^1*z4^1",
        ),
        ({"dimension": 1, "summands": [{"vertices": [[0], [1]]}] * 2}, "1*z2^1 + 2*z1^1*z2^1 + 1*z1^2*z2^1"),
    ],
    ids=["unit-segments-n3", "two-segments-n1"],
)
def test_cli_potential_critical_prints_the_heuristic_verdict_without_searching(
    tmp_path, monkeypatch, capsys, payload, terms
):
    # outside the plane the verdict is "heuristic" whatever a search finds,
    # and the command prints no points, so it runs no search
    def refuse(d):
        raise AssertionError("potential --critical ran the Newton search")

    monkeypatch.setattr(numeric, "heuristic_points", refuse)
    assert main(["potential", write_input(tmp_path, payload), "--critical"]) == 0
    assert capsys.readouterr().out == terms + "\n" + HEURISTIC_LINES


@pytest.mark.parametrize(
    "summands",
    [[[[0], [1]]], [[[0]], [[0], [1]]], [[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]]],
    ids=["segment-n1", "point-and-segment-n1", "simplex-n3"],
)
def test_fewer_than_two_factors_have_no_critical_point_in_any_dimension(tmp_path, monkeypatch, capsys, summands):
    # a point's factor is 1, and no admissible factor has a singular torus
    # zero: the verdict is exact in every dimension, and nothing is searched
    def refuse(d):
        raise AssertionError("the Newton search ran")

    monkeypatch.setattr(numeric, "heuristic_points", refuse)
    path = write_input(tmp_path, {"dimension": len(summands[0][0]), "summands": [{"vertices": s} for s in summands]})
    crit = potential.critical_exists(parse_input(Path(path).read_text()).decomposition)
    assert tuple(crit) == ("none", 0, (), "")
    assert main(["potential", path, "--critical"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["verdict: none (count 0)"]


def test_cli_diagram(tmp_path):
    path = write_input(tmp_path, Q3_INPUT)
    svg = tmp_path / "q3.svg"
    assert main(["diagram", path, "--svg", str(svg)]) == 0
    assert "cut 3" in svg.read_text()


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_cli_diagram_draws_without_the_pipeline(tmp_path, monkeypatch, fixture):
    # the diagram needs sigma dual's Hilbert basis and the summands, not the
    # report: it runs neither the pipeline nor the critical-point decision,
    # and draws what the report's own layout draws, as analyze --svg does
    path, analyzed, drawn = FIXTURES / f"{fixture}.json", tmp_path / "a.svg", tmp_path / "d.svg"
    want = _svg(run_pipeline(parse_input(path.read_text()), fast=True))
    assert main(["analyze", str(path), "--fast", "--out", str(tmp_path / "r.json"), "--svg", str(analyzed)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("diagram ran more than it draws")

    monkeypatch.setattr(cli, "run_pipeline", refuse)
    monkeypatch.setattr(potential, "critical_exists", refuse)
    assert main(["diagram", str(path), "--svg", str(drawn)]) == 0
    assert drawn.read_text(encoding="utf-8") == analyzed.read_text(encoding="utf-8") == want


def test_cli_svg_escapes_the_input_name(tmp_path):
    # the name is text inside <title>: markup characters in it are escaped,
    # so both commands write well-formed XML that reads back the name
    path = write_input(tmp_path, dict(Q5_INPUT, name="Q5 <R&D>"))
    drawn, analyzed = tmp_path / "d.svg", tmp_path / "a.svg"
    assert main(["diagram", path, "--svg", str(drawn)]) == 0
    assert main(["analyze", path, "--fast", "--out", str(tmp_path / "r.json"), "--svg", str(analyzed)]) == 0
    for svg in (drawn, analyzed):
        title = xml.dom.minidom.parse(str(svg)).getElementsByTagName("title")[0]
        assert title.firstChild.data == "Q5 <R&D>: convex base diagram"
    assert "<title>Q5 &lt;R&amp;D&gt;: convex base diagram</title>" in drawn.read_text(encoding="utf-8")


def test_cli_diagram_refuses_what_analyze_refuses(tmp_path, capsys):
    # the inadmissible and the flat input exit 3 under every command, as
    # under analyze, with its stderr line and nothing on stdout
    for summands in ([[[0, 0], [2, 0]], [[0, 0], [0, 1]]], [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]):
        path = write_input(tmp_path, {"dimension": 2, "summands": [{"vertices": s} for s in summands]})
        assert main(["analyze", path]) == 3
        refused = capsys.readouterr()
        assert refused.out == "" and refused.err.startswith("inadmissible input: ")
        for argv in (["diagram", path, "--svg", str(tmp_path / "d.svg")], ["potential", path], ["potential", path, "--critical"]):
            assert main(argv) == 3
            assert capsys.readouterr() == refused
    assert not (tmp_path / "d.svg").exists()


def test_cli_svg_of_a_spatial_input_leaves_no_files(tmp_path):
    # the base diagram is drawn for n = 2 only; the refusal (exit 2) comes
    # before any output file is opened, so neither a report nor an empty SVG
    # is left behind
    unit = {
        "name": "unit-segments-n3",
        "dimension": 3,
        "summands": [{"vertices": [[0, 0, 0], v]} for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])],
    }
    path = write_input(tmp_path, unit)
    out, svg = tmp_path / "r.json", tmp_path / "d.svg"
    assert main(["analyze", path, "--out", str(out), "--svg", str(svg)]) == 2
    assert not out.exists() and not svg.exists()
    assert main(["diagram", path, "--svg", str(svg)]) == 2
    assert not svg.exists()


def test_cli_svg_of_a_spatial_input_refused_before_the_pipeline(tmp_path, monkeypatch):
    # the dimension is known once the input is parsed; no stage runs first
    def refuse(req, fast=False):
        raise AssertionError("pipeline run for an input the diagram cannot draw")

    monkeypatch.setattr(cli, "run_pipeline", refuse)
    path = write_input(tmp_path, SPATIAL_SEGMENTS_K4)
    assert main(["analyze", path, "--svg", str(tmp_path / "d.svg")]) == 2
    assert main(["diagram", path, "--svg", str(tmp_path / "d.svg")]) == 2


PLANAR_SEGMENTS_K5 = {
    "name": "segments-k5",
    "dimension": 2,
    "summands": [{"vertices": [[0, 0], v]} for v in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 2])],
}

SPATIAL_SEGMENTS_K4 = {
    "name": "segments-n3-k4",
    "dimension": 3,
    "summands": [{"vertices": [[0, 0, 0], v]} for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])],
}


@pytest.mark.parametrize(
    "payload, basis_size",
    [(PLANAR_SEGMENTS_K5, 15), (SPATIAL_SEGMENTS_K4, 16)],
    ids=["planar-k5", "spatial-k4"],
)
def test_cli_analyze_past_the_box_scan_walls(tmp_path, payload, basis_size):
    # lifted cones of dimension 7; a box scan of them did not finish in minutes
    out = tmp_path / "report.json"
    assert main(["analyze", write_input(tmp_path, payload), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["check_failures"] == []
    assert data["checks"]["generators_generate_semigroup"] is True
    assert len(data["cone"]["sigma_tilde_dual_hilbert_basis"]) == basis_size


def test_report_prints_the_newton_witnesses():
    # the analyze report is where the search's points are printed
    req = parse_input(json.dumps(SPATIAL_SEGMENTS_K4))
    critical = run_pipeline(req, fast=True).data["potential"]["critical"]
    want = newton_oracle.heuristic_points(req.decomposition)
    assert critical["verdict"] == "heuristic" and want
    assert critical["heuristic_points"] == [[_c(z) for z in p] for p in want]


def test_exact_core_imports_without_sympy_or_numpy(tmp_path):
    # no module imports sympy, and numpy is imported by numeric alone, when
    # a report's points are computed; the package root re-exports nothing.
    # So in a fresh interpreter no command loads sympy, and only the
    # commands that compute points load numpy
    segments = lambda n, *vs: {"dimension": n, "summands": [{"vertices": [[0] * n, list(v)]} for v in vs]}
    spatial = write_input(tmp_path, SPATIAL_SEGMENTS_K4)
    # two segments span a plane of Q^3: refused before the decision
    flat = write_input(tmp_path, segments(3, (1, 0, 0), (0, 1, 0)), "flat.json")
    unit = write_input(tmp_path, segments(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)), "unit.json")
    # its witnesses are over the budget, refused before any root is taken
    binomial = write_input(tmp_path, segments(2, (1, 0), (1, 2000)), "binomial.json")
    q5, svg, out = str(FIXTURES / "q5.json"), str(tmp_path / "d.svg"), str(tmp_path / "r.json")
    stages = [
        [
            ["hilbert", q5],
            ["analyze", spatial, "--svg", svg],
            ["diagram", spatial, "--svg", svg],
            ["diagram", q5, "--svg", svg],
            ["potential", q5],
            ["potential", flat, "--critical"],
            ["potential", unit, "--critical"],
        ],
        [["potential", str(FIXTURES / "lens_2_1.json"), "--critical"]],
        [["analyze", binomial, "--fast", "--out", out]],
        [["analyze", q5, "--fast", "--out", out]],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import minksmooth.cone, minksmooth.polytope, minksmooth.smoothing, minksmooth.fibration, minksmooth.svg\n"
        "import minksmooth.cli, minksmooth.potential\n"
        f"for runs in {stages!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [minksmooth.cli.main(argv) for argv in runs]\n"
        "    print(codes, sorted(m for m in ('sympy', 'numpy') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "[0, 2, 2, 0, 0, 3, 0] []",
        "[0] []",
        "[5] []",
        "[0] ['numpy']",
    ]


def test_each_command_loads_only_what_it_runs(tmp_path):
    # start-up loads neither the analyze-only modules nor the libraries;
    # hilbert, diagram and potential never load fibration or smoothing,
    # analyze loads them at its first run, and numpy only for witnesses,
    # which a report without families has none of
    q5, svg, out = str(FIXTURES / "q5.json"), str(tmp_path / "d.svg"), str(tmp_path / "r.json")
    stages = [
        [],
        [["hilbert", q5], ["diagram", q5, "--svg", svg], ["potential", q5]],
        [["analyze", str(FIXTURES / "cubic.json"), "--fast", "--out", out]],
        [["analyze", str(FIXTURES / "trapezoid.json"), "--fast", "--out", out]],
    ]
    watched = ("minksmooth.fibration", "minksmooth.smoothing", "minksmooth.potential", "html", "sympy", "numpy")
    code = (
        "import contextlib, io, sys\n"
        "import minksmooth.cli\n"
        f"for runs in {stages!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [minksmooth.cli.main(argv) for argv in runs]\n"
        f"    print(codes, [m for m in {watched!r} if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "[] []",
        "[0, 0, 0] ['minksmooth.potential']",
        "[0] ['minksmooth.fibration', 'minksmooth.smoothing', 'minksmooth.potential']",
        "[0] ['minksmooth.fibration', 'minksmooth.smoothing', 'minksmooth.potential']",
    ]


def test_heuristic_search_loads_no_numpy_random(tmp_path):
    # the n != 2 search draws its starts from the package's own PCG64
    # stream: analyze on the three 3-d unit segments loads numpy for the
    # search, but neither numpy.random nor the secrets module it pulls in
    unit = str(FIXTURES.parent / "tests" / "golden" / "families" / "unit-segments-3.json")
    code = (
        "import contextlib, io, sys\n"
        "import minksmooth.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = minksmooth.cli.main(['analyze', {unit!r}, '--fast', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, [m for m in ('numpy', 'numpy.random', 'secrets') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["0 ['numpy']"]
    assert json.loads((tmp_path / "r.json").read_text())["potential"]["critical"]["verdict"] == "heuristic"


@given(st.text())
def test_svg_title_escape_is_html_escape_without_quotes(text):
    # the standard library's escape is the oracle; the package does not load it
    assert _escape(text) == html.escape(text, quote=False)


def test_planar_decisions_load_no_sympy():
    # the planar elimination runs on the package's own integer kernel: the
    # worked examples with a triangle pair (Q5, the cubic cone) and with
    # segments only (lens(2,1)) decide and report without sympy
    runs = [
        [command, str(FIXTURES / name), flag]
        for name in ("q5.json", "cubic.json", "lens_2_1.json")
        for command, flag in (("potential", "--critical"), ("analyze", "--fast"))
    ]
    code = (
        "import contextlib, io, sys\n"
        "import minksmooth.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [minksmooth.cli.main(argv) for argv in {runs!r}]\n"
        "print(codes, 'sympy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"


# a name is plain, or holds characters the SVG title cannot (controls, lone
# surrogates, a noncharacter) next to ones it escapes
_NAMES = st.just("Q") | st.text(st.sampled_from("Q5 \x00\x01\x1f\t\ud800\udfff\ufffe\u00e9<&"), max_size=3)


@st.composite
def cli_inputs(draw):
    """Small inputs, n <= 3, k <= 3, |coordinates| <= 2: a summand is the
    origin (most of the time) and up to n further points, so admissible and
    inadmissible inputs both come up."""
    n = draw(st.integers(1, 3))
    point = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    summands = []
    for _ in range(draw(st.integers(1, 3))):
        vertices = draw(st.lists(point, max_size=n))
        if not vertices or draw(st.integers(0, 5)):
            vertices = [[0] * n] + vertices
        summands.append({"vertices": vertices})
    return {"name": draw(_NAMES), "dimension": n, "summands": summands}


@settings(max_examples=40, deadline=None)
@given(cli_inputs())
def test_cli_exit_codes_are_documented_and_failures_leave_no_file(payload):
    # every command exits with a documented code, raises nothing, and a
    # nonzero exit other than 4 leaves no output file
    with tempfile.TemporaryDirectory() as tmp:
        path, out, svg = (os.path.join(tmp, f) for f in ("in.json", "r.json", "d.svg"))
        with open(path, "w") as fh:
            fh.write(json.dumps(payload))
        runs = [
            ["analyze", path, "--fast", "--out", out, "--svg", svg],
            ["hilbert", path],
            ["potential", path, "--critical"],
            ["diagram", path, "--svg", svg],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in {0, 2, 3, 4, 5}, (argv[0], code)
            if code not in (0, 4):
                assert not os.path.exists(out) and not os.path.exists(svg), argv[0]
            for f in (out, svg):
                if os.path.exists(f):
                    os.remove(f)
