"""The package's records are NamedTuples, and the command line's import
path loads neither ``dataclasses`` (with ``inspect``) nor ``fractions``.

A record that needs more than its fields keeps them in a subclass of its
NamedTuple base: :class:`LatticePolytope` checks its vertices there, and
the memo of :class:`MinkowskiDecomposition` and the fibre of
:class:`CriticalFamily` live in the instance's dict, outside ``==`` and
``hash``.  :class:`CriticalReport` is a plain NamedTuple.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import minksmooth
from minksmooth.polytope import DimensionMismatch, LatticePolytope, decomposition
from minksmooth.ratpoly import CriticalFamily, CriticalReport

ROOT = Path(__file__).resolve().parent.parent
SLOW_STDLIB = ("dataclasses", "inspect", "fractions")


def test_every_record_annotation_resolves():
    # a name used only in an annotation must still be bound in its module
    records = []
    for info in pkgutil.iter_modules(minksmooth.__path__):
        module = importlib.import_module(f"minksmooth.{info.name}")
        for name, value in vars(module).items():
            if (
                isinstance(value, type)
                and issubclass(value, tuple)
                and hasattr(value, "_fields")
                and value.__module__ == module.__name__
                and not name.startswith("_")
            ):
                typing.get_type_hints(value)
                records.append(name)
    assert len(records) == 16, sorted(records)


def test_a_wrong_length_vertex_is_refused():
    assert LatticePolytope(2, ((0, 0), (1, 0))).vertices == ((0, 0), (1, 0))
    with pytest.raises(DimensionMismatch):
        LatticePolytope(2, ((0, 0), (1, 0, 0)))
    with pytest.raises(DimensionMismatch):
        LatticePolytope(ambient_dim=3, vertices=((0, 0),))


def test_the_admissibility_memo_is_outside_equality_and_hash():
    def q5():
        return decomposition([LatticePolytope(2, ((0, 0), (0, 1), (1, 0))), LatticePolytope(2, ((0, 0), (1, 1)))])

    read, fresh = q5(), q5()
    assert read.admissibility.ok
    assert vars(read) == {"admissibility": read.admissibility} and vars(fresh) == {}
    assert read == fresh and hash(read) == hash(fresh) and tuple(read) == tuple(fresh)
    assert repr(read) == repr(fresh) and "admissibility" not in repr(read)


def test_critical_family_equality_ignores_its_fibre():
    one = CriticalFamily((1, 1), (-1, 0, 1), (1, 2), True, lambda: ("f", "h"))
    other = CriticalFamily((1, 1), (-1, 0, 1), (1, 2), True, lambda: ())
    assert one == other and hash(one) == hash(other) and repr(one) == repr(other)
    assert one.fibre() == ("f", "h") and "fibre" not in repr(one)
    assert one != CriticalFamily((1, 1), (-1, 0, 1), (1, 3), True, one.fibre)


def test_critical_report_is_a_plain_record():
    # no attribute outside its fields: no instance dict, no memo, no search
    assert CriticalReport.__bases__ == (tuple,)
    assert CriticalReport._fields == ("verdict", "count", "families", "note")
    report = CriticalReport("heuristic", note="n")
    assert tuple(report) == ("heuristic", None, (), "n") and not hasattr(report, "__dict__")
    assert [name for name in vars(CriticalReport) if not name.startswith("_")] == list(CriticalReport._fields)


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["hilbert", "fixtures/q5.json"],
        ["diagram", "fixtures/q5.json", "--svg", "{tmp}/q5.svg"],
        # diagonal-segments(n=3): segments to e1, e2, e3 and (1, 1, 1)
        ["potential", "tests/golden/families/cube3.json", "--critical"],
    ],
    ids=["import", "hilbert", "diagram", "potential-critical-n3"],
)
def test_the_command_line_loads_no_dataclasses_inspect_or_fractions(argv, tmp_path):
    # numpy and sympy both import inspect, so these commands load neither
    argv = argv and [a.format(tmp=tmp_path) for a in argv]
    code = (
        "import contextlib, io, json, sys, minksmooth.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = 0 if argv is None else minksmooth.cli.main(argv)\n"
        f"print(status, sorted(m for m in {SLOW_STDLIB + ('numpy', 'sympy')!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(minksmooth.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "0 []"
