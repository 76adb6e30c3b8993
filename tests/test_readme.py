"""The README's claims, checked against the code it describes: its library
example and every result commented in it, its module list, its exit-code
table and its usage block."""

import argparse
import importlib
import re
from pathlib import Path

import minksmooth
from minksmooth import cli
from minksmooth.cone import cone_over, dual

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# the variable a commented line assigns -> (its comment, the check of it)
CLAIMS = {
    "basis": ("nine characters", lambda ns: len(ns["basis"]) == 9),
    "cone": ("dual(cone_over(d.target))", lambda ns: ns["cone"] == dual(cone_over(ns["d"].target))),
    "report": (
        "finite, count 2, one family",
        lambda ns: (ns["report"].verdict, ns["report"].count, len(ns["report"].families)) == ("finite", 2, 1),
    ),
    "points": ("the family's two points", lambda ns: [len(points) for points in ns["points"]] == [2]),
}


def _section(title):
    return re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#+ |\Z)", README, re.M | re.S).group(1)


def _blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_library_example_does_what_its_comments_say():
    (block,) = _blocks(_section("Library"), "python")
    ns = {}
    exec(block, ns)
    commented = {}
    for line in block.splitlines():
        if "#" in line:
            code, comment = line.split("#", 1)
            commented[code.split("=")[0].strip()] = comment.strip()
    assert commented == {name: comment for name, (comment, _) in CLAIMS.items()}
    for name, (_, holds) in CLAIMS.items():
        assert holds(ns), name


def test_module_list_has_one_line_per_module_and_its_names_resolve():
    # the package root, __init__, has no line: it only binds cone.sigma_tilde
    lines = re.findall(r"^\* `(\w+)`: (.*)$", _section("Library"), re.M)
    package = Path(minksmooth.__file__).parent
    assert sorted(m for m, _ in lines) == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    for module, text in lines:
        for name in re.findall(r"`([\w.]+)`", text):
            obj = importlib.import_module(f"minksmooth.{module}")
            for part in name.split("."):
                assert hasattr(obj, part), f"{module}: {name}"
                obj = getattr(obj, part)


def test_exit_code_table_lists_the_cli_exit_codes():
    codes = [int(c) for c in re.findall(r"^\| `(\d+)` \|", _section("Exit codes"), re.M)]
    assert codes == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))


def test_usage_names_every_subcommand_and_option():
    (usage,) = _blocks(_section("Command line"), "text")
    lines = {line.split()[1]: line for line in usage.splitlines()}
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(lines) == set(sub.choices)
    for name, parser in sub.choices.items():
        options = [s for a in parser._actions for s in a.option_strings if s.startswith("--") and s != "--help"]
        assert all(re.search(rf"{o}\b", lines[name]) for o in options), name
