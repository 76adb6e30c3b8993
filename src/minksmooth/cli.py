"""Command-line driver.

Subcommands:

    analyze <file> [--out report.json] [--svg out.svg] [--fast]
    hilbert <file>
    potential <file> [--critical]
    diagram <file> --svg out.svg

Exit codes: 0 success, 2 schema error (JSON too deep or with too long an
integer, a name with a control character or lone surrogate) or an input
that cannot be read or decoded as UTF-8 or an output that cannot be
written (a stdout closed early is one, ``--out`` and ``--svg`` naming
one file another), 3 inadmissible input (a flat target is one, refused by
every command while parsing, before any hull and before ``diagram``'s
dimension check), 4 internal cross-check failure (``CrossCheckError``), 5 any
other ``ValueError`` or ``ArithmeticError`` (``NotPointed``, ``NotFullDim``,
``NotUnimodular``, ``BasisTooLarge``, ``DegreeTooLarge``, also from
``analyze`` when a report's witnesses are too large to compute, the n != 2
search's ``LinAlgError``), and a ``RecursionError`` or ``MemoryError``; each
prints one line, ``library error: <class>: <message>``, with no traceback.
Only exits 0 and 4 (whose report lists the failed checks) can leave output
files; every other exit leaves none.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .cone import dual, hilbert_basis
from .exactlin import CrossCheckError
from .pipeline import (
    AnalysisRequest,
    SchemaError,
    TargetMismatch,
    parse_input,
    run_pipeline,
)
from .polytope import NotAdmissible, sigma_tilde, spanning_sigma
from .svg import UnsupportedDimension, emit_svg, require_drawable

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INADMISSIBLE = 3
EXIT_CROSSCHECK = 4
EXIT_LIBRARY = 5


class ReadFailed(Exception):
    """The input file could not be read or decoded."""


def _load_request(path) -> AnalysisRequest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReadFailed(exc) from exc
    return parse_input(text)


def _write(*outputs) -> None:
    """Write each ``(path, text)``; if one fails, remove every file opened
    here, so a failed command leaves none behind."""
    opened = []
    try:
        for path, text in outputs:
            with open(path, "w", encoding="utf-8") as fh:
                opened.append(path)
                fh.write(text)
    except OSError:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _draw(req) -> str:
    """The base diagram: sigma dual's Hilbert basis and the summands."""
    d = req.decomposition
    rays = hilbert_basis(dual(spanning_sigma(d))).elements
    return emit_svg(req.name, rays, [s.vertices for s in d.summands])


def _cmd_analyze(args) -> int:
    if args.out and args.svg and os.path.realpath(args.out) == os.path.realpath(args.svg):
        # one would overwrite the other
        print(f"cannot write output: --out and --svg name one file: {args.out}", file=sys.stderr)
        return EXIT_SCHEMA
    req = _load_request(args.file)
    if args.svg:
        # refused before the pipeline runs and before any file is opened
        require_drawable(req.decomposition.n)
    report = run_pipeline(req, fast=args.fast)
    text = report.to_json()
    outputs = [(args.out, text + "\n")] if args.out else []
    if args.svg:
        outputs.append((args.svg, _draw(req)))
    _write(*outputs)
    if not args.out:
        print(text)
    if report.failures:
        print("cross-check failures: " + ", ".join(report.failures), file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    req = _load_request(args.file)
    hb = hilbert_basis(dual(sigma_tilde(req.decomposition)))
    for v in hb.elements:
        print(" ".join(str(x) for x in v))
    return EXIT_OK


def _cmd_potential(args) -> int:
    from .potential import build_potential
    from .ratpoly import critical_exists

    req = _load_request(args.file)
    po = build_potential(req.decomposition)
    # decided before anything is printed, so a refused run prints nothing
    crit = critical_exists(req.decomposition) if args.critical else None
    print(po)
    if crit:
        print(f"verdict: {crit.verdict}" + (f" (count {crit.count})" if crit.count is not None else ""))
        for fam in crit.families:
            print(
                "  family: z1 minpoly "
                + str(list(fam.z1_minpoly))
                + ", z2 minpoly "
                + str(list(fam.z2_minpoly))
                + (", on unit circle" if fam.on_unit_circle else "")
            )
        if crit.note:
            print(f"  note: {crit.note}")
    return EXIT_OK


def _cmd_diagram(args) -> int:
    req = _load_request(args.file)
    require_drawable(req.decomposition.n)
    _write((args.svg, _draw(req)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minksmooth", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline and emit a JSON report")
    p.add_argument("file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--svg", help="also render the base diagram (3d cones only)")
    p.add_argument("--fast", action="store_true", help="skip the semigroup-generation check")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("hilbert", help="print the Hilbert basis of the lifted dual cone")
    p.add_argument("file")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("potential", help="print the superpotential")
    p.add_argument("file")
    p.add_argument("--critical", action="store_true", help="also decide torus critical points")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("diagram", help="render the base diagram to SVG")
    p.add_argument("file")
    p.add_argument("--svg", required=True)
    p.set_defaults(func=_cmd_diagram)
    return parser


# built once per process; parsing leaves it unchanged
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a broken pipe is reported here, not at exit
        return code
    except ReadFailed as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:  # an output file, or stdout
        if isinstance(exc, BrokenPipeError):  # the flush at exit must not raise again
            sys.stdout = open(os.devnull, "w")
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (NotAdmissible, TargetMismatch) as exc:
        print(f"inadmissible input: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except UnsupportedDimension as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CrossCheckError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        # after every ValueError subclass handled above
        print(f"library error: {type(exc).__name__}: " + " ".join(str(exc).split()), file=sys.stderr)
        return EXIT_LIBRARY


if __name__ == "__main__":
    sys.exit(main())
