"""End-to-end analysis: input parsing, orchestration, canonical JSON report.

The input contract is a small JSON object:

    {"name": str, "dimension": n,
     "summands": [{"vertices": [[int, ...], ...]}, ...],
     "target": [[int, ...], ...]   // optional cross-check
    }

Reports are deterministic: every list is sorted, matrices are row-major,
and rational values are rendered as strings.  Cross-check failures do not
abort the run; they are recorded under "checks" so callers can map them to
an exit status.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import sub
from typing import NamedTuple

from . import cone as cone_mod
from .polytope import (
    MinkowskiDecomposition,
    NotAdmissible,
    convex_hull,
    decomposition,
    phi,
    require_admissible,
    require_rank,
    sigma_tilde,
)


class SchemaError(ValueError):
    """Malformed input; carries the offending field path."""


class TargetMismatch(ValueError):
    pass


class AnalysisRequest(NamedTuple):
    name: str
    decomposition: MinkowskiDecomposition


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _xml_char(c: str) -> bool:
    """Whether XML 1.0's Char production allows ``c``: no control character
    but tab and newlines, no surrogate (UTF-8 cannot encode one alone)."""
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


def _parse_vertices(raw, path, dim=None):
    _expect(isinstance(raw, list) and raw, path, "expected a nonempty list of vertices")
    verts = []
    for i, v in enumerate(raw):
        _expect(isinstance(v, list) and v, f"{path}[{i}]", "expected a nonempty integer vector")
        for j, x in enumerate(v):
            _expect(isinstance(x, int) and not isinstance(x, bool), f"{path}[{i}][{j}]", "expected an integer")
        if dim is not None:
            _expect(len(v) == dim, f"{path}[{i}]", f"expected dimension {dim}")
        verts.append(tuple(v))
    return verts


def parse_input(text: str) -> AnalysisRequest:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, an integer too long
        raise SchemaError(f"cannot load JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "$", "expected a JSON object")
    unknown = set(raw) - {"name", "dimension", "summands", "target"}
    _expect(not unknown, "$", f"unknown fields {sorted(unknown)}")
    name = raw.get("name", "unnamed")
    _expect(isinstance(name, str), "name", "expected a string")
    _expect(all(map(_xml_char, name)), "name", "expected no control character or lone surrogate")
    dim = raw.get("dimension")
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1, "dimension", "expected a positive integer")
    _expect(isinstance(raw.get("summands"), list) and raw["summands"], "summands", "expected a nonempty list")
    points = []
    for i, s in enumerate(raw["summands"]):
        _expect(isinstance(s, dict), f"summands[{i}]", "expected an object")
        _expect(set(s) == {"vertices"}, f"summands[{i}]", "expected exactly the field 'vertices'")
        points.append(_parse_vertices(s["vertices"], f"summands[{i}].vertices", dim))
    target = _parse_vertices(raw["target"], "target", dim) if "target" in raw else None
    # a flat input is refused before any hull: the Minkowski sum spans Q^n
    # iff the differences of each summand's points from its first one do
    require_rank([tuple(map(sub, v, ps[0])) for ps in points for v in ps[1:]], dim)
    summands = [convex_hull(ps) for ps in points]
    target = None if target is None else convex_hull(target)
    try:
        d = decomposition(summands)
    except ValueError as exc:
        raise NotAdmissible(str(exc)) from exc
    if target is not None and d.target != target:
        raise TargetMismatch(
            f"declared target {list(target.vertices)} differs from the Minkowski sum {list(d.target.vertices)}"
        )
    return AnalysisRequest(name=name, decomposition=d)


def _mat(m):
    return [list(r) for r in m]


class AnalysisReport(NamedTuple):
    data: dict
    failures: list[str]

    def to_json(self) -> str:
        out = []
        _encode(self.data, "\n", out)
        return "".join(out)


def _encode(obj, newline, out):
    """Append the text of ``json.dumps(obj, indent=2, sort_keys=True)`` to
    ``out``, byte for byte, for the report's JSON types (string keys).
    ``indent`` sends ``json.dumps`` to its pure-Python encoder; here a list
    of ints, the bulk of a report, is joined in one step by ``int.__repr__``,
    and strings are escaped by the C ``encode_basestring_ascii``."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
        return
    if not isinstance(obj, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = newline + "  "
    if isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif set(map(type, obj)) == {int}:
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
    else:
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")


def _float_text(x):
    """A float as ``json.dumps`` writes it."""
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def run_pipeline(req: AnalysisRequest, fast: bool = False) -> AnalysisReport:
    """The full report; ``fast`` skips the semigroup-generation check."""
    from . import fibration as fib, potential as pot, ratpoly as rp, smoothing as smo  # not loaded by importing cli

    d = req.decomposition
    failures: list[str] = []
    report: dict = {"name": req.name, "dimension": d.n, "summand_count": d.k}

    mats = require_admissible(d)
    report["polytope"] = {
        "target_vertices": _mat(d.target.vertices),
        "summands": [_mat(s.vertices) for s in d.summands],
        "admissible": True,
        "violations": [],
        "summand_matrices": [
            {"v": _mat(sm.v), "e": _mat(sm.e), "a": _mat(sm.a), "c": _mat(sm.c), "b": list(sm.b)}
            for sm in mats
        ],
    }

    sigma = cone_mod.cone_over(d.target)
    sigma_dual = cone_mod.dual(sigma)
    st = sigma_tilde(d)
    st_dual = cone_mod.dual(st)
    hb = cone_mod.hilbert_basis(st_dual)
    hb_sigma_dual = cone_mod.hilbert_basis(sigma_dual)
    report["cone"] = {
        "sigma_generators": _mat(sigma.generators),
        "sigma_dual_generators": _mat(sigma_dual.generators),
        "sigma_dual_hilbert_basis": _mat(hb_sigma_dual.elements),
        "sigma_tilde_generators": _mat(st.generators),
        "sigma_tilde_dual_hilbert_basis": _mat(hb.elements),
    }

    g = smo.generator_set(d)
    hom = smo.check_homogeneity(g)
    report["smoothing"] = {
        "generators": [{"label": str(lab), "vector": list(vec)} for lab, vec in g.entries],
        "relations_xy": {
            str(p): list(smo.relation_xy(d, p))
            for p in range(1, d.k + 1)
            if mats[p - 1].m > 0
        },
        "relations_w": {
            f"{p},{j}": list(smo.relation_w(d, p, j))
            for p in range(1, d.k + 1)
            for j in range(1, d.n - mats[p - 1].m + 1)
        },
        "fibre_models": [
            {
                "summand": fm.p,
                "equation": fm.equation,
                "product_coordinates": [str(c) for c in fm.product_coords],
                "unit_coordinates": [str(c) for c in fm.unit_coords],
                "general_fibre": f"torus of dimension {d.n}",
            }
            for fm in (smo.fibre_model(d, p) for p in range(1, d.k + 1) if mats[p - 1].m > 0)
        ],
        "homogeneity": None if hom is None else {"u": list(hom[0]), "degree": hom[1]},
        "deformation_note": "epsilon parameters are formal tags; relations hold at the lattice level",
    }

    diagrams = fib.new_base_diagram(d)
    for p in range(1, d.k + 1):
        diagrams = fib.transfer_cut(diagrams, p)
    fibration_block = {
        "collapsing_cycles": {
            str(p): [
                {"vector": list(c.vector), "vanishing": [str(l) for l in c.vanishing]}
                for c in fib.collapsing_cycles(d, p)
            ]
            for p in range(1, d.k + 1)
        },
        "regions": {
            str(p): [
                {"index": r.j, "positive_normals": _mat(r.normals)}
                for r in fib.regions(d, p)
            ]
            for p in range(1, d.k + 1)
        },
        "monodromies": {
            f"{p},{j}": {
                "topological": _mat(fib.monodromy(d, p, j)),
                "affine": _mat(fib.affine_monodromy(d, p, j)),
            }
            for p in range(1, d.k + 1)
            for j in range(1, mats[p - 1].m + 1)
        },
        "cut_direction": list(diagrams.cut_direction),
        "cut_note": fib.CUT_DIRECTION_NOTE,
    }
    final = fib.final_cone(diagrams)
    fibration_block["final_cone_generators"] = _mat(final.generators)
    hone = fib.height_one_normalization(final)
    fibration_block["height_one"] = (
        None
        if hone is None
        else {"matrix": _mat(hone[0]), "dual_polytope_vertices": _mat(hone[1].vertices)}
    )
    report["fibration"] = fibration_block

    po = pot.build_potential(d)
    # Newt(W) is Q at height one (Ostrowski: Newt of a product is the sum).
    # The check reads W's own terms, so a wrong W fails it, but meets
    # sigma's facets only at the ends of W's lines of terms; only a failure
    # pays for the hull, so the report shows the potential's real one
    newton_ok = _newton_is_target(po.terms, sigma)
    newton_vertices = sigma.generators if newton_ok else pot.newton_polytope(po).vertices
    crit = rp.critical_exists(d)
    points = []
    if crit.verdict == "heuristic":
        from . import numeric  # numpy, loaded only for the search

        points = numeric.heuristic_points(po)
    report["potential"] = {
        "terms": [[list(e), c] for e, c in po.sorted_terms()],
        "newton_polytope_vertices": _mat(newton_vertices),
        "critical": _critical_to_dict(crit, rp.witnesses(crit), points),
    }

    checks = {
        "final_cone_equals_dual_sigma": cone_mod.cones_equal(final, sigma_dual),
        "newton_polytope_is_target_at_height_one": newton_ok,
        "generator_tails_match_support": all(
            vec[d.n :] == phi(d, vec[: d.n])
            for lab, vec in g.entries
            if lab.kind != "t"
        ),
    }
    if not fast:
        # the check is exact; verify_generates ignores its box argument
        checks["generators_generate_semigroup"] = smo.verify_generates(g, st_dual, 3)
    for name, ok in checks.items():
        if not ok:
            failures.append(f"checks.{name}")
    report["checks"] = {k: bool(v) for k, v in checks.items()}
    report["check_failures"] = sorted(failures)
    return AnalysisReport(report, failures)


def _newton_is_target(terms, sigma) -> bool:
    """Whether the exponents ``terms`` span the polytope at height one of
    the cone ``sigma``: every one at height one and in sigma, and every
    generator (v, 1) among them.  sigma is convex, so the terms on one line
    parallel to the first axis lie in it iff the line's two ends do; only
    the ends meet sigma's facets, and a product of k planar summands pays
    per line, not per term."""
    ends = {}
    for e in terms:
        if e[-1] != 1:
            return False
        line = e[1:]
        lo, hi = ends.get(line, (e[0], e[0]))
        ends[line] = (min(lo, e[0]), max(hi, e[0]))
    return all(sigma.contains((x, *line)) for line, xs in ends.items() for x in set(xs)) and all(
        g in terms for g in sigma.generators
    )


def _critical_to_dict(crit, witnesses, heuristic_points) -> dict:
    out = {"verdict": crit.verdict, "count": crit.count, "note": crit.note}
    out["families"] = [
        {
            "z1_minimal_polynomial": list(f.z1_minpoly),
            "z2_minimal_polynomial": list(f.z2_minpoly),
            "factor_pair": list(f.pair),
            "points": [[_c(z) for z in p] for p in points],
            "all_roots_on_unit_circle": f.on_unit_circle,
        }
        for f, points in zip(crit.families, witnesses)
    ]
    out["heuristic_points"] = [[_c(z) for z in p] for p in heuristic_points]
    return out


def _c(z: complex) -> list[float]:
    return [float(round(z.real, 12)), float(round(z.imag, 12))]
