"""In-memory spans around the package's public functions.

:class:`Tracer` replaces each traced function wherever a module of the
package has bound it (``from .exactlin import rank`` makes a second
binding), records one span per call and puts every original back on
:meth:`Tracer.uninstall`.  Self time is a span's duration minus the part
its child spans cover, summed per layer while the run goes; the spans
themselves are kept in memory up to a cap and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "minksmooth"


def _hilbert_layer(tracer, args):
    # sigma^dual lives in dimension n + 1, the lifted dual cone in n + k
    return "cone.hilbert_basis." + ("sigma_dual" if args[0].ambient_dim == tracer.op_dim + 1 else "lifted")


def _count_elements(tracer, layer, args, result):
    tracer.counts[layer + ".elements"] += len(result.elements)


def _count_box(tracer, layer, args, result):
    cone, box = args[1], args[2]
    tracer.counts[layer + ".box_points"] += (2 * box + 1) ** cone.ambient_dim


def _count_generators(tracer, layer, args, result):
    tracer.counts["smoothing.generators"] += len(result.entries)
    tracer.counts["smoothing.extras"] += sum(1 for label, _ in result.entries if label.kind == "extra")


def _count_verdict(tracer, layer, args, result):
    kind = "heuristic_ops" if result.verdict == "heuristic" else "exact_ops"
    tracer.counts["potential.critical." + kind] += 1


# (module, attribute, layer name or function of the call, counter hook)
TARGETS = (
    ("cone", "hilbert_basis", _hilbert_layer, _count_elements),
    ("cone", "halfspace_description", None, None),
    ("exactlin", "rank", None, None),
    ("exactlin", "snf_invariant_factors", None, None),
    ("exactlin", "unimodular_inverse", None, None),
    ("smoothing", "verify_generates", None, _count_box),
    ("smoothing", "generator_set", None, _count_generators),
    ("polytope", "is_admissible", None, None),
    ("polytope", "convex_hull", None, None),
    ("polytope", "lattice_points", None, None),
    ("fibration", "transfer_cut", None, None),
    ("fibration", "final_cone", None, None),
    ("potential", "critical_exists", None, _count_verdict),
    ("potential", "build_potential", None, None),
    ("ratpoly", "bresultant_y", None, None),
    ("ratpoly", "bgcd", None, None),
    ("ratpoly", "kgcd_y", None, None),
    ("ratpoly", "factor_rational", None, None),
    ("pipeline", "parse_input", None, None),
    ("pipeline", "run_pipeline", None, None),
    ("pipeline", "AnalysisReport.to_json", None, None),
    ("svg", "emit_svg", None, None),
    ("cli", "main", None, None),
)


def package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.dropped = 0
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.op_id = None
        self.op_dim = None
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self._patches = []  # (holder, attribute, original)

    def begin_op(self, op_id, dim):
        self.op_id, self.op_dim = op_id, dim
        self._stack.clear()

    def _wrap(self, layer, fn, namer, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(tracer, args) if namer else layer
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.self_s[name] += end - start - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.counts[name + ".calls"] += 1
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer, name, args, result)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for short, attr, namer, hook in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            layer = f"{short}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original, namer, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, namer, hook)
            bindings = [(m, k) for m in package_modules() for k, v in vars(m).items() if v is original]
            for m, k in bindings:
                self._patches.append((m, k, original))
                setattr(m, k, wrapper)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def write(self, path, origin):
        """Spans as JSON lines, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                row = {"id": span_id, "name": name, "start": start - origin, "end": end - origin,
                       "parent": parent, "op": op}
                fh.write(json.dumps(row) + "\n")
