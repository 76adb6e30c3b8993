"""Base inputs, workloads and the seeded lattice symmetries that vary them.

Every op runs one base input through a signed permutation of the
coordinates.  That is an automorphism of the lattice, so the image has the
same answers as the base input, up to the map, while being a different
file with different numbers in it.  Summands keep their order: the exact
planar critical-point decision eliminates in summand order, and on
lens(97,30) a reordering makes a quarter of the images six times slower,
which no run of a few rounds would average out.  All expected values
are stored for the base input and mapped through the op's symmetry.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

TRIANGLE = ((0, 0), (1, 0), (0, 1))


def seg(*v):
    return ((0,) * len(v), tuple(v))


def segs(*vs):
    return tuple(seg(*v) for v in vs)


@dataclass(frozen=True)
class Base:
    name: str
    dimension: int
    summands: tuple
    target: tuple | None = None


def _lens(p, q):
    # the lens-space cone L(p, q): segments to (1, 0) and (q, p)
    return Base(f"lens({p},{q})", 2, segs((1, 0), (q, p)))


def _dilation(a):
    return Base(f"dilation(a={a})", 2, segs((1, a), (a, 1), (1, -a)))


BASES = {
    b.name: b
    for b in (
        # the six worked examples, as in fixtures/*.json
        Base("cubic-cone", 2, (TRIANGLE, TRIANGLE, TRIANGLE)),
        Base("lens-2-1", 2, segs((1, 0), (1, 2))),
        Base("Q5", 2, (TRIANGLE, seg(1, 1)), target=((0, 0), (1, 0), (0, 1), (2, 1), (1, 2))),
        Base("Q6-segments", 2, segs((1, 0), (0, 1), (1, 1))),
        Base("Q6-triangles", 2, (((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1)))),
        Base("trapezoid", 2, (((0, 0), (0, 1), (1, 0)), seg(1, 0))),
        # summand scaling: the lifted cone has dimension n + k
        Base("segments(k=4)", 2, segs((1, 0), (0, 1), (1, 1), (1, -1))),
        Base("unit-segments(n=3)", 3, segs((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        # coordinate scaling: fixed dimension, growing coordinates
        _dilation(1),
        _dilation(2),
        _lens(7, 3),
        _lens(13, 5),
        # critical-point scaling
        _lens(61, 17),
        _lens(97, 30),
        _dilation(4),
        Base("triangle+5-segments", 2, (TRIANGLE,) + segs((1, 1), (1, -1), (1, 2), (2, 1), (2, 3))),
        Base("8-segments", 2, segs((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (2, 3), (3, 2))),
        Base("diagonal-segments(n=3)", 3, segs((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "analyze" or "potential"
    flags: tuple[str, ...]
    svg: bool
    budget_s: float  # an op running longer is abandoned and counted as failed
    rounds: int  # rounds in a run of 15 seconds
    bases: tuple[tuple[str, int], ...]  # base input and its ops per round


# The weights keep the median and the eleventh-largest op time inside one
# base input's cost class rather than on the edge between two, and make each
# base input's ops per 15-second run a whole number of sign-pattern cycles.
WORKLOADS = {
    w.name: w
    for w in (
        # the paper's worked examples on the default user path; the only
        # workload that runs the box-bounded generation check
        Workload(
            "fixtures-full", "analyze", (), True, 5.0, 12,
            (("cubic-cone", 1), ("lens-2-1", 1), ("Q5", 2), ("Q6-segments", 1), ("Q6-triangles", 1),
             ("trapezoid", 1)),
        ),
        # more summands at coordinates <= 1: the lifted cone grows in dimension
        Workload(
            "summand-scaling", "analyze", ("--fast",), False, 25.0, 4,
            (("Q6-segments", 2), ("segments(k=4)", 1), ("unit-segments(n=3)", 6)),
        ),
        # fixed dimension, growing coordinates and integer sizes
        Workload(
            "coordinate-scaling", "analyze", ("--fast",), False, 25.0, 4,
            (("dilation(a=1)", 1), ("dilation(a=2)", 1), ("lens(7,3)", 1), ("lens(13,5)", 3)),
        ),
        # superpotential critical points only; never touches a Hilbert basis
        Workload(
            "critical-scaling", "potential", ("--critical",), False, 10.0, 4,
            (("lens(61,17)", 1), ("lens(97,30)", 2), ("dilation(a=4)", 2), ("triangle+5-segments", 1),
             ("8-segments", 2), ("diagonal-segments(n=3)", 4)),
        ),
    )
}


@dataclass(frozen=True)
class Symmetry:
    """The signed coordinate permutation ``x -> (signs[i] * x[axes[i]])_i``.

    It is orthogonal, so it acts on dual vectors by the same formula.
    """

    axes: tuple[int, ...]
    signs: tuple[int, ...]

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)), (1,) * n)

    @property
    def is_identity(self) -> bool:
        return self == Symmetry.identity(len(self.axes))

    def vec(self, v):
        return tuple(s * v[a] for a, s in zip(self.axes, self.signs))

    def vec_back(self, w):
        out = [0] * len(self.axes)
        for i, (a, s) in enumerate(zip(self.axes, self.signs)):
            out[a] = s * w[i]
        return tuple(out)

    def move(self, w):
        """Image of ``(u, t)`` with ``u`` in the (dual) lattice and ``t`` the
        height or summand coordinates, which the symmetry leaves alone."""
        n = len(self.axes)
        return self.vec(w[:n]) + tuple(w[n:])

    def move_back(self, w):
        n = len(self.axes)
        return self.vec_back(w[:n]) + tuple(w[n:])


def image_input(base: Base, sym: Symmetry) -> dict:
    """The input file an op runs on: the base input moved by ``sym``."""
    obj = {
        "name": base.name,
        "dimension": base.dimension,
        "summands": [{"vertices": [list(sym.vec(v)) for v in s]} for s in base.summands],
    }
    if base.target is not None:
        obj["target"] = [list(sym.vec(v)) for v in base.target]
    return obj


@dataclass(frozen=True)
class Op:
    base: Base
    sym: Symmetry


def round_count(workload: Workload, seconds: float) -> int:
    return max(1, round(workload.rounds * seconds / 15))


def round_ops(workload: Workload, seed: int, rnd: int) -> list[Op]:
    """Round ``rnd`` of a run: each base input as often as its weight, in a
    seeded order.

    The j-th op on a base input in dimension n uses sign pattern j of a
    cycle through all 2^n patterns that starts with the all-plus one; its
    first op runs the base input itself, whose output bytes are compared
    with the stored digest, and later ops permute the coordinates by seed.
    """
    rng = random.Random(f"{workload.name}:{seed}:{rnd}")
    ops = []
    for name, weight in workload.bases:
        n = BASES[name].dimension
        cycle = list(itertools.product((1, -1), repeat=n))[1:]
        random.Random(f"{workload.name}:{seed}:{name}").shuffle(cycle)
        cycle.insert(0, (1,) * n)
        for j in range(rnd * weight, (rnd + 1) * weight):
            axes = tuple(range(n)) if j == 0 else tuple(rng.sample(range(n), n))
            ops.append(Op(BASES[name], Symmetry(axes, cycle[j % len(cycle)])))
    rng.shuffle(ops)
    return ops


def write_input(path, op: Op) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(image_input(op.base, op.sym), fh)


def argv_for(workload: Workload, input_path, out_path, svg_path) -> list[str]:
    argv = [workload.command, str(input_path), *workload.flags]
    if workload.command == "analyze":
        argv += ["--out", str(out_path)]
        if workload.svg:
            argv += ["--svg", str(svg_path)]
    return argv
