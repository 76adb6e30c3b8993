"""Static SVG rendering of three-dimensional base diagrams.

Only the combinatorial content is drawn: the rays of the final cone
(labeled with their integer coordinates, one ray per Hilbert-basis element
of the dual cone), and one dashed vertical cut half-line per summand,
anchored on a representative boundary stratum.  The projection is a fixed
axonometric map, hardcoded so two runs produce byte-identical output.
"""

from __future__ import annotations

from .exactlin import support


class UnsupportedDimension(ValueError):
    pass


# axonometric projection constants: screen_x = COS30*(x - y), screen_y = -z + SIN30*(x + y)
COS30 = 0.8660254037844387
SIN30 = 0.5
SCALE = 52.0
CX, CY = 320.0, 360.0
RAY_LEN = 4.6


def _project(x, y, z):
    u = COS30 * (x - y)
    v = -z + SIN30 * (x + y)
    return CX + SCALE * u, CY + SCALE * v


def _fmt(t: float) -> str:
    return f"{t:.2f}"


def _escape(text: str) -> str:
    """``text`` as XML character data: ``html.escape(text, quote=False)``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def require_drawable(n: int) -> None:
    """Refuse an input of dimension ``n`` unless its cone is three-dimensional."""
    if n + 1 != 3:
        raise UnsupportedDimension("diagram rendering is limited to three-dimensional cones")


def emit_svg(name: str, rays, summands) -> str:
    """Render the base diagram of the input ``name`` (n == 2 only) to an SVG
    document: ``rays`` is the Hilbert basis of sigma dual, ``summands`` holds
    the vertices of each summand."""
    require_drawable(len(summands[0][0]))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" viewBox="0 0 640 640">',
        "<!-- axonometric projection: screen_x = 0.8660254037844387*(x - y),",
        "     screen_y = -z + 0.5*(x + y); origin at (320, 360), scale 52 -->",
        f"<title>{_escape(name)}: convex base diagram</title>",
        '<rect width="640" height="640" fill="white"/>',
    ]
    ox, oy = _project(0.0, 0.0, 0.0)
    # axes, lightly
    for axis, label in (((1.4, 0, 0), "l1"), ((0, 1.4, 0), "l2"), ((0, 0, 1.4), "l3")):
        ex, ey = _project(*(RAY_LEN * t for t in axis))
        lines.append(
            f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(ex)}" y2="{_fmt(ey)}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
        lines.append(f'<text x="{_fmt(ex + 4)}" y="{_fmt(ey)}" font-size="11" fill="#999999">{label}</text>')
    # rays of the dual cone
    for ray in rays:
        norm = max(abs(t) for t in ray)
        direction = tuple(t / norm for t in ray)
        ex, ey = _project(*(RAY_LEN * t for t in direction))
        lines.append(
            f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(ex)}" y2="{_fmt(ey)}" '
            'stroke="#1f4e8c" stroke-width="1.6"/>'
        )
        coords = ",".join(str(t) for t in ray)
        lines.append(
            f'<text x="{_fmt(ex + 5)}" y="{_fmt(ey + 4)}" font-size="12" fill="#1f4e8c">({coords})</text>'
        )
    # one dashed cut per summand, anchored over a boundary stratum point
    for p, verts in enumerate(summands, start=1):
        anchor = _stratum_anchor(verts, summands, p)
        ax, ay = _project(*anchor)
        tx, ty = _project(anchor[0], anchor[1], anchor[2] + 2.2)
        lines.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(tx)}" y2="{_fmt(ty)}" '
            'stroke="#b03030" stroke-width="1.4" stroke-dasharray="6,4"/>'
        )
        lines.append(
            f'<text x="{_fmt(tx + 5)}" y="{_fmt(ty)}" font-size="12" fill="#b03030">cut {p}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _stratum_anchor(verts, summands, p):
    """A point of the boundary where the cut of summand p starts.

    Deterministic choice: take the first nonzero vertex v of the summand,
    rotate it a quarter turn to land on the wall hyperplane <v, lam> = 0,
    and lift to the boundary height contributed by the other summands."""
    nz = [v for v in verts if any(v)]
    v = nz[0] if nz else (1, 0)
    lam = (-v[1], v[0])
    height = sum(support(other, lam) for q, other in enumerate(summands, start=1) if q != p)
    scale = 1.6 / max(1, max(abs(t) for t in lam))
    return lam[0] * scale, lam[1] * scale, float(height) * scale
