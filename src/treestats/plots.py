"""Static SVG plots and CSV exports for spider and tree-space samples.

Everything here is hand-rendered SVG with fixed layouts and fixed float
formatting, so a given sample always produces byte-identical output
(modulo the version comment in the header).
"""

from __future__ import annotations

import math

from . import __version__
from .spider import SpiderSample, StickinessReport
from .t4space import T4Point, T4Sample, all_splits, petersen_projection

_F = "{:.2f}".format  # pixel coordinates
_G = "{:.9g}".format  # data values


def _svg_header(size: int, title: str, layout_note: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<!-- treestats {__version__} -->",
        f"<!-- {title} -->",
        f"<!-- {layout_note} -->",
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]


# --------------------------------------------------------------------------
# 3-spider scatter
# --------------------------------------------------------------------------

def spider_svg(
    sample: SpiderSample, report: StickinessReport | None = None, size: int = 420
) -> str:
    """Scatter of a spider sample along its legs, with the mean if given."""
    cx = cy = size / 2.0
    margin = 50.0
    max_u = max([pt.u for pt in sample.points] + [1e-9])
    if report is not None:
        max_u = max(max_u, report.mean.u)
    scale = (size / 2.0 - margin) / max_u

    def leg_dir(leg: int) -> tuple[float, float]:
        ang = math.radians(90.0 + (leg - 1) * 360.0 / sample.p)
        return math.cos(ang), -math.sin(ang)  # svg y grows downward

    out = _svg_header(
        size,
        f"{sample.p}-spider sample, n={len(sample)}",
        "legs drawn at equal angles starting straight up; 1 px = "
        + _G(1.0 / scale)
        + " length units",
    )
    for leg in range(1, sample.p + 1):
        dx, dy = leg_dir(leg)
        x2, y2 = cx + dx * (size / 2.0 - margin + 20), cy + dy * (size / 2.0 - margin + 20)
        out.append(
            f'<line x1="{_F(cx)}" y1="{_F(cy)}" x2="{_F(x2)}" y2="{_F(y2)}" '
            f'stroke="#888" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_F(x2)}" y="{_F(y2)}" font-size="12" fill="#444">leg {leg}</text>'
        )
    out.append(f'<circle cx="{_F(cx)}" cy="{_F(cy)}" r="3" fill="#444"/>')
    for pt in sample.points:
        if pt.leg is None:
            px, py = cx, cy
        else:
            dx, dy = leg_dir(pt.leg)
            px, py = cx + dx * pt.u * scale, cy + dy * pt.u * scale
        out.append(
            f'<circle cx="{_F(px)}" cy="{_F(py)}" r="4" fill="#1f77b4" '
            f'fill-opacity="0.6"><title>u={_G(pt.u)}</title></circle>'
        )
    if report is not None:
        m = report.mean
        if m.leg is None:
            px, py = cx, cy
        else:
            dx, dy = leg_dir(m.leg)
            px, py = cx + dx * m.u * scale, cy + dy * m.u * scale
        out.append(
            f'<path d="M {_F(px - 7)} {_F(py)} L {_F(px + 7)} {_F(py)} '
            f'M {_F(px)} {_F(py - 7)} L {_F(px)} {_F(py + 7)}" '
            f'stroke="#d62728" stroke-width="2"/>'
        )
        out.append(
            f'<text x="10" y="{size - 12}" font-size="12" fill="#d62728">'
            f"mean: {report.verdict}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Petersen graph projection
# --------------------------------------------------------------------------

def _terminal_index(split: frozenset, labels: tuple) -> frozenset:
    """Encode a split as a 2-subset of the five terminals 0..3 plus root=4."""
    idx = {lb: k for k, lb in enumerate(labels)}
    if len(split) == 2:
        return frozenset(idx[x] for x in split)
    (missing,) = set(labels) - split
    return frozenset((idx[missing], 4))


def petersen_layout(labels, size: int = 480) -> dict:
    """Canonical planar layout: outer pentagon of the five splits pairing
    consecutive terminals (root included), inner pentagram of the rest.

    Returns split -> (x, y) pixel positions.
    """
    labels = tuple(sorted(labels))
    cx = cy = size / 2.0
    r_out, r_in = size / 2.0 - 60.0, (size / 2.0 - 60.0) * 0.5
    outer_order = [
        frozenset((0, 1)),
        frozenset((2, 3)),
        frozenset((4, 0)),
        frozenset((1, 2)),
        frozenset((3, 4)),
    ]
    pos2 = {}
    for k, pair in enumerate(outer_order):
        ang = math.radians(90.0 + 72.0 * k)
        pos2[pair] = (cx + r_out * math.cos(ang), cy - r_out * math.sin(ang))
        inner = frozenset(range(5)) - pair
        partner = next(
            s
            for s in (frozenset(c) for c in _pairs(inner))
            if s not in outer_order
        )
        pos2[partner] = (cx + r_in * math.cos(ang), cy - r_in * math.sin(ang))
    out = {}
    for split in all_splits(labels):
        out[split] = pos2[_terminal_index(split, labels)]
    return out


def _pairs(items):
    items = sorted(items)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            yield (a, b)


def _split_label(split: frozenset) -> str:
    return "{" + ";".join(str(x) for x in sorted(split)) + "}"


def petersen_svg(sample: T4Sample, mean: T4Point | None = None, size: int = 480) -> str:
    """Central projection of a tree-space sample onto the Petersen graph.

    Dots sit on the vertex/edge hit by each projected point (placed by
    angular fraction); dot area tracks the point's distance to the
    origin.  Origin points cannot be projected and are skipped.
    """
    labels = tuple(sorted(sample.labels))
    pos = petersen_layout(labels, size)
    out = _svg_header(
        size,
        f"Petersen projection of {len(sample)} tree-space points, "
        f"labels={list(labels)}",
        "outer pentagon: splits pairing consecutive terminals "
        "(leaves 0-3 in sorted order, root=4); inner pentagram: the rest; "
        "edge positions are angular fractions",
    )
    splits = all_splits(labels)
    for i, a in enumerate(splits):
        for b in splits[i + 1 :]:
            if not (a <= b or b <= a or not (a & b)):
                continue
            (x1, y1), (x2, y2) = pos[a], pos[b]
            out.append(
                f'<line x1="{_F(x1)}" y1="{_F(y1)}" x2="{_F(x2)}" y2="{_F(y2)}" '
                f'stroke="#bbb" stroke-width="1"/>'
            )
    for s in splits:
        x, y = pos[s]
        out.append(f'<circle cx="{_F(x)}" cy="{_F(y)}" r="3.5" fill="#333"/>')
        out.append(
            f'<text x="{_F(x + 5)}" y="{_F(y - 5)}" font-size="10" fill="#333">'
            f"{_split_label(s)}</text>"
        )
    # a norm is 0 off the origin too when the squares of its lengths underflow
    max_r = max((pt.norm() for pt in sample.points), default=0.0) or 1.0
    for pt in sample.points:
        if pt.is_origin:
            continue
        proj = petersen_projection(pt)
        if proj.kind == "vertex":
            x, y = pos[proj.splits[0]]
        else:
            (x1, y1), (x2, y2) = pos[proj.splits[0]], pos[proj.splits[1]]
            x, y = x1 + proj.s * (x2 - x1), y1 + proj.s * (y2 - y1)
        r_px = 2.5 + 4.0 * math.sqrt(proj.radius / max_r)
        out.append(
            f'<circle cx="{_F(x)}" cy="{_F(y)}" r="{_F(r_px)}" fill="#1f77b4" '
            f'fill-opacity="0.55"><title>radius={_G(proj.radius)}</title></circle>'
        )
    if mean is not None and not mean.is_origin:
        proj = petersen_projection(mean)
        if proj.kind == "vertex":
            x, y = pos[proj.splits[0]]
        else:
            (x1, y1), (x2, y2) = pos[proj.splits[0]], pos[proj.splits[1]]
            x, y = x1 + proj.s * (x2 - x1), y1 + proj.s * (y2 - y1)
        out.append(
            f'<path d="M {_F(x - 8)} {_F(y)} L {_F(x + 8)} {_F(y)} '
            f'M {_F(x)} {_F(y - 8)} L {_F(x)} {_F(y + 8)}" '
            f'stroke="#d62728" stroke-width="2.5"/>'
        )
    elif mean is not None:
        cx = cy = size / 2.0
        out.append(
            f'<path d="M {_F(cx - 8)} {_F(cy)} L {_F(cx + 8)} {_F(cy)} '
            f'M {_F(cx)} {_F(cy - 8)} L {_F(cx)} {_F(cy + 8)}" '
            f'stroke="#d62728" stroke-width="2.5"/>'
        )
        out.append(
            f'<text x="10" y="{size - 12}" font-size="12" fill="#d62728">'
            f"mean at the origin (star tree)</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def petersen_csv(sample: T4Sample) -> str:
    """Projections as CSV rows (kind, split1, split2, s, radius)."""
    lines = ["kind,split1,split2,s,radius"]
    for pt in sample.points:
        if pt.is_origin:
            lines.append("origin,,,,0")
            continue
        proj = petersen_projection(pt)
        if proj.kind == "vertex":
            lines.append(
                f"vertex,{_split_label(proj.splits[0])},,0,{_G(proj.radius)}"
            )
        else:
            lines.append(
                f"edge,{_split_label(proj.splits[0])},{_split_label(proj.splits[1])},"
                f"{_G(proj.s)},{_G(proj.radius)}"
            )
    return "\n".join(lines) + "\n"
