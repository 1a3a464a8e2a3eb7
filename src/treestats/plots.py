"""Static SVG plots and CSV exports for spider and tree-space samples.

Everything here is hand-rendered SVG with fixed layouts and fixed float
formatting, so a given sample always produces byte-identical output
(modulo the version comment in the header).  Plots read the sample's
arrays (``codes`` with ``u`` or ``coords``) and build no point object per
sample point.  Tree-space points and means are projected centrally onto
the Petersen graph by :func:`_projection`; :func:`petersen_csv` writes
each projection as a row (kind, splits, angular fraction, radius).
"""

from __future__ import annotations

import math
import re
from html import escape
from typing import TYPE_CHECKING

from . import __version__
from .errors import InvalidSampleError
from .spider import SpiderSample, StickinessReport

if TYPE_CHECKING:
    from .t4space import T4Point, T4Sample

_F = "{:.2f}".format  # pixel coordinates
_G = "{:.9g}".format  # data values
_SPIDER_SIZE, _PETERSEN_SIZE = 420, 480  # square canvases, in pixels


def _svg_header(size: int, title: str, layout_note: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<!-- treestats {__version__} -->",
        f"<!-- {re.sub('-(?=-)', '- ', title)} -->",  # a comment holds no "--"
        f"<!-- {layout_note} -->",
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]


def _cross(x: float, y: float, arm: float, width: float) -> str:
    """The mean marker: a red cross centred at ``(x, y)``."""
    return (
        f'<path d="M {_F(x - arm)} {_F(y)} L {_F(x + arm)} {_F(y)} '
        f'M {_F(x)} {_F(y - arm)} L {_F(x)} {_F(y + arm)}" '
        f'stroke="#d62728" stroke-width="{width}"/>'
    )


# --------------------------------------------------------------------------
# 3-spider scatter
# --------------------------------------------------------------------------

def spider_svg(sample: SpiderSample, report: StickinessReport | None = None) -> str:
    """Scatter of a spider sample along its legs, with the mean if given."""
    size = _SPIDER_SIZE
    cx = cy = size / 2.0
    margin = 50.0
    max_u = max([*sample.u.tolist(), 1e-9])
    if report is not None:
        max_u = max(max_u, report.mean.u)
    scale = (size / 2.0 - margin) / max_u

    def leg_dir(leg: int) -> tuple[float, float]:
        ang = math.radians(90.0 + (leg - 1) * 360.0 / sample.p)
        return math.cos(ang), -math.sin(ang)  # svg y grows downward

    def at(leg: int, u: float) -> tuple[float, float]:
        dx, dy = leg_dir(leg)  # at the center, u = 0 puts any leg at (cx, cy)
        return cx + dx * u * scale, cy + dy * u * scale

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
    for leg, u in zip(sample.codes.tolist(), sample.u.tolist()):
        px, py = at(leg, u)
        out.append(
            f'<circle cx="{_F(px)}" cy="{_F(py)}" r="4" fill="#1f77b4" '
            f'fill-opacity="0.6"><title>u={_G(u)}</title></circle>'
        )
    if report is not None:
        out.append(_cross(*at(report.mean.leg or 0, report.mean.u), 7, 2))
        out.append(
            f'<text x="10" y="{size - 12}" font-size="12" fill="#d62728">'
            f"mean: {report.verdict}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Petersen graph projection
# --------------------------------------------------------------------------

def petersen_layout(labels) -> dict:
    """Canonical planar layout: outer pentagon of the five splits pairing
    consecutive terminals (leaves 0-3 in sorted order, root=4), inner
    pentagram of the rest.  A split is named by the terminal pair on one
    side of it, and compatible splits by disjoint pairs (the Petersen graph
    as a Kneser graph): outer vertex k is {2k, 2k+1}, inner k {2k+2, 2k+4}, mod 5.

    Returns split -> (x, y) pixel positions.
    """
    from .t4space import all_splits  # here and below: spider plots never load t4space

    labels = tuple(sorted(labels))
    cx = cy = _PETERSEN_SIZE / 2.0
    r_out, r_in = cx - 60.0, (cx - 60.0) * 0.5
    at = {}
    for k in range(5):
        ang = math.radians(90.0 + 72.0 * k)
        for r, pair in ((r_out, (2 * k, 2 * k + 1)), (r_in, (2 * k + 2, 2 * k + 4))):
            at[frozenset(t % 5 for t in pair)] = (cx + r * math.cos(ang), cy - r * math.sin(ang))
    out = {}
    for split in all_splits(labels):
        leaves = frozenset(labels.index(x) for x in split)
        out[split] = at[leaves if len(leaves) == 2 else frozenset(range(5)) - leaves]
    return out


def _split_label(split: frozenset) -> str:
    return "{" + ";".join(str(x) for x in sorted(split)) + "}"


def _check_labels(sample: T4Sample, kind: str, chars: str, rule: str) -> None:
    """Refuse, naming them, the labels that hold a character of the regex class ``chars``."""
    if bad := [x for x in sample.labels if re.search(f"[{chars}]", str(x))]:
        raise InvalidSampleError(
            f"the Petersen {kind} cannot carry the labels {bad!r}: a label holds {rule}")


def _projection(support: tuple, lengths) -> tuple[tuple, float, float]:
    """Central projection onto the Petersen graph of the point whose splits
    ``support`` (canonical order) have ``lengths``: ``(splits, s, radius)``.
    ``splits`` holds one split for a vertex hit, two for an edge hit and none
    at the origin; ``s`` is the angular fraction from the first split toward
    the second (0 at a vertex), and ``radius`` the distance to the origin."""
    r = math.hypot(*lengths)
    if len(support) < 2:
        return support, 0.0, r
    return support, math.atan2(lengths[1], lengths[0]) / (math.pi / 2.0), r


def _projections(sample: T4Sample) -> list[tuple]:
    """``(splits, s, radius)`` of every point, as :func:`_projection` gives
    them; ``splits`` is empty at the origin."""
    from .t4space import _geometry

    supports = _geometry(sample.labels).supports
    return [_projection(supports[code], xy)
            for code, xy in zip(sample.codes.tolist(), sample.coords.tolist())]


def petersen_svg(sample: T4Sample, mean: T4Point | None = None) -> str:
    """Central projection of a tree-space sample onto the Petersen graph.

    Dots sit on the vertex/edge hit by each projected point (placed by
    angular fraction); dot area tracks the point's distance to the
    origin.  Origin points cannot be projected and are skipped.
    """
    from .t4space import _geometry

    _check_labels(sample, "SVG", "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff",
                  "no character that XML 1.0 excludes even escaped: U+0000-U+0008, U+000B, "
                  "U+000C, U+000E-U+001F, U+D800-U+DFFF (lone surrogates), U+FFFE, U+FFFF")
    labels, size = sample.labels, _PETERSEN_SIZE
    pos = petersen_layout(labels)

    def at(splits: tuple, s: float) -> tuple[float, float]:
        if len(splits) < 2:  # the origin sits at the centre
            return pos[splits[0]] if splits else (size / 2.0, size / 2.0)
        (x1, y1), (x2, y2) = pos[splits[0]], pos[splits[1]]
        return x1 + s * (x2 - x1), y1 + s * (y2 - y1)

    out = _svg_header(
        size,
        f"Petersen projection of {len(sample)} tree-space points, "
        f"labels={list(labels)}",
        "outer pentagon: splits pairing consecutive terminals "
        "(leaves 0-3 in sorted order, root=4); inner pentagram: the rest; "
        "edge positions are angular fractions",
    )
    for a, b in _geometry(labels).quadrants:
        (x1, y1), (x2, y2) = pos[a], pos[b]
        out.append(
            f'<line x1="{_F(x1)}" y1="{_F(y1)}" x2="{_F(x2)}" y2="{_F(y2)}" '
            f'stroke="#bbb" stroke-width="1"/>'
        )
    for s, (x, y) in pos.items():
        out.append(f'<circle cx="{_F(x)}" cy="{_F(y)}" r="3.5" fill="#333"/>')
        out.append(
            f'<text x="{_F(x + 5)}" y="{_F(y - 5)}" font-size="10" fill="#333">'
            f"{escape(_split_label(s), quote=False)}</text>"
        )
    projections = _projections(sample)
    # each point off the origin has a radius > 0, so max_r > 0 wherever it divides
    max_r = max((r for _, _, r in projections), default=0.0)
    for splits, s, r in projections:
        if not splits:
            continue
        x, y = at(splits, s)
        r_px = 2.5 + 4.0 * math.sqrt(r / max_r)
        out.append(
            f'<circle cx="{_F(x)}" cy="{_F(y)}" r="{_F(r_px)}" fill="#1f77b4" '
            f'fill-opacity="0.55"><title>radius={_G(r)}</title></circle>'
        )
    if mean is not None:
        splits, s, _ = _projection(mean.support, mean.lengths)
        out.append(_cross(*at(splits, s), 8, 2.5))
        if not splits:
            out.append(
                f'<text x="10" y="{size - 12}" font-size="12" fill="#d62728">'
                f"mean at the origin (star tree)</text>"
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def petersen_csv(sample: T4Sample) -> str:
    """Projections as CSV rows (kind, split1, split2, s, radius); a split is
    ``{a;b}``, so labels holding ``,;{}"``, a line break or a lone surrogate
    are refused."""
    _check_labels(sample, "CSV", ',;{}"\n\r\ud800-\udfff', "no comma, semicolon, brace, "
                  "double quote, line break or lone surrogate")
    lines = ["kind,split1,split2,s,radius"]
    for splits, s, r in _projections(sample):
        cells = [*map(_split_label, splits), "", ""][:2]
        kind = ("origin", "vertex", "edge")[len(splits)]
        lines.append(",".join([kind, *cells, _G(s) if splits else "", _G(r)]))
    return "\n".join(lines) + "\n"
