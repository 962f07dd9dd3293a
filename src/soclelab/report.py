"""CSV, JSON, and SVG emission for scan results.

Sentinels serialize as "inf"/"-inf"; exact rationals as "p/q".  CSV
headers are fixed per scan kind, summaries ride along as '#' comment
lines, and every fitted constant is labeled measured.  The JSON carries
a versioned schema field and round-trips through json.loads.
"""

import json
from fractions import Fraction
from operator import attrgetter

from .poly import NEG_INF, POS_INF

SCHEMA = "socle-lab/1"

CSV_HEADERS = {
    "powers": "t,j,lc_end,socle_beg,oracle_checked,elapsed_ms",
    "criterion": "t,j,lc_end,socle_beg,ext_k_begin,elapsed_ms",
    "lemma37": "t,socle_beg_quotient,socle_beg_ideal,difference,elapsed_ms",
    "gauge": "e,q,max_alpha,socle_beg_canonical,identity_holds,fedder_degrees,cartier_degrees,elapsed_ms",
    "socle": "j,lc_end,socle_beg,oracle_checked",
    "betti": "step,degree,betti",
    "gb": "index,degree,polynomial",
    "fedder": "e,q,mu,degrees",
}


def fmt(value):
    """Serialize one cell: exact, deterministic, sentinel-aware."""
    if value is None:
        return ""
    if value is POS_INF or value == POS_INF:
        return "inf"
    if value is NEG_INF or value == NEG_INF:
        return "-inf"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        raise TypeError("refusing to serialize a float; exact values only")
    if isinstance(value, (list, tuple)):
        return ";".join(fmt(v) for v in value)
    return str(value)


# The row attributes behind each scan kind's CSV columns; other kinds
# are tuples already.
_CELLS = {
    "powers": attrgetter("t", "j", "lc_end", "socle_beg", "oracle_checked", "elapsed_ms"),
    "criterion": attrgetter("t", "j", "lc_end", "socle_beg", "ext_k", "elapsed_ms"),
    "lemma37": attrgetter(
        "t", "socle_beg_quotient", "socle_beg_ideal", "difference", "elapsed_ms"
    ),
    "gauge": attrgetter(
        "e", "q", "max_alpha", "socle_begin_canonical", "identity_holds",
        "fedder.generator_degrees", "alphas", "elapsed_ms",
    ),
}


def rows_to_cells(kind, rows):
    """Normalize row objects into tuples of cells per CSV header."""
    return [_CELLS.get(kind, tuple)(r) for r in rows]


def to_csv(kind, rows, summary_lines=()):
    lines = [CSV_HEADERS[kind]]
    for cells in rows_to_cells(kind, rows):
        lines.append(",".join(fmt(c) for c in cells))
    for s in summary_lines:
        lines.append(f"# {s}")
    return "\n".join(lines) + "\n"


def to_json(kind, rows, summary=None):
    header = CSV_HEADERS[kind].split(",")
    payload = {
        "schema": SCHEMA,
        "kind": kind,
        "rows": [
            {k: fmt(c) for k, c in zip(header, cells)}
            for cells in rows_to_cells(kind, rows)
        ],
    }
    if summary is not None:
        payload["summary"] = summary
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def summary_to_strings(summary):
    """Render a ScanSummary as measured-constant comment lines."""
    lines = []
    for key, value in summary.witnesses.items():
        lines.append(f"measured {key} = {fmt(value)}")
    lines.extend(summary.notes)
    return lines


def summary_to_json(summary):
    return {
        "witnesses_measured": {k: fmt(v) for k, v in summary.witnesses.items()},
        "notes": list(summary.notes),
    }


# ---------------------------------------------------------------------------
# SVG: a dependency-free line chart of socle_beg / t against t.


def _svg_coords(points, width, height, pad):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 == x1:
        x1 = x0 + 1
    if y0 == y1:
        y1 = y0 + 1

    def to_xy(p):
        fx = (p[0] - x0) / (x1 - x0)
        fy = (p[1] - y0) / (y1 - y0)
        return (
            pad + fx * (width - 2 * pad),
            height - pad - fy * (height - 2 * pad),
        )

    return to_xy, (x0, x1, y0, y1)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def powers_chart_svg(rows, title="socle_beg / t against t"):
    """Line chart per cohomological index; pure generated markup."""
    series = {}
    for r in rows:
        if r.socle_beg in (POS_INF, NEG_INF):
            continue
        series.setdefault(r.j, []).append((r.t, Fraction(r.socle_beg, r.t)))
    width, height, pad = 480, 320, 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="13" '
        f'font-family="monospace">{title}</text>',
    ]
    all_points = [p for pts in series.values() for p in pts]
    if all_points:
        to_xy, (x0, x1, y0, y1) = _svg_coords(all_points, width, height, pad)
        axis = (
            f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
            f'y2="{height - pad}" stroke="black"/>'
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
            f'stroke="black"/>'
        )
        parts.append(axis)
        parts.append(
            f'<text x="{pad}" y="{height - pad + 16}" font-size="11" '
            f'font-family="monospace">t={x0}</text>'
            f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" '
            f'font-size="11" font-family="monospace">t={x1}</text>'
            f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" '
            f'font-size="11" font-family="monospace">{_frac_label(y0)}</text>'
            f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="11" '
            f'font-family="monospace">{_frac_label(y1)}</text>'
        )
        for idx, j in enumerate(sorted(series)):
            pts = sorted(series[j])
            color = _PALETTE[idx % len(_PALETTE)]
            coords = " ".join(
                f"{_num(to_xy(p)[0])},{_num(to_xy(p)[1])}" for p in pts
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
            lx, ly = to_xy(pts[-1])
            parts.append(
                f'<text x="{_num(lx + 4)}" y="{_num(ly)}" font-size="11" '
                f'font-family="monospace" fill="{color}">j={j}</text>'
            )
    else:
        parts.append(
            f'<text x="{width // 2}" y="{height // 2}" text-anchor="middle" '
            f'font-size="12" font-family="monospace">no finite points</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _num(x):
    return f"{float(x):.2f}"


def _frac_label(v):
    f = Fraction(v).limit_denominator(1000)
    return fmt(Fraction(f))
