"""Minimal SVG scatter plot for capacity sweeps.

Hand-rolled on purpose: output bytes depend only on the input rows, which
keeps plots diff-able and re-runs byte-identical. Counts go on a log
scale against node count; sampled points are drawn as triangles with
their confidence whiskers, exact points as circles.
"""
from __future__ import annotations

import math

from .errors import ParameterDomainError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 16, 44


def family_key(row: dict) -> str:
    """Series label: honeycombs split by cycle size, arrays by kind."""
    kind = str(row["topology"])
    if kind.startswith("honeycomb"):
        return f"{kind}-{row['param1']}"
    return kind


def _f(x: float) -> str:
    return format(x, ".2f")


def write_capacity_svg(rows: list[dict]) -> str:
    """Render sweep rows (as produced by run_experiment) to an SVG string."""
    points = []
    for row in rows:
        try:
            count = float(row["count"])
            n = float(row["n_nodes"])
            lo = float(row.get("ci_low") or count)
            hi = float(row.get("ci_high") or count)
        except (KeyError, TypeError, ValueError):
            continue
        if not all(map(math.isfinite, (count, n, lo, hi))) or count <= 0 or n <= 0:
            continue
        points.append({
            "family": family_key(row),
            "n": n,
            "count": count,
            "lo": max(lo, 1e-9),
            "hi": max(hi, 1e-9),
            "sampled": str(row.get("mode", "exact")) == "sample",
        })
    if not points:
        raise ParameterDomainError("no plottable rows")

    x_min = min(p["n"] for p in points)
    x_max = max(p["n"] for p in points)
    if x_max == x_min:
        x_min, x_max = x_min - 1, x_max + 1
    y_lo = min(min(p["lo"], p["count"]) for p in points)
    y_hi = max(max(p["hi"], p["count"]) for p in points)
    dec_lo = math.floor(math.log10(y_lo))
    dec_hi = math.ceil(math.log10(y_hi))
    if dec_hi == dec_lo:
        dec_hi += 1

    def sx(n: float) -> float:
        return MARGIN_L + (n - x_min) / (x_max - x_min) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(c: float) -> float:
        t = (math.log10(c) - dec_lo) / (dec_hi - dec_lo)
        return HEIGHT - MARGIN_B - t * (HEIGHT - MARGIN_T - MARGIN_B)

    families = sorted({p["family"] for p in points})
    color = {fam: PALETTE[i % len(PALETTE)] for i, fam in enumerate(families)}

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    axis = 'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
               f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" {axis}/>')
    out.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" '
               f'x2="{MARGIN_L}" y2="{HEIGHT - MARGIN_B}" {axis}/>')

    for d in range(dec_lo, dec_hi + 1):
        y = sy(10.0 ** d)
        out.append(f'<line x1="{MARGIN_L - 4}" y1="{_f(y)}" x2="{MARGIN_L}" '
                   f'y2="{_f(y)}" {axis}/>')
        out.append(f'<line x1="{MARGIN_L}" y1="{_f(y)}" x2="{WIDTH - MARGIN_R}" '
                   f'y2="{_f(y)}" stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_f(y + 4)}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">1e{d}</text>')
    n_xticks = 6
    for i in range(n_xticks):
        n = x_min + i * (x_max - x_min) / (n_xticks - 1)
        x = sx(n)
        out.append(f'<line x1="{_f(x)}" y1="{HEIGHT - MARGIN_B}" x2="{_f(x)}" '
                   f'y2="{HEIGHT - MARGIN_B + 4}" {axis}/>')
        out.append(f'<text x="{_f(x)}" y="{HEIGHT - MARGIN_B + 18}" '
                   f'text-anchor="middle" font-size="11" '
                   f'font-family="sans-serif">{n:.0f}</text>')
    out.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" '
               f'y="{HEIGHT - 8}" text-anchor="middle" font-size="12" '
               f'font-family="sans-serif">oscillators</text>')
    out.append(f'<text x="14" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" '
               f'text-anchor="middle" font-size="12" font-family="sans-serif" '
               f'transform="rotate(-90 14 {(MARGIN_T + HEIGHT - MARGIN_B) // 2})">'
               f'stable configurations</text>')

    for p in sorted(points, key=lambda q: (q["family"], q["n"])):
        c = color[p["family"]]
        x, y = sx(p["n"]), sy(p["count"])
        if p["hi"] > p["lo"]:
            out.append(f'<line x1="{_f(x)}" y1="{_f(sy(p["hi"]))}" x2="{_f(x)}" '
                       f'y2="{_f(sy(p["lo"]))}" stroke="{c}" stroke-width="1.5"/>')
        if p["sampled"]:
            pts = f'{_f(x)},{_f(y - 5)} {_f(x - 4.5)},{_f(y + 4)} {_f(x + 4.5)},{_f(y + 4)}'
            out.append(f'<polygon points="{pts}" fill="{c}"/>')
        else:
            out.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="4" fill="{c}"/>')

    for i, fam in enumerate(families):
        y = MARGIN_T + 14 + 16 * i
        out.append(f'<circle cx="{MARGIN_L + 12}" cy="{y}" r="4" '
                   f'fill="{color[fam]}"/>')
        out.append(f'<text x="{MARGIN_L + 22}" y="{y + 4}" font-size="11" '
                   f'font-family="sans-serif">{fam}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
