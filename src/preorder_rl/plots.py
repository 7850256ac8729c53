"""Dependency-free SVG rendering of interval summaries.

The output is a plain string of SVG markup: one horizontal bar per
labelled entry with a whisker for its interval.  Deterministic for a
given input, so rendered files can be diffed.
"""

from __future__ import annotations

from collections.abc import Sequence

# Labels and the title as XML text.  xml.sax.saxutils.escape would import
# urllib.request, http.client and ssl: about 3 MB more peak RSS per process.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def interval_plot_svg(entries: Sequence[tuple[str, float, float, float]],
                      title: str = "", width: int = 640) -> str:
    """Render ``(label, point, low, high)`` rows as an interval chart.

    Intervals may be degenerate (low == high).  Returns the SVG text.
    """
    if not entries:
        raise ValueError("nothing to plot")
    for label, point, low, high in entries:
        if not (low <= point <= high):
            raise ValueError(f"entry {label!r}: point {point} outside [{low}, {high}]")

    row_h = 28
    top = 40 if title else 16
    label_w = 150
    plot_w = width - label_w - 30
    height = top + row_h * len(entries) + 30

    lo = min(e[2] for e in entries)
    hi = max(e[3] for e in entries)
    span = hi - lo
    if span <= 0.0:
        lo, hi, span = lo - 0.5, hi + 0.5, 1.0
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    span = hi - lo

    def x(value: float) -> float:
        return label_w + plot_w * (value - lo) / span

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'font-family="sans-serif" font-size="12">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title.translate(_XML_TEXT)}</text>')
    axis_y = top + row_h * len(entries) + 8
    parts.append(f'<line x1="{label_w}" y1="{axis_y}" x2="{label_w + plot_w}" y2="{axis_y}" '
                 f'stroke="black"/>')
    for i in range(5):
        value = lo + span * i / 4
        parts.append(f'<line x1="{x(value):.1f}" y1="{axis_y}" x2="{x(value):.1f}" '
                     f'y2="{axis_y + 4}" stroke="black"/>')
        parts.append(f'<text x="{x(value):.1f}" y="{axis_y + 16}" '
                     f'text-anchor="middle">{_fmt(value)}</text>')
    for row, (label, point, low, high) in enumerate(entries):
        cy = top + row_h * row + row_h / 2
        parts.append(f'<text x="{label_w - 8}" y="{cy + 4:.1f}" '
                     f'text-anchor="end">{label.translate(_XML_TEXT)}</text>')
        parts.append(f'<line x1="{x(low):.1f}" y1="{cy:.1f}" x2="{x(high):.1f}" y2="{cy:.1f}" '
                     f'stroke="steelblue" stroke-width="3"/>')
        for tick in (low, high):
            parts.append(f'<line x1="{x(tick):.1f}" y1="{cy - 5:.1f}" x2="{x(tick):.1f}" '
                         f'y2="{cy + 5:.1f}" stroke="steelblue" stroke-width="2"/>')
        parts.append(f'<circle cx="{x(point):.1f}" cy="{cy:.1f}" r="4" fill="darkorange"/>')
    parts.append("</svg>")
    return "\n".join(parts)
