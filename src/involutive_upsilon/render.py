"""Text, CSV and SVG emitters.  All output is deterministic byte-for-byte:
no timestamps, no floats (SVG coordinates are fixed-point decimals computed
with integer arithmetic).
"""

from __future__ import annotations

from fractions import Fraction

from .plfunction import PLFunction

UPSILON_LABELS = {
    "classic": "Υ (classic)",
    "folded": "Υᶠ (folded)",
    "upper": "Ῡ (upper)",
    "lower": "Υ̲ (lower)",
}


def format_rational(x) -> str:
    return str(x if type(x) in (int, Fraction) else Fraction(x))  # "n" or "n/d"


def _format_linear(slope, intercept) -> str:
    if slope == 0:
        return format_rational(intercept)
    if slope == 1:
        term = "t"
    elif slope == -1:
        term = "-t"
    elif slope.denominator == 1:
        term = f"{slope.numerator}t"
    elif slope.numerator == 1:
        term = f"t/{slope.denominator}"
    elif slope.numerator == -1:
        term = f"-t/{slope.denominator}"
    else:
        term = f"{slope.numerator}t/{slope.denominator}"
    if intercept == 0:
        return term
    sign = "+" if intercept > 0 else "-"
    return f"{term} {sign} {format_rational(abs(intercept))}"


def format_plfunction(f: PLFunction) -> str:
    """Piecewise formula text, e.g. "-6t on [0,2/3]; -4 on [2/3,2]"."""
    pieces = f.pieces()
    ends = [t for t, _ in pieces[1:]] + [2]
    return "; ".join(f"{_format_linear(slope, intercept)} on "
                     f"[{format_rational(t0)},{format_rational(t1)}]"
                     for (t0, (slope, intercept)), t1 in zip(pieces, ends))


def plfunction_csv(f: PLFunction) -> str:
    lines = ["t,value"]
    for t, v in f.breakpoints:
        lines.append(f"{format_rational(t)},{format_rational(v)}")
    return "\n".join(lines) + "\n"


def _decimal(x: Fraction, digits: int = 3) -> str:
    """Fixed-point decimal string of a rational, without floats."""
    scale = 10 ** digits
    n = round(Fraction(x) * scale)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, scale)
    text = f"{sign}{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".")
    return text or "0"


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def render_svg(title: str, curves: dict) -> str:
    """A simple polyline plot of the given PLFunctions over [0, 2]."""
    width, height, margin = 480, 320, 48
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    values = [v for f in curves.values() for _, v in f.breakpoints]
    lo = min(values + [Fraction(0)])
    hi = max(values + [Fraction(0)])
    if lo == hi:
        hi = lo + 1
    span = hi - lo

    def x_of(t):
        return _decimal(margin + Fraction(t) * plot_w / 2)

    def y_of(v):
        return _decimal(margin + (hi - Fraction(v)) * plot_h / span)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="{margin - 16}" font-family="sans-serif" '
        f'font-size="14">{_xml_text(title)}</text>',
    ]
    axis = 'stroke="#444" stroke-width="1"'
    out.append(f'<line x1="{margin}" y1="{y_of(lo)}" x2="{margin}" y2="{y_of(hi)}" {axis}/>')
    base_y = y_of(lo)
    out.append(f'<line x1="{margin}" y1="{base_y}" x2="{margin + plot_w}" y2="{base_y}" {axis}/>')
    for t in (0, 1, 2):
        out.append(f'<text x="{x_of(t)}" y="{height - margin + 18}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{t}</text>')
    for v in sorted({lo, Fraction(0), hi}):
        out.append(f'<text x="{margin - 6}" y="{y_of(v)}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{format_rational(v)}</text>')
    for i, name in enumerate(sorted(curves)):
        f = curves[name]
        pts = " ".join(f"{x_of(t)},{y_of(v)}" for t, v in f.breakpoints)
        color = _PALETTE[i % len(_PALETTE)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{margin + plot_w - 4}" y="{margin + 14 + 16 * i}" '
                   f'font-family="sans-serif" font-size="11" text-anchor="end" '
                   f'fill="{color}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
