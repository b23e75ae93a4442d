"""Presentational plots: latency CDFs, per-scenario boxplots and throughput
demand bars, rendered as standalone SVG or as an ASCII fallback."""

from __future__ import annotations

from typing import Sequence

from .kpis import CAPS_MBPS, BoxplotStats, Ecdf

_W, _H = 640, 400
_MARGIN = 60
#: The plot area's x and y axes as :func:`_scale`'s (start, length); y points up.
_X_AXIS = (_MARGIN, _W - 2 * _MARGIN)
_Y_AXIS = (_H - _MARGIN, 2 * _MARGIN - _H)


def _scale(lo: float, hi: float, start: float, length: float):
    """``v -> start + (v - lo) / (hi - lo) * length``, a zero span read as 1.
    Both ends are halved first, which is exact for normal floats, so values
    that span more than the float range do not overflow it."""
    half_lo = lo / 2
    half_span = (hi / 2 - half_lo) or 0.5
    return lambda v: start + (v / 2 - half_lo) / half_span * length


def _text(label: str) -> str:
    """``label`` as SVG text content: ``&``, ``<`` and ``>`` escaped."""
    return label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="16">{_text(title)}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    return [
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 16}" text-anchor="middle" font-size="12">{_text(x_label)}</text>',
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H // 2})">{_text(y_label)}</text>',
    ]


def render_cdf_svg(dist: Ecdf, reliability: float = 0.95, title: str = "Latency CDF") -> str:
    """Step CDF with a horizontal marker at the reliability level."""
    lo, hi = dist.values[0], dist.values[-1]
    sx = _scale(lo, hi, *_X_AXIS)
    sy = _scale(0.0, 1.0, *_Y_AXIS)
    pts = [(sx(lo), sy(0.0))]
    probs = dist.probs
    for v, p_prev, p in zip(dist.values, (0.0,) + probs[:-1], probs):
        pts.append((sx(v), sy(p_prev)))
        pts.append((sx(v), sy(p)))
    pts.append((sx(hi), sy(1.0)))
    poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
    parts = _svg_header(title) + _axes("latency (ms)", "P(X <= x)")
    parts.append(f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>')
    y_rel = sy(reliability)
    parts.append(f'<line x1="{_MARGIN}" y1="{y_rel:.2f}" x2="{_W - _MARGIN}" y2="{y_rel:.2f}" '
                 f'stroke="crimson" stroke-dasharray="6,4"/>')
    parts.append(f'<text x="{_W - _MARGIN}" y="{y_rel - 6:.2f}" text-anchor="end" '
                 f'font-size="11" fill="crimson">reliability {reliability:.0%}</text>')
    for frac, value in ((0.0, lo), (0.5, lo / 2 + hi / 2), (1.0, hi)):
        x = _MARGIN + frac * (_W - 2 * _MARGIN)
        parts.append(f'<text x="{x:.1f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
                     f'font-size="10">{value:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_box_svg(groups: Sequence[tuple[str, BoxplotStats]], title: str = "Latency boxplot") -> str:
    """One Tukey box per labelled group."""
    if not groups:
        raise ValueError("no groups to plot")
    lo = min(min(s.minimum, s.whisker_lo) for _, s in groups)
    hi = max(max(s.maximum, s.whisker_hi) for _, s in groups)
    sy = _scale(lo, hi, *_Y_AXIS)
    slot = (_W - 2 * _MARGIN) / len(groups)
    box_w = min(60.0, slot * 0.5)
    parts = _svg_header(title) + _axes("", "latency (ms)")
    for i, (label, s) in enumerate(groups):
        cx = _MARGIN + slot * (i + 0.5)
        x0, x1 = cx - box_w / 2, cx + box_w / 2
        parts.append(f'<line x1="{cx:.1f}" y1="{sy(s.whisker_lo):.1f}" x2="{cx:.1f}" '
                     f'y2="{sy(s.whisker_hi):.1f}" stroke="black"/>')
        for w in (s.whisker_lo, s.whisker_hi):
            parts.append(f'<line x1="{cx - box_w / 4:.1f}" y1="{sy(w):.1f}" '
                         f'x2="{cx + box_w / 4:.1f}" y2="{sy(w):.1f}" stroke="black"/>')
        top, bottom = sy(s.q3), sy(s.q1)
        parts.append(f'<rect x="{x0:.1f}" y="{top:.1f}" width="{box_w:.1f}" '
                     f'height="{max(bottom - top, 0.5):.1f}" fill="lightsteelblue" stroke="black"/>')
        parts.append(f'<line x1="{x0:.1f}" y1="{sy(s.median):.1f}" x2="{x1:.1f}" '
                     f'y2="{sy(s.median):.1f}" stroke="black" stroke-width="2"/>')
        for v in s.outliers:
            parts.append(f'<circle cx="{cx:.1f}" cy="{sy(v):.1f}" r="2.5" fill="none" stroke="black"/>')
        parts.append(f'<text x="{cx:.1f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
                     f'font-size="10">{_text(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_throughput_svg(bars: Sequence[tuple[str, float]],
                          title: str = "Demanded throughput") -> str:
    """Demand bars against a horizontal line at each of ``CAPS_MBPS``."""
    if not bars:
        raise ValueError("no bars to plot")
    # 15 % headroom as a shorter axis: the tallest bar times 1.15 can overflow
    sy = _scale(0.0, max([v for _, v in bars] + list(CAPS_MBPS)), _Y_AXIS[0], _Y_AXIS[1] / 1.15)
    slot = (_W - 2 * _MARGIN) / len(bars)
    bar_w = min(80.0, slot * 0.6)
    parts = _svg_header(title) + _axes("", "Mbit/s")
    for i, (label, v) in enumerate(bars):
        cx = _MARGIN + slot * (i + 0.5)
        top = sy(v)
        parts.append(f'<rect x="{cx - bar_w / 2:.1f}" y="{top:.1f}" width="{bar_w:.1f}" '
                     f'height="{(_H - _MARGIN) - top:.1f}" fill="darkseagreen" stroke="black"/>')
        parts.append(f'<text x="{cx:.1f}" y="{top - 4:.1f}" text-anchor="middle" '
                     f'font-size="10">{v:.1f}</text>')
        parts.append(f'<text x="{cx:.1f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
                     f'font-size="10">{_text(label)}</text>')
    for cap in CAPS_MBPS:
        y = sy(cap)
        parts.append(f'<line x1="{_MARGIN}" y1="{y:.2f}" x2="{_W - _MARGIN}" y2="{y:.2f}" '
                     f'stroke="crimson" stroke-dasharray="6,4"/>')
        parts.append(f'<text x="{_W - _MARGIN}" y="{y - 4:.2f}" text-anchor="end" '
                     f'font-size="11" fill="crimson">{cap} Mbit/s</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# -- ASCII fallbacks ---------------------------------------------------------

_ASCII_W = 60
_ASCII_H = 16


def render_cdf_ascii(dist: Ecdf, reliability: float = 0.95) -> str:
    lo, hi = dist.values[0], dist.values[-1]
    half_lo = lo / 2  # halved, as in _scale, so the span cannot overflow
    half_span = (hi / 2 - half_lo) or 0.5
    grid = [[" "] * _ASCII_W for _ in range(_ASCII_H)]
    rel_row = _ASCII_H - 1 - int(round(reliability * (_ASCII_H - 1)))
    grid[rel_row] = ["-"] * _ASCII_W
    for col in range(_ASCII_W):
        # the last column reads hi itself, which the step there can round below
        x = hi if col == _ASCII_W - 1 else 2 * (half_lo + half_span * col / (_ASCII_W - 1))
        p = dist.prob_at(x)
        row = _ASCII_H - 1 - int(round(p * (_ASCII_H - 1)))
        grid[row][col] = "*"
    lines = ["".join(row) for row in grid]
    lines.append(f"{lo:.2f} ms".ljust(_ASCII_W - 12) + f"{hi:.2f} ms")
    lines.append(f"reliability marker at {reliability:.0%}")
    return "\n".join(lines)


def render_box_ascii(groups: Sequence[tuple[str, BoxplotStats]]) -> str:
    lo = min(min(s.minimum, s.whisker_lo) for _, s in groups)
    hi = max(max(s.maximum, s.whisker_hi) for _, s in groups)
    width = _ASCII_W
    scale = _scale(lo, hi, 0, width - 1)

    def col(v: float) -> int:
        return int(round(scale(v)))

    lines = []
    for label, s in groups:
        row = [" "] * width
        for c in range(col(s.whisker_lo), col(s.whisker_hi) + 1):
            row[c] = "-"
        for c in range(col(s.q1), col(s.q3) + 1):
            row[c] = "="
        row[col(s.median)] = "|"
        for v in s.outliers:
            row[col(v)] = "o"
        lines.append(f"{label:>14} {''.join(row)}")
    lines.append(f"{'':>14} {lo:.2f} ms ... {hi:.2f} ms")
    return "\n".join(lines)


def render_throughput_ascii(bars: Sequence[tuple[str, float]]) -> str:
    # 10 % headroom, scaled as in render_throughput_svg
    scale = _scale(0.0, max([v for _, v in bars] + list(CAPS_MBPS)), 0, _ASCII_W / 1.1)
    lines = []
    for label, v in bars:
        n = int(round(scale(v)))
        lines.append(f"{label:>14} {'#' * n} {v:.1f}")
    for cap in CAPS_MBPS:
        n = int(round(scale(cap)))
        lines.append(f"{'cap':>14} {' ' * n}^ {cap} Mbit/s")
    return "\n".join(lines)
