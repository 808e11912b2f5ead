"""Minimal deterministic SVG rendering.

Fixed-precision coordinates, no timestamps, no randomized layout: rendering
the same scene twice yields identical bytes.  Only the handful of primitives
the diagrams need are provided (polylines, markers, text, axes).
"""
from __future__ import annotations

import math

__all__ = ["Canvas", "PALETTE"]

# one stable colour per curve/role; indices are part of the output contract
PALETTE = {
    "sn": "#c0392b",
    "t": "#2471a3",
    "h": "#1e8449",
    "bt1": "#9a7d0a",
    "bt2": "#b9770e",
    "het": "#7d3c98",
    "traj": "#5d6d7e",
    "cycle": "#c0392b",
    "manifold": "#7d3c98",
    "boundary": "#99a3a4",
    "axis": "#2c3e50",
    "grid": "#ececec",
}


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


class Canvas:
    """World-coordinate SVG canvas with margins, clipping, and axes."""

    def __init__(self, width: int, height: int, xlim, ylim, *,
                 title: str = "", desc: str = ""):
        self.width = int(width)
        self.height = int(height)
        self.xmin, self.xmax = float(xlim[0]), float(xlim[1])
        self.ymin, self.ymax = float(ylim[0]), float(ylim[1])
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("degenerate axis limits")
        self.margin_l, self.margin_r = 56, 16
        self.margin_t, self.margin_b = 34 if title else 16, 44
        self.title = title
        self.desc = desc
        self._body: list[str] = []
        self._overlay: list[str] = []

    # -- coordinate mapping -------------------------------------------------

    def _px(self, wx: float) -> float:
        span = self.width - self.margin_l - self.margin_r
        return self.margin_l + (wx - self.xmin) / (self.xmax - self.xmin) * span

    def _py(self, wy: float) -> float:
        span = self.height - self.margin_t - self.margin_b
        return self.height - self.margin_b - (wy - self.ymin) / (self.ymax - self.ymin) * span

    @staticmethod
    def _f(v: float) -> str:
        # fixed two-decimal pixels keep the output stable across platforms
        return f"{v:.2f}"

    # -- primitives ----------------------------------------------------------

    def polyline(self, points, color: str, *, width: float = 1.3,
                 dash: str = "", opacity: float = 1.0) -> None:
        px, py = self._px, self._py
        pts = [(px(x), py(y)) for x, y in points]
        pts = [q for q in pts if math.isfinite(q[0]) and math.isfinite(q[1])]
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        if opacity != 1.0:
            extra += f' stroke-opacity="{opacity:.2f}"'
        for line in self._clipped(pts):
            coords = " ".join(["%.2f,%.2f" % q for q in line])   # _f's form
            self._body.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="{width:.2f}"{extra}/>')

    def _clipped(self, pts) -> list:
        """The pieces of the line through the pixel points pts in the square
        of ten canvas sides around the canvas (Liang-Barsky), points inside
        kept as given: the clip path hides each cut; numbers stay short."""
        side = max(self.width, self.height)
        lo, hi = -10.0 * side, 11.0 * side
        if all(lo <= x <= hi and lo <= y <= hi for x, y in pts):
            return [pts] if len(pts) > 1 else []
        lines: list = []
        for a, b in zip(pts, pts[1:]):
            t0, t1 = 0.0, 1.0
            for u, v in zip(a, b):
                if u != v:
                    ta, tb = sorted(((lo - u) / (v - u), (hi - u) / (v - u)))
                    t0, t1 = max(t0, ta), min(t1, tb)
                elif not lo <= u <= hi:
                    t0 = 2.0             # parallel to the square, outside it
            if t0 <= t1:
                start, end = (a if t == 0.0 else b if t == 1.0 else (
                    a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                    for t in (t0, t1))
                if not lines or lines[-1][-1] != start:
                    lines.append([start])
                lines[-1].append(end)
        return lines

    def marker(self, wx: float, wy: float, kind: str, color: str,
               *, size: float = 4.5) -> None:
        """Equilibrium glyphs: 'filled' sink, 'open' source, 'saddle' cross."""
        cx, cy = self._px(wx), self._py(wy)
        f = self._f
        if kind == "filled":
            self._overlay.append(
                f'<circle cx="{f(cx)}" cy="{f(cy)}" r="{size:.2f}" '
                f'fill="{color}" stroke="#ffffff" stroke-width="1.00"/>')
        elif kind == "open":
            self._overlay.append(
                f'<circle cx="{f(cx)}" cy="{f(cy)}" r="{size:.2f}" '
                f'fill="#ffffff" stroke="{color}" stroke-width="1.60"/>')
        elif kind == "saddle":
            s = size
            self._overlay.append(
                f'<path d="M {f(cx - s)} {f(cy - s)} L {f(cx + s)} {f(cy + s)} '
                f'M {f(cx - s)} {f(cy + s)} L {f(cx + s)} {f(cy - s)}" '
                f'stroke="{color}" stroke-width="1.80" fill="none"/>')
        else:
            raise ValueError(f"unknown marker kind {kind!r}")

    def text(self, wx: float, wy: float, label: str, *, size: int = 11,
             dy: float = 0.0, bold: bool = False) -> None:
        weight = ' font-weight="bold"' if bold else ""
        self._overlay.append(
            f'<text x="{self._f(self._px(wx))}" '
            f'y="{self._f(self._py(wy) + dy)}" font-size="{size}" '
            f'fill="{PALETTE["axis"]}" text-anchor="middle"{weight}>'
            f'{_esc(label)}</text>')

    # -- axes / legend --------------------------------------------------------

    @staticmethod
    def _tick_label(v: float) -> str:
        if v == int(v):
            return str(int(v))
        return f"{v:g}"

    def axes(self, xlabel: str, ylabel: str, xticks, yticks) -> None:
        f = self._f
        x0, x1 = self._px(self.xmin), self._px(self.xmax)
        y0, y1 = self._py(self.ymin), self._py(self.ymax)
        out = self._overlay
        for tv in xticks:
            px = self._px(tv)
            out.append(f'<line x1="{f(px)}" y1="{f(y1)}" x2="{f(px)}" '
                       f'y2="{f(y0)}" stroke="{PALETTE["grid"]}" stroke-width="1.00"/>')
            out.append(f'<line x1="{f(px)}" y1="{f(y0)}" x2="{f(px)}" '
                       f'y2="{f(y0 + 4)}" stroke="{PALETTE["axis"]}" stroke-width="1.00"/>')
            out.append(f'<text x="{f(px)}" y="{f(y0 + 17)}" font-size="10" '
                       f'fill="{PALETTE["axis"]}" text-anchor="middle">'
                       f'{_esc(self._tick_label(tv))}</text>')
        for tv in yticks:
            py = self._py(tv)
            out.append(f'<line x1="{f(x0)}" y1="{f(py)}" x2="{f(x1)}" '
                       f'y2="{f(py)}" stroke="{PALETTE["grid"]}" stroke-width="1.00"/>')
            out.append(f'<line x1="{f(x0 - 4)}" y1="{f(py)}" x2="{f(x0)}" '
                       f'y2="{f(py)}" stroke="{PALETTE["axis"]}" stroke-width="1.00"/>')
            out.append(f'<text x="{f(x0 - 7)}" y="{f(py + 3.5)}" font-size="10" '
                       f'fill="{PALETTE["axis"]}" text-anchor="end">'
                       f'{_esc(self._tick_label(tv))}</text>')
        out.append(f'<rect x="{f(x0)}" y="{f(y1)}" width="{f(x1 - x0)}" '
                   f'height="{f(y0 - y1)}" fill="none" '
                   f'stroke="{PALETTE["axis"]}" stroke-width="1.20"/>')
        out.append(f'<text x="{f((x0 + x1) / 2)}" y="{f(y0 + 33)}" '
                   f'font-size="12" fill="{PALETTE["axis"]}" '
                   f'text-anchor="middle">{_esc(xlabel)}</text>')
        out.append(f'<text x="{f(x0 - 40)}" y="{f((y0 + y1) / 2)}" '
                   f'font-size="12" fill="{PALETTE["axis"]}" text-anchor="middle" '
                   f'transform="rotate(-90 {f(x0 - 40)} {f((y0 + y1) / 2)})">'
                   f'{_esc(ylabel)}</text>')

    def legend(self, entries) -> None:
        """entries: iterable of (label, color); in the top right corner."""
        f = self._f
        px = self._px(self.xmin + 0.98 * (self.xmax - self.xmin))
        py = self._py(self.ymin + 0.97 * (self.ymax - self.ymin))
        entries = list(entries)
        if not entries:
            return
        box_w, line_h = 98, 15
        box_h = 8 + line_h * len(entries)
        self._overlay.append(
            f'<rect x="{f(px - box_w)}" y="{f(py)}" width="{box_w}" '
            f'height="{box_h}" fill="#ffffff" fill-opacity="0.85" '
            f'stroke="{PALETTE["boundary"]}" stroke-width="0.80"/>')
        for i, (label, color) in enumerate(entries):
            ly = py + 12 + line_h * i
            self._overlay.append(
                f'<line x1="{f(px - box_w + 8)}" y1="{f(ly - 3.5)}" '
                f'x2="{f(px - box_w + 28)}" y2="{f(ly - 3.5)}" '
                f'stroke="{color}" stroke-width="2.20"/>')
            self._overlay.append(
                f'<text x="{f(px - box_w + 33)}" y="{f(ly)}" font-size="10" '
                f'fill="{PALETTE["axis"]}" text-anchor="start">{_esc(label)}</text>')

    # -- assembly --------------------------------------------------------------

    def render(self) -> str:
        f = self._f
        x0, x1 = self._px(self.xmin), self._px(self.xmax)
        y0, y1 = self._py(self.ymin), self._py(self.ymax)
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
            f'font-family="Helvetica, Arial, sans-serif">',
        ]
        if self.desc:
            parts.append(f"<desc>{_esc(self.desc)}</desc>")
        parts.append(f'<rect x="0" y="0" width="{self.width}" '
                     f'height="{self.height}" fill="#ffffff"/>')
        if self.title:
            parts.append(
                f'<text x="{f((x0 + x1) / 2)}" y="22" font-size="14" '
                f'fill="{PALETTE["axis"]}" text-anchor="middle" '
                f'font-weight="bold">{_esc(self.title)}</text>')
        parts.append(
            f'<clipPath id="data"><rect x="{f(x0)}" y="{f(y1)}" '
            f'width="{f(x1 - x0)}" height="{f(y0 - y1)}"/></clipPath>')
        parts.append('<g clip-path="url(#data)">')
        parts.extend(self._body)
        parts.append("</g>")
        parts.extend(self._overlay)
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
