"""Matrix rendering of triangles.

Shared display convention: the power of x (index i) increases from left to
right, the power of y (index j) increases from bottom to top, so the top
row is j = d and the bottom row is j = 0. Cells outside the support shape
of each triangle kind stay blank:
  F: i + j <= d, H: j <= i <= d, Gamma: 2i + j <= d.
"""

from __future__ import annotations

from .poly import Poly2
from .transforms import GammaTriangle


def _cell_range(kind: str, d: int, j: int) -> range:
    if kind == "F":
        return range(0, d - j + 1)
    if kind == "H":
        return range(j, d + 1)
    if kind == "Gamma":
        return range(0, (d - j) // 2 + 1)
    raise ValueError(f"unknown triangle kind {kind!r}")


def render_triangle(p, d: int, kind: str) -> str:
    if isinstance(p, GammaTriangle):
        p = p.to_poly2()
    if not isinstance(p, Poly2):
        raise TypeError("expected a Poly2 or GammaTriangle")
    cells = {}
    width = 1
    for j in range(d, -1, -1):
        for i in _cell_range(kind, d, j):
            s = str(p.coeff(i, j))
            cells[(i, j)] = s
            width = max(width, len(s))
    shown = set(cells)
    stray = [k for k in p._c if k not in shown]
    if stray:
        raise ValueError(
            f"entries {sorted(stray)} fall outside the {kind} shape for d = {d}")
    lines = []
    for j in range(d, -1, -1):
        row = [cells[(i, j)].rjust(width) if (i, j) in cells else " " * width
               for i in range(d + 1)]
        lines.append("  ".join(row).rstrip())
    return "\n".join(lines)
