"""Matrix rendering of triangles, one row at a time.

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


def render_triangle(p, d: int, kind: str):
    """An iterator over the rows of the kind's matrix of p, top row first,
    each built when it is read. The checks and the cell width, read off the
    nonzero entries (a zero prints as one character), come at the call."""
    if isinstance(p, GammaTriangle):
        p = p.to_poly2()
    if not isinstance(p, Poly2):
        raise TypeError("expected a Poly2 or GammaTriangle")
    _cell_range(kind, d, d)  # names an unknown kind
    stray = [(i, j) for i, j in p._c
             if not (0 <= j <= d and i in _cell_range(kind, d, j))]
    if stray:
        raise ValueError(
            f"entries {sorted(stray)} fall outside the {kind} shape for d = {d}")
    width = max((len(str(c)) for c in p._c.values()), default=1)
    blank = " " * width

    def row(j: int) -> str:
        cells = _cell_range(kind, d, j)  # no blank cell follows the last
        return "  ".join(str(p.coeff(i, j)).rjust(width) if i in cells else blank
                         for i in range(cells.stop))
    return map(row, range(d, -1, -1))
