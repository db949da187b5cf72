"""Combinatorial models for the positive parts of cluster complexes.

Type A rank n lives on the diagonals of a convex (n+3)-gon with vertices
numbered 0 .. n+2. The snake triangulation fixes the negative copy of the
index set: snake diagonal s_i joins ceil(i/2) and n+2 - floor(i/2), a
zig-zag starting next to vertex 0. The remaining ("positive") diagonals
are the model's vertices, faces are pairwise noncrossing sets, and the
carrier of a diagonal is the set of snake diagonals it crosses; the facets
are the maximal cliques of the noncrossing graph (a flag complex, built by
Complex.from_graph, so its restrictions and sphere take the flag path).

The dihedral model of parameter m is a path on m vertices whose endpoints
carry one index label each and whose interior vertices carry both; it too
is the clique complex of its graph. Both models' carriers are masks, which
the Subdivision constructor checks.
"""

from __future__ import annotations

from .complexes import Complex
from .subdivisions import Subdivision


def crosses(d1, d2) -> bool:
    """Strict interleaving of chords (a,b), (c,d) of a convex polygon;
    chords sharing an endpoint never cross."""
    a, b = sorted(d1)
    c, d = sorted(d2)
    return a < c < b < d or c < a < d < b


def snake_diagonals(n: int) -> list[tuple[int, int]]:
    """The n snake diagonals of the (n+3)-gon, s_1 .. s_n."""
    return [(-(-i // 2), n + 2 - i // 2) for i in range(1, n + 1)]


def polygon_diagonals(size: int) -> list[tuple[int, int]]:
    out = []
    for a in range(size):
        for b in range(a + 2, size):
            if (a, b) != (0, size - 1):
                out.append((a, b))
    return out


def type_a_subdivision(n: int) -> Subdivision:
    """Positive part of the type A rank n cluster complex with its carrier
    map; facets are the maximal sets of pairwise noncrossing positive
    diagonals, the triangulations avoiding every snake diagonal."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    snake = snake_diagonals(n)
    positive = [d for d in polygon_diagonals(n + 3) if d not in snake]
    adj = [sum(1 << j for j, e in enumerate(positive) if e != d and not crosses(d, e))
           for d in positive]
    carriers = [sum(1 << k for k, s in enumerate(snake) if crosses(d, s)) for d in positive]
    cpx = Complex.from_graph([f"{a}-{b}" for a, b in positive], adj)
    return Subdivision(cpx, tuple(f"s{i}" for i in range(1, n + 1)), tuple(carriers))


def dihedral_subdivision(m: int) -> Subdivision:
    """Path on m vertices p1 .. pm; endpoint carriers are {s1} and {s2},
    interior carriers are {s1, s2}. Its sphere is the (m+2)-gon boundary."""
    if m < 2:
        raise ValueError(f"dihedral parameter must be >= 2, got {m}")
    path = [(1 << i >> 1 | 2 << i) & (1 << m) - 1 for i in range(m)]  # p(i-1), p(i+1)
    cpx = Complex.from_graph([f"p{i}" for i in range(1, m + 1)], path)
    return Subdivision(cpx, ("s1", "s2"), (1,) + (3,) * (m - 2) + (2,))


def count_roots_by_support(n: int) -> dict[int, int]:
    """Non-simple positive roots of type A rank n, counted by support size.
    Roots are the intervals [a, b] inside {1 .. n}; non-simple means b > a."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    out: dict[int, int] = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            s = b - a + 1
            out[s] = out.get(s, 0) + 1
    return out
