"""Gamma-triangles for finite Coxeter diagrams.

The triangle of a diagram is assembled from local gamma-polynomials of its
induced subdiagrams: sum over vertex subsets J of y^|J| times the product
of the local gamma-polynomials of the connected components induced on the
complement. Types A, B, D have closed-form local data; the dihedral types
contribute (m-2)x; H3, H4, F4, E6, E7, E8 carry stored local data. Rows
j >= 1 of any triangle therefore always come out of the closed forms for
proper subdiagrams, never out of storage.

closed_triangle is the one way from a type name to its triangle without
the diagram sum: the closed forms for A, B, D, I2(m) and H3, the stored
tables for F4, H4, E6, E7, E8. The defining sums of the series module
read their coefficients from local_gamma_poly and closed_triangle.

Each diagram is read through one cached view, CoxeterDiagram._view, which
lists its components once: classify checks each one's finite type on it,
and _shape_type is the one place where a shape becomes a type name.
gamma_triangle_diagram memoizes the subset sum of each component by its
undecided vertices (O(n) states on a path, where a walk over the subsets
visits about 1.78^n) and multiplies the components' sums; the product of
their closed triangles stays an independent check of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .complexes import _bits, _json_fields, _skeleton, label_list
from .poly import Poly1, Poly2, binom, quotient
from .transforms import GammaTriangle


class ClassificationError(ValueError):
    pass


@dataclass(frozen=True)
class CoxeterDiagram:
    """Simple graph with integer edge labels >= 3 (3 is the default and is
    omitted in serialized form)."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        """The normal form make returns: distinct string labels, and edges
        (a, b, m) with a < b both vertices and m an int >= 3 (not a bool),
        sorted with each pair once; make names its own faults first."""
        vset = set(label_list(self.vertices, "vertices", ClassificationError))
        if len(vset) != len(self.vertices):
            raise ClassificationError("duplicate vertex labels")
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 3 and e[0] in vset
                    and e[1] in vset and e[0] < e[1] and isinstance(e[2], int)
                    and not isinstance(e[2], bool) and e[2] >= 3):
                raise ClassificationError(
                    f"edge {e!r} is not (a, b, m) with vertices a < b and an int m >= 3")
        if any(e[:2] >= f[:2] for e, f in zip(self.edges, self.edges[1:])):
            raise ClassificationError("edges are not sorted with each pair once")

    @classmethod
    def make(cls, vertices, edges) -> "CoxeterDiagram":
        """Validating constructor: string labels, and edges given as 2 labels
        and an optional int label (not a bool)."""
        verts = tuple(label_list(vertices, "vertices", ClassificationError))
        if len(set(verts)) != len(verts):
            raise ClassificationError("duplicate vertex labels")
        vset = set(verts)
        seen = set()
        norm = []
        if not isinstance(edges, (list, tuple)):
            raise ClassificationError(
                f"edges must be a list, got {type(edges).__name__}")
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) not in (2, 3):
                raise ClassificationError(
                    f"edge {e!r} must be 2 vertex labels and an optional edge label")
            u, v = label_list(e[:2], "edge", ClassificationError)
            m = e[2] if len(e) == 3 else 3
            if isinstance(m, bool) or not isinstance(m, int):
                raise ClassificationError(
                    f"edge label {m!r} on ({u!r}, {v!r}) is not an int")
            if u == v:
                raise ClassificationError(f"loop at vertex {u!r}")
            if u not in vset or v not in vset:
                raise ClassificationError(f"edge ({u!r}, {v!r}) uses unknown vertex")
            if m < 3:
                raise ClassificationError(f"edge label {m} < 3 on ({u!r}, {v!r})")
            key = frozenset((u, v))
            if key in seen:
                raise ClassificationError(f"repeated edge ({u!r}, {v!r})")
            seen.add(key)
            a, b = sorted((u, v))
            norm.append((a, b, m))
        return cls(verts, tuple(sorted(norm)))

    @cached_property
    def _view(self) -> tuple[list[int], list[tuple[int, int]], list[int], int,
                             int, dict[int, tuple[int, int]]]:
        """(adj, comps, order, forks, tops, labeled): the one view of the
        diagram that classify and the diagram sum read, built once in linear
        time over positions, with order[p] the index in vertices of position
        p. The components are taken in order of their lowest vertex index,
        and each is walked depth first, lowest neighbour first, from its
        lowest-index leaf (or lowest vertex), so a standard_diagram keeps its
        order; comps lists the run of positions (start, stop) of each
        component. adj[p] is the neighbour mask of position p, forks the mask
        of the positions of degree 3 or more, and labeled maps each edge
        labeled m >= 4, as (mask, m), from the mask's highest bit, with those
        bits in tops. The walk reaches each vertex from a lower position, so
        in a component without a cycle each edge has its own highest bit."""
        index = {v: i for i, v in enumerate(self.vertices)}
        adj = _skeleton([1 << index[u] | 1 << index[v] for u, v, _ in self.edges],
                        len(index))
        n = len(adj)
        order, comps, rest = [], [], (1 << n) - 1
        for i in range(n):
            if not rest >> i & 1:
                continue
            # i is the lowest index of its component
            leaf = i if adj[i].bit_count() < 2 else next(
                (k for k in _bits(_component(adj, i)) if adj[k].bit_count() == 1), i)
            start, stack = len(order), [leaf]
            rest ^= 1 << leaf
            while stack:
                k = stack.pop()
                order.append(k)
                grown = adj[k] & rest
                rest ^= grown
                stack += reversed(_bits(grown))
            comps.append((start, len(order)))
        bit = [0] * n
        for p, k in enumerate(order):
            bit[k] = 1 << p
        adj = [sum(map(bit.__getitem__, _bits(adj[k]))) for k in order]
        labeled = {}
        for u, v, label in self.edges:
            if label > 3:
                e = bit[index[u]] | bit[index[v]]
                labeled[1 << e.bit_length() - 1] = e, label
        forks = sum(1 << p for p, a in enumerate(adj) if a.bit_count() > 2)
        return adj, comps, order, forks, sum(labeled), labeled

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [[u, v] if m == 3 else [u, v, m] for u, v, m in self.edges],
        }

    @classmethod
    def from_dict(cls, data) -> "CoxeterDiagram":
        return cls.make(*_json_fields(data, "diagram", ("vertices", "edges"),
                                      ClassificationError))


@dataclass(frozen=True)
class TypedComponent:
    kind: str
    rank: int
    m: int | None = None  # dihedral edge label, kind == "I2" only

    def __str__(self):
        if self.kind == "I2":
            return f"I2({self.m})"
        if self.kind in EXCEPTIONAL_LOCAL:  # E6 ... H4 already name the rank
            return self.kind
        return f"{self.kind}{self.rank}"


def _classify_component(dgm: CoxeterDiagram, comp: int) -> TypedComponent:
    """Type of the connected component on the position mask comp of
    dgm._view: the checks that it is of finite type, then _shape_type;
    labels are read only to name a fault."""
    adj, _, order, forks, tops, labeled = view = dgm._view
    at = _bits(comp)
    r = len(at)

    def fault(what: str) -> ClassificationError:
        name = ", ".join(sorted(dgm.vertices[order[p]] for p in at))
        return ClassificationError(f"component {{{name}}} {what}")

    deg = {p: adj[p].bit_count() for p in at}
    if sum(deg.values()) != 2 * (r - 1):
        raise fault("contains a cycle")
    maxdeg = max(deg.values())
    hit = comp & tops  # a bit per labeled edge, now that comp is a tree
    if hit:
        if hit & (hit - 1):
            raise fault("has two labeled edges")
        if maxdeg > 2:
            raise fault("has a branch point and a labeled edge")
        e, m = labeled[hit]
        at_end = any(deg[p] == 1 for p in _bits(e))
        if not (r == 2 or m == 4 and (at_end or r == 4)
                or m == 5 and at_end and r in (3, 4)):
            raise fault(f"with a {m}-labeled edge is not of finite type")
    elif maxdeg > 3:
        raise fault(f"has a vertex of degree {maxdeg}")
    elif maxdeg == 3:
        hit = comp & forks
        if hit & (hit - 1):
            raise fault(f"has {hit.bit_count()} branch points")
        lengths = []
        fork = hit.bit_length() - 1
        for cur in _bits(adj[fork]):  # walk each arm out of the fork to its leaf
            length, prev = 1, fork
            while deg[cur] == 2:
                prev, cur = cur, (adj[cur] ^ 1 << prev).bit_length() - 1
                length += 1
            lengths.append(length)
        lengths.sort()
        if not (lengths[1] == 1 or lengths[:2] == [1, 2] and lengths[2] <= 4):
            raise fault(f"with branch lengths {lengths} is not of finite type")
    return TypedComponent(*_shape_type(comp, view))


def classify(dgm: CoxeterDiagram) -> list[TypedComponent]:
    """Connected components as typed finite-type pieces, in a deterministic
    order. A 2-vertex component with a 3-labeled edge is A2, with label
    m >= 4 it is I2(m) (so B2 and C2 come out as I2(4)). The view's comps
    are checked in order of their least label, so the first of infinite
    type in that order is the one reported, whatever the vertex order."""
    _, comps, order = dgm._view[:3]
    label = [dgm.vertices[k] for k in order]
    out = [_classify_component(dgm, (1 << stop) - (1 << start))
           for start, stop in sorted(comps, key=lambda c: min(label[c[0]:c[1]]))]
    return sorted(out, key=lambda c: (c.kind, c.rank, c.m or 0))


def _component(adj: list[int], i: int) -> int:
    """The vertex mask of the connected component of position i."""
    comp = frontier = 1 << i
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = adj[low.bit_length() - 1] & ~comp
        comp |= grown
        frontier |= grown
    return comp


# local gamma data for the types without closed forms, read off the j = 0
# rows of the reference triangles below
EXCEPTIONAL_LOCAL = {
    "H3": {1: 8},
    "H4": {1: 42, 2: 40},
    "F4": {1: 10, 2: 9},
    "E6": {1: 7, 2: 35, 3: 13},
    "E7": {1: 16, 2: 124, 3: 112},
    "E8": {1: 44, 2: 484, 3: 784, 4: 120},
}


def local_gamma_poly(c: TypedComponent) -> Poly1:
    """Closed-form local gamma-polynomial of a connected finite type
    (stored data for the exceptional kinds)."""
    n = c.rank
    if c.kind == "A":
        return Poly1({
            k: quotient(comb(n, k) * comb(n - k - 1, k - 1), n - k + 1,
                        "type A local gamma coefficient")
            for k in range(1, n // 2 + 1)})
    if c.kind == "B":
        return Poly1({k: comb(n, k) * comb(n - k - 1, k - 1)
                      for k in range(1, n // 2 + 1)})
    if c.kind == "D":
        return Poly1({
            k: quotient((n - 2) * comb(2 * k - 2, k - 1) * comb(n - 2, 2 * k - 2),
                        k, "type D local gamma coefficient")
            for k in range(1, n // 2 + 1)})
    if c.kind == "I2":
        return Poly1({1: c.m - 2})
    if c.kind in EXCEPTIONAL_LOCAL:
        return Poly1(EXCEPTIONAL_LOCAL[c.kind])
    raise ClassificationError(f"unknown component kind {c.kind!r}")


def _connected_sets(v: int, allowed: int, adj: list[int]):
    """Each connected vertex mask C with v <= C <= v | allowed, once, with
    its border: the neighbours of C in allowed. Every step takes the lowest
    candidate neighbour of C either into C or into its border."""
    stack = [(v, adj[v.bit_length() - 1] & allowed, 0)]
    while stack:
        comp, cand, border = stack.pop()
        if not cand:
            yield comp, border
            continue
        low = cand & -cand
        stack.append((comp, cand ^ low, border | low))
        comp |= low
        stack.append((comp, (cand | adj[low.bit_length() - 1] & allowed)
                      & ~(comp | border), border))


def _shape_type(comp: int, view) -> tuple[str, int, int | None]:
    """(kind, rank, m) of a connected position mask comp of a diagram that
    classify has passed, read off the diagram's _view: comp's component
    holds at most one fork, of degree 3, or one labeled edge, never both,
    and that with comp's size fixes the type. This is the one place where
    a shape becomes a type name."""
    adj, _, _, forks, tops, labeled = view
    r = comp.bit_count()
    hit = comp & tops
    if hit:
        e, m = labeled[hit]
        if e & comp == e:
            if r == 2:
                return "I2", 2, m
            if m == 5:
                return f"H{r}", r, None
            at_end = any((adj[i] & comp).bit_count() == 1 for i in _bits(e))
            return ("B", r, None) if at_end else ("F4", 4, None)
    hit = comp & forks
    if hit:
        arms = adj[hit.bit_length() - 1]
        if arms & comp == arms:  # D if two arms are single leaves, else E
            leaves = sum((adj[i] & comp).bit_count() == 1 for i in _bits(arms))
            return ("D", r, None) if leaves >= 2 else (f"E{r}", r, None)
    return "A", r, None


def gamma_triangle_diagram(dgm: CoxeterDiagram) -> GammaTriangle:
    """Sum over vertex subsets J of local_gamma(induced on I - J) y^|J|.

    classify(dgm) runs first, so a diagram of infinite type raises
    ClassificationError before the sum (finite type is closed under induced
    subdiagrams). The sum is the product of the sums W over the components,
    the runs of positions in dgm._view's comps, each with a memo of its own
    states. Within a component it is regrouped by the undecided vertices U:
    with v the first position in U, v either stays out, or is in together
    with a connected set C of U, whose neighbours N in U then stay out, so
        W(U) = y W(U - v) + sum over C of gamma(C) y^|N| W(U - C - N),
    with W(empty) = 1 and only the C of local gamma nonzero (any lone
    vertex, A1, has 0, so a one-vertex component has W = y). The states U
    are found with an explicit stack, each once, and evaluated in
    increasing mask order, subsets first. W(U) is one Poly1 whose key
    i + s*j holds the x^i y^j coefficient, with s above every x-degree:
    gamma(C) W(U - C - N) and the product over components are Poly1
    products, and y^|N| a shift of its keys. _shape_type reads each
    connected set's type off the view, and the local gamma of a type is
    computed once per call. No W is read from a closed form or a stored
    table, so the product of the components' closed triangles stays an
    independent check, and the tests' 2^n sum over whole unions checks the
    factoring."""
    classify(dgm)
    n = len(dgm.vertices)
    view = dgm._view
    adj, comps = view[:2]
    s = n // 2 + 1
    of_type: dict[tuple, Poly1] = {}
    total = Poly1.one()
    for start, stop in comps:
        ways_of: dict[int, tuple[int, list]] = {}
        whole = (1 << stop) - (1 << start)
        todo = [whole]
        while todo:
            u = todo.pop()
            if u in ways_of:
                continue
            v = u & -u
            rest = u ^ v  # v stays out
            ways = []
            for comp, border in _connected_sets(v, rest, adj):
                if comp == v:  # a lone vertex, A1, has local gamma 0
                    continue
                key = _shape_type(comp, view)
                g = of_type.get(key)
                if g is None:
                    g = of_type[key] = local_gamma_poly(TypedComponent(*key))
                if g:
                    w = rest & ~(comp | border)
                    ways.append((g, border.bit_count(), w))
                    if w:
                        todo.append(w)
            ways_of[u] = rest, ways
            if rest:
                todo.append(rest)
        w_of = {0: Poly1.one()}
        for u, (rest, ways) in sorted(ways_of.items()):
            acc = {k + s: c for k, c in w_of[rest]._c.items()}
            for g, b, w in ways:
                shift = s * b
                for k, c in (g * w_of[w] if w else g)._c.items():
                    acc[k + shift] = acc.get(k + shift, 0) + c
            w_of[u] = Poly1._build(acc)
        total = total * w_of[whole]
    return GammaTriangle.make({(k % s, k // s): c for k, c in total._c.items()}, n)


def closed_gamma_triangle(kind: str, n: int) -> GammaTriangle:
    """The type A or B triangle of rank n >= 0 from its closed coefficients:
    gamma_(0,n) = 1 and, for k >= 1, C(n,k) C(n-k-l-1, k-1), times
    (l+1)/(n-k+1) for type A."""
    if kind not in ("A", "B"):
        raise ValueError(f"no closed coefficient form for kind {kind!r}")
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")
    coeffs = {(0, n): 1}
    for k in range(1, n // 2 + 1):
        for l in range(n - 2 * k + 1):
            c = comb(n, k) * binom(n - k - l - 1, k - 1)
            coeffs[k, l] = c if kind == "B" else quotient(
                (l + 1) * c, n - k + 1, "type A triangle coefficient")
    return GammaTriangle.make(coeffs, n)


def gamma_triangle_D(n: int) -> GammaTriangle:
    """Type D rank n >= 2 triangle: y times the type B rank n-1 triangle plus
    the local gamma-polynomial of D_n (0 for D2 = y^2) as the j = 0 row."""
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
    coeffs = {}
    for (i, j), c in closed_gamma_triangle("B", n - 1).coeffs.items():
        coeffs[(i, j + 1)] = c
    for i, c in local_gamma_poly(TypedComponent("D", n))._c.items():
        coeffs[(i, 0)] = coeffs.get((i, 0), 0) + c
    return GammaTriangle.make(coeffs, n)


def rank23_formula(h: int, rank: int) -> GammaTriangle:
    """Rank 2: y^2 + (h-2) x for any Coxeter number h >= 2. Rank 3:
    y^3 + 6(h-2)/(h+2) xy + 3(h-2)^2/(2(h+2)) x for h in {2, 4, 6, 10}."""
    if rank == 2:
        if h < 2:
            raise ValueError(f"rank 2 needs h >= 2, got {h}")
        return GammaTriangle.make({(0, 2): 1, (1, 0): h - 2}, 2)
    if rank == 3:
        if h not in (2, 4, 6, 10):
            raise ValueError(f"rank 3 Coxeter number must be 2, 4, 6 or 10, got {h}")
        c11 = quotient(6 * (h - 2), h + 2, "rank 3 xy entry")
        c10 = quotient(3 * (h - 2) ** 2, 2 * (h + 2), "rank 3 x entry")
        return GammaTriangle.make({(0, 3): 1, (1, 1): c11, (1, 0): c10}, 3)
    raise ValueError(f"rank must be 2 or 3, got {rank}")


# the step coefficients (a, b) of each family's recursion
# u_(n+1) = a u_n + b u_(n-1), as Poly2 mappings
_FAMILY_STEPS = {
    "lucas": ({(0, 2): 1, (1, 0): 2}, {(2, 0): -1, (1, 1): 1}),
    "pell": ({(0, 1): 1}, {(1, 0): 1}),
}


def family_recursion(name: str, n: int) -> Poly2:
    """u_0 = 0, u_1 = 1, then u_(n+1) = a u_n + b u_(n-1) with the family's
    step coefficients: a = y^2 + 2x, b = xy - x^2 for the Lucas family,
    a = y, b = x for the Pell family."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if name not in _FAMILY_STEPS:
        raise ValueError(f"unknown family {name!r}")
    a, b = map(Poly2, _FAMILY_STEPS[name])
    u, v = Poly2.zero(), Poly2.one()
    for _ in range(n - 1):
        u, v = v, a * v + b * u
    return v if n else u


def parse_type(kind: str, rank: int | None = None,
               m: int | None = None) -> tuple[str, int, int | None]:
    """Normalize a finite type name to (kind, rank, m), with kind one of A,
    B, D, I2, E6, E7, E8, F4, H3, H4. Case is ignored, C is an alias of B,
    E/F/H take their rank into the name, and I2(m) carries its edge label
    m; m is None for every kind but I2. Raises ClassificationError for an
    unknown name, a rank the type does not have or an m it does not take."""
    kind = kind.upper()
    if kind == "C":
        kind = "B"
    label = kind[3:-1]  # m in I2(m), in ASCII digits only
    if kind == f"I2({label})" and label.isascii() and label.isdigit():
        if m not in (None, int(label)):
            raise ClassificationError(f"{kind} conflicts with m = {m}")
        kind, m = "I2", int(label)
    if kind in ("E", "F", "H"):
        if rank is None:
            raise ClassificationError(f"type {kind} needs a rank")
        kind = f"{kind}{rank}"
    if kind == "I2":
        if m is None:
            raise ClassificationError("type I2 needs its edge label: I2(m) or --m")
        if m < 2:
            raise ClassificationError(f"dihedral label must be >= 2, got {m}")
        if rank not in (None, 2):
            raise ClassificationError("type I2 has rank 2")
        return kind, 2, m
    if kind not in EXCEPTIONAL_LOCAL and kind not in ("A", "B", "D"):
        raise ClassificationError(f"unknown type {kind!r}")
    if m is not None:
        raise ClassificationError(f"type {kind} takes no edge label m (only I2 does)")
    if kind in EXCEPTIONAL_LOCAL:
        if rank not in (None, int(kind[1])):
            raise ClassificationError(f"type {kind} has rank {kind[1]}")
        return kind, int(kind[1]), None
    if rank is None:
        raise ClassificationError(f"type {kind} needs a rank")
    least = 2 if kind == "D" else 1
    if rank < least:
        raise ClassificationError(f"type {kind} needs rank >= {least}")
    return kind, rank, None


def standard_diagram(kind: str, rank: int | None = None,
                     m: int | None = None) -> CoxeterDiagram:
    """Standard diagram of a finite type named as parse_type accepts. The
    low-rank conventions B1 = A1, D2 = A1 x A1, D3 = A3 and I2(3) = A2 are
    applied here, so every legal name yields a classifiable diagram."""
    kind, rank, m = parse_type(kind, rank, m)
    verts = [f"s{i}" for i in range(1, rank + 1)]
    path = list(zip(verts, verts[1:]))
    if kind == "I2":
        edges = [] if m == 2 else [("s1", "s2", m)]
    elif kind == "B" and rank > 1:
        edges = path[:-1] + [(verts[-2], verts[-1], 4)]
    elif kind == "D" and rank > 3:
        edges = path[:-2] + [(verts[-3], verts[-2]), (verts[-3], verts[-1])]
    elif kind == "A" or (kind == "D" and rank == 3):
        edges = path
    elif kind in ("B", "D"):  # B1 and D2
        edges = []
    elif kind in ("E6", "E7", "E8"):
        edges = path[:-1] + [(verts[2], verts[-1])]
    elif kind == "F4":
        edges = [path[0], (verts[1], verts[2], 4), path[2]]
    else:
        edges = [(verts[0], verts[1], 5)] + path[1:]
    return CoxeterDiagram.make(verts, edges)


def pell_discriminant_check() -> bool:
    """The discriminant a^2 + 4b of the Pell-family step (y^2 + 4x) equals
    the triangle of I2(6)."""
    a, b = map(Poly2, _FAMILY_STEPS["pell"])
    return a * a + 4 * b == gamma_triangle_diagram(
        standard_diagram("I2", m=6)).to_poly2()


def reference_tables() -> dict[str, GammaTriangle]:
    """Stored reference triangles (verbatim table data)."""
    data = {
        "A4": (4, {(0, 4): 1, (1, 2): 3, (1, 1): 2, (1, 0): 1, (2, 0): 2}),
        "B4": (4, {(0, 4): 1, (1, 2): 4, (1, 1): 4, (1, 0): 4, (2, 0): 6}),
        "D4": (4, {(0, 4): 1, (1, 2): 3, (1, 1): 3, (1, 0): 2, (2, 0): 2}),
        "F4": (4, {(0, 4): 1, (1, 2): 4, (1, 1): 6, (1, 0): 10, (2, 0): 9}),
        "H4": (4, {(0, 4): 1, (1, 2): 5, (1, 1): 9, (1, 0): 42, (2, 0): 40}),
        "E6": (6, {(0, 6): 1, (1, 4): 5, (1, 3): 5, (1, 2): 6, (2, 2): 11,
                   (1, 1): 7, (2, 1): 23, (1, 0): 7, (2, 0): 35, (3, 0): 13}),
        "E7": (7, {(0, 7): 1, (1, 5): 6, (1, 4): 6, (1, 3): 7, (2, 3): 16,
                   (1, 2): 9, (2, 2): 36, (1, 1): 12, (2, 1): 69, (3, 1): 28,
                   (1, 0): 16, (2, 0): 124, (3, 0): 112}),
        "E8": (8, {(0, 8): 1, (1, 6): 7, (1, 5): 7, (1, 4): 8, (2, 4): 22,
                   (1, 3): 10, (2, 3): 48, (1, 2): 14, (2, 2): 94, (3, 2): 46,
                   (1, 1): 22, (2, 1): 192, (3, 1): 194,
                   (1, 0): 44, (2, 0): 484, (3, 0): 784, (4, 0): 120}),
        "B5": (5, {(0, 5): 1, (1, 3): 5, (1, 2): 5, (1, 1): 5, (2, 1): 10,
                   (1, 0): 5, (2, 0): 20}),
        "D6": (6, {(0, 6): 1, (1, 4): 5, (1, 3): 5, (1, 2): 5, (2, 2): 10,
                   (1, 1): 5, (2, 1): 20, (1, 0): 4, (2, 0): 24, (3, 0): 8}),
    }
    return {name: GammaTriangle.make(coeffs, d) for name, (d, coeffs) in data.items()}


def closed_triangle(kind: str, rank: int | None = None,
                    m: int | None = None) -> GammaTriangle:
    """Triangle of a finite type named as parse_type accepts, without the
    diagram sum: the closed forms for A, B, D (whose D2 = y^2 is I2(2)),
    I2(m) and H3, the stored tables for F4, H4, E6, E7, E8."""
    kind, rank, m = parse_type(kind, rank, m)
    if kind in ("A", "B"):
        return closed_gamma_triangle(kind, rank)
    if kind == "D":
        return gamma_triangle_D(rank)
    if kind == "I2":
        return rank23_formula(m, 2)
    if kind == "H3":
        return rank23_formula(10, 3)
    return reference_tables()[kind]


def table_mismatches(name: str) -> list[tuple[str, int, int, int, int]]:
    """Recompute one stored table through the diagram sum and list entrywise
    differences as (table, i, j, expected, got)."""
    stored = reference_tables()[name]
    computed = gamma_triangle_diagram(standard_diagram(name[0], int(name[1:])))
    out = []
    keys = set(stored.coeffs) | set(computed.coeffs)
    for i, j in sorted(keys):
        want, got = stored.entry(i, j), computed.entry(i, j)
        if want != got:
            out.append((name, i, j, want, got))
    return out

