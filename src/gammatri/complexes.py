"""Finite abstract simplicial complexes stored by their maximal faces.

Faces are all subsets of facets, the empty face included. Every face and
facet is an int mask over the positions of c.vertices (bit i stands for
c.vertices[i]); labels appear only in make, from_dict, to_dict and error
messages. Facets are stored by size and then mask; to_dict lists them by
size and then sorted labels. The trivial complex {[]} is the single facet 0
on no vertices.
face_set searches a complex's faces once and keeps the list on it. The flag
models and is_flag read facets off maximal_cliques, with no face search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .poly import Poly1


class InvalidComplex(ValueError):
    pass


def label_list(value, what: str, error: type[Exception]):
    """The shape check of the JSON loaders: `value` must be a list (or
    tuple) of strings, so a bare string is never read one character at a
    time. Anything else raises `error` naming `what`."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{what} must be a list, got {type(value).__name__}")
    for v in value:
        if not isinstance(v, str):
            raise error(f"{what} holds {v!r}; labels must be strings")
    return value


def _json_fields(data, what: str, keys, error: type[Exception]) -> list:
    """The values of `keys` in the JSON object `data`, each one required."""
    if not isinstance(data, dict):
        raise error(f"{what} data must be a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise error(f"missing field {key!r} in {what} data")
    return [data[key] for key in keys]


@dataclass(frozen=True)
class Complex:
    vertices: tuple[str, ...]
    facets: tuple[int, ...]  # masks over the positions of vertices

    @classmethod
    def make(cls, vertices, facets) -> "Complex":
        """Validating constructor from label sets: a label outside `vertices`
        raises InvalidComplex, and from_masks checks the rest."""
        verts = tuple(vertices)
        bit = {v: 1 << i for i, v in enumerate(verts)}
        fsets = {frozenset(f) for f in facets}
        unknown = {f for f in fsets if not f <= bit.keys()}
        if unknown and len(bit) == len(verts):  # from_masks names duplicates first
            f = min(unknown, key=lambda f: (len(f), sorted(f)))
            raise InvalidComplex(
                f"facet {sorted(f)} uses unknown vertices {sorted(f - bit.keys())}")
        return cls.from_masks(verts, [sum(map(bit.get, f)) for f in fsets - unknown])

    @classmethod
    def from_masks(cls, vertices, facets) -> "Complex":
        """The constructor behind every other; facets are int masks over the
        positions of `vertices`. A mask outside [0, 2^|vertices|), then
        duplicate labels, then a facet inside another, then a vertex in no
        facet raise InvalidComplex. Facets are kept once each, by size and
        then mask; none at all leaves the empty face."""
        verts = tuple(vertices)

        def labels(f: int) -> list[str]:
            return sorted([verts[i] for i in _bits(f)])

        masks = sorted(set(facets), key=lambda f: (f.bit_count(), f)) or [0]
        if stray := [f for f in masks if f < 0 or f >> len(verts)]:
            raise InvalidComplex(f"facet mask {stray[0]} is outside [0, 2^{len(verts)})")
        if len(set(verts)) != len(verts):
            raise InvalidComplex("duplicate vertex labels")
        if first_supersets(masks):  # named by the first pair in label order
            masks.sort(key=lambda f: (f.bit_count(), labels(f)))
            small, big = next(iter(first_supersets(masks).items()))
            raise InvalidComplex(f"facet {labels(small)} is contained in facet "
                                 f"{labels(big)} (stored facets must be maximal)")
        missing = (1 << len(verts)) - 1 & ~reduce(int.__or__, masks)
        if missing:
            raise InvalidComplex(f"vertices {labels(missing)} appear in no facet")
        return cls(verts, tuple(masks))

    @classmethod
    def trivial(cls) -> "Complex":
        """The complex whose only face is the empty face."""
        return cls.from_masks((), [0])

    @cached_property
    def _faces(self) -> list[int]:
        """face_set's search, run once per complex: depth first, carrying the
        facets that hold the current face and adding a higher vertex only
        while one of them holds it too (Kaibel and Pfetsch, 2002). A face
        with no higher candidate left is listed without a search of its own,
        and so is a face's only extension. The empty face 0 comes first, and
        every other face comes after the face that drops its top vertex."""
        inc = _transpose(self.facets, len(self.vertices))
        out = [0]

        def extend(face: int, m: int, candidates: list[int]) -> None:
            for i, w in enumerate(candidates, 1):
                g = face | 1 << w
                out.append(g)
                if i < len(candidates):
                    m2 = m & inc[w]
                    rest = [x for x in candidates[i:] if inc[x] & m2]
                    if len(rest) > 1:
                        extend(g, m2, rest)
                    elif rest:
                        out.append(g | 1 << rest[0])

        extend(0, (1 << len(self.facets)) - 1, list(range(len(inc))))
        return out

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "facets": sorted((sorted(self.vertices[i] for i in _bits(f))
                              for f in self.facets if f), key=lambda f: (len(f), f)),
        }

    @classmethod
    def from_dict(cls, data) -> "Complex":
        vertices, facets = _json_fields(data, "complex", ("vertices", "facets"),
                                        InvalidComplex)
        label_list(vertices, "vertices", InvalidComplex)
        if not isinstance(facets, list):
            raise InvalidComplex(f"facets must be a list, got {type(facets).__name__}")
        return cls.make(vertices, [label_list(f, "facet", InvalidComplex) for f in facets])


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transpose(masks, width: int) -> list[int]:
    """Entry i has bit k set when masks[k] holds position i < width. The
    rows of bits are transposed as binary strings: OR-ing in 1 << k bit by
    bit costs time quadratic in len(masks), since the ints grow as wide."""
    return [int("".join(col)[::-1], 2)
            for col in zip(*[format(f | 1 << width, "b")[:0:-1] for f in masks])]


def first_supersets(sets) -> dict[int, int]:
    """Map each of the masks `sets` that lies strictly inside another one to
    the first such superset in the order given (repeats count once). Only a
    set smaller than the largest can lie inside another, so a family of
    equal sizes, such as the facets of a pure complex, maps to {} at once.
    Bit k of a position's holder mask marks the k-th set as holding it, so
    the AND of a smaller set's holder masks, less its own bit, marks its
    strict supersets."""
    sets = list(dict.fromkeys(sets))
    top = max((f.bit_count() for f in sets), default=0)
    smaller = [k for k, f in enumerate(sets) if f.bit_count() < top]
    if not smaller:
        return {}
    holders = _transpose(sets, max(sets).bit_length())
    everyone = (1 << len(sets)) - 1
    out = {}
    for k in smaller:
        m, f = everyone ^ 1 << k, sets[k]
        while f:
            m &= holders[(f & -f).bit_length() - 1]
            f &= f - 1
        if m:
            out[sets[k]] = sets[(m & -m).bit_length() - 1]
    return out


def face_set(c: Complex) -> list[int]:
    """Every face of c once, as a mask over the positions of c.vertices; the
    search (Complex._faces) runs on the first call and its list is kept on c."""
    return c._faces


def all_faces(c: Complex) -> dict[int, list[int]]:
    """The faces of face_set(c) grouped by cardinality; includes the empty
    face."""
    grouped: dict[int, list[int]] = {}
    for f in face_set(c):
        grouped.setdefault(f.bit_count(), []).append(f)
    return grouped


def dimension(c: Complex) -> int:
    """Max facet cardinality minus 1 (-1 for the trivial complex)."""
    return max(f.bit_count() for f in c.facets) - 1


def is_pure(c: Complex) -> bool:
    sizes = {f.bit_count() for f in c.facets}
    return len(sizes) <= 1


def f_vector(c: Complex) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_(d-1)): face counts by cardinality."""
    grouped = all_faces(c)
    d = dimension(c)
    return tuple(len(grouped.get(k, ())) for k in range(d + 2))


def f_polynomial(c: Complex) -> Poly1:
    """sum_i f_(i-1) x^i, so the constant term counts the empty face."""
    return Poly1(dict(enumerate(f_vector(c))))


def maximal_cliques(adj) -> list[int]:
    """The maximal cliques, as masks, of the graph where adj[i] is vertex i's
    neighbour mask without bit i: Bron-Kerbosch with Tomita's pivot, a vertex
    of P | X with the most neighbours in P. No vertex gives the one clique 0."""
    out = []

    def expand(clique: int, p: int, x: int) -> None:
        if not p | x:
            out.append(clique)
        elif p:
            pivot = max(_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
            for v in _bits(p & ~adj[pivot]):
                expand(clique | 1 << v, p & adj[v], x & adj[v])
                p, x = p ^ 1 << v, x | 1 << v

    expand(0, (1 << len(adj)) - 1, 0)
    return out


def is_flag(c: Complex) -> bool:
    """True iff every clique of the 1-skeleton is a face, that is iff the
    facets are the maximal cliques of the 1-skeleton, where vertex i's
    neighbours are the other vertices of the facets that hold i."""
    adj = [0] * len(c.vertices)
    for f in c.facets:
        for i in _bits(f):
            adj[i] |= f ^ 1 << i
    cliques = sorted(maximal_cliques(adj), key=lambda f: (f.bit_count(), f))
    return tuple(cliques) == c.facets


def fresh_labels(taken, labels) -> dict[str, str]:
    """Rename each label that collides with `taken` or with an earlier
    renamed label by appending the fewest primes that avoid both; the
    other labels map to themselves."""
    taken = set(taken)
    rename = {}
    for label in labels:
        new = label
        while new in taken:
            new += "'"
        rename[label] = new
        taken.add(new)
    return rename


def join(a: Complex, b: Complex) -> Complex:
    """Simplicial join: facets are unions of a facet of a with one of b.
    Colliding vertex labels of b get a deterministic prime suffix."""
    rename = fresh_labels(a.vertices, b.vertices)
    facets = [fa | fb << len(a.vertices) for fa in a.facets for fb in b.facets]
    return Complex.from_masks(a.vertices + tuple(rename[v] for v in b.vertices), facets)
