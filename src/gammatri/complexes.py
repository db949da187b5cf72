"""Finite abstract simplicial complexes stored by their maximal faces.

A complex is a list of facets over named vertices; faces are all subsets
of facets, the empty face included. The trivial complex {[]} is stored as
the single facet frozenset() on an empty vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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


def _facet_key(f):
    return (len(f), tuple(sorted(f)))


@dataclass(frozen=True)
class Complex:
    vertices: tuple[str, ...]
    facets: tuple[frozenset[str], ...]

    @classmethod
    def make(cls, vertices, facets) -> "Complex":
        """Validating constructor. Facets must be maximal, be subsets of the
        vertex set, and jointly cover every vertex."""
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise InvalidComplex("duplicate vertex labels")
        vset = set(verts)
        fsets = sorted({frozenset(f) for f in facets}, key=_facet_key)
        if not fsets:
            fsets = [frozenset()]
        for f in fsets:
            extra = f - vset
            if extra:
                raise InvalidComplex(
                    f"facet {sorted(f)} uses unknown vertices {sorted(extra)}")
        contained = first_supersets(fsets)
        if contained:
            small, big = next(iter(contained.items()))
            raise InvalidComplex(
                f"facet {sorted(small)} is contained in facet {sorted(big)}"
                " (stored facets must be maximal)")
        covered = set().union(*fsets) if fsets else set()
        missing = vset - covered
        if missing:
            raise InvalidComplex(
                f"vertices {sorted(missing)} appear in no facet")
        return cls(verts, tuple(fsets))

    @classmethod
    def trivial(cls) -> "Complex":
        """The complex whose only face is the empty face."""
        return cls.make((), [frozenset()])

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "facets": [sorted(f) for f in self.facets if f],
        }

    @classmethod
    def from_dict(cls, data) -> "Complex":
        vertices, facets = _json_fields(data, "complex", ("vertices", "facets"),
                                        InvalidComplex)
        label_list(vertices, "vertices", InvalidComplex)
        if not isinstance(facets, list):
            raise InvalidComplex(f"facets must be a list, got {type(facets).__name__}")
        return cls.make(vertices, [frozenset(label_list(f, "facet", InvalidComplex))
                                   for f in facets])


def first_supersets(sets) -> dict[frozenset, frozenset]:
    """Map each of `sets` that lies strictly inside another one to the first
    such superset in the order given. A nonempty set is compared only with
    the sets that hold its rarest element, since every superset holds it."""
    sets = list(sets)
    holders: dict[str, list[frozenset]] = {}
    for g in sets:
        for v in g:
            holders.setdefault(v, []).append(g)
    out = {}
    for f in sets:
        pool = min((holders[v] for v in f), key=len) if f else sets
        for g in pool:
            if f < g:
                out[f] = g
                break
    return out


def all_faces(c: Complex) -> dict[int, set[frozenset[str]]]:
    """All faces of c grouped by cardinality; includes the empty face."""
    seen: set[frozenset[str]] = set()
    for facet in c.facets:
        elems = sorted(facet)
        for r in range(len(elems) + 1):
            for combo in combinations(elems, r):
                seen.add(frozenset(combo))
    grouped: dict[int, set[frozenset[str]]] = {}
    for f in seen:
        grouped.setdefault(len(f), set()).add(f)
    return grouped


def face_set(c: Complex) -> set[frozenset[str]]:
    out: set[frozenset[str]] = set()
    for group in all_faces(c).values():
        out |= group
    return out


def dimension(c: Complex) -> int:
    """Max facet cardinality minus 1 (-1 for the trivial complex)."""
    return max(len(f) for f in c.facets) - 1


def is_pure(c: Complex) -> bool:
    sizes = {len(f) for f in c.facets}
    return len(sizes) <= 1


def f_vector(c: Complex) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_(d-1)): face counts by cardinality."""
    grouped = all_faces(c)
    d = dimension(c)
    return tuple(len(grouped.get(k, ())) for k in range(d + 2))


def f_polynomial(c: Complex) -> Poly1:
    """sum_i f_(i-1) x^i, so the constant term counts the empty face."""
    return Poly1(dict(enumerate(f_vector(c))))


def is_flag(c: Complex) -> bool:
    """True iff every clique of the 1-skeleton is a face."""
    faces = face_set(c)
    verts = sorted({v for f in c.facets for v in f})
    nbrs = {v: set() for v in verts}
    for f in faces:
        if len(f) == 2:
            a, b = sorted(f)
            nbrs[a].add(b)
            nbrs[b].add(a)

    def grow(clique: frozenset, candidates: list) -> bool:
        for idx, v in enumerate(candidates):
            bigger = clique | {v}
            if len(bigger) >= 3 and bigger not in faces:
                return False
            rest = [w for w in candidates[idx + 1:] if w in nbrs[v]]
            if not grow(bigger, rest):
                return False
        return True

    return grow(frozenset(), verts)


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
    b_verts = tuple(rename[v] for v in b.vertices)
    b_facets = [frozenset(rename[v] for v in f) for f in b.facets]
    facets = [fa | fb for fa in a.facets for fb in b_facets]
    return Complex.make(a.vertices + b_verts, facets)
