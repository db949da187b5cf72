"""Finite abstract simplicial complexes stored by their maximal faces.

A complex is a list of facets over named vertices; faces are all subsets
of facets, the empty face included. The trivial complex {[]} is stored as
the single facet frozenset() on an empty vertex set.

Faces are int masks over the positions of c.vertices (bit i stands for
c.vertices[i]), listed once by face_set, whose search makes no call for
a face that cannot grow; face_labels turns one back into labels where a
caller needs them. The maximality check of Complex.make, first_supersets,
has nothing to test when every facet has the same size.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    such superset in the order given (repeats count once). Only a set
    smaller than the largest can lie inside another, so a family of equal
    sizes, such as the facets of a pure complex, maps to {} at once. Bit k
    of an element's holder mask marks the k-th set as holding it, so the
    AND of a smaller set's holder masks, less its own bit, marks its strict
    supersets."""
    sets = list(dict.fromkeys(sets))
    top = max(map(len, sets), default=0)
    smaller = [k for k, f in enumerate(sets) if len(f) < top]
    if not smaller:
        return {}
    holders: dict[str, int] = {}
    for k, g in enumerate(sets):
        for v in g:
            holders[v] = holders.get(v, 0) | 1 << k
    everyone = (1 << len(sets)) - 1
    out = {}
    for k in smaller:
        m = everyone & ~(1 << k)
        for v in sets[k]:
            m &= holders[v]
        if m:
            out[sets[k]] = sets[(m & -m).bit_length() - 1]
    return out


def face_set(c: Complex) -> list[int]:
    """Every face of c once, as a mask over the positions of c.vertices: a
    depth-first search that carries the facets holding the current face and
    adds a higher vertex only while one of them holds it too (Kaibel and
    Pfetsch, 2002). A face with no higher candidate left is listed without
    a search of its own, and so is a face's only extension. The empty face
    0 comes first, and every other face comes after the face that drops its
    top vertex."""
    pos = {v: i for i, v in enumerate(c.vertices)}
    inc = [0] * len(pos)
    for j, facet in enumerate(c.facets):
        for v in facet:
            inc[pos[v]] |= 1 << j
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

    extend(0, (1 << len(c.facets)) - 1, list(range(len(inc))))
    return out


def all_faces(c: Complex) -> dict[int, list[int]]:
    """The faces of face_set(c) grouped by cardinality; includes the empty
    face."""
    grouped: dict[int, list[int]] = {}
    for f in face_set(c):
        grouped.setdefault(f.bit_count(), []).append(f)
    return grouped


def face_labels(vertices, face: int) -> frozenset[str]:
    """The labels of a face mask over the positions of `vertices`, read off
    its set bits only."""
    labels = []
    while face:
        low = face & -face
        labels.append(vertices[low.bit_length() - 1])
        face ^= low
    return frozenset(labels)


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
    nbrs = [0] * len(c.vertices)
    for f in faces:
        if f.bit_count() == 2:
            lo, hi = (f & -f).bit_length() - 1, f.bit_length() - 1
            nbrs[lo] |= 1 << hi
            nbrs[hi] |= 1 << lo
    known = set(faces)

    def grow(clique: int, candidates: int) -> bool:
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            bigger = clique | low
            if bigger not in known or not grow(
                    bigger, candidates & nbrs[low.bit_length() - 1]):
                return False
        return True

    return grow(0, (1 << len(c.vertices)) - 1)


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
