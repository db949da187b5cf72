"""Finite abstract simplicial complexes stored by their maximal faces.

Faces are all subsets of facets, the empty face included. Every face and
facet is an int mask over the positions of c.vertices (bit i stands for
c.vertices[i]); labels appear only in make, from_dict, to_dict and error
messages. Facets are stored by size and then mask; to_dict lists them by
size and then sorted labels. The trivial complex {[]} is the single facet 0
on no vertices.
face_set searches a complex's faces once and keeps the list on it. A flag
complex lists them by a clique walk on its 1-skeleton's neighbour masks,
one bit per vertex; any other complex by a search through its facets.
Which of the two a complex takes is fixed where it is built: from_graph
builds a clique complex and from_dict runs is_flag once on what it loads,
and each records the complex as flag; every other constructor builds one
that takes the generic path, which is right for any complex, with no
test. is_flag reads the cached 1-skeleton c.neighbours, which a loaded
complex's flag paths reuse. The flag models and is_flag read facets off
maximal_cliques, with no face search.
A from_graph complex keeps its graph and builds its facets (maximal_cliques,
then from_masks's checks) only when they are first read; until then
is_facet answers from the graph. colour_counts counts faces by (|F - T|,
|F & T|) against a mask T: on a flag complex through a succinct clique tree
that lists no face, about one step per facet; otherwise by a tally of
face_set.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb

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

    def __post_init__(self):
        """Facet masks lie in [0, 2^|vertices|) and come in stored (size,
        mask) order, each once; from_masks names its faults first."""
        _check_range(self.facets, len(self.vertices))
        keys = [(f.bit_count(), f) for f in self.facets]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise InvalidComplex("facet masks are not in (size, mask) order, each once")

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
        _check_range(masks, len(verts))
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
    def from_graph(cls, vertices, adj) -> "Complex":
        """The clique complex of the graph on `vertices` where adj[i] is
        vertex i's neighbour mask, symmetric and without bit i (its callers
        build it so). It is flag by construction, so it keeps adj as its
        1-skeleton and is recorded as flag with no test. Duplicate labels
        raise InvalidComplex here; the facets, the maximal cliques, are
        built by __getattr__ when first read, through from_masks."""
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise InvalidComplex("duplicate vertex labels")
        c = object.__new__(cls)
        # the field vertices, the cached property neighbours and the route
        c.__dict__.update(vertices=verts, neighbours=list(adj), _flag=True)
        return c

    def __getattr__(self, name: str):
        """The facets of a from_graph complex, built and kept on first read;
        every other complex has its facets from __init__."""
        if name != "facets" or "neighbours" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        facets = Complex.from_masks(self.vertices, maximal_cliques(self.neighbours)).facets
        self.__dict__["facets"] = facets
        return facets

    @cached_property
    def neighbours(self) -> list[int]:
        """The 1-skeleton: entry i masks the other vertices of the facets
        that hold vertex i."""
        return _skeleton(self.facets, len(self.vertices))

    # the route of _faces, colour_counts, restrict and sphere: True only on
    # a complex that from_graph built or from_dict found flag
    _flag = False

    @cached_property
    def _faces(self) -> list[int]:
        """face_set's search, run once per complex: the clique walk for a
        flag complex, the facet search otherwise. On a flag complex the two
        give the same list, in the same order."""
        if self._flag:
            return _clique_faces(self.neighbours)
        return _facet_faces(self.facets, len(self.vertices))

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "facets": sorted((sorted(self.vertices[i] for i in _bits(f))
                              for f in self.facets if f), key=lambda f: (len(f), f)),
        }

    @classmethod
    def from_dict(cls, data) -> "Complex":
        """The JSON loader, and the one place that tests a route: is_flag
        runs once on the loaded complex, which is recorded as flag if it is."""
        vertices, facets = _json_fields(data, "complex", ("vertices", "facets"),
                                        InvalidComplex)
        label_list(vertices, "vertices", InvalidComplex)
        if not isinstance(facets, list):
            raise InvalidComplex(f"facets must be a list, got {type(facets).__name__}")
        c = cls.make(vertices, [label_list(f, "facet", InvalidComplex) for f in facets])
        if is_flag(c):
            c.__dict__["_flag"] = True
        return c


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_range(masks, width: int) -> None:
    """A facet mask outside [0, 2^width) raises InvalidComplex."""
    if stray := [f for f in masks if f < 0 or f >> width]:
        raise InvalidComplex(f"facet mask {stray[0]} is outside [0, 2^{width})")


def _facet_faces(facets, width: int) -> list[int]:
    """Every face of the complex with these facets over `width` vertices:
    depth first, carrying the facets that hold the current face and adding a
    higher vertex only while one of them holds it too (Kaibel and Pfetsch,
    2002). A face with no higher candidate left is listed without a search
    of its own, and so is a face's only extension. The empty face 0 comes
    first, and every other face comes after the face that drops its top
    vertex."""
    inc = _transpose(facets, width)
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

    extend(0, (1 << len(facets)) - 1, list(range(len(inc))))
    del extend  # it refers to itself: the cycle would hold out until gc runs
    return out


def _clique_faces(adj) -> list[int]:
    """Every clique of the graph where adj[i] is vertex i's neighbour mask,
    in _facet_faces's order: depth first, a clique's candidates are the
    higher vertices adjacent to all of it, so each step ANDs one
    vertex-wide mask. On a flag complex's 1-skeleton these are its faces."""
    out = [0]

    def extend(face: int, candidates: int) -> None:
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            g = face | low
            out.append(g)
            rest = candidates & adj[low.bit_length() - 1]
            if rest & (rest - 1):
                extend(g, rest)
            elif rest:
                out.append(g | rest)

    extend(0, (1 << len(adj)) - 1)
    del extend  # as in _facet_faces
    return out


def _skeleton(facets, width: int) -> list[int]:
    """Entry i masks the other vertices of the facets that hold position i."""
    adj = [0] * width
    for f in facets:
        for i in _bits(f):
            adj[i] |= f ^ 1 << i
    return adj


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
    search (Complex._faces: a clique walk when c is flag) runs on the first
    call and its list is kept on c."""
    return c._faces


def colour_counts(c: Complex, T: int) -> Counter:
    """The faces of c, the empty face included, counted by (|F - T|,
    |F & T|) for a mask T over the positions of c.vertices. A flag complex
    lists no face: the cliques of its 1-skeleton are counted through a
    succinct clique tree (Jain and Seshadhri, "The power of pivoting for
    exact clique counting", WSDM 2020). There the pivot p is the lowest
    candidate with the most candidate neighbours; one branch keeps p
    optional on the candidates next to p, and each other candidate v not
    next to p gets a branch that holds v, with the earlier such v removed.
    Each clique then lies below exactly one leaf, as its held vertices plus
    a subset of its optional pivots, so a leaf with po optional pivots
    outside T and pi inside adds C(po, a) C(pi, b) at (held outside + a,
    held inside + b). Any other complex tallies face_set."""
    if not c._flag:
        return Counter(((f & ~T).bit_count(), (f & T).bit_count()) for f in face_set(c))
    adj, leaves = c.neighbours, Counter()

    def branch(cand: int, held_out: int, held_in: int, opt_out: int, opt_in: int) -> None:
        if not cand:
            leaves[held_out, held_in, opt_out, opt_in] += 1
            return
        pivot = _pivot(adj, cand, cand)
        near = adj[pivot]
        if T >> pivot & 1:
            branch(cand & near, held_out, held_in, opt_out, opt_in + 1)
        else:
            branch(cand & near, held_out, held_in, opt_out + 1, opt_in)
        rest = cand & ~near ^ 1 << pivot
        while rest:
            low = rest & -rest
            rest ^= low
            cand ^= low
            if low & T:
                branch(cand & adj[low.bit_length() - 1], held_out, held_in + 1, opt_out, opt_in)
            else:
                branch(cand & adj[low.bit_length() - 1], held_out + 1, held_in, opt_out, opt_in)

    branch((1 << len(adj)) - 1, 0, 0, 0, 0)
    counts = Counter()
    for (held_out, held_in, opt_out, opt_in), n in leaves.items():
        for a in range(opt_out + 1):
            for b in range(opt_in + 1):
                counts[held_out + a, held_in + b] += n * comb(opt_out, a) * comb(opt_in, b)
    return counts


def is_facet(c: Complex, T: int) -> bool:
    """True iff the mask T is a facet of c. A from_graph complex whose
    facets are not built yet answers from its graph, with no facet list:
    T is a facet iff it is a clique with no common neighbour."""
    if "facets" in vars(c):
        return T in c.facets
    if T < 0 or T >> len(c.vertices):
        return False
    common = (1 << len(c.vertices)) - 1
    for i in _bits(T):
        if T & ~c.neighbours[i] != 1 << i:
            return False
        common &= c.neighbours[i]
    return not common


def all_faces(c: Complex) -> dict[int, list[int]]:
    """The faces of face_set(c) grouped by cardinality; includes the empty
    face."""
    grouped = defaultdict(list)
    for f in face_set(c):
        grouped[f.bit_count()].append(f)
    return dict(grouped)


def dimension(c: Complex) -> int:
    """Max facet cardinality minus 1 (-1 for the trivial complex)."""
    return max(f.bit_count() for f in c.facets) - 1


def f_vector(c: Complex) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_(d-1)): face counts by cardinality."""
    grouped = all_faces(c)
    d = dimension(c)
    return tuple(len(grouped.get(k, ())) for k in range(d + 2))


def f_polynomial(c: Complex) -> Poly1:
    """sum_i f_(i-1) x^i, so the constant term counts the empty face."""
    return Poly1(dict(enumerate(f_vector(c))))


def _pivot(adj, among: int, p: int) -> int:
    """The lowest vertex of the mask `among` with the most neighbours in p,
    found by a walk over the bits that builds no list."""
    best, rest = -1, among
    while rest:
        low = rest & -rest
        rest ^= low
        k = (p & adj[low.bit_length() - 1]).bit_count()
        if k > best:
            best, pivot = k, low
    return pivot.bit_length() - 1


def maximal_cliques(adj) -> list[int]:
    """The maximal cliques, as masks, of the graph where adj[i] is vertex i's
    neighbour mask without bit i: Bron-Kerbosch with Tomita's pivot, the
    lowest vertex of P | X with the most neighbours in P. No vertex gives
    the one clique 0."""
    out = []

    def expand(clique: int, p: int, x: int) -> None:
        if not p | x:
            out.append(clique)
        elif p:
            rest = p & ~adj[_pivot(adj, p | x, p)]
            while rest:
                low = rest & -rest
                rest ^= low
                near = adj[low.bit_length() - 1]
                expand(clique | low, p & near, x & near)
                p, x = p ^ low, x | low

    expand(0, (1 << len(adj)) - 1, 0)
    del expand  # as in _facet_faces
    return out


def is_flag(c: Complex) -> bool:
    """True iff the facets are the maximal cliques of the 1-skeleton
    c.neighbours (vertex i's neighbours are the other vertices of the
    facets that hold i), that is iff every clique of it is a face. Searched
    on every call, never read off how c was built; c keeps the skeleton."""
    cliques = sorted(maximal_cliques(c.neighbours), key=lambda f: (f.bit_count(), f))
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
