"""Simplicial subdivisions of a simplex: a complex together with a carrier
map from its vertices into an index set.

The carrier of a face is the union of its vertices' carriers. For every
subset J of the index set, the faces carried inside J form the restriction,
which for genuine subdivision data is a simplicial ball of dimension
|J| - 1. Validation is partial by design: make checks the carrier map, and
validate() the purity, dimension and Euler characteristic of every nonempty
restriction, not full topology; VALIDATION_CHECKS names the checks.

Carriers are int masks over the positions of the index set, one per vertex;
labels appear only in make, from_dict, to_dict, sigma and error messages.
validate() and the face-count routes read one cached carrier tally per
subdivision (a Subdivision is frozen, so it cannot go stale): the faces of
the complex counted by size and carrier mask, from one walk of its faces.

A restriction keeps the complex's vertex order, and the restriction that
cuts no vertex (J holds every carrier, as J = I does) is the complex
itself, with its stored facets. validate() lists no restriction's faces:
the faces of the restriction to J are those carried inside J, so one
subset-sum transform of the tally's Euler sums gives every J's Euler
characteristic (2^|I| ints, beside the 2^|I| restrictions it builds for
their facet sizes), and the count routes fold the same tally by carrier
size: one face walk per loaded subdivision. Only the generic sphere()
keeps each face with its carrier (the face pass).

A flag complex is a clique complex, and so are its restrictions (induced
subcomplexes) and its sphere, so restrict() and sphere() build them with
Complex.from_graph from the complex's 1-skeleton and its carriers, with no
face pass; they are flag by construction, and their face searches are
clique walks. The model route neither lists the flag sphere's faces nor
builds its facets: SphereWithFacet checks the distinguished facet on the
graph (a clique with no common neighbour), and f_triangle counts the faces
through a clique tree (complexes.colour_counts). For any other complex
restrict() cuts the facets and sphere() builds its facets from the face
pass, with Complex.from_masks, so what they build takes those generic
paths in turn. No route tests flagness: a complex is flag when
from_graph built it or the loader found it so (complexes). The sphere's
distinguished facet is the index set's mask.

Local h, the local-sum triangle and the direct H-triangle are sums of
per-face terms over restrictions. A face F with a = |F| and
k = |carrier(F)| lies in the restriction to K exactly when K contains its
carrier, so with n = |index set| it lies in C(n-k, r-k) of the
restrictions to r-subsets K. Each of the three routes is therefore one
pass over the faces counted by (a, k), with that binomial weight; no
restriction is built, and each sum accumulates the shifted cached rows
of (1-x)^m (poly.binomial_row) into one dict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .complexes import (
    Complex,
    InvalidComplex,
    _bits,
    _json_fields,
    all_faces,
    colour_counts,
    face_set,
    first_supersets,
    fresh_labels,
    is_facet,
    join,
    label_list,
    maximal_cliques,
)
from .poly import Poly1, Poly2, binom, binomial_row
from .transforms import (
    Gamma_from_H,
    GammaTriangle,
    H_from_F,
    gamma_from_h,
    poly_from_gamma,
)

VALIDATION_CHECKS = (
    "index set disjoint from vertices",
    "carriers defined on every vertex",
    "carriers nonempty subsets of the index set",
    "restrictions pure",
    "restrictions of dimension |J| - 1",
    "restrictions have Euler characteristic 1",
)


class InvalidSubdivision(ValueError):
    pass


@dataclass(frozen=True)
class Subdivision:
    complex: Complex
    index_set: tuple[str, ...]
    carriers: tuple[int, ...]  # per vertex, a mask over the positions of index_set

    def __post_init__(self):
        """One carrier per vertex, each a nonzero mask over the index set."""
        verts, width = self.complex.vertices, len(self.index_set)
        if len(self.carriers) != len(verts):
            raise InvalidSubdivision(
                f"{len(self.carriers)} carriers for {len(verts)} vertices")
        for v, c in zip(verts, self.carriers):
            if not 0 < c < 1 << width:
                raise InvalidSubdivision(f"carrier {c} of {v!r} is outside [1, 2^{width})")

    @classmethod
    def make(cls, complex: Complex, index_set, sigma) -> "Subdivision":
        """The validating constructor from vertex labels to carrier label
        sets: raises InvalidSubdivision naming the first fault of the map.
        validate() runs the ball checks."""
        idx, vset = tuple(index_set), set(complex.vertices)
        if len(set(idx)) != len(idx):
            raise InvalidSubdivision("duplicate index labels")
        if overlap := vset.intersection(idx):
            raise InvalidSubdivision(f"index set overlaps vertices: {sorted(overlap)}")
        smap = {v: frozenset(s) for v, s in sigma.items()}
        if smap.keys() != vset:
            missing, extra = vset - smap.keys(), smap.keys() - vset
            what = f"missing {sorted(missing)}" if missing else f"extra {sorted(extra)}"
            raise InvalidSubdivision(f"carrier map domain mismatch: {what}")
        bit = {i: 1 << k for k, i in enumerate(idx)}
        for v, s in smap.items():
            if not s or not s <= bit.keys():
                what = "not a subset of the index set" if s else "empty"
                raise InvalidSubdivision(f"carrier of vertex {v!r} is {what}")
        return cls(complex, idx, tuple(sum(map(bit.get, smap[v])) for v in complex.vertices))

    @property
    def sigma(self) -> dict[str, frozenset[str]]:
        """The carrier map by labels."""
        return {v: frozenset(self.index_set[k] for k in _bits(c))
                for v, c in zip(self.complex.vertices, self.carriers)}

    def validate(self) -> None:
        """Raise InvalidSubdivision at the first ball check that fails on a
        nonempty restriction (make ran the structural ones), J by J in
        combinations order: purity, then dimension, then Euler
        characteristic. Each restriction is built (restrict) for its facet
        sizes, read off its graph's maximal cliques when it has no facets
        yet; no restriction's faces are listed. The Euler characteristic of
        the restriction to J sums, over the carriers c inside J, the
        alternating count of the nonempty faces carried by exactly c, so
        one subset-sum transform of those 2^|I| counts (Yates's method)
        gives every J's at once."""
        n = len(self.index_set)
        chi = [0] * (1 << n)
        for a, by_carrier in enumerate(self._carrier_tally[1:], 1):
            for c, m in by_carrier.items():
                chi[c] += m if a & 1 else -m
        for k in range(n):
            bit = 1 << k
            for mask in range(1 << n):
                if mask & bit:
                    chi[mask] += chi[mask ^ bit]
        for r in range(1, n + 1):
            for J in combinations(range(n), r):
                labels = sorted(self.index_set[k] for k in J)
                sub = restrict(self, labels)
                facets = vars(sub).get("facets") or maximal_cliques(sub.neighbours)
                sizes = {f.bit_count() for f in facets}
                if len(sizes) > 1:
                    raise InvalidSubdivision(f"restriction to {labels} is not pure")
                if sizes != {r}:
                    raise InvalidSubdivision(
                        f"restriction to {labels} has dimension "
                        f"{max(sizes) - 1}, expected {r - 1}")
                euler = chi[sum(1 << k for k in J)]
                if euler != 1:
                    raise InvalidSubdivision(
                        f"restriction to {labels} has Euler "
                        f"characteristic {euler}, expected 1")

    @cached_property
    def _carrier_tally(self) -> list[Counter]:
        """Entry a counts the faces of size a of the complex by carrier
        mask (entry 0 holds the empty face), from one walk of all_faces.
        The carrier of a face is that of the face less its top vertex, one
        size smaller, plus that vertex's carrier. face_set lists the faces
        depth first, adding higher vertices, and all_faces keeps that order
        within each size, so those smaller faces come in the order of their
        size group: one pointer finds them, and only two groups' carriers
        are held at a time, each carrier one shared int. validate and the
        face-count routes read the tally; it is kept after the first use (a
        Subdivision is frozen)."""
        carriers, shared = self.carriers, list(range(1 << len(self.index_set)))
        grouped, below, below_carried = all_faces(self.complex), [0], [0]
        tally = [Counter(below_carried)]
        for a in range(1, len(grouped)):
            faces, carried, j = grouped[a], [], 0
            for f in faces:
                top = f.bit_length() - 1
                while below[j] != f ^ 1 << top:
                    j += 1
                carried.append(shared[below_carried[j] | carriers[top]])
            tally.append(Counter(carried))
            below, below_carried = faces, carried
        return tally

    @cached_property
    def _face_pass(self) -> dict[int, int]:
        """Each face of the complex mapped to its carrier, in face_set's
        order: the carrier of F is that of F minus its top vertex, listed
        earlier, plus the top vertex's carrier. Only the generic sphere()
        reads it; kept after the first use."""
        carriers, carrier = self.carriers, {0: 0}
        for f in face_set(self.complex)[1:]:
            top = f.bit_length() - 1
            carrier[f] = carrier[f ^ 1 << top] | carriers[top]
        return carrier

    @cached_property
    def _face_counts(self) -> Counter:
        """The faces of the complex counted by (|F|, |carrier(F)|), the
        empty face included: _carrier_tally folded by carrier size. A face
        larger than its carrier makes some restriction too big for its
        degree."""
        counts = Counter()
        for a, by_carrier in enumerate(self._carrier_tally):
            for c, m in by_carrier.items():
                counts[a, c.bit_count()] += m
        for a, k in sorted(counts):
            if a > k:
                raise ValueError(
                    f"a face of size {a} has a carrier of size {k}; local h "
                    "needs every face to be at most as large as its carrier")
        return counts

    def to_dict(self) -> dict:
        return {
            "complex": self.complex.to_dict(),
            "index_set": list(self.index_set),
            "sigma": {v: sorted(s) for v, s in sorted(self.sigma.items())},
        }

    @classmethod
    def from_dict(cls, data) -> "Subdivision":
        """Load and run the partial validation."""
        complex_data, index_set, sigma = _json_fields(
            data, "subdivision", ("complex", "index_set", "sigma"), InvalidSubdivision)
        try:
            cpx = Complex.from_dict(complex_data)
        except InvalidComplex as exc:
            raise InvalidSubdivision(f"invalid complex: {exc}")
        label_list(index_set, "index_set", InvalidSubdivision)
        if not isinstance(sigma, dict):
            raise InvalidSubdivision("sigma must be a map from vertices to "
                                     f"carriers, got {type(sigma).__name__}")
        sub = cls.make(cpx, index_set, {
            v: label_list(s, f"carrier of {v!r}", InvalidSubdivision)
            for v, s in sigma.items()})
        sub.validate()
        return sub


@dataclass(frozen=True)
class SphereWithFacet:
    """A complex with a distinguished facet, one of its stored facet masks."""

    complex: Complex
    facet: int

    def __post_init__(self):
        """A graph-built complex answers from its graph (complexes.is_facet),
        so the model route never builds the sphere's facets."""
        if not is_facet(self.complex, self.facet):
            raise InvalidComplex(f"mask {self.facet} is not a facet of the complex")

    @classmethod
    def make(cls, complex: Complex, facet) -> "SphereWithFacet":
        f = frozenset(facet)
        bit = {v: 1 << i for i, v in enumerate(complex.vertices)}
        if not f <= bit.keys() or not is_facet(complex, mask := sum(map(bit.get, f))):
            raise InvalidComplex(
                f"{sorted(f)} is not a facet of the complex")
        return cls(complex, mask)


def restrict(s: Subdivision, J) -> Complex:
    """The subcomplex of faces whose carrier lies inside J, which is the
    subcomplex induced on the vertices carried inside J, kept in
    s.complex's order. When J holds every carrier nothing is cut, and the
    result is s.complex itself, with its facets and cached face list."""
    J = frozenset(J)
    if not J <= set(s.index_set):
        raise ValueError(f"{sorted(J)} is not a subset of the index set")
    outside = sum(1 << k for k, i in enumerate(s.index_set) if i not in J)
    cpx = s.complex
    kept = [i for i, c in enumerate(s.carriers) if not c & outside]
    if len(kept) == len(cpx.vertices):
        return cpx
    moved = {1 << i: 1 << k for k, i in enumerate(kept)}  # old bit -> new bit
    keep = sum(moved)

    def renumber(f: int) -> int:
        f &= keep
        out = 0
        while f:
            low = f & -f
            out |= moved[low]
            f ^= low
        return out

    labels = [cpx.vertices[i] for i in kept]
    if cpx._flag:  # the induced subgraph's clique complex
        return Complex.from_graph(labels, [renumber(cpx.neighbours[i]) for i in kept])
    cut = {f & keep for f in cpx.facets}
    cut -= first_supersets(cut).keys()
    return Complex.from_masks(labels, map(renumber, cut))


def sub_subdivision(s: Subdivision, K) -> Subdivision:
    """The restriction to K viewed as a subdivision with index set K; its
    vertices are the parent's carried inside K, in the parent's order, so
    their carriers are read off s.carriers in that order."""
    K = frozenset(K)
    cpx, index = restrict(s, K), s.index_set
    outside = sum(1 << k for k, i in enumerate(index) if i not in K)
    sigma = [frozenset(index[k] for k in _bits(c)) for c in s.carriers if not c & outside]
    return Subdivision.make(cpx, sorted(K), dict(zip(cpx.vertices, sigma)))


def _local_h_sum(counts, n: int, r: int) -> Poly1:
    """Sum of local h over the restrictions to the r-subsets K, each a
    subdivision of K: a face adds its weight times (-x)^(r-k) x^a (1-x)^(k-a)."""
    out = {}
    for (a, k), c in counts.items():
        if k <= r:
            w = c * binom(n - k, r - k) * (-1) ** (r - k)
            for e, t in enumerate(binomial_row(k - a, -1), r - k + a):
                out[e] = out.get(e, 0) + w * t
    return Poly1(out)


def local_h(s: Subdivision) -> Poly1:
    """Stanley's local h-polynomial, the alternating sum over J of
    h(restriction to J) at degree |J|; by the binomial theorem over the J
    above each carrier it is the r = n case of _local_h_sum, weight 1."""
    n = len(s.index_set)
    return _local_h_sum(s._face_counts, n, n)


def local_gamma(s: Subdivision) -> Poly1:
    """Gamma expansion of the local h-polynomial at degree |index_set|.
    Extraction failure signals invalid subdivision data."""
    return poly_from_gamma(gamma_from_h(local_h(s), len(s.index_set)))


def sphere(s: Subdivision) -> SphereWithFacet:
    """The complex on vertices(C) + I whose faces are F + J with the
    carrier of F disjoint from J; the distinguished facet is I."""
    cpx, n = s.complex, len(s.index_set)
    shift, full = len(cpx.vertices), (1 << n) - 1
    verts = cpx.vertices + tuple(s.index_set)
    if cpx._flag:
        # F + J is a clique exactly when F is one of C and J misses the
        # carrier of each vertex of F: C's edges, v ~ i for i outside
        # carrier(v), and every pair of index vertices
        avoid = [full & ~c for c in s.carriers]
        index_adj = [sum(1 << v for v, a in enumerate(avoid) if a >> k & 1)
                     | (full ^ 1 << k) << shift for k in range(n)]
        return SphereWithFacet(Complex.from_graph(verts, [
            e | a << shift for e, a in zip(cpx.neighbours, avoid)] + index_adj),
            full << shift)  # every carrier is nonempty
    carrier = s._face_pass
    # F + (I - carrier(F)) lies inside F' + (I - carrier(F')) only when F is
    # inside F' and both have the same carrier; such an F' contains some
    # F + {v} with carrier(v) inside carrier(F), that is with the carrier of
    # F, and the faces are closed under subsets, so single-vertex
    # extensions decide maximality.
    extendable = set()
    for g, cg in carrier.items():
        rest = g
        while rest:
            low = rest & -rest
            if carrier[g ^ low] == cg:
                extendable.add(g ^ low)
            rest ^= low
    return SphereWithFacet(Complex.from_masks(verts, [
        f | (full & ~c) << shift for f, c in carrier.items() if f not in extendable]),
        full << shift)


def f_triangle(sph: SphereWithFacet) -> Poly2:
    """F_(i,j) counts faces with i vertices outside the distinguished facet
    and j vertices inside it (complexes.colour_counts: a clique-tree count
    on a flag sphere, which lists no face)."""
    return Poly2(colour_counts(sph.complex, sph.facet))


def model_gamma(s: Subdivision) -> GammaTriangle:
    """Triangle of a subdivision through the face-enumeration route:
    sphere, F-triangle, H-triangle, Gamma-triangle."""
    d = len(s.index_set)
    return Gamma_from_H(H_from_F(f_triangle(sphere(s)), d), d)


def h_triangle_direct(s: Subdivision) -> Poly2:
    """H of the sphere computed through the intermediate identity
    H(x,y) = sum_J (xy)^|J| h(restriction to I - J), where a face adds its
    weight times x^a (1-x)^(r-a) to rank r = |I - J|; an independent route
    for cross-checking the F-triangle pipeline."""
    n = len(s.index_set)
    out = {}
    for (a, k), c in s._face_counts.items():
        for r in range(k, n + 1):
            w = c * binom(n - k, r - k)
            for e, t in enumerate(binomial_row(r - a, -1), a + n - r):
                out[e, n - r] = out.get((e, n - r), 0) + w * t
    return Poly2(out)


def gamma_from_local_sum(s: Subdivision) -> GammaTriangle:
    """Triangle coefficients as sum_K local_gamma(restriction to K) y^(|I-K|),
    one extraction per rank since gamma_from_h is linear; the K = I term is
    local_h(s) itself. Expects validated data: a rank whose sum is symmetric
    gives a row even where one of its restrictions alone has no gamma
    expansion."""
    n = len(s.index_set)
    sums = [_local_h_sum(s._face_counts, n, r) for r in range(n)] + [local_h(s)]
    return GammaTriangle.make({(i, n - r): g for r, h in enumerate(sums)
                               for i, g in enumerate(gamma_from_h(h, r))}, n)


def join_subdivisions(a: Subdivision, b: Subdivision) -> Subdivision:
    """Join of the complexes with the union carrier map, b's shifted past
    a's index set; local gamma is multiplicative for this operation.
    Colliding labels in b (vertices or index labels) get a prime suffix."""
    rename = fresh_labels(set(a.complex.vertices) | set(a.index_set),
                          tuple(b.complex.vertices) + tuple(b.index_set))
    b_cpx = Complex.from_masks([rename[v] for v in b.complex.vertices], b.complex.facets)
    return Subdivision(join(a.complex, b_cpx),
                       a.index_set + tuple(rename[i] for i in b.index_set),
                       a.carriers + tuple(c << len(a.index_set) for c in b.carriers))
