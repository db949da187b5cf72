import gc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gammatri import complexes as complexes_module
from gammatri.cluster import type_a_subdivision
from gammatri.complexes import (
    Complex,
    InvalidComplex,
    _bits,
    _clique_faces,
    _facet_faces,
    _skeleton,
    all_faces,
    colour_counts,
    dimension,
    f_polynomial,
    f_vector,
    face_set,
    first_supersets,
    is_facet,
    is_flag,
    join,
    maximal_cliques,
)
from gammatri.poly import Poly1
from gammatri.subdivisions import restrict, sphere


def is_pure(c: Complex) -> bool:
    """All facets of c have one size."""
    return len({f.bit_count() for f in c.facets}) <= 1


def evaluate(p: Poly1, v):
    return sum(c * v**e for e, c in p.items())


def cycle(labels):
    n = len(labels)
    return Complex.make(labels, [{labels[i], labels[(i + 1) % n]}
                                 for i in range(n)])


def labels_at(vertices, face):
    """The labels of a face mask, by a scan over every position."""
    return frozenset(v for i, v in enumerate(vertices) if face >> i & 1)


def facet_labels(c):
    """The facets of c as label sets, read off its vertices."""
    return [labels_at(c.vertices, f) for f in c.facets]


def masks_over(labels, sets):
    """Each label set as a mask over the positions of `labels`."""
    return [sum(1 << labels.index(v) for v in f) for f in sets]


PENTAGON = cycle("abcde")
TRIANGLE = cycle("abc")
POINT = Complex.make("a", [{"a"}])
SIMPLEX3 = Complex.make("abc", [{"a", "b", "c"}])
TRIVIAL = Complex.from_masks((), [0])  # the empty face alone


def test_pentagon_faces():
    assert f_vector(PENTAGON) == (1, 5, 5)
    grouped = all_faces(PENTAGON)
    assert {labels_at(PENTAGON.vertices, f) for f in grouped[0]} == {frozenset()}
    assert len(grouped[1]) == 5 and len(grouped[2]) == 5


def test_single_vertex():
    assert f_vector(POINT) == (1, 1)


def test_full_simplex_counts():
    assert f_vector(SIMPLEX3) == (1, 3, 3, 1)


def test_f_polynomial_examples():
    assert f_polynomial(PENTAGON) == Poly1({0: 1, 1: 5, 2: 5})
    assert f_polynomial(TRIVIAL) == Poly1.one()
    assert f_polynomial(TRIANGLE) == Poly1({0: 1, 1: 3, 2: 3})


def test_purity_and_dimension():
    assert is_pure(PENTAGON) and dimension(PENTAGON) == 1
    mixed = Complex.make("abc", [{"a", "b"}, {"c"}])
    assert not is_pure(mixed)
    assert is_pure(SIMPLEX3) and dimension(SIMPLEX3) == 2
    assert dimension(TRIVIAL) == -1


def test_flagness():
    assert not is_flag(TRIANGLE)  # three pairwise edges, no 2-face
    assert is_flag(PENTAGON)
    assert is_flag(SIMPLEX3)


def test_join_point_point():
    edge = join(POINT, Complex.make("b", [{"b"}]))
    assert f_vector(edge) == (1, 2, 1)


def test_join_zero_spheres_is_4_cycle():
    s0 = Complex.make("ab", [{"a"}, {"b"}])
    s1 = Complex.make("cd", [{"c"}, {"d"}])
    square = join(s0, s1)
    assert f_vector(square) == (1, 4, 4)
    assert is_pure(square) and dimension(square) == 1
    assert {frozenset(("a", "b")), frozenset(("c", "d"))}.isdisjoint(
        facet_labels(square))


def test_join_with_trivial_is_identity():
    j = join(PENTAGON, TRIVIAL)
    assert f_polynomial(j) == f_polynomial(PENTAGON)


def test_join_relabels_collisions():
    a = Complex.make("ab", [{"a", "b"}])
    b = Complex.make("ab", [{"a", "b"}])
    j = join(a, b)
    assert len(j.vertices) == 4
    assert f_polynomial(j) == f_polynomial(a) * f_polynomial(b)


FACET_FAMILIES = st.lists(
    st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=3),
    min_size=1, max_size=5)


def _normalize(facets):
    maximal = [f for f in set(facets)
               if not any(f < g for g in set(facets))]
    verts = sorted(set().union(*maximal))
    return Complex.make(verts, maximal)


@given(FACET_FAMILIES, FACET_FAMILIES)
def test_f_polynomial_multiplicative_under_join(fa, fb):
    a, b = _normalize(fa), _normalize(fb)
    assert f_polynomial(join(a, b)) == f_polynomial(a) * f_polynomial(b)


@given(FACET_FAMILIES)
def test_face_count_is_f_at_one(facets):
    c = _normalize(facets)
    assert len(face_set(c)) == evaluate(f_polynomial(c), 1)


GRAPHS = st.lists(
    st.frozensets(st.sampled_from("abcde"), min_size=2, max_size=2),
    max_size=8)


def _clique_complex(edges):
    verts = sorted(set().union(*edges)) if edges else ["a"]
    nbrs = {v: {v} for v in verts}
    for e in edges:
        u, v = sorted(e)
        nbrs[u].add(v)
        nbrs[v].add(u)
    cliques = [frozenset([v]) for v in verts]
    frontier = list(cliques)
    while frontier:
        nxt = []
        for c in frontier:
            for v in verts:
                if v not in c and all(v in nbrs[u] for u in c):
                    bigger = c | {v}
                    if bigger not in nxt:
                        nxt.append(bigger)
        cliques.extend(nxt)
        frontier = nxt
    maximal = [c for c in set(cliques) if not any(c < d for d in set(cliques))]
    return Complex.make(verts, maximal)


@given(GRAPHS)
def test_maximal_cliques_span_the_clique_complex(edges):
    verts = sorted(set().union(*edges)) if edges else ["a"]
    nbrs = {v: set().union(*(e - {v} for e in edges if v in e)) for v in verts}
    adj = [sum(1 << verts.index(w) for w in nbrs[v]) for v in verts]
    assert Complex.from_masks(verts, maximal_cliques(adj)) == _clique_complex(edges)
    assert Complex.from_graph(verts, adj) == _clique_complex(edges)


def test_maximal_cliques_without_edges():
    assert maximal_cliques([]) == [0]  # no vertex: the empty clique only
    assert sorted(maximal_cliques([0, 0])) == [1, 2]  # two isolated vertices


@given(GRAPHS, GRAPHS)
def test_flag_preserved_by_join(ea, eb):
    a, b = _clique_complex(ea), _clique_complex(eb)
    assert is_flag(a) and is_flag(b)
    assert is_flag(join(a, b))


def test_loader_round_trip():
    data = PENTAGON.to_dict()
    assert Complex.from_dict(data).facets == PENTAGON.facets


def test_loader_rejects_non_maximal():
    with pytest.raises(InvalidComplex, match="maximal"):
        Complex.from_dict({"vertices": ["a", "b"],
                           "facets": [["a"], ["a", "b"]]})


def test_make_rejects_a_facet_listed_after_its_superset():
    with pytest.raises(InvalidComplex,
                       match=r"facet \['a', 'b'\] is contained in facet "
                             r"\['a', 'b', 'c'\] \(stored facets must be maximal\)"):
        Complex.make("abcd", [{"a", "b", "c"}, {"c", "d"}, {"a", "b"}])
    with pytest.raises(InvalidComplex, match=r"facet \[\] is contained"):
        Complex.make("a", [{"a"}, set()])


@given(st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=4),
                min_size=1, max_size=6))
def test_make_rejects_exactly_the_non_maximal_families(facets):
    facets = set(facets)
    pairwise = any(f < g for f in facets for g in facets)
    verts = sorted(set().union(*facets))
    try:
        Complex.make(verts, facets)
    except InvalidComplex as exc:
        assert pairwise and "stored facets must be maximal" in str(exc)
    else:
        assert not pairwise


@given(st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=4),
                max_size=8))
def test_first_supersets_matches_the_first_strict_superset_in_order(sets):
    # repeats included: a repeated set is not a strict superset of itself
    oracle = {}
    for f in sets:
        g = next((g for g in sets if f < g), None)
        if g is not None:
            oracle[f] = g
    found = first_supersets(masks_over("abcdef", sets))
    assert {labels_at("abcdef", f): labels_at("abcdef", g)
            for f, g in found.items()} == oracle


def test_first_supersets_of_an_equal_sized_family_is_empty():
    facets = sphere(type_a_subdivision(4)).complex.facets
    assert len({f.bit_count() for f in facets}) == 1
    assert first_supersets(facets) == {}
    assert first_supersets([]) == {}


def test_first_supersets_reports_the_first_superset_in_order():
    ab, abc, abd, c = masks_over("abcd", ("ab", "abc", "abd", "c"))
    assert first_supersets([abc, c, ab]) == {c: abc, ab: abc}  # listed earlier
    assert first_supersets([ab, abd, abc]) == {ab: abd}
    assert first_supersets([abc, ab, abd]) == {ab: abc}
    sets = [abd, ab, abd, ab, c, abc]
    assert first_supersets(iter(sets)) == first_supersets(sets) == {ab: abd, c: abc}


def test_loader_rejects_unknown_vertices():
    with pytest.raises(InvalidComplex, match="unknown"):
        Complex.from_dict({"vertices": ["a"], "facets": [["a", "b"]]})


def test_loader_rejects_duplicate_vertices():
    with pytest.raises(InvalidComplex, match="duplicate"):
        Complex.make("aa", [{"a"}])


def test_loader_rejects_uncovered_vertices():
    with pytest.raises(InvalidComplex, match="no facet"):
        Complex.make("ab", [{"a"}])


# Test-only oracles: the frozenset face layer that face_set and is_flag
# replaced by masks.

def faces_by_subsets(c):
    """Every subset of every facet, deduplicated through a set."""
    return {frozenset(combo) for facet in facet_labels(c)
            for r in range(len(facet) + 1) for combo in combinations(sorted(facet), r)}


def face_set_by_one_call_per_face(c):
    """The face search with one recursive call per face, in the order that
    face_set keeps."""
    pos = {v: i for i, v in enumerate(c.vertices)}
    inc = [0] * len(pos)
    for j, facet in enumerate(facet_labels(c)):
        for v in facet:
            inc[pos[v]] |= 1 << j
    out = [0]

    def extend(face, m, candidates):
        for i, w in enumerate(candidates):
            g = face | 1 << w
            out.append(g)
            m2 = m & inc[w]
            extend(g, m2, [x for x in candidates[i + 1:] if inc[x] & m2])

    extend(0, (1 << len(c.facets)) - 1, list(range(len(inc))))
    return out


def is_flag_by_clique_growth(c):
    """Grow every clique of the 1-skeleton and look each one up."""
    faces = faces_by_subsets(c)
    verts = sorted({v for f in facet_labels(c) for v in f})
    nbrs = {v: set() for v in verts}
    for f in faces:
        if len(f) == 2:
            a, b = sorted(f)
            nbrs[a].add(b)
            nbrs[b].add(a)

    def grow(clique, candidates):
        for idx, v in enumerate(candidates):
            bigger = clique | {v}
            if len(bigger) >= 3 and bigger not in faces:
                return False
            rest = [w for w in candidates[idx + 1:] if w in nbrs[v]]
            if not grow(bigger, rest):
                return False
        return True

    return grow(frozenset(), verts)


@st.composite
def complexes(draw):
    """The trivial complex (one draw in eight), or a random facet family on
    a-h with its vertices in a random order."""
    if draw(st.integers(0, 7)) == 0:
        return Complex.from_masks((), [0])
    facets = draw(st.lists(
        st.frozensets(st.sampled_from("abcdefgh"), min_size=1, max_size=4),
        min_size=1, max_size=7))
    maximal = [f for f in set(facets) if not any(f < g for g in facets)]
    verts = draw(st.permutations(sorted(set().union(*maximal))))
    return Complex.make(verts, maximal)


@given(complexes())
def test_face_set_lists_each_face_once_after_its_prefix(c):
    faces = face_set(c)
    assert faces[0] == 0
    assert len(set(faces)) == len(faces)
    assert {labels_at(c.vertices, f) for f in faces} == faces_by_subsets(c)
    seen = set()
    for f in faces:
        assert not f or f ^ 1 << (f.bit_length() - 1) in seen
        seen.add(f)
    assert {k: sorted(g) for k, g in all_faces(c).items()} == {
        k: sorted(f for f in faces if f.bit_count() == k)
        for k in {f.bit_count() for f in faces}}
    assert is_flag(c) == is_flag_by_clique_growth(c)


@given(complexes())
def test_face_set_keeps_the_order_of_one_call_per_face(c):
    assert face_set(c) == face_set_by_one_call_per_face(c)


def test_face_set_keeps_the_order_on_fixed_complexes():
    simplex6 = Complex.make("abcdef", [set("abcdef")])  # one extension at every depth
    a4 = type_a_subdivision(4)
    cases = {"trivial": TRIVIAL, "point": POINT, "simplex6": simplex6,
             "pentagon": PENTAGON, "A4 sphere": sphere(a4).complex}
    for r in range(len(a4.index_set) + 1):
        for J in combinations(a4.index_set, r):
            cases[f"A4 restricted to {J}"] = restrict(a4, J)
    for name, c in cases.items():
        assert face_set(c) == face_set_by_one_call_per_face(c), name
    assert len(face_set(simplex6)) == 64


def test_face_searches_leave_no_garbage_cycle():
    # a search's recursive closure refers to itself; left as a cycle it
    # would keep the list it fills alive until the cyclic collector runs
    c = sphere(type_a_subdivision(4)).complex
    gc.collect()
    gc.disable()
    try:
        _clique_faces(c.neighbours)
        _facet_faces(c.facets, len(c.vertices))
        maximal_cliques(c.neighbours)
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(st.integers(0, 2**40 - 1))
def test_bits_match_the_position_scan(face):
    assert _bits(face) == [i for i in range(40) if face >> i & 1]


@given(complexes())
def test_dict_round_trip(c):
    assert Complex.from_dict(c.to_dict()) == c


def test_facets_are_ordered_by_size_then_sorted_labels():
    # stored by size and then mask, listed by to_dict by size and then sorted
    # labels; positions d, c, b, a: {c, d} is the smaller mask, {b, d} the
    # smaller labels
    c = Complex.make("dcba", [{"c", "d"}, {"a", "b", "c"}, {"b", "d"}])
    assert c.facets == (0b0011, 0b0101, 0b1110)
    assert facet_labels(c) == [frozenset("cd"), frozenset("bd"), frozenset("abc")]
    assert c.to_dict()["facets"] == [["b", "d"], ["c", "d"], ["a", "b", "c"]]
    assert Complex.from_masks("dcba", [0b1110, 0b0101, 0b0011]) == c


def test_from_masks_rejects_a_mask_beyond_its_vertices():
    with pytest.raises(InvalidComplex, match=r"^facet mask 3 is outside \[0, 2\^1\)$"):
        Complex.from_masks(["a"], [0b11])
    # named before any other fault: here duplicate labels and a non-maximal facet
    with pytest.raises(InvalidComplex, match=r"^facet mask 4 is outside \[0, 2\^2\)$"):
        Complex.from_masks("aa", [0b01, 0b11, 0b100])


def test_from_masks_rejects_a_negative_mask():
    with pytest.raises(InvalidComplex, match=r"^facet mask -1 is outside \[0, 2\^1\)$"):
        Complex.from_masks(["a"], [0b1, -1])


def test_mask_input_gets_the_label_input_messages():
    # positions c, b, a: by labels, {a} inside {a, b} comes before {c} inside {b, c}
    with pytest.raises(InvalidComplex,
                       match=r"^facet \['a'\] is contained in facet \['a', 'b'\] "
                             r"\(stored facets must be maximal\)$"):
        Complex.from_masks("cba", [0b001, 0b100, 0b110, 0b011])
    with pytest.raises(InvalidComplex, match=r"^vertices \['a'\] appear in no facet$"):
        Complex.from_masks("cba", [0b011])
    with pytest.raises(InvalidComplex, match="^duplicate vertex labels$"):
        Complex.from_masks("cbc", [0b010])  # named before the uncovered vertex


@given(st.lists(st.sampled_from("abcdef"), max_size=7),
       st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=4), max_size=6))
def test_mask_input_is_checked_as_label_input(verts, facets):
    facets = [f & set(verts) for f in facets]  # unknown labels are make's own check
    pos = {v: i for i, v in enumerate(verts)}

    def built(make, *args):
        try:
            return make(*args)
        except InvalidComplex as exc:
            return str(exc)

    assert built(Complex.make, verts, facets) == built(
        Complex.from_masks, verts, [sum(1 << pos[v] for v in f) for f in facets])


# The flag path: from_graph and the loader record a complex as flag,
# face_set walks the cliques of a flag complex, and the facet search
# (Kaibel-Pfetsch) and is_flag stay the oracles, decided from the facets
# alone.

@given(complexes())
def test_face_set_walks_cliques_exactly_on_flag_complexes(c):
    facet_search = _facet_faces(c.facets, len(c.vertices))
    assert face_set(c) == facet_search
    assert (_clique_faces(c.neighbours) == facet_search) == is_flag(c)
    assert not c._flag  # built from its facets: the generic path, untested
    loaded = Complex.from_dict(c.to_dict())
    assert loaded._flag == is_flag(c)
    assert face_set(loaded) == facet_search


@given(complexes())
def test_from_graph_rebuilds_exactly_the_flag_complexes(c):
    rebuilt = Complex.from_graph(c.vertices, c.neighbours)
    assert (rebuilt == c) == is_flag(c)
    # the recorded 1-skeleton is the one its facets give
    assert _skeleton(rebuilt.facets, len(rebuilt.vertices)) == c.neighbours
    assert face_set(rebuilt) == _facet_faces(rebuilt.facets, len(rebuilt.vertices))


def test_is_flag_runs_its_clique_search_on_a_from_graph_complex(monkeypatch):
    c = Complex.from_graph("abcde", PENTAGON.neighbours)
    assert c == PENTAGON and c._flag
    searches = []
    search = complexes_module.maximal_cliques
    monkeypatch.setattr(complexes_module, "maximal_cliques",
                        lambda adj: searches.append(adj) or search(adj))
    assert is_flag(c) and is_flag(c)
    assert len(searches) == 2  # once per call, never read off the record
    forged = Complex(TRIANGLE.vertices, TRIANGLE.facets)
    forged.__dict__["_flag"] = True
    assert not is_flag(forged)


def test_raw_complex_rejects_stray_or_misordered_facets():
    order = r"^facet masks are not in \(size, mask\) order, each once$"
    with pytest.raises(InvalidComplex, match=order):
        Complex(("a", "b"), (2, 1))
    with pytest.raises(InvalidComplex, match=order):
        Complex(("a", "b", "c"), (3, 4))  # a larger facet before a smaller one
    with pytest.raises(InvalidComplex, match=order):
        Complex(("a", "b"), (1, 1))
    with pytest.raises(InvalidComplex, match=r"^facet mask 3 is outside \[0, 2\^1\)$"):
        Complex(("a",), (3,))
    with pytest.raises(InvalidComplex, match=r"^facet mask -1 is outside \[0, 2\^1\)$"):
        Complex(("a",), (-1,))
    two_points = Complex(("a", "b"), (1, 2))
    assert two_points == Complex.from_masks("ab", [2, 1]) and is_flag(two_points)


# Graph-built complexes: from_graph keeps the graph and builds its facets
# when they are first read; colour_counts counts a flag complex's cliques
# through a clique tree, and is_facet answers from the graph.

@st.composite
def graphs(draw):
    """A neighbour-mask list of a random graph on up to 12 vertices."""
    n = draw(st.integers(0, 12))
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def maximal_cliques_by_listed_pivot(adj):
    """maximal_cliques as it read its pivot off a list: the first of
    _bits(P | X) with the most neighbours in P, then a branch for each
    vertex of _bits(P - N(pivot))."""
    out = []

    def expand(clique, p, x):
        if not p | x:
            out.append(clique)
        elif p:
            pivot = max(_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
            for v in _bits(p & ~adj[pivot]):
                expand(clique | 1 << v, p & adj[v], x & adj[v])
                p, x = p ^ 1 << v, x | 1 << v

    expand(0, (1 << len(adj)) - 1, 0)
    return out


@given(graphs())
def test_maximal_cliques_keep_the_listed_pivot_and_order(adj):
    assert maximal_cliques(adj) == maximal_cliques_by_listed_pivot(adj)


@given(complexes(), st.data())
def test_clique_tree_count_equals_the_clique_walk(c, data):
    g = Complex.from_graph(c.vertices, c.neighbours)
    everything = (1 << len(c.vertices)) - 1
    T = data.draw(st.sampled_from([0, everything]) | st.integers(0, everything))
    walk = Counter(((f & ~T).bit_count(), (f & T).bit_count())
                   for f in _clique_faces(g.neighbours))
    assert colour_counts(g, T) == walk
    assert "facets" not in vars(g)  # counted from the graph alone
    # on c itself, by the path its flagness picks (a face_set tally if not flag)
    assert colour_counts(c, T) == Counter(((f & ~T).bit_count(), (f & T).bit_count())
                                          for f in face_set(c))


@given(complexes())
def test_from_graph_builds_its_facets_when_first_read(c):
    g = Complex.from_graph(c.vertices, c.neighbours)
    assert "facets" not in vars(g)
    built = Complex.from_masks(c.vertices, maximal_cliques(c.neighbours))
    assert g.facets == built.facets and "facets" in vars(g)
    lazy = Complex.from_graph(c.vertices, c.neighbours)  # read by each view
    assert lazy == built and hash(Complex.from_graph(c.vertices, c.neighbours)) == hash(built)
    assert repr(Complex.from_graph(c.vertices, c.neighbours)) == repr(built)
    assert Complex.from_graph(c.vertices, c.neighbours).to_dict() == built.to_dict()


@given(complexes(), st.data())
def test_is_facet_reads_the_graph_until_the_facets_are_built(c, data):
    g = Complex.from_graph(c.vertices, c.neighbours)
    T = data.draw(st.integers(-1, 1 << len(c.vertices)))
    assert is_facet(g, T) == (T in Complex.from_graph(c.vertices, c.neighbours).facets)
    assert "facets" not in vars(g)
    assert is_facet(c, T) == (T in c.facets)


def test_from_graph_checks_labels_at_once_and_the_rest_when_built(monkeypatch):
    with pytest.raises(InvalidComplex, match="^duplicate vertex labels$"):
        Complex.from_graph("aba", [0, 0, 0])
    with pytest.raises(AttributeError, match="no attribute 'faces'"):
        Complex.from_graph("ab", [0, 0]).faces
    built, build = [], Complex.from_masks.__func__
    monkeypatch.setattr(Complex, "from_masks", classmethod(
        lambda cls, *args: built.append(args) or build(cls, *args)))
    c = Complex.from_graph("abcde", PENTAGON.neighbours)
    assert built == []
    assert c.facets == PENTAGON.facets and c.facets == PENTAGON.facets
    assert len(built) == 1  # from_masks's checks ran once, at the first read
