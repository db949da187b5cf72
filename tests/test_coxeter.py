import random
import re
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gammatri import coxeter
from gammatri.coxeter import (
    ClassificationError,
    CoxeterDiagram,
    TypedComponent,
    classify,
    closed_gamma_triangle,
    closed_triangle,
    family_recursion,
    gamma_triangle_D,
    gamma_triangle_diagram,
    local_gamma_poly,
    parse_type,
    pell_discriminant_check,
    rank23_formula,
    reference_tables,
    standard_diagram,
    table_mismatches,
)
from gammatri.poly import Poly1, Poly2
from gammatri.transforms import GammaTriangle, gamma_from_h


def comp(kind, rank, m=None):
    return TypedComponent(kind, rank, m)


def test_classify_paths_and_labels():
    assert classify(standard_diagram("A", 4)) == [comp("A", 4)]
    assert classify(standard_diagram("I2", m=5)) == [comp("I2", 2, 5)]
    assert classify(standard_diagram("E6")) == [comp("E6", 6)]
    assert classify(standard_diagram("E7")) == [comp("E7", 7)]
    assert classify(standard_diagram("E8")) == [comp("E8", 8)]
    assert classify(standard_diagram("F4")) == [comp("F4", 4)]
    assert classify(standard_diagram("H3")) == [comp("H3", 3)]
    assert classify(standard_diagram("H4")) == [comp("H4", 4)]
    assert classify(standard_diagram("B", 6)) == [comp("B", 6)]
    assert classify(standard_diagram("D", 7)) == [comp("D", 7)]


def test_classify_normalizations():
    assert classify(standard_diagram("I2", m=3)) == [comp("A", 2)]
    assert classify(standard_diagram("B", 2)) == [comp("I2", 2, 4)]
    assert classify(standard_diagram("C", 4)) == [comp("B", 4)]
    assert classify(standard_diagram("D", 3)) == [comp("A", 3)]
    assert classify(standard_diagram("D", 2)) == [comp("A", 1), comp("A", 1)]
    assert classify(standard_diagram("B", 1)) == [comp("A", 1)]


def test_classify_multi_component():
    dgm = CoxeterDiagram.make(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("c", "d", 4), ("e", "f", 7)])
    assert classify(dgm) == [comp("A", 2), comp("I2", 2, 4), comp("I2", 2, 7)]


NON_FINITE = [
    ("abc", [("a", "b"), ("b", "c"), ("a", "c")], "cycle"),
    ("abcd", [("a", "b", 4), ("b", "c"), ("c", "d", 4)], "two labeled"),
    ("abcde", [("a", "b"), ("b", "c"), ("b", "d"), ("b", "e")], "degree 4"),
    ("abcde", [("a", "b", 4), ("b", "c"), ("b", "d"), ("b", "e")], "branch"),
    ("abcd", [("a", "b", 6), ("b", "c"), ("c", "d")], "not of finite type"),
    ("abcdefg", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                 ("c", "f"), ("f", "g")], "branch lengths"),
    ("abcdef", [("a", "b"), ("a", "c"), ("a", "d"), ("d", "e"), ("d", "f")],
     "has 2 branch points"),
    # the boundaries of the labeled-edge and branch-length rules
    ("abcd", [("a", "b"), ("b", "c", 5), ("c", "d")],
     r"\{a, b, c, d\} with a 5-labeled edge is not of finite type"),
    ("abcde", [("a", "b", 5), ("b", "c"), ("c", "d"), ("d", "e")],
     r"\{a, b, c, d, e\} with a 5-labeled edge is not of finite type"),
    ("abcde", [("a", "b"), ("b", "c", 4), ("c", "d"), ("d", "e")],
     r"\{a, b, c, d, e\} with a 4-labeled edge is not of finite type"),
    ("abc", [("a", "b", 6), ("b", "c")],
     r"\{a, b, c\} with a 6-labeled edge is not of finite type"),
    ("abcdefg", [("a", "b"), ("b", "c"), ("a", "d"), ("d", "e"), ("a", "f"),
                 ("f", "g")], r"with branch lengths \[2, 2, 2\] is not"),
    ("abcdefgh", [("a", "b"), ("a", "c"), ("c", "d"), ("d", "e"), ("a", "f"),
                  ("f", "g"), ("g", "h")], r"with branch lengths \[1, 3, 3\] is not"),
    ("abcdefghi", [("a", "b"), ("a", "c"), ("c", "d"), ("a", "e"), ("e", "f"),
                   ("f", "g"), ("g", "h"), ("h", "i")],
     r"with branch lengths \[1, 2, 5\] is not"),
    # two labeled edges that share a vertex, with and without a fork there
    ("abcd", [("a", "b"), ("b", "c", 4), ("b", "d", 4)], "has two labeled edges"),
    ("abc", [("a", "b", 4), ("b", "c", 5)], "has two labeled edges"),
]


@pytest.mark.parametrize("vertices, edges, message", NON_FINITE)
def test_classify_rejects_non_finite(vertices, edges, message):
    with pytest.raises(ClassificationError, match=message):
        classify(CoxeterDiagram.make(list(vertices), edges))


@pytest.mark.parametrize("vertices, edges, message", NON_FINITE)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_classify_rejects_non_finite_in_any_vertex_order(vertices, edges,
                                                         message, data):
    # components are read off masks over vertex positions, so the verdict
    # must not depend on the order the vertices are listed in
    order = data.draw(st.permutations(list(vertices)))
    with pytest.raises(ClassificationError, match=message):
        classify(CoxeterDiagram.make(order, edges))


# hand-built diagrams of the labeled and forked types, in their own labels
HAND_BUILT = {
    "F4": [("a", "b"), ("b", "c", 4), ("c", "d")],
    "H3": [("a", "b", 5), ("b", "c")],
    "H4": [("a", "b", 5), ("b", "c"), ("c", "d")],
    "B5": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e", 4)],
    "E8": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
           ("f", "g"), ("c", "h")],
    "D7": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
           ("e", "g")],
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_hand_built_diagrams_classify_as_themselves(name, data):
    edges = HAND_BUILT[name]
    verts = sorted({v for e in edges for v in e[:2]})
    dgm = CoxeterDiagram.make(data.draw(st.permutations(verts)), edges)
    assert [str(c) for c in classify(dgm)] == [name]


@settings(max_examples=20, deadline=None)
@given(st.permutations(list("abcdef")))
def test_classify_reports_the_component_with_the_least_label(order):
    dgm = CoxeterDiagram.make(order, [("a", "b"), ("b", "c"), ("a", "c"),
                                      ("d", "e", 4), ("e", "f", 4)])
    with pytest.raises(ClassificationError, match=r"\{a, b, c\} contains a cycle"):
        classify(dgm)


@pytest.mark.parametrize("vertices, edges, message", NON_FINITE)
def test_diagram_sum_rejects_non_finite(vertices, edges, message):
    with pytest.raises(ClassificationError, match=message):
        gamma_triangle_diagram(CoxeterDiagram.make(list(vertices), edges))


def test_diagram_sum_rejects_before_the_subset_loop(monkeypatch):
    # 20 isolated vertices come first in the vertex order, so a per-subset
    # check would reach the cycle only after 2^20 subsets
    def never(c):
        raise AssertionError("local gamma computed for a non-finite diagram")

    monkeypatch.setattr(coxeter, "local_gamma_poly", never)
    dgm = CoxeterDiagram.make([f"v{i:02d}" for i in range(20)] + ["a", "b", "c"],
                              [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(ClassificationError, match="cycle"):
        gamma_triangle_diagram(dgm)


def test_diagram_validation():
    with pytest.raises(ClassificationError, match="label"):
        CoxeterDiagram.make(["a", "b"], [("a", "b", 2)])
    with pytest.raises(ClassificationError, match="loop"):
        CoxeterDiagram.make(["a"], [("a", "a")])
    with pytest.raises(ClassificationError, match="repeated"):
        CoxeterDiagram.make(["a", "b"], [("a", "b"), ("b", "a", 4)])


# The raw constructor takes only make's normal form; make names its own
# faults first, with its own messages.
RAW_FAULTS = [
    (("a", "b"), (("a", "z", 3),), "edge ('a', 'z', 3) is not"),
    (("a", "a"), (), "duplicate vertex labels"),
    (("a", "b"), (("a", "b", 2),), "edge ('a', 'b', 2) is not"),
    (("a", "b"), (("a", "b", True),), "edge ('a', 'b', True) is not"),
    (("a", "b"), (("b", "a", 3),), "edge ('b', 'a', 3) is not"),
    (("a", "b"), (("a", "b"),), "edge ('a', 'b') is not"),
    (("a", "b"), (("a", "b", 3), ("a", "b", 4)), "each pair once"),
    (("a", "b", "c"), (("b", "c", 3), ("a", "b", 3)), "not sorted"),
    (("a", 1), (), "labels must be strings"),
]


@pytest.mark.parametrize("vertices, edges, message", RAW_FAULTS)
def test_raw_diagram_rejects_what_make_would_not_return(vertices, edges, message):
    with pytest.raises(ClassificationError, match=re.escape(message)):
        CoxeterDiagram(vertices, edges)


def test_make_keeps_its_messages_before_the_raw_check():
    for vertices, edges, message in [
            (["a", "b"], [("a", "z")], "uses unknown vertex"),
            (["a", "a"], [("a", "z")], "duplicate vertex labels"),
            (["a", "b"], [("a", "b", 2)], "edge label 2 < 3"),
            (["a", "b"], [("a", "b", True)], "is not an int"),
            (["a", "b"], [("a", "b"), ("b", "a", 4)], "repeated edge")]:
        with pytest.raises(ClassificationError, match=re.escape(message)):
            CoxeterDiagram.make(vertices, edges)
    dgm = CoxeterDiagram.make(["c", "b", "a"], [("c", "b", 4), ("b", "a")])
    assert dgm == CoxeterDiagram(("c", "b", "a"), (("a", "b", 3), ("b", "c", 4)))


def test_local_gamma_closed_forms():
    assert local_gamma_poly(comp("A", 4)) == Poly1({1: 1, 2: 2})
    assert local_gamma_poly(comp("B", 4)) == Poly1({1: 4, 2: 6})
    assert local_gamma_poly(comp("D", 4)) == Poly1({1: 2, 2: 2})
    assert local_gamma_poly(comp("A", 1)) == Poly1.zero()
    assert local_gamma_poly(comp("I2", 2, 6)) == Poly1({1: 4})
    assert local_gamma_poly(comp("D", 6)) == Poly1({1: 4, 2: 24, 3: 8})


def test_local_gamma_stored_values():
    assert local_gamma_poly(comp("H3", 3)) == Poly1({1: 8})
    assert local_gamma_poly(comp("H4", 4)) == Poly1({1: 42, 2: 40})
    assert local_gamma_poly(comp("F4", 4)) == Poly1({1: 10, 2: 9})
    assert local_gamma_poly(comp("E6", 6)) == Poly1({1: 7, 2: 35, 3: 13})
    assert local_gamma_poly(comp("E7", 7)) == Poly1({1: 16, 2: 124, 3: 112})
    assert local_gamma_poly(comp("E8", 8)) == Poly1(
        {1: 44, 2: 484, 3: 784, 4: 120})


def test_gamma_triangle_diagram_examples():
    assert gamma_triangle_diagram(standard_diagram("D", 2)).to_poly2() \
        == Poly2({(0, 2): 1})
    assert gamma_triangle_diagram(standard_diagram("A", 3)) \
        == GammaTriangle.make({(0, 3): 1, (1, 1): 2, (1, 0): 1}, 3)
    d6 = gamma_triangle_diagram(standard_diagram("D", 6))
    assert d6 == reference_tables()["D6"]


def test_gamma_coeff_closed_values():
    assert closed_gamma_triangle("A", 3).entry(1, 1) == 2
    assert closed_gamma_triangle("B", 4).entry(2, 0) == 6
    assert closed_gamma_triangle("A", 3).entry(0, 3) == 1
    assert closed_gamma_triangle("A", 3).entry(0, 1) == 0


@pytest.mark.parametrize("n", range(4))
def test_closed_gamma_triangle_rejects_other_kinds(n):
    # the kind is checked before any coefficient, so low ranks raise too
    with pytest.raises(ValueError, match="no closed coefficient form for kind 'Z'"):
        closed_gamma_triangle("Z", n)


@pytest.mark.parametrize("kind", "AB")
def test_closed_gamma_triangle_rejects_negative_rank(kind):
    with pytest.raises(ValueError, match="rank must be >= 0, got -1"):
        closed_gamma_triangle(kind, -1)


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_A_matches_diagram(n):
    assert closed_gamma_triangle("A", n) \
        == gamma_triangle_diagram(standard_diagram("A", n))


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_B_matches_diagram(n):
    assert closed_gamma_triangle("B", n) \
        == gamma_triangle_diagram(standard_diagram("B", n))


@pytest.mark.parametrize("n", range(2, 9))
def test_gamma_triangle_D_matches_diagram(n):
    assert gamma_triangle_D(n) \
        == gamma_triangle_diagram(standard_diagram("D", n))


def test_gamma_triangle_D_small():
    assert gamma_triangle_D(4) == GammaTriangle.make(
        {(0, 4): 1, (1, 2): 3, (1, 1): 3, (1, 0): 2, (2, 0): 2}, 4)
    assert gamma_triangle_D(6) == reference_tables()["D6"]
    assert gamma_triangle_D(3) == closed_gamma_triangle("A", 3)
    assert gamma_triangle_D(2) == rank23_formula(2, 2)
    with pytest.raises(ValueError, match="rank must be >= 2, got 1"):
        gamma_triangle_D(1)


def test_rank23_formula():
    assert rank23_formula(10, 3) == GammaTriangle.make(
        {(0, 3): 1, (1, 1): 4, (1, 0): 8}, 3)
    assert rank23_formula(2, 3) == GammaTriangle.make({(0, 3): 1}, 3)
    assert rank23_formula(4, 3) == closed_gamma_triangle("A", 3)
    assert rank23_formula(6, 3) == closed_gamma_triangle("B", 3)
    assert rank23_formula(5, 2) == GammaTriangle.make(
        {(0, 2): 1, (1, 0): 3}, 2)
    with pytest.raises(ValueError):
        rank23_formula(8, 3)
    with pytest.raises(ValueError):
        rank23_formula(1, 2)


def test_rank23_formula_names_a_rank_it_lacks():
    with pytest.raises(ValueError, match="rank must be 2 or 3, got 4"):
        rank23_formula(4, 4)


def test_family_recursions():
    assert family_recursion("pell", 0) == Poly2.zero()
    assert family_recursion("pell", 1) == Poly2.one()
    assert family_recursion("pell", 2) == Poly2({(0, 1): 1})
    assert family_recursion("pell", 3) == Poly2({(0, 2): 1, (1, 0): 1})
    # (y^2+2x)^2 + xy - x^2, expanded
    assert family_recursion("lucas", 3) == Poly2(
        {(0, 4): 1, (1, 2): 4, (2, 0): 3, (1, 1): 1})
    with pytest.raises(ValueError):
        family_recursion("fibonacci", 3)


def test_pell_discriminant():
    assert pell_discriminant_check()
    i2_5 = gamma_triangle_diagram(standard_diagram("I2", m=5)).to_poly2()
    assert i2_5 != Poly2({(0, 2): 1, (1, 0): 4})


def test_pell_discriminant_reads_the_step_table(monkeypatch):
    # the check computes a^2 + 4b from the table's Pell row; the Lucas row
    # gives (y^2 + 2x)^2 + 4(xy - x^2), not the I2(6) triangle
    monkeypatch.setitem(coxeter._FAMILY_STEPS, "pell",
                        coxeter._FAMILY_STEPS["lucas"])
    assert not pell_discriminant_check()


def test_reference_table_entries():
    tabs = reference_tables()
    assert tabs["E6"].entry(1, 1) == 7
    assert tabs["H4"].entry(1, 0) == 42
    assert tabs["E8"].entry(4, 0) == 120
    assert tabs["B5"].entry(2, 0) == 20
    assert tabs["A4"].entry(2, 0) == 2


@pytest.mark.parametrize("name", sorted(reference_tables()))
def test_tables_recomputed_from_subdiagrams(name):
    assert table_mismatches(name) == []


@pytest.mark.parametrize("name", sorted(reference_tables()))
def test_table_row_sums_refine_gamma_vector(name):
    from gammatri.transforms import H_from_Gamma
    gt = reference_tables()[name]
    h = H_from_Gamma(gt).substitute_y(1)
    vec = gamma_from_h(h, gt.degree)
    assert vec[:len(gt.row_sums())] == gt.row_sums()


def test_all_table_entries_nonnegative():
    for name, gt in reference_tables().items():
        assert all(c >= 0 for _, c in gt.items()), name


def test_gamma_0j_pattern():
    for kind, rank in (("A", 5), ("B", 4), ("D", 5), ("E6", 6), ("H4", 4)):
        gt = gamma_triangle_diagram(standard_diagram(kind, rank))
        for j in range(gt.degree + 1):
            assert gt.entry(0, j) == (1 if j == gt.degree else 0)


def test_diagram_json_round_trip():
    dgm = standard_diagram("F4")
    again = CoxeterDiagram.from_dict(dgm.to_dict())
    assert classify(again) == classify(dgm)
    assert gamma_triangle_diagram(again) == gamma_triangle_diagram(dgm)


def induced(dgm, keep):
    """The subdiagram of dgm induced on the vertex labels keep."""
    keep = set(keep)
    return CoxeterDiagram(tuple(v for v in dgm.vertices if v in keep),
                          tuple(e for e in dgm.edges if e[0] in keep and e[1] in keep))


def gamma_triangle_by_induced_subsets(dgm):
    """Test oracle: the diagram sum computed subset by subset, classifying
    the induced subdiagram of every subset afresh."""
    verts = dgm.vertices
    n = len(verts)
    out = Poly2.zero()
    for mask in range(1 << n):
        keep = [verts[i] for i in range(n) if mask >> i & 1]
        lg = Poly1.one()
        for c in classify(induced(dgm, keep)):
            lg = lg * local_gamma_poly(c)
        out = out + lg.to_poly2().shift(0, n - len(keep))
    return GammaTriangle.make(dict(out.items()), n)


def reference_type(dgm, mask):
    """Test oracle: the type of a connected position mask of dgm._view in
    a diagram of finite type, by the label rules on the mask's own degrees:
    its labeled edge's label and place, or else its branch lengths."""
    adj, _, order = dgm._view[:3]
    pos = {dgm.vertices[k]: p for p, k in enumerate(order)}
    at = coxeter._bits(mask)
    r = len(at)
    deg = {i: (adj[i] & mask).bit_count() for i in at}
    labeled = [(1 << pos[u] | 1 << pos[v], m) for u, v, m in dgm.edges
               if m > 3 and pos[u] in at and pos[v] in at]
    if labeled:
        (e, m), = labeled
        at_end = any(deg[i] == 1 for i in coxeter._bits(e))
        if r == 2:
            return comp("I2", 2, m)
        if m == 4 and at_end:
            return comp("B", r)
        if m == 4 and r == 4:
            return comp("F4", 4)
        if m == 5 and at_end and r in (3, 4):
            return comp(f"H{r}", r)
        raise AssertionError(f"no type with a {m}-labeled edge on {r} vertices")
    forks = [i for i in at if deg[i] == 3]
    if not forks:
        return comp("A", r)
    (fork,) = forks
    lengths = []
    for arm in coxeter._bits(adj[fork] & mask):
        length, prev, cur = 1, fork, arm
        while deg[cur] == 2:
            prev, cur = cur, next(k for k in coxeter._bits(adj[cur] & mask)
                                  if k != prev)
            length += 1
        lengths.append(length)
    lengths.sort()
    if lengths[:2] == [1, 1]:
        return comp("D", 3 + lengths[2])
    return {(1, 2, 2): comp("E6", 6), (1, 2, 3): comp("E7", 7),
            (1, 2, 4): comp("E8", 8)}[tuple(lengths)]


def diagram_sum_by_masks(dgm):
    """Test oracle: the diagram sum over all 2^n position masks of
    dgm._view, each split into components grown from its lowest set bit,
    typed by reference_type and dropped at its first component with local
    gamma 0."""
    n = len(dgm.vertices)
    adj = dgm._view[0]
    acc = {(0, n): 1}  # the empty subset
    for keep in range(1, 1 << n):
        lg, rest = Poly1.one(), keep
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = adj[low.bit_length() - 1] & keep & ~comp
                comp |= grown
                frontier |= grown
            rest &= ~comp
            lg = lg * local_gamma_poly(reference_type(dgm, comp))
            if lg.is_zero():
                break
        j = n - keep.bit_count()
        for i, c in lg.items():
            acc[(i, j)] = acc.get((i, j), 0) + c
    return GammaTriangle.make(acc, n)


STANDARD_UP_TO_8 = (
    [("A", r, None) for r in range(1, 9)]
    + [("B", r, None) for r in range(1, 9)]
    + [("D", r, None) for r in range(2, 9)]
    + [(k, None, None) for k in ("E6", "E7", "E8", "F4", "H3", "H4")]
    + [("I2", None, m) for m in range(2, 13)])


@pytest.mark.parametrize("kind, rank, m", STANDARD_UP_TO_8)
def test_diagram_sum_matches_induced_subset_oracle(kind, rank, m):
    dgm = standard_diagram(kind, rank, m)
    assert gamma_triangle_diagram(dgm) == gamma_triangle_by_induced_subsets(dgm)


# the other spellings the cluster command accepts, as parse_type arguments
ALIAS_NAMES = [
    ("C", 4, None), ("E", 7, None), ("E7", None, None), ("F", 4, None),
    ("H", 3, None), ("H3", None, None), ("H", 4, None), ("I2(5)", None, None),
    ("i2", None, 4), ("B", 1, None), ("B", 2, None), ("D", 2, None),
    ("D", 3, None), ("I2", None, 2), ("I2", None, 3)]


@pytest.mark.parametrize("kind, rank, m", STANDARD_UP_TO_8 + ALIAS_NAMES)
def test_closed_triangle_matches_diagram_sum(kind, rank, m):
    assert closed_triangle(kind, rank, m) \
        == gamma_triangle_diagram(standard_diagram(kind, rank, m))


# names parse_type refuses, with the diagnostic; the I2(m) label takes
# ASCII digits only, not other Unicode digits
BAD_NAMES = [
    ("X", 3, None, "unknown type 'X'"),
    ("I2(\u0663)", None, None, "unknown type 'I2(\u0663)'"),
    ("I2(\u00b2)", None, None, "unknown type 'I2(\u00b2)'"),
    ("I2()", None, None, "unknown type 'I2()'"),
    ("I2(5)", None, 6, "conflicts with m = 6"),
    ("I2", None, None, "needs its edge label"),
    ("E", None, None, "needs a rank"),
    ("E6", 7, None, "has rank 6"),
    ("D", 1, None, "needs rank >= 2"),
    ("A", 3, 4, "takes no edge label"),
    ("I2", 3, 5, "type I2 has rank 2"),
    ("I2", None, 1, "dihedral label must be >= 2, got 1"),
]


@pytest.mark.parametrize("kind, rank, m, message", BAD_NAMES)
def test_parse_type_rejects(kind, rank, m, message):
    with pytest.raises(ClassificationError, match=re.escape(message)):
        parse_type(kind, rank, m)


CATALOG = (
    [("A", r, None) for r in range(1, 10)]
    + [("B", r, None) for r in range(2, 10)]
    + [("D", r, None) for r in range(3, 10)]
    + [(k, int(k[1]), None) for k in ("E6", "E7", "E8", "F4", "H3", "H4")]
    + [("I2", 2, m) for m in range(2, 13)])


@st.composite
def finite_unions(draw, most=9):
    """(components, diagram): a disjoint union of catalog types of total
    rank 1 to most under shuffled labels, with its vertices in shuffled
    order."""
    left = draw(st.integers(1, most))
    components = []
    while left:
        components.append(draw(st.sampled_from(
            [c for c in CATALOG if c[1] <= left])))
        left -= components[-1][1]
    total = sum(rank for _, rank, _ in components)
    codes = iter(draw(st.permutations(range(total))))
    verts, edges = [], []
    for kind, rank, m in components:
        part = standard_diagram(kind, rank, m)
        name = {v: f"v{next(codes)}" for v in part.vertices}
        verts += name.values()
        edges += [(name[u], name[v], label) for u, v, label in part.edges]
    return components, CoxeterDiagram.make(draw(st.permutations(verts)), edges)


@settings(max_examples=60, deadline=None)
@given(finite_unions())
def test_diagram_sum_of_unions(case):
    components, dgm = case
    got = gamma_triangle_diagram(dgm)
    assert got == gamma_triangle_by_induced_subsets(dgm)
    want = Poly2.one()
    for c in components:
        want = want * closed_triangle(*c).to_poly2()
    assert got.to_poly2() == want
    parts = [t for c in components for t in classify(standard_diagram(*c))]
    assert classify(dgm) == sorted(parts, key=lambda t: (t.kind, t.rank, t.m or 0))
    assert got.degree == len(dgm.vertices)


# total rank up to 14, the range of the benchmark's unions
@settings(max_examples=40, deadline=None)
@given(finite_unions(14))
def test_diagram_sum_matches_the_mask_oracle(case):
    _, dgm = case
    assert gamma_triangle_diagram(dgm) == diagram_sum_by_masks(dgm)


def test_diagram_sum_walks_past_lone_vertices():
    # the mask oracle would need 2^3000 and 2^42 subsets, and a walk that
    # recursed once per vertex left out would overflow the stack
    lone = [f"v{i:04d}" for i in range(3000)]
    assert gamma_triangle_diagram(CoxeterDiagram.make(lone, [])).to_poly2() \
        == Poly2({(0, 3000): 1})
    dgm = CoxeterDiagram.make(lone[:40] + ["a", "b"], [("a", "b")])
    assert gamma_triangle_diagram(dgm).to_poly2() \
        == Poly2({(0, 42): 1, (1, 40): 1})


class NoIndex(tuple):
    """Vertex labels whose positions may not be looked up."""

    def index(self, *args):
        raise AssertionError("a vertex label's position was looked up")


def union(*names):
    """The disjoint union of standard diagrams, made through make."""
    verts, edges = [], []
    for k, (kind, rank, m) in enumerate(names):
        part = standard_diagram(kind, rank, m)
        verts += [f"{v}_{k}" for v in part.vertices]
        edges += [(f"{u}_{k}", f"{v}_{k}", label) for u, v, label in part.edges]
    return CoxeterDiagram.make(verts, edges)


@pytest.mark.parametrize("names", [
    [("H4", None, None)],
    [("F4", None, None), ("B", 5, None), ("I2", None, 5)]])
def test_classification_reads_no_label_positions(names):
    dgm = union(*names)
    raw = CoxeterDiagram(NoIndex(dgm.vertices), dgm.edges)
    assert classify(raw) == classify(dgm)
    want = Poly2.one()
    for name in names:
        want = want * closed_triangle(*name).to_poly2()
    assert gamma_triangle_diagram(raw).to_poly2() == want


def test_classify_many_labeled_components():
    dgm = union(*[("I2", None, 5)] * 1000)
    assert classify(dgm) == [comp("I2", 2, 5)] * 1000


def test_diagram_sum_holds_one_component_at_a_time():
    # each component is summed with a memo of its own states and multiplied
    # into the running product, so no state's W spans a later component
    dgm = union(*[("I2", None, 5)] * 300)
    tracemalloc.start()
    try:
        got = gamma_triangle_diagram(dgm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.coeffs == {(i, 2 * (300 - i)): comb(300, i) * 3 ** i
                          for i in range(301)}
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_isolated_vertices_take_their_place_in_index_order():
    dgm = CoxeterDiagram.make(["x0", "a1", "b2", "y3", "c4"],
                              [("a1", "b2", 5), ("b2", "c4")])
    adj, comps, order = dgm._view[:3]
    assert [dgm.vertices[k] for k in order] == ["x0", "a1", "b2", "c4", "y3"]
    assert comps == [(0, 1), (1, 4), (4, 5)]
    assert classify(dgm) == [comp("A", 1), comp("A", 1), comp("H3", 3)]
    assert gamma_triangle_diagram(dgm).to_poly2() \
        == closed_triangle("H3").to_poly2() * Poly2({(0, 2): 1})


def test_a_diagram_builds_its_masks_once(monkeypatch):
    real, calls = coxeter._skeleton, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coxeter, "_skeleton", counted)
    names = [("F4", None, None), ("I2", None, 7), ("A", 3, None)]
    dgms = [union(*names), shuffled(names, 3)]
    for _ in range(2):
        for dgm in dgms:
            classify(dgm)
            gamma_triangle_diagram(dgm)
            diagram_sum_by_masks(dgm)
    assert len(calls) == len(dgms)  # one _view per diagram


def shuffled(names, seed):
    """The disjoint union of standard diagrams under labels whose order has
    nothing to do with the components, in shuffled vertex and edge order."""
    rng = random.Random(seed)
    total = sum(len(standard_diagram(*name).vertices) for name in names)
    codes = iter(rng.sample(range(10 * total), total))
    verts, edges = [], []
    for name in names:
        part = standard_diagram(*name)
        label = {v: f"v{next(codes):04d}" for v in part.vertices}
        verts += label.values()
        edges += [(label[u], label[v], m) for u, v, m in part.edges]
    rng.shuffle(verts)
    rng.shuffle(edges)
    return CoxeterDiagram.make(verts, edges)


@pytest.mark.parametrize("n", range(4, 9))
def test_diagram_sum_computes_each_local_gamma_once(monkeypatch, n):
    real, calls = coxeter.local_gamma_poly, []

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(coxeter, "local_gamma_poly", counted)
    # the standard vertex order, then permuted ones, each a fresh diagram
    for dgm in [standard_diagram("A", n)] + [shuffled([("A", n, None)], seed)
                                             for seed in range(4)]:
        calls.clear()
        assert gamma_triangle_diagram(dgm) == closed_triangle("A", n)
        # one call per connected sub-path at most
        assert len(calls) <= n * (n + 1) // 2


def test_diagram_sum_types_each_component_by_classify_only(monkeypatch):
    # repeated types under shuffled labels: one local gamma per distinct
    # type, and _classify_component only on the five whole components,
    # from classify
    names = [("A", 5, None), ("A", 5, None), ("B", 4, None), ("D", 6, None),
             ("E6", None, None)]
    real_lg, real_cc, lg_calls, cc_calls = \
        coxeter.local_gamma_poly, coxeter._classify_component, [], []

    def counted_lg(c):
        lg_calls.append(c)
        return real_lg(c)

    def counted_cc(dgm, comp):
        cc_calls.append(comp)
        return real_cc(dgm, comp)

    monkeypatch.setattr(coxeter, "local_gamma_poly", counted_lg)
    monkeypatch.setattr(coxeter, "_classify_component", counted_cc)
    dgm = shuffled(names, 5)
    assert dgm._view[2] != list(range(len(dgm.vertices)))  # relabelled
    want = Poly2.one()
    for name in names:
        want = want * closed_triangle(*name).to_poly2()
    for _ in range(2):  # the type cache lives for one call
        lg_calls.clear()
        cc_calls.clear()
        assert gamma_triangle_diagram(dgm).to_poly2() == want
        assert len(lg_calls) == len(set(lg_calls))
        assert len(cc_calls) == len(names)


def connected_masks(adj):
    """Every connected vertex mask of two or more vertices over adj."""
    for mask in range(1, 1 << len(adj)):
        if mask & (mask - 1) and coxeter._component(
                [a & mask for a in adj], (mask & -mask).bit_length() - 1) == mask:
            yield mask


@pytest.mark.parametrize("kind, rank, m", CATALOG)
@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_shape_type_matches_classify_component(kind, rank, m, seed):
    # every connected set of every standard diagram up to rank 9, in the
    # identity order (seed None) and under shuffled labels, where _view
    # relabels the masks into the elimination order; reference_type keeps
    # the label rules _classify_component typed by before _shape_type did
    dgm = standard_diagram(kind, rank, m) if seed is None \
        else shuffled([(kind, rank, m)], seed)
    for mask in connected_masks(dgm._view[0]):
        assert TypedComponent(*coxeter._shape_type(mask, dgm._view)) \
            == reference_type(dgm, mask)
    assert classify(dgm) == classify(standard_diagram(kind, rank, m))


@settings(max_examples=40, deadline=None)
@given(finite_unions(30))
def test_diagram_sum_of_shuffled_unions_up_to_rank_30(case):
    components, dgm = case
    got = gamma_triangle_diagram(dgm)
    want = Poly2.one()
    for c in components:
        want = want * closed_triangle(*c).to_poly2()
    assert got.to_poly2() == want
    if len(dgm.vertices) <= 10:
        assert got == diagram_sum_by_masks(dgm)


@pytest.mark.parametrize("kind", "AD")
@pytest.mark.parametrize("seed", range(3))
def test_diagram_sum_states_stay_linear_under_shuffled_labels(monkeypatch, kind, seed):
    # _connected_sets runs once per memo state; taking v as the lowest
    # position of U instead of following the elimination order reached
    # millions of states on a shuffled A40
    real, calls = coxeter._connected_sets, []

    def counted(*args):
        calls.append(args)
        if len(calls) > 2 * 40 + 2:  # fail at once rather than run for minutes
            raise AssertionError(f"more than {2 * 40 + 2} states")
        return real(*args)

    monkeypatch.setattr(coxeter, "_connected_sets", counted)
    dgm = shuffled([(kind, 40, None)], seed)
    assert gamma_triangle_diagram(dgm) == closed_triangle(kind, 40)
    assert calls


@pytest.mark.parametrize("kind", "ABD")
def test_diagram_sum_matches_closed_forms_at_rank_30(kind):
    assert gamma_triangle_diagram(standard_diagram(kind, 30)) \
        == closed_triangle(kind, 30)


# total rank 40: past every oracle's reach, and every exceptional type
RANK_40_UNION = [("A", 5, None), ("B", 4, None), ("D", 6, None), ("E6", None, None),
                 ("H3", None, None), ("F4", None, None), ("E8", None, None),
                 ("H4", None, None)]


def test_diagram_sum_of_a_shuffled_rank_40_union():
    dgm = shuffled(RANK_40_UNION, 40)
    assert dgm._view[2] != list(range(40))  # the sum runs on relabelled masks
    want = Poly2.one()
    for name in RANK_40_UNION:
        want = want * closed_triangle(*name).to_poly2()
    got = gamma_triangle_diagram(dgm)
    assert got.to_poly2() == want
    assert got.degree == 40


@pytest.mark.parametrize("kind, rank, m", STANDARD_UP_TO_8)
def test_standard_diagrams_need_no_relabelling(kind, rank, m):
    dgm = standard_diagram(kind, rank, m)
    adj, comps, order = dgm._view[:3]
    n = len(dgm.vertices)
    assert order == list(range(n))
    index = {v: i for i, v in enumerate(dgm.vertices)}
    assert adj == [sum(1 << index[b if a == v else a] for a, b, _ in dgm.edges
                       if v in (a, b)) for v in dgm.vertices]
    # one run for a connected diagram, a run per vertex for A1, B1, D2, I2(2)
    assert comps == ([(0, n)] if dgm.edges else [(p, p + 1) for p in range(n)])


def test_elimination_walks_from_the_lowest_leaf():
    # a D6 whose fork c0 has the lowest position, with arms a1, b2 and
    # d3 - e4 - f5, and the lone vertex g6 placed before f5: the walk starts
    # at the leaf a1, goes through the fork to b2, then down d3's arm, and
    # g6 comes last
    dgm = CoxeterDiagram.make(["c0", "a1", "b2", "d3", "e4", "g6", "f5"],
                              [("a1", "c0"), ("b2", "c0"), ("c0", "d3"),
                               ("d3", "e4"), ("e4", "f5")])
    adj, comps, order = dgm._view[:3]
    assert [dgm.vertices[k] for k in order] == ["a1", "c0", "b2", "d3", "e4", "f5", "g6"]
    assert comps == [(0, 6), (6, 7)]
    bit = {dgm.vertices[k]: 1 << p for p, k in enumerate(order)}
    assert adj[1] == bit["a1"] | bit["b2"] | bit["d3"]  # c0's neighbours
    assert adj[6] == 0
