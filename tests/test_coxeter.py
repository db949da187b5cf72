import re

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
    gamma_coeff_closed,
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
    assert gamma_coeff_closed("A", 3, 1, 1) == 2
    assert gamma_coeff_closed("B", 4, 2, 0) == 6
    assert gamma_coeff_closed("A", 3, 0, 3) == 1
    assert gamma_coeff_closed("A", 3, 0, 1) == 0
    with pytest.raises(ValueError):
        gamma_coeff_closed("A", 3, 1, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_A_matches_diagram(n):
    assert closed_gamma_triangle("A", n) \
        == gamma_triangle_diagram(standard_diagram("A", n))


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_B_matches_diagram(n):
    assert closed_gamma_triangle("B", n) \
        == gamma_triangle_diagram(standard_diagram("B", n))


@pytest.mark.parametrize("n", range(4, 9))
def test_gamma_triangle_D_matches_diagram(n):
    assert gamma_triangle_D(n) \
        == gamma_triangle_diagram(standard_diagram("D", n))


def test_gamma_triangle_D_small():
    assert gamma_triangle_D(4) == GammaTriangle.make(
        {(0, 4): 1, (1, 2): 3, (1, 1): 3, (1, 0): 2, (2, 0): 2}, 4)
    assert gamma_triangle_D(6) == reference_tables()["D6"]
    assert gamma_triangle_D(3) == closed_gamma_triangle("A", 3)
    with pytest.raises(ValueError):
        gamma_triangle_D(2)


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
def finite_unions(draw):
    """(components, diagram): a disjoint union of catalog types of total
    rank 1-9 under shuffled labels, with its vertices in shuffled order."""
    left = draw(st.integers(1, 9))
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


@pytest.mark.parametrize("n", range(4, 9))
def test_diagram_sum_computes_each_local_gamma_once(monkeypatch, n):
    real, calls = coxeter.local_gamma_poly, []

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(coxeter, "local_gamma_poly", counted)
    gamma_triangle_diagram(standard_diagram("A", n))
    # one call per connected sub-path at most
    assert len(calls) <= n * (n + 1) // 2
