import dataclasses
import json
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from gammatri import complexes, subdivisions, verify
from gammatri.cluster import dihedral_subdivision, type_a_subdivision
from gammatri.complexes import (
    Complex,
    InvalidComplex,
    _facet_faces,
    all_faces,
    f_polynomial,
    f_vector,
    face_set,
    fresh_labels,
    is_flag,
    join,
)
from gammatri.poly import Poly1, Poly2, binom
from gammatri.subdivisions import (
    InvalidSubdivision,
    SphereWithFacet,
    Subdivision,
    f_triangle,
    gamma_from_local_sum,
    h_triangle_direct,
    join_subdivisions,
    local_gamma,
    local_h,
    restrict,
    sphere,
    sub_subdivision,
)
from gammatri.transforms import (
    GammaTriangle,
    Gamma_from_H,
    H_from_F,
    NotGammaRepresentable,
    gamma_from_h,
    h_from_f,
    poly_from_gamma,
)

A1 = type_a_subdivision(1)
A2 = type_a_subdivision(2)
A3 = type_a_subdivision(3)


def test_restrict_full_a2_is_path():
    full = restrict(A2, frozenset(A2.index_set))
    assert f_vector(full) == (1, 3, 2)


def test_restrict_empty():
    r = restrict(A2, frozenset())
    assert f_polynomial(r) == Poly1.one()
    assert r.vertices == ()
    assert [frozenset(v for i, v in enumerate(r.vertices) if f >> i & 1)
            for f in r.facets] == [frozenset()]


def test_restrict_singleton_a2():
    r = restrict(A2, frozenset(["s1"]))
    assert f_vector(r) == (1, 1)


def test_restrict_rejects_foreign_labels():
    with pytest.raises(ValueError):
        restrict(A2, frozenset(["nope"]))


def test_local_h_a2():
    assert local_h(A2) == Poly1({1: 1})


def test_local_h_a1_vanishes():
    assert local_h(A1) == Poly1.zero()


def test_local_h_dihedral_4():
    assert local_h(dihedral_subdivision(4)) == Poly1({1: 2})


def test_local_gamma_a3():
    assert local_gamma(A3) == Poly1({1: 1})


def test_local_gamma_a4():
    assert local_gamma(type_a_subdivision(4)) == Poly1({1: 1, 2: 2})


@pytest.mark.parametrize("m", range(2, 9))
def test_local_gamma_dihedral(m):
    assert local_gamma(dihedral_subdivision(m)) == Poly1({1: m - 2})


def test_sphere_a1_is_two_points():
    sph = sphere(A1)
    assert f_vector(sph.complex) == (1, 2)
    assert sph.complex.vertices == A1.complex.vertices + ("s1",)
    assert sph.facet == 0b10  # the mask of the index set, placed after the vertices


def test_sphere_a2_is_pentagon():
    sph = sphere(A2)
    assert f_vector(sph.complex) == (1, 5, 5)
    assert {f.bit_count() for f in sph.complex.facets} == {2}  # pure, of dimension 1


@pytest.mark.parametrize("m", range(2, 9))
def test_sphere_dihedral_is_polygon(m):
    sph = sphere(dihedral_subdivision(m))
    assert f_vector(sph.complex) == (1, m + 2, m + 2)


def test_f_triangle_pentagon_with_edge():
    sph = sphere(dihedral_subdivision(3))
    assert f_triangle(sph) == Poly2({(0, 0): 1, (1, 0): 3, (2, 0): 2,
                                     (0, 1): 2, (1, 1): 2, (0, 2): 1})


def test_f_triangle_just_the_facet():
    sph = SphereWithFacet.make(Complex.make("t", [{"t"}]), {"t"})
    assert f_triangle(sph) == Poly2({(0, 0): 1, (0, 1): 1})


def test_f_triangle_a3():
    F = f_triangle(sphere(A3))
    assert F.coeff(1, 0) == 6
    assert F.coeff(3, 0) == 5
    assert F.coeff(0, 3) == 1
    assert F == Poly2({(0, 0): 1, (1, 0): 6, (2, 0): 10, (3, 0): 5,
                       (0, 1): 3, (1, 1): 8, (2, 1): 5,
                       (0, 2): 3, (1, 2): 3, (0, 3): 1})


def test_gamma_from_local_sum_examples():
    assert gamma_from_local_sum(A2) == GammaTriangle.make(
        {(0, 2): 1, (1, 0): 1}, 2)
    assert gamma_from_local_sum(A3) == GammaTriangle.make(
        {(0, 3): 1, (1, 1): 2, (1, 0): 1}, 3)
    assert gamma_from_local_sum(A1) == GammaTriangle.make({(0, 1): 1}, 1)


def test_h_triangle_direct_examples():
    assert h_triangle_direct(A2) == Poly2(
        {(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1})
    assert h_triangle_direct(A1) == Poly2({(0, 0): 1, (1, 1): 1})
    assert h_triangle_direct(A3) == Poly2(
        {(0, 0): 1, (1, 0): 3, (2, 0): 1, (1, 1): 3, (2, 1): 2,
         (2, 2): 3, (3, 3): 1})


MODELS = [type_a_subdivision(n) for n in range(1, 5)] + [
    dihedral_subdivision(m) for m in range(2, 7)]


@pytest.mark.parametrize("s", MODELS, ids=lambda s: "I".join(s.index_set))
def test_moebius_inversion(s):
    total = Poly1.zero()
    for r in range(len(s.index_set) + 1):
        for J in combinations(s.index_set, r):
            total = total + local_h(sub_subdivision(s, frozenset(J)))
    assert total == h_from_f(f_polynomial(s.complex), len(s.index_set))


@pytest.mark.parametrize("s", MODELS, ids=lambda s: "I".join(s.index_set))
def test_local_h_symmetry(s):
    d = len(s.index_set)
    lh = local_h(s)
    assert all(lh.coeff(i) == lh.coeff(d - i) for i in range(d + 1))


@pytest.mark.parametrize("s", MODELS, ids=lambda s: "I".join(s.index_set))
def test_triangle_routes_agree(s):
    d = len(s.index_set)
    H = H_from_F(f_triangle(sphere(s)), d)
    assert H == h_triangle_direct(s)
    assert Gamma_from_H(H, d) == gamma_from_local_sum(s)


@pytest.mark.parametrize("s", MODELS, ids=lambda s: "I".join(s.index_set))
def test_y0_row_is_local_gamma(s):
    d = len(s.index_set)
    by_model = Gamma_from_H(H_from_F(f_triangle(sphere(s)), d), d)
    by_restrictions = poly_from_gamma(gamma_from_h(local_h_by_restrictions(s), d))
    assert by_model.row(0) == local_gamma(s) == by_restrictions


@pytest.mark.parametrize("s", MODELS, ids=lambda s: "I".join(s.index_set))
def test_f_triangle_specializes_to_f(s):
    sph = sphere(s)
    assert f_triangle(sph).substitute_y("x") == f_polynomial(sph.complex)


def test_join_multiplicativity():
    j = join_subdivisions(A2, type_a_subdivision(2))
    assert local_gamma(j) == local_gamma(A2) * local_gamma(A2)
    assert local_gamma(j) == Poly1({2: 1})


def test_join_multiplicativity_mixed():
    a, b = dihedral_subdivision(4), type_a_subdivision(3)
    j = join_subdivisions(a, b)
    j.validate()
    assert local_gamma(j) == local_gamma(a) * local_gamma(b)


def test_validation_passes_on_models():
    for s in MODELS:
        assert s.validate() is None


def test_json_round_trip():
    data = A3.to_dict()
    again = Subdivision.from_dict(data)
    assert gamma_from_local_sum(again) == gamma_from_local_sum(A3)


def _invalid(complex_args, index_set, sigma):
    cpx = Complex.make(*complex_args)
    return Subdivision.make(cpx, index_set, sigma)


def test_validate_rejects_euler_violation():
    # two points both carried to {s}: the restriction to {s} has Euler
    # characteristic 2
    s = _invalid(("pq", [{"p"}, {"q"}]), ["s"],
                 {"p": {"s"}, "q": {"s"}})
    with pytest.raises(InvalidSubdivision, match="Euler"):
        s.validate()


def test_validate_rejects_wrong_dimension():
    s = _invalid(("pq", [{"p", "q"}]), ["s"],
                 {"p": {"s"}, "q": {"s"}})
    with pytest.raises(InvalidSubdivision, match="dimension"):
        s.validate()


def test_validate_rejects_impure_restriction():
    # an edge plus an isolated vertex; the singleton restrictions are fine,
    # the full restriction mixes facet sizes
    s = _invalid(("pqr", [{"p", "q"}, {"r"}]), ["s1", "s2"],
                 {"p": {"s1"}, "q": {"s2"}, "r": {"s1", "s2"}})
    with pytest.raises(InvalidSubdivision, match="pure"):
        s.validate()


# The structural faults are make's: a Subdivision that holds one cannot be
# built, so validate() never sees it.

def test_validate_rejects_empty_carrier():
    with pytest.raises(InvalidSubdivision, match="^carrier of vertex 'p' is empty$"):
        _invalid(("p", [{"p"}]), ["s"], {"p": set()})


def test_validate_rejects_label_overlap():
    with pytest.raises(InvalidSubdivision, match=r"^index set overlaps vertices: \['p'\]$"):
        _invalid(("p", [{"p"}]), ["p"], {"p": {"p"}})


def test_validate_rejects_missing_carrier():
    with pytest.raises(InvalidSubdivision,
                       match=r"^carrier map domain mismatch: missing \['q'\]$"):
        _invalid(("pq", [{"p", "q"}]), ["s1", "s2"], {"p": {"s1"}})


def test_loader_runs_validation():
    bad = {"complex": {"vertices": ["p", "q"], "facets": [["p"], ["q"]]},
           "index_set": ["s"],
           "sigma": {"p": ["s"], "q": ["s"]}}
    with pytest.raises(InvalidSubdivision, match="Euler"):
        Subdivision.from_dict(bad)


# Test-only oracles: the definitions that local_h, sphere, the local-sum
# route and the direct H route replaced by one-pass computations.

def local_h_by_restrictions(s):
    """Alternating sum over J of h(restriction to J) at degree |J|."""
    n = len(s.index_set)
    out = Poly1.zero()
    for r in range(n + 1):
        for J in combinations(s.index_set, r):
            h = h_from_f(f_polynomial(restrict(s, frozenset(J))), r)
            out = out + h.scale((-1) ** (n - r))
    return out


def gamma_from_local_sum_by_restrictions(s):
    """sum_K local_gamma(restriction to K) y^(|I-K|), one extraction per K."""
    n = len(s.index_set)
    out = Poly2.sum(
        local_gamma(sub_subdivision(s, frozenset(K))).to_poly2().shift(0, n - r)
        for r in range(n + 1) for K in combinations(s.index_set, r))
    return GammaTriangle.make(dict(out.items()), n)


def h_triangle_direct_by_restrictions(s):
    """sum_J (xy)^|J| h(restriction to I - J), one h-vector per J."""
    n = len(s.index_set)
    iset = frozenset(s.index_set)
    return Poly2.sum(
        h_from_f(f_polynomial(restrict(s, iset - frozenset(J))), n - r).to_poly2().shift(r, r)
        for r in range(n + 1) for J in combinations(s.index_set, r))


def carrier(s, face):
    """The union of the carriers of the face's vertices."""
    return frozenset().union(*(s.sigma[v] for v in face))


def sphere_by_pairwise_maximality(s):
    """The faces F + (I - carrier(F)) that lie inside no other one."""
    iset = frozenset(s.index_set)
    verts = s.complex.vertices
    faces = [frozenset(v for i, v in enumerate(verts) if f >> i & 1)
             for f in face_set(s.complex)]
    candidates = {f | (iset - carrier(s, f)) for f in faces}
    maximal = [f for f in candidates if not any(f < g for g in candidates)]
    cpx = Complex.make(tuple(s.complex.vertices) + tuple(s.index_set), maximal)
    return SphereWithFacet.make(cpx, iset)


def _value_or_error(fn, s):
    try:
        return fn(s)
    except ValueError:
        return ValueError


ORACLE_CASES = (
    [type_a_subdivision(n) for n in range(1, 7)]
    + [dihedral_subdivision(m) for m in range(2, 11)]
    + [join_subdivisions(A2, A3)])


@pytest.mark.parametrize("s", ORACLE_CASES, ids=lambda s: "I".join(s.index_set))
def test_one_pass_routes_match_their_definitions(s):
    assert local_h(s) == local_h_by_restrictions(s)
    assert sphere(s) == sphere_by_pairwise_maximality(s)


@pytest.mark.parametrize("s", ORACLE_CASES + [type_a_subdivision(7)],
                         ids=lambda s: "I".join(s.index_set))
def test_weighted_face_routes_match_their_definitions(s):
    assert gamma_from_local_sum(s) == gamma_from_local_sum_by_restrictions(s)
    assert h_triangle_direct(s) == h_triangle_direct_by_restrictions(s)


INDEX = ("s1", "s2", "s3", "s4")


@st.composite
def carried_complexes(draw):
    """A random complex on a-f with a random nonempty carrier for each
    vertex; not a subdivision in general."""
    facets = draw(st.lists(
        st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=3),
        min_size=1, max_size=5))
    maximal = [f for f in set(facets) if not any(f < g for g in facets)]
    verts = sorted(set().union(*maximal))
    index_set = INDEX[:draw(st.integers(1, len(INDEX)))]
    carriers = st.frozensets(st.sampled_from(index_set), min_size=1)
    sigma = {v: draw(carriers) for v in verts}
    return Subdivision.make(Complex.make(verts, maximal), index_set, sigma)


# The Poly-product forms of the two face-count sums, kept as oracles for
# their accumulations over poly.binomial_row: each (|F|, |carrier|) count
# adds a monomial times a power of (1 - x), multiplied out and summed.
def one_minus_x(n):
    return Poly1({k: (-1) ** k * comb(n, k) for k in range(n + 1)})


def product_local_h_sum(counts, n, r):
    return Poly1.sum(Poly1({r - k + a: c * binom(n - k, r - k) * (-1) ** (r - k)})
                     * one_minus_x(k - a) for (a, k), c in counts.items() if k <= r)


def product_h_triangle_direct(s):
    n = len(s.index_set)
    return Poly2.sum((Poly1({a: c * binom(n - k, r - k)}) * one_minus_x(r - a))
                     .to_poly2().shift(n - r, n - r)
                     for (a, k), c in s._face_counts.items() for r in range(k, n + 1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# (a, k) -> count with a <= k <= n, the shape of Subdivision._face_counts
face_counts = st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.dictionaries(
        st.integers(0, n).flatmap(lambda k: st.tuples(st.integers(0, k), st.just(k))),
        st.integers(-20, 20), max_size=8),
    st.just(n), st.integers(0, n)))


@given(face_counts)
def test_local_h_sum_matches_its_product_form(case):
    counts, n, r = case
    assert subdivisions._local_h_sum(counts, n, r) == product_local_h_sum(counts, n, r)


@given(carried_complexes())
def test_h_triangle_direct_matches_its_product_form(s):
    # a face larger than its carrier raises the same error in both
    assert _outcome(h_triangle_direct, s) == _outcome(product_h_triangle_direct, s)


@given(carried_complexes())
def test_one_pass_routes_match_their_definitions_on_any_carrier_map(s):
    assert _value_or_error(local_h, s) == _value_or_error(local_h_by_restrictions, s)
    assert sphere(s) == sphere_by_pairwise_maximality(s)


@given(carried_complexes())
def test_weighted_face_routes_match_their_definitions_on_any_carrier_map(s):
    assert (_value_or_error(h_triangle_direct, s)
            == _value_or_error(h_triangle_direct_by_restrictions, s))
    # a rank's summed local h can be symmetric where one of its terms is
    # not, so the local-sum route may return a triangle where its oracle
    # raises, never the other way round
    want = _value_or_error(gamma_from_local_sum_by_restrictions, s)
    got = _value_or_error(gamma_from_local_sum, s)
    assert got == want or want is ValueError


# Test-only oracles: the label-level structural checks that make took over
# from validate(), and the label-built join that join_subdivisions replaced
# by shifting b's carrier masks.

def structural_fault_by_labels(cpx, index_set, sigma):
    """The message of the first structural fault, or None: the old make's
    duplicate-label check, then the structural half of the old validate()."""
    idx = tuple(index_set)
    if len(set(idx)) != len(idx):
        return "duplicate index labels"
    smap = {v: frozenset(s) for v, s in sigma.items()}
    iset = set(idx)
    overlap = iset & set(cpx.vertices)
    if overlap:
        return f"index set overlaps vertices: {sorted(overlap)}"
    vset = set(cpx.vertices)
    if set(smap) != vset:
        missing = vset - set(smap)
        extra = set(smap) - vset
        what = f"missing {sorted(missing)}" if missing else f"extra {sorted(extra)}"
        return f"carrier map domain mismatch: {what}"
    for v, s in smap.items():
        if not s:
            return f"carrier of vertex {v!r} is empty"
        if not s <= iset:
            return f"carrier of vertex {v!r} is not a subset of the index set"
    return None


CORRUPTIONS = ("drop a vertex", "add a foreign label", "empty a carrier",
               "reuse a vertex label as an index label", "repeat an index label")


@given(carried_complexes(), st.lists(st.booleans(), min_size=5, max_size=5), st.data())
def test_make_raises_exactly_the_faults_of_the_label_checks(s, chosen, data):
    # each corruption drawn on its own, so that any two faults often come
    # together and the order in which they are named is checked; the
    # carrier map is listed in a drawn order
    corruptions = [c for c, yes in zip(CORRUPTIONS, chosen) if yes]
    index_set = list(s.index_set)
    sigma = dict(data.draw(st.permutations(list(s.sigma.items()))))
    for corruption in corruptions:
        v = data.draw(st.sampled_from(s.complex.vertices))
        at = data.draw(st.integers(0, len(index_set)))
        if corruption == "drop a vertex":
            del sigma[v]
        elif corruption == "add a foreign label":
            sigma[v] = sigma.get(v, frozenset()) | {"t"}
        elif corruption == "empty a carrier":
            sigma[v] = frozenset()
        elif corruption == "reuse a vertex label as an index label":
            index_set.insert(at, v)
        else:
            index_set.insert(at, index_set[-1])
    want = structural_fault_by_labels(s.complex, index_set, sigma)
    assert (want is None) == (not corruptions)
    try:
        got = Subdivision.make(s.complex, index_set, sigma)
    except InvalidSubdivision as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert got == s and got.sigma == s.sigma


def join_by_labels(a, b):
    """b's labels renamed away from a's, the carrier map merged label by
    label and the result built through make."""
    rename = fresh_labels(set(a.complex.vertices) | set(a.index_set),
                          tuple(b.complex.vertices) + tuple(b.index_set))
    b_cpx = Complex.from_masks([rename[v] for v in b.complex.vertices], b.complex.facets)
    sigma = dict(a.sigma)
    for v, s in b.sigma.items():
        sigma[rename[v]] = frozenset(rename[i] for i in s)
    index_set = tuple(a.index_set) + tuple(rename[i] for i in b.index_set)
    return Subdivision.make(join(a.complex, b_cpx), index_set, sigma)


JOIN_CASES = {"A1": A1, "A2": A2, "A3": A3,
              **{f"I2({m})": dihedral_subdivision(m) for m in range(2, 6)}}


@pytest.mark.parametrize("a, b", product(JOIN_CASES, repeat=2),
                         ids=[f"{a}*{b}" for a, b in product(JOIN_CASES, repeat=2)])
def test_join_shifts_carriers_as_the_label_join_renames_them(a, b):
    assert join_subdivisions(JOIN_CASES[a], JOIN_CASES[b]) == join_by_labels(
        JOIN_CASES[a], JOIN_CASES[b])


def test_local_sum_expects_validated_data():
    # edges ac and bc, a and b carried to {s1}: validate() rejects the
    # Euler characteristic 2 at {s1}; the restriction to {s1} has no gamma
    # expansion, but the rank-1 sum of local h is zero
    s = _invalid(("abc", [{"a", "c"}, {"b", "c"}]), ["s1", "s2"],
                 {"a": {"s1"}, "b": {"s1"}, "c": {"s1", "s2"}})
    with pytest.raises(InvalidSubdivision, match="Euler characteristic 2"):
        s.validate()
    with pytest.raises(NotGammaRepresentable):
        gamma_from_local_sum_by_restrictions(s)
    assert gamma_from_local_sum(s) == GammaTriangle.make({(0, 2): 1, (1, 0): 1}, 2)


def test_face_pass_rejects_labels_outside_the_carrier_map_or_index_set():
    # a carrier label outside the index set, a vertex without a carrier:
    # make names both, so the face pass only ever reads well-formed masks
    with pytest.raises(InvalidSubdivision,
                       match="^carrier of vertex 'p' is not a subset of the index set$"):
        _invalid(("p", [{"p"}]), ["s"], {"p": {"s", "t"}})
    with pytest.raises(InvalidSubdivision, match="^carrier map domain mismatch: missing"):
        _invalid(("pq", [{"p", "q"}]), ["s1", "s2"], {"p": {"s1"}})


def test_local_h_rejects_a_face_larger_than_its_carrier():
    # an edge carried to a single index label
    s = _invalid(("pq", [{"p", "q"}]), ["s"], {"p": {"s"}, "q": {"s"}})
    with pytest.raises(ValueError, match="size 2 has a carrier of size 1"):
        local_h(s)
    with pytest.raises(ValueError):
        local_h_by_restrictions(s)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_routes_count_the_faces_once(monkeypatch, n):
    routes = (local_h, gamma_from_local_sum, h_triangle_direct)
    fresh = [type_a_subdivision(n) for _ in routes]
    calls = {}

    def counted(name):
        real = getattr(subdivisions, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("restrict", "face_set"):
        monkeypatch.setattr(subdivisions, name, counted(name))
    for route, s in zip(routes, fresh):
        calls.update(restrict=0, face_set=0)
        route(s)
        assert calls == {"restrict": 0, "face_set": 1}, route.__name__
    calls.update(face_set=0)
    for route in routes:
        route(fresh[0])
    assert calls["face_set"] == 0  # the count is kept on the subdivision


def counted_searches(monkeypatch) -> list:
    """The complexes whose face search runs from here on, in call order."""
    searched = []
    search = Complex.__dict__["_faces"]  # the cached_property
    run = search.func

    def counted(c):
        searched.append(c)
        return run(c)

    monkeypatch.setattr(search, "func", counted)
    return searched


def test_a_sphere_searches_its_faces_once(monkeypatch):
    sph = sphere(type_a_subdivision(4))
    searched = counted_searches(monkeypatch)
    F = f_triangle(sph)
    assert F.substitute_y("x") == f_polynomial(sph.complex)
    assert is_flag(sph.complex)
    assert sum(map(len, all_faces(sph.complex).values())) == len(face_set(sph.complex))
    assert len(searched) == 1 and searched[0] is sph.complex


def test_crosscheck_searches_each_complex_at_most_once(monkeypatch):
    searched = counted_searches(monkeypatch)
    assert verify.crosscheck_report(2).ok
    assert searched  # the list keeps every complex alive, so ids stay distinct
    assert len({id(c) for c in searched}) == len(searched)


# to_dict of two models, pinned: vertex order, facets by size and then
# sorted labels, sigma by vertex
PINNED_DICTS = {
    "A3": (A3, {
        "complex": {
            "vertices": ["0-2", "0-3", "0-4", "1-3", "2-5", "3-5"],
            "facets": [["0-2", "0-3", "0-4"], ["0-2", "0-3", "3-5"],
                       ["0-2", "2-5", "3-5"], ["0-3", "0-4", "1-3"],
                       ["0-3", "1-3", "3-5"]]},
        "index_set": ["s1", "s2", "s3"],
        "sigma": {"0-2": ["s1", "s2"], "0-3": ["s1", "s2", "s3"], "0-4": ["s1"],
                  "1-3": ["s3"], "2-5": ["s2"], "3-5": ["s2", "s3"]}}),
    "I2(4)": (dihedral_subdivision(4), {
        "complex": {"vertices": ["p1", "p2", "p3", "p4"],
                    "facets": [["p1", "p2"], ["p2", "p3"], ["p3", "p4"]]},
        "index_set": ["s1", "s2"],
        "sigma": {"p1": ["s1"], "p2": ["s1", "s2"], "p3": ["s1", "s2"],
                  "p4": ["s2"]}}),
}


@pytest.mark.parametrize("name", PINNED_DICTS)
def test_to_dict_is_pinned(name):
    s, want = PINNED_DICTS[name]
    assert json.dumps(s.to_dict()) == json.dumps(want)


def test_sphere_rejects_a_label_shared_by_a_vertex_and_an_index():
    # make rejects the shared label, so no sphere can be built with one
    with pytest.raises(InvalidSubdivision, match=r"^index set overlaps vertices: \['a'\]$"):
        Subdivision.make(Complex.make("ab", [{"a", "b"}]), ["a"],
                         {"a": {"a"}, "b": {"a"}})


def test_subdivision_fields_cannot_be_assigned():
    s = type_a_subdivision(2)
    assert local_h(s) == Poly1({1: 1})  # the face pass is cached now
    for field, value in (("complex", Complex.from_masks((), [0])), ("index_set", ()),
                         ("carriers", ()), ("sigma", {})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, value)
    assert local_h(s) == Poly1({1: 1})


# The raw constructors check the masks they are given; make checks labels
# first and keeps its own messages.
EDGE_AB = Complex.make("ab", [{"a", "b"}])


def test_raw_subdivision_rejects_a_carrier_count_off_the_vertex_count():
    with pytest.raises(InvalidSubdivision, match=r"^1 carriers for 2 vertices$"):
        Subdivision(EDGE_AB, ("s",), (1,))
    with pytest.raises(InvalidSubdivision, match=r"^3 carriers for 2 vertices$"):
        Subdivision(EDGE_AB, ("s",), (1, 1, 1))


def test_raw_subdivision_rejects_a_carrier_beyond_the_index_set():
    with pytest.raises(InvalidSubdivision,
                       match=r"^carrier 4 of 'b' is outside \[1, 2\^1\)$"):
        Subdivision(EDGE_AB, ("s",), (1, 4))


@pytest.mark.parametrize("mask", [0, -1])
def test_raw_subdivision_rejects_an_empty_or_negative_carrier(mask):
    with pytest.raises(InvalidSubdivision,
                       match=rf"^carrier {mask} of 'a' is outside \[1, 2\^1\)$"):
        Subdivision(EDGE_AB, ("s",), (mask, 1))


def test_raw_sphere_with_facet_rejects_a_mask_that_is_not_a_facet():
    pentagon = Complex.make("abcde", [set(p) for p in ("ab", "bc", "cd", "de", "ae")])
    with pytest.raises(InvalidComplex, match=r"^mask 5 is not a facet of the complex$"):
        SphereWithFacet(pentagon, 0b101)
    with pytest.raises(InvalidComplex,
                       match=r"^\['a', 'c'\] is not a facet of the complex$"):
        SphereWithFacet.make(pentagon, {"a", "c"})
    assert SphereWithFacet(pentagon, 0b11) == SphereWithFacet.make(pentagon, {"a", "b"})


@pytest.mark.parametrize("mask", [0b101, 0b111, 0b1, 0, 1 << 5, -1],
                         ids=["ac not a clique", "abc not a clique", "a not maximal",
                              "empty not maximal", "beyond the vertices", "negative"])
def test_sphere_with_facet_on_a_graph_rejects_without_building_facets(mask):
    pentagon = Complex.make("abcde", [set(p) for p in ("ab", "bc", "cd", "de", "ae")])
    graph = Complex.from_graph(pentagon.vertices, pentagon.neighbours)
    with pytest.raises(InvalidComplex, match=rf"^mask {mask} is not a facet of the complex$"):
        SphereWithFacet(graph, mask)
    assert "facets" not in vars(graph)
    assert SphereWithFacet(graph, 0b11).complex == pentagon
    with pytest.raises(InvalidComplex, match=r"^\['a'\] is not a facet of the complex$"):
        SphereWithFacet.make(Complex.from_graph(pentagon.vertices, pentagon.neighbours), "a")


# The flag path of restrict and sphere against the generic one, which cuts
# the facets and reads the sphere's facets off the face pass.

def generic(s: Subdivision) -> Subdivision:
    """s on a copy of its complex built from its facets, so that restrict,
    sphere and face_set take their generic paths."""
    return Subdivision(Complex(s.complex.vertices, s.complex.facets),
                       s.index_set, s.carriers)


def through_loader(s: Subdivision) -> Subdivision:
    """s on its complex passed through the JSON loader, which records it as
    flag when it is, so that a flag complex takes the flag paths."""
    return Subdivision(Complex.from_dict(s.complex.to_dict()), s.index_set, s.carriers)


def assert_flag_and_generic_paths_agree(s: Subdivision) -> None:
    """s's own paths against the generic ones, on the same complex."""
    g = generic(s)
    for r in range(len(s.index_set) + 1):
        for J in combinations(s.index_set, r):
            a, b = restrict(s, J), restrict(g, J)
            assert (a.vertices, a.facets) == (b.vertices, b.facets), J
            assert face_set(a) == _facet_faces(b.facets, len(b.vertices)), J
            assert is_flag(a) or not s.complex._flag  # an induced subcomplex
    a, b = sphere(s), sphere(g)
    assert (a.complex.vertices, a.complex.facets, a.facet) == (
        b.complex.vertices, b.complex.facets, b.facet)
    assert face_set(a.complex) == _facet_faces(b.complex.facets, len(b.complex.vertices))
    assert is_flag(a.complex) or not s.complex._flag


def stellar_triangle() -> Subdivision:
    """The triangle ijk coned from an apex o over its boundary, a
    subdivision that is not flag: abc is a clique of it but no face."""
    return Subdivision.make(Complex.make("abco", ["abo", "bco", "aco"]), "ijk",
                            {"a": "i", "b": "j", "c": "k", "o": "ijk"})


@given(carried_complexes())
def test_flag_and_generic_paths_agree(s):
    loaded = through_loader(s)
    assert loaded.complex._flag == is_flag(s.complex)
    assert_flag_and_generic_paths_agree(loaded)


@pytest.mark.parametrize("s", [type_a_subdivision(n) for n in range(1, 8)]
                         + [dihedral_subdivision(m) for m in range(2, 9)],
                         ids=[f"A{n}" for n in range(1, 8)]
                         + [f"I2({m})" for m in range(2, 9)])
def test_flag_and_generic_paths_agree_on_the_models(s):
    assert s.complex._flag
    assert face_set(s.complex) == _facet_faces(s.complex.facets, len(s.complex.vertices))
    assert_flag_and_generic_paths_agree(s)


# restrict keeps the parent's vertex order, and the restriction that cuts
# no vertex is the parent's complex itself.

CUT_NOTHING = ([(f"A{n}", lambda n=n: type_a_subdivision(n)) for n in range(1, 8)]
               + [(f"I2({m})", lambda m=m: dihedral_subdivision(m)) for m in (2, 5, 8)]
               + [(f"A{n} generic", lambda n=n: generic(type_a_subdivision(n)))
                  for n in (1, 4, 6)]
               + [("I2(5) generic", lambda: generic(dihedral_subdivision(5))),
                  ("stellar triangle", stellar_triangle)])


@pytest.mark.parametrize("make", [m for _, m in CUT_NOTHING],
                         ids=[name for name, _ in CUT_NOTHING])
def test_the_restriction_to_the_index_set_is_the_complex(make):
    s = make()
    assert restrict(s, s.index_set) is s.complex
    assert restrict(s, frozenset(s.index_set)) is s.complex


def test_a_restriction_holding_every_carrier_is_the_complex():
    # index j carries no vertex, so {i} already holds every carrier
    s = Subdivision.make(Complex.make("ab", [{"a", "b"}]), "ij", {"a": "i", "b": "i"})
    for t in (s, generic(s)):
        assert restrict(t, {"i"}) is t.complex
        assert restrict(t, {"j"}).vertices == ()


def kept_in_order(s: Subdivision, J) -> tuple:
    """The vertices of s carried inside J, in s.complex's order."""
    inside = sum(1 << k for k, i in enumerate(s.index_set) if i in J)
    return tuple(v for v, c in zip(s.complex.vertices, s.carriers) if c | inside == inside)


@pytest.mark.parametrize("s", [type_a_subdivision(4), generic(type_a_subdivision(4)),
                               stellar_triangle()],
                         ids=["A4", "A4 generic", "stellar triangle"])
def test_restrictions_keep_the_parent_vertex_order(s):
    # loaded with its vertices reversed, so that the parent's order is not
    # the labels' order
    data = s.to_dict()
    data["complex"]["vertices"].reverse()
    loaded = Subdivision.from_dict(data)
    t = loaded if s.complex._flag else generic(loaded)
    relabelled = 0
    for r in range(len(t.index_set) + 1):
        for J in combinations(t.index_set, r):
            verts = restrict(t, J).vertices
            assert verts == kept_in_order(t, J), J
            relabelled += list(verts) != sorted(verts)
    assert relabelled  # the label order would have told them apart


def face_labels(c: Complex, f: int) -> frozenset:
    return frozenset(v for i, v in enumerate(c.vertices) if f >> i & 1)


@given(carried_complexes())
def test_restriction_faces_are_the_faces_carried_inside(s):
    for t in (s, generic(s)):
        cpx, n = t.complex, len(t.index_set)
        carried = []
        for f in face_set(cpx):
            carrier = 0
            for i, c in enumerate(t.carriers):
                if f >> i & 1:
                    carrier |= c
            carried.append((face_labels(cpx, f), carrier))
        for inside in range(1 << n):
            J = [i for k, i in enumerate(t.index_set) if inside >> k & 1]
            sub = restrict(t, J)
            assert sub.vertices == kept_in_order(t, J)
            assert {face_labels(sub, f) for f in face_set(sub)} == {
                labels for labels, c in carried if c | inside == inside}, J
            if all(c | inside == inside for c in t.carriers):
                assert sub is cpx


def test_a_loaded_subdivision_walks_its_faces_once(monkeypatch):
    # an exported A5 (what `gammatri cluster A 5 --export` writes), loaded
    # (which validates) and then summed by the local-sum route
    data = json.loads(json.dumps(type_a_subdivision(5).to_dict(), indent=2))
    widths = []  # the vertex count of each complex whose faces are walked

    def traced(real, width):
        def walk(*args):
            widths.append(width(*args))
            return real(*args)
        return walk

    monkeypatch.setattr(complexes, "_clique_faces",
                        traced(complexes._clique_faces, lambda adj: len(adj)))
    monkeypatch.setattr(complexes, "_facet_faces",
                        traced(complexes._facet_faces, lambda facets, width: width))
    s = Subdivision.from_dict(data)
    assert len(widths) == 2 ** 5 - 1  # validate: one walk per nonempty restriction
    assert gamma_from_local_sum(s) == subdivisions.model_gamma(type_a_subdivision(5))
    assert len(widths) == 2 ** 5 - 1  # the local sums read validate's walk
    assert widths.count(len(s.complex.vertices)) == 1  # the loaded complex's


# Subdivisions whose first fault shows at J = I, the restriction that is
# now the complex itself: validate names the same J, with the same words.
FAULTS_AT_THE_INDEX_SET = {
    "impure": (("pqr", [{"p", "q"}, {"r"}]), {"p": {"t"}, "q": {"s"}, "r": {"s", "t"}},
               r"restriction to ['s', 't'] is not pure"),
    "too big": (("pqr", [{"p", "q", "r"}]), {"p": {"t"}, "q": {"s"}, "r": {"s", "t"}},
                r"restriction to ['s', 't'] has dimension 2, expected 1"),
    "a circle": (("pqrx", [{"p", "r"}, {"r", "q"}, {"q", "x"}, {"x", "p"}]),
                 {"p": {"t"}, "q": {"s"}, "r": {"s", "t"}, "x": {"s", "t"}},
                 r"restriction to ['s', 't'] has Euler characteristic 0, expected 1"),
}


@pytest.mark.parametrize("name", FAULTS_AT_THE_INDEX_SET)
def test_validate_names_a_fault_at_the_index_set(name):
    complex_args, sigma, message = FAULTS_AT_THE_INDEX_SET[name]
    s = _invalid(complex_args, ["t", "s"], sigma)
    for t in (s, generic(s)):
        with pytest.raises(InvalidSubdivision) as exc:
            t.validate()
        assert str(exc.value) == message
    with pytest.raises(InvalidSubdivision) as exc:
        Subdivision.from_dict(s.to_dict())
    assert str(exc.value) == message


@pytest.mark.parametrize("make", [lambda: type_a_subdivision(4),
                                  lambda: generic(type_a_subdivision(4)),
                                  lambda: dihedral_subdivision(5),
                                  stellar_triangle],
                         ids=["A4", "A4 generic", "I2(5)", "stellar triangle"])
def test_model_route_walks_the_sphere_and_reads_no_face_counts(monkeypatch, make):
    s, walked, searched = make(), [], []
    walk, search = complexes.face_set, complexes.maximal_cliques
    for module in (complexes, subdivisions):
        monkeypatch.setattr(module, "face_set", lambda c: walked.append(c) or walk(c))
    monkeypatch.setattr(complexes, "maximal_cliques",
                        lambda adj: searched.append(list(adj)) or search(adj))
    subdivisions.model_gamma(s)
    monkeypatch.undo()
    assert "_face_counts" not in vars(s)
    sph = sphere(s).complex
    if s.complex._flag:
        # the sphere's cliques are counted: no face is listed, and the
        # sphere's facets are never searched for
        assert walked == []
        assert sph.neighbours not in searched
    else:
        # the face pass of the complex builds the sphere, whose every face
        # is then walked
        assert walked == [s.complex, sph]


def flag_decisions(run) -> list:
    """The complexes that is_flag decides while run() runs."""
    decided, decide = [], complexes.is_flag
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "is_flag", lambda c: decided.append(c) or decide(c))
        run()
    return decided


def every_route(s: Subdivision) -> None:
    """The restrictions (their faces, and each sub-subdivision's face pass)
    and the sphere's faces, as validate and the triangle routes read them."""
    for r in range(len(s.index_set) + 1):
        for K in combinations(s.index_set, r):
            face_set(restrict(s, K))
            sub_subdivision(s, K)._face_pass
    face_set(sphere(s).complex)


@pytest.mark.parametrize("make, flag", [(lambda: type_a_subdivision(4), True),
                                        (stellar_triangle, False)],
                         ids=["A4", "stellar triangle"])
def test_flagness_is_decided_once_per_loaded_complex(make, flag):
    data, loaded = make().to_dict(), []

    def run():
        s = Subdivision.from_dict(data)  # validates
        subdivisions.model_gamma(s)
        gamma_from_local_sum(s)
        local_h(s)
        every_route(s)
        loaded.append(s)

    # the restrictions and the sphere inherit it, on either path
    assert flag_decisions(run) == [loaded[0].complex]
    assert loaded[0].complex._flag == flag


def test_the_loader_decides_flagness_once_as_it_loads():
    pentagon = Complex.make("abcde", [set(p) for p in ("ab", "bc", "cd", "de", "ae")])
    for c, flag in ((pentagon, True), (stellar_triangle().complex, False)):
        loaded = []
        assert flag_decisions(lambda: loaded.append(Complex.from_dict(c.to_dict()))) == loaded
        assert loaded[0] == c and loaded[0]._flag == flag


def test_a_load_builds_the_1_skeleton_once(monkeypatch):
    # the loader's is_flag builds the cached skeleton, and validate's
    # flag-path restrictions read it from there
    data, built, skeleton = type_a_subdivision(6).to_dict(), [], complexes._skeleton
    monkeypatch.setattr(complexes, "_skeleton",
                        lambda facets, width: built.append(width) or skeleton(facets, width))
    s = Subdivision.from_dict(data)
    assert s.complex._flag and built == [len(s.complex.vertices)]


def test_verify_tests_flagness_only_where_it_is_not_given(monkeypatch):
    # sphere_flag_* decides a sphere built from facets; a graph-built one is
    # flag by construction, and a check on it could not fail
    decided, decide = [], verify.is_flag
    monkeypatch.setattr(verify, "is_flag", lambda c: decided.append(c) or decide(c))
    assert verify.crosscheck_report(2).ok
    assert decided and not any(c._flag for c in decided)


@given(carried_complexes())
def test_no_route_decides_flagness(s):
    # s is built from its facets and takes the generic paths; the loader
    # decides its copy's route before the routes run
    loaded = through_loader(s)
    assert flag_decisions(lambda: (every_route(s), every_route(loaded))) == []
