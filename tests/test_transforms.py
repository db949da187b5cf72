from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gammatri.poly import Poly1, Poly2
from gammatri.transforms import (
    F_from_Gamma,
    F_from_H,
    Gamma_from_H,
    GammaTriangle,
    H_from_F,
    H_from_Gamma,
    NotGammaRepresentable,
    f_from_h,
    gamma_from_h,
    h_from_f,
    poly_from_gamma,
)

# reference data: the n-gon with a distinguished edge (n = 5) and the
# rank 3 cluster example
PENTAGON_F = Poly2({(0, 0): 1, (1, 0): 3, (2, 0): 2,
                    (0, 1): 2, (1, 1): 2, (0, 2): 1})
PENTAGON_H = Poly2({(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 2): 1})
A3_F = Poly2({(0, 0): 1, (1, 0): 6, (2, 0): 10, (3, 0): 5,
              (0, 1): 3, (1, 1): 8, (2, 1): 5,
              (0, 2): 3, (1, 2): 3,
              (0, 3): 1})
A3_H = Poly2({(0, 0): 1, (1, 0): 3, (2, 0): 1,
              (1, 1): 3, (2, 1): 2,
              (2, 2): 3, (3, 3): 1})
A3_GAMMA = GammaTriangle.make({(0, 3): 1, (1, 1): 2, (1, 0): 1}, 3)


# Test-only building blocks for the oracles below: monomials and binomial
# powers as polynomials, written from the binomial theorem.
def mono1(c, e):
    return Poly1({e: c})


def mono2(c, i, j):
    return Poly2({(i, j): c})


def one_plus_x(n):
    return Poly1({k: comb(n, k) for k in range(n + 1)})


def one_minus_x(n):
    return Poly1({k: (-1) ** k * comb(n, k) for k in range(n + 1)})


def one_plus_xy(n):
    return Poly2({(k, k): comb(n, k) for k in range(n + 1)})


def one_plus_2x(n):
    return Poly2({(k, 0): comb(n, k) * 2**k for k in range(n + 1)})


def one_plus_x_plus_y(n):
    return Poly2({(a, b): comb(n, a) * comb(n - a, b)
                  for a in range(n + 1) for b in range(n + 1 - a)})


def test_h_from_f_pentagon():
    assert h_from_f(Poly1({0: 1, 1: 5, 2: 5}), 2) == Poly1({0: 1, 1: 3, 2: 1})


def test_h_from_f_trivial():
    assert h_from_f(Poly1.one(), 0) == Poly1.one()


def test_h_from_f_path():
    assert h_from_f(Poly1({0: 1, 1: 3, 2: 2}), 2) == Poly1({0: 1, 1: 1})


def test_h_from_f_degree_error():
    with pytest.raises(ValueError):
        h_from_f(Poly1({3: 1}), 2)


def test_f_from_h_pentagon():
    assert f_from_h(Poly1({0: 1, 1: 3, 2: 1}), 2) == Poly1({0: 1, 1: 5, 2: 5})


def test_f_from_h_simplex_boundary():
    assert f_from_h(Poly1.one(), 3) == Poly1({0: 1, 1: 3, 2: 3, 3: 1})


@given(st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6),
       st.integers(0, 8))
def test_f_h_round_trip(fd, d):
    f = Poly1({e: c for e, c in fd.items() if e <= d})
    assert f_from_h(h_from_f(f, d), d) == f


def test_gamma_from_h_pentagon():
    assert gamma_from_h(Poly1({0: 1, 1: 3, 2: 1}), 2) == (1, 1)


def test_gamma_from_h_constant():
    assert gamma_from_h(Poly1.one(), 0) == (1,)


def test_gamma_from_h_negative_entry():
    assert gamma_from_h(Poly1({0: 1, 2: 1}), 2) == (1, -2)


def test_gamma_from_h_rejects_asymmetric():
    with pytest.raises(NotGammaRepresentable):
        gamma_from_h(Poly1({0: 1, 1: 1}), 2)


def test_H_from_F_pentagon():
    assert H_from_F(PENTAGON_F, 2) == PENTAGON_H


def test_H_from_F_single_facet_vertex():
    assert H_from_F(Poly2({(0, 0): 1, (0, 1): 1}), 1) == Poly2(
        {(0, 0): 1, (1, 0): -1, (1, 1): 1})


def test_H_from_F_a3():
    assert H_from_F(A3_F, 3) == A3_H


def test_H_from_F_domain_error():
    with pytest.raises(ValueError):
        H_from_F(Poly2({(2, 1): 1}), 2)


def test_F_from_H_pentagon():
    assert F_from_H(PENTAGON_H, 2) == PENTAGON_F


def test_F_from_H_constant():
    assert F_from_H(Poly2.one(), 2) == Poly2({(0, 0): 1, (1, 0): 2, (2, 0): 1})


def test_F_from_H_rejects_bad_shape():
    with pytest.raises(ValueError):
        F_from_H(Poly2({(0, 1): 1}), 2)


def test_Gamma_from_H_pentagon():
    assert Gamma_from_H(PENTAGON_H, 2) == GammaTriangle.make(
        {(0, 2): 1, (1, 0): 1}, 2)


def test_Gamma_from_H_triangle_has_negative_entry():
    # the 3-gon with an edge facet: H = 1 - x + 2xy + x^2 y^2
    h3 = Poly2({(0, 0): 1, (1, 0): -1, (1, 1): 2, (2, 2): 1})
    gt = Gamma_from_H(h3, 2)
    assert gt == GammaTriangle.make({(0, 2): 1, (1, 0): -1}, 2)
    assert gt.entry(1, 0) == -1


def test_Gamma_from_H_rejects_a_slice_not_divisible_by_x_to_the_j():
    with pytest.raises(NotGammaRepresentable, match=r"not divisible by x\^1") as exc:
        Gamma_from_H(Poly2({(0, 1): 1}), 1)
    assert exc.value.j == 1


def test_Gamma_from_H_names_the_highest_slice_not_divisible_by_x_to_the_j():
    with pytest.raises(NotGammaRepresentable, match=r"y\^2 slice") as exc:
        Gamma_from_H(Poly2({(0, 1): 1, (1, 2): 1, (3, 3): 1}), 3)
    assert exc.value.j == 2


def test_Gamma_from_H_a3():
    assert Gamma_from_H(A3_H, 3) == A3_GAMMA


def test_H_from_Gamma_pentagon():
    assert H_from_Gamma(GammaTriangle.make({(0, 2): 1, (1, 0): 1}, 2)) \
        == PENTAGON_H


def test_H_from_Gamma_a3_expansion():
    # (1+xy)^3 + 2x(1+xy) + x(1+x), expanded by hand
    assert H_from_Gamma(A3_GAMMA) == A3_H


def test_H_from_Gamma_unit():
    assert H_from_Gamma(GammaTriangle.make({(0, 0): 1}, 0)) == Poly2.one()


def test_F_from_Gamma_pentagon():
    assert F_from_Gamma(GammaTriangle.make({(0, 2): 1, (1, 0): 1}, 2)) \
        == PENTAGON_F


def test_F_from_Gamma_point_pair():
    assert F_from_Gamma(GammaTriangle.make({(0, 1): 1}, 1)) == Poly2(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def test_F_from_Gamma_a3():
    assert F_from_Gamma(A3_GAMMA) == A3_F


def test_gamma_triangle_shape_validation():
    with pytest.raises(ValueError):
        GammaTriangle.make({(2, 1): 1}, 4)
    GammaTriangle.make({(2, 0): 1}, 4)


def test_gamma_triangle_raw_constructor_checks_shape_and_zeros():
    # an entry outside the triangle would make row_sums raise IndexError,
    # and a stored zero would make equal triangles compare unequal
    with pytest.raises(ValueError, match=r"entry \(5, 5\) outside the triangle"):
        GammaTriangle({(5, 5): 1}, 0)
    with pytest.raises(ValueError, match=r"entry \(0, -1\) outside"):
        GammaTriangle({(0, -1): 1}, 2)
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is zero"):
        GammaTriangle({(0, 0): 0}, 0)
    assert GammaTriangle.make({(0, 0): 0}, 0) == GammaTriangle({}, 0)
    assert GammaTriangle({(1, 0): 2}, 2).row_sums() == (0, 2)


gamma_triangles = st.integers(0, 8).flatmap(
    lambda d: st.builds(
        lambda cs: GammaTriangle.make(
            {k: c for k, c in cs.items() if 2 * k[0] + k[1] <= d}, d),
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 8)),
            st.integers(-4, 4), max_size=8)))


@settings(max_examples=200)
@given(gamma_triangles)
def test_gamma_H_round_trip(g):
    assert Gamma_from_H(H_from_Gamma(g), g.degree) == g


@settings(max_examples=200)
@given(gamma_triangles)
def test_F_routes_agree(g):
    H = H_from_Gamma(g)
    F = F_from_H(H, g.degree)
    assert F == F_from_Gamma(g)
    assert H_from_F(F, g.degree) == H


@settings(max_examples=200)
@given(gamma_triangles)
def test_specialization_chain(g):
    H = H_from_Gamma(g)
    F = F_from_H(H, g.degree)
    h = H.substitute_y(1)
    assert F.substitute_y("x") == f_from_h(h, g.degree)
    assert gamma_from_h(h, g.degree) == g.row_sums() + (0,) * (
        g.degree // 2 + 1 - len(g.row_sums()))


def test_row_helpers():
    assert A3_GAMMA.row(0) == Poly1({1: 1})
    assert A3_GAMMA.row_sums() == (1, 3)
    assert poly_from_gamma((1, 3)) == Poly1({0: 1, 1: 3})
    assert A3_GAMMA.to_poly2() == Poly2({(0, 3): 1, (1, 1): 2, (1, 0): 1})


def test_gamma_triangle_serialization():
    d = A3_GAMMA.to_dict()
    entries = {(i, j): int(c) for i, j, c in d["entries"]}
    assert GammaTriangle.make(entries, d["degree"]) == A3_GAMMA


# The residual-peeling extractions that gamma_from_h and Gamma_from_H
# replaced, kept as oracles: subtract each gamma_i x^i (1+x)^(d-2i), and
# each row's gamma_(i,j) x^i (1+xy)^j (1+x)^(d-2i-j), by descending j.
def peeled_gamma_from_h(h: Poly1, d: int) -> tuple:
    if h.degree() > d:
        raise ValueError(f"h has degree {h.degree()} > d = {d}")
    residual = h
    out = []
    for i in range(d // 2 + 1):
        gi = residual.coeff(i)
        out.append(gi)
        if gi:
            residual = residual - (mono1(gi, i) * one_plus_x(d - 2 * i))
    if not residual.is_zero():
        raise NotGammaRepresentable(f"gamma extraction left residual {residual}")
    return tuple(out)


def peeled_Gamma_from_H(H: Poly2, d: int) -> GammaTriangle:
    if H.deg_x() > d:
        raise NotGammaRepresentable(f"x-degree {H.deg_x()} exceeds d = {d}")
    residual = H
    coeffs = {}
    for j in range(d, -1, -1):
        slice_j = residual.coeff_of_y(j)
        if slice_j.is_zero():
            continue
        if min(e for e, _ in slice_j.items()) < j:
            raise NotGammaRepresentable(
                f"y^{j} slice {slice_j} not divisible by x^{j}", j=j)
        q = Poly1({e - j: c for e, c in slice_j.items()})
        try:
            row = peeled_gamma_from_h(q, d - j)
        except NotGammaRepresentable as exc:
            raise NotGammaRepresentable(
                f"row j = {j} not representable: {exc}", j=j)
        for i, gi in enumerate(row):
            if gi:
                coeffs[(i, j)] = gi
                residual = residual - (
                    mono2(gi, i, 0)
                    * one_plus_xy(j)
                    * one_plus_x(d - 2 * i - j).to_poly2())
    if not residual.is_zero():
        raise NotGammaRepresentable(
            f"triangle extraction left residual {residual}")
    return GammaTriangle.make(coeffs, d)


def outcome(extract, *args):
    """The value, or ("raised", j) for NotGammaRepresentable."""
    try:
        return extract(*args)
    except NotGammaRepresentable as exc:
        return "raised", exc.j


# gamma-representable H triangles, some of them perturbed in a term or two
# (a perturbation may break symmetry, x^j-divisibility or the degree bound)
perturbed_H = st.tuples(
    gamma_triangles,
    st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    st.integers(-2, 2), max_size=2),
).map(lambda t: (H_from_Gamma(t[0]) + Poly2(t[1]), t[0].degree))


@settings(max_examples=300)
@given(perturbed_H)
def test_Gamma_from_H_agrees_with_peeling(case):
    H, d = case
    new, old = outcome(Gamma_from_H, H, d), outcome(peeled_Gamma_from_H, H, d)
    if isinstance(old, GammaTriangle):
        assert new == old
    else:
        assert isinstance(new, tuple) and new[0] == "raised"
        if all(b <= a for (a, b), _ in H.items()):
            assert new[1] == old[1]


polys_of_degree = st.integers(0, 8).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1),
    st.booleans(), st.just(d)))


@settings(max_examples=300)
@given(polys_of_degree)
def test_gamma_from_h_raises_exactly_on_asymmetric_h(case):
    cs, symmetrize, d = case
    if symmetrize:
        cs = [cs[min(k, d - k)] for k in range(d + 1)]
    h = Poly1(dict(enumerate(cs)))
    symmetric = all(h.coeff(k) == h.coeff(d - k) for k in range(d + 1))
    got = outcome(gamma_from_h, h, d)
    assert outcome(peeled_gamma_from_h, h, d) == got
    if symmetric:
        assert Poly1.sum(mono1(g, i) * one_plus_x(d - 2 * i)
                         for i, g in enumerate(got)) == h
    else:
        assert got == ("raised", None)


# The Poly-product expansions that the binomial-row accumulations replaced,
# kept as oracles: each term is a monomial times binomial powers, multiplied
# out as polynomials and summed.
def product_h_from_f(f, d):
    if f.degree() > d:
        raise ValueError(f"f has degree {f.degree()} > d = {d}")
    return Poly1.sum(mono1(c, a) * one_minus_x(d - a) for a, c in f.items())


def product_f_from_h(h, d):
    if h.degree() > d:
        raise ValueError(f"h has degree {h.degree()} > d = {d}")
    return Poly1.sum(mono1(c, a) * one_plus_x(d - a) for a, c in h.items())


def product_H_from_F(F, d):
    for (i, j), _ in F.items():
        if i + j > d:
            raise ValueError(f"F entry ({i}, {j}) has i + j > d = {d}")
    return Poly2.sum(mono2(c, i + j, j) * one_minus_x(d - i - j).to_poly2()
                     for (i, j), c in F.items())


def product_F_from_H(H, d):
    for (a, b), _ in H.items():
        if b > a:
            raise ValueError(
                f"H entry ({a}, {b}) has y-degree exceeding x-degree")
        if a > d:
            raise ValueError(f"H entry ({a}, {b}) has x-degree > d = {d}")
    return Poly2.sum(mono2(c, a - b, b) * one_plus_x(d - a).to_poly2()
                     for (a, b), c in H.items())


def product_Gamma_from_H(H, d):
    """G = sum H_(a,b) x^(a-b) (z-1)^b as one Poly2, rows read off it."""
    if H.deg_x() > d:
        raise NotGammaRepresentable(f"x-degree {H.deg_x()} exceeds d = {d}")
    j = max((b for (a, b), _ in H.items() if b > a), default=None)
    if j is not None:
        raise NotGammaRepresentable(
            f"y^{j} slice {H.coeff_of_y(j)} not divisible by x^{j}", j=j)
    G = Poly2.sum(mono2(c * comb(b, k) * (-1) ** (b - k), a - b, k)
                  for (a, b), c in H.items() for k in range(b + 1))
    coeffs = {}
    for j in range(d, -1, -1):
        try:
            row = gamma_from_h(G.coeff_of_y(j), d - j)
        except NotGammaRepresentable as exc:
            raise NotGammaRepresentable(
                f"row j = {j} not representable: {exc}", j=j)
        coeffs.update(((i, j), gi) for i, gi in enumerate(row) if gi)
    return GammaTriangle.make(coeffs, d)


def product_H_from_Gamma(g):
    d = g.degree
    return Poly2.sum(mono2(c, i, 0) * one_plus_xy(j)
                     * one_plus_x(d - 2 * i - j).to_poly2()
                     for (i, j), c in g.items())


def product_F_from_Gamma(g):
    d = g.degree
    # (x(1+x))^i = x^i (1+x)^i
    return Poly2.sum(mono2(c, i, 0) * one_plus_x(i).to_poly2()
                     * one_plus_x_plus_y(j) * one_plus_2x(d - 2 * i - j)
                     for (i, j), c in g.items())


def result(fn, *args):
    """The value, or the exception's type, message and j."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "j", None)


def same_result(new, old, *args):
    got, want = result(new, *args), result(old, *args)
    assert got == want
    return got


degrees = st.integers(0, 8)
any_poly1 = st.dictionaries(st.integers(0, 10), st.integers(-9, 9),
                            max_size=6).map(Poly1)
any_poly2 = st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                            st.integers(-9, 9), max_size=6).map(Poly2)


@settings(max_examples=300)
@given(any_poly1, degrees)
def test_univariate_transforms_match_their_product_forms(p, d):
    same_result(h_from_f, product_h_from_f, p, d)
    same_result(f_from_h, product_f_from_h, p, d)


@settings(max_examples=300)
@given(any_poly2, degrees)
def test_bivariate_transforms_match_their_product_forms(P, d):
    same_result(H_from_F, product_H_from_F, P, d)
    same_result(F_from_H, product_F_from_H, P, d)
    same_result(Gamma_from_H, product_Gamma_from_H, P, d)


@settings(max_examples=300)
@given(perturbed_H)
def test_Gamma_from_H_matches_its_product_form(case):
    same_result(Gamma_from_H, product_Gamma_from_H, *case)


# every GammaTriangle: the raw constructor, like make, admits only nonzero
# entries inside the triangle
@settings(max_examples=300)
@given(gamma_triangles)
def test_gamma_expansions_match_their_product_forms(g):
    assert H_from_Gamma(g) == product_H_from_Gamma(g)
    assert F_from_Gamma(g) == product_F_from_Gamma(g)


@pytest.mark.parametrize("fn, oracle, args, match", [
    (h_from_f, product_h_from_f, (Poly1({5: 1}), 4), "f has degree 5 > d = 4"),
    (f_from_h, product_f_from_h, (Poly1({3: 2}), 2), "h has degree 3 > d = 2"),
    (H_from_F, product_H_from_F, (Poly2({(0, 0): 1, (2, 1): 1}), 2),
     r"F entry \(2, 1\) has i \+ j > d = 2"),
    (F_from_H, product_F_from_H, (Poly2({(1, 2): 1}), 3),
     r"H entry \(1, 2\) has y-degree exceeding x-degree"),
    (F_from_H, product_F_from_H, (Poly2({(4, 1): 1}), 3),
     r"H entry \(4, 1\) has x-degree > d = 3"),
])
def test_out_of_domain_input_raises_as_the_product_forms_do(fn, oracle, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)
    same_result(fn, oracle, *args)


def test_Gamma_from_H_divisibility_error_matches_its_product_form():
    H = Poly2({(0, 1): 1, (1, 2): 1, (3, 3): 1})
    assert same_result(Gamma_from_H, product_Gamma_from_H, H, 3) == (
        NotGammaRepresentable, "y^2 slice x not divisible by x^2", 2)


@pytest.mark.parametrize("fn, oracle, P, d, match", [
    (H_from_F, product_H_from_F, {(2, 1): 1, (0, 3): 1}, 2,
     r"F entry \(0, 3\) has i \+ j > d = 2"),
    (F_from_H, product_F_from_H, {(4, 1): 1, (1, 2): 1}, 3,
     r"H entry \(1, 2\) has y-degree exceeding x-degree"),
    (F_from_H, product_F_from_H, {(5, 0): 1, (4, 0): 1}, 3,
     r"H entry \(4, 0\) has x-degree > d = 3"),
])
def test_first_bad_entry_named_whatever_the_storage_order(fn, oracle, P, d, match):
    # the bad entries are stored largest first; the message names the
    # smallest, as a sorted scan would
    P = Poly2(P)
    assert list(P._c) == sorted(P._c, reverse=True)
    with pytest.raises(ValueError, match=match):
        fn(P, d)
    same_result(fn, oracle, P, d)
