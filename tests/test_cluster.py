from math import comb

import pytest

from gammatri.cluster import (
    count_roots_by_support,
    crosses,
    dihedral_subdivision,
    polygon_diagonals,
    snake_diagonals,
    type_a_subdivision,
)
from gammatri.complexes import Complex, f_vector, is_flag
from gammatri.coxeter import closed_gamma_triangle, local_gamma_poly, TypedComponent
from gammatri.poly import Poly1
from gammatri.subdivisions import (
    Subdivision,
    f_triangle,
    local_gamma,
    sphere,
    sub_subdivision,
)
from gammatri.transforms import Gamma_from_H, GammaTriangle, H_from_F
from gammatri.verify import model_gamma


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# Test-only oracles: the label-built models that the clique search replaced.

def polygon_triangulations(size: int) -> list[frozenset[tuple[int, int]]]:
    """All triangulations of the convex polygon 0 .. size-1, each as a
    frozenset of size-3 pairwise noncrossing diagonals."""

    def rec(i, j):
        if j - i < 2:
            yield frozenset()
            return
        for k in range(i + 1, j):
            for left in rec(i, k):
                for right in rec(k, j):
                    diags = set(left) | set(right)
                    if k - i >= 2:
                        diags.add((i, k))
                    if j - k >= 2:
                        diags.add((k, j))
                    yield frozenset(diags)

    return list(rec(0, size - 1))


def diag_label(d) -> str:
    a, b = sorted(d)
    return f"{a}-{b}"


def type_a_by_triangulations(n: int) -> Subdivision:
    """The type A model with the triangulations avoiding the snake as its
    facets, built from labels through Complex.make and Subdivision.make."""
    size = n + 3
    snake = snake_diagonals(n)
    snake_set = set(snake)
    positive = [d for d in polygon_diagonals(size) if d not in snake_set]
    facets = [frozenset(diag_label(d) for d in tri)
              for tri in polygon_triangulations(size)
              if not (tri & snake_set)]
    sigma = {diag_label(d): {f"s{i}" for i, s in enumerate(snake, start=1) if crosses(d, s)}
             for d in positive}
    index_set = [f"s{i}" for i in range(1, n + 1)]
    return Subdivision.make(Complex.make(list(sigma), facets), index_set, sigma)


def dihedral_by_labels(m: int) -> Subdivision:
    """The dihedral path model built from labels through Complex.make and
    Subdivision.make."""
    labels = [f"p{i}" for i in range(1, m + 1)]
    facets = [frozenset((labels[i], labels[i + 1])) for i in range(m - 1)]
    sigma = {v: frozenset(("s1", "s2")) for v in labels}
    sigma[labels[0]] = frozenset(("s1",))
    sigma[labels[-1]] = frozenset(("s2",))
    return Subdivision.make(Complex.make(labels, facets), ["s1", "s2"], sigma)


@pytest.mark.parametrize("n", range(1, 9))
def test_type_a_model_equals_the_label_built_model(n):
    # equal vertices, index set and carriers, each in the same order, and the
    # facets are the triangulations avoiding the snake, in the same order
    assert type_a_subdivision(n) == type_a_by_triangulations(n)


@pytest.mark.parametrize("m", range(2, 13))
def test_dihedral_model_equals_the_label_built_model(m):
    assert dihedral_subdivision(m) == dihedral_by_labels(m)


@pytest.mark.parametrize("m", range(2, 13))
def test_dihedral_model_is_the_clique_complex_of_its_path(m):
    # built from the path's neighbour masks, so flag with no test, and its
    # facets, built when first read, are the path's edges
    cpx = dihedral_subdivision(m).complex
    assert cpx._flag and "facets" not in vars(cpx)
    assert cpx.facets == Complex.from_masks(cpx.vertices, [3 << i for i in range(m - 1)]).facets


def test_crossing_rule():
    assert crosses((0, 2), (1, 3))
    assert crosses((1, 3), (0, 2))
    assert not crosses((0, 2), (2, 4))  # shared endpoint
    assert not crosses((0, 2), (3, 5))
    assert not crosses((1, 4), (2, 3))  # nested


@pytest.mark.parametrize("n", range(1, 7))
def test_snake_is_a_triangulation(n):
    snake = snake_diagonals(n)
    assert len(snake) == n
    assert len(set(snake)) == n
    diags = set(polygon_diagonals(n + 3))
    assert set(snake) <= diags
    assert not any(crosses(a, b) for a in snake for b in snake if a != b)


def test_snake_convention():
    # zig-zag starting at vertex 1: documented closed form
    assert snake_diagonals(1) == [(1, 3)]
    assert snake_diagonals(2) == [(1, 4), (1, 3)]
    assert snake_diagonals(4) == [(1, 6), (1, 5), (2, 5), (2, 4)]


@pytest.mark.parametrize("size", range(4, 10))
def test_triangulation_count_is_catalan(size):
    tris = polygon_triangulations(size)
    assert len(tris) == catalan(size - 2)
    assert all(len(t) == size - 3 for t in tris)
    assert len(set(tris)) == len(tris)


def test_type_a_rejects_rank_zero():
    with pytest.raises(ValueError):
        type_a_subdivision(0)


def test_type_a_rank_1():
    s = type_a_subdivision(1)
    assert len(s.complex.vertices) == 1
    assert s.sigma[s.complex.vertices[0]] == frozenset(["s1"])
    assert f_vector(sphere(s).complex) == (1, 2)


def test_type_a_rank_2_is_path():
    s = type_a_subdivision(2)
    assert f_vector(s.complex) == (1, 3, 2)
    carriers = sorted(sorted(c) for c in s.sigma.values())
    assert carriers == [["s1"], ["s1", "s2"], ["s2"]]


def test_type_a_rank_3_shape():
    s = type_a_subdivision(3)
    assert len(s.complex.vertices) == 6
    sph = sphere(s)
    F = f_triangle(sph)
    assert F.coeff(3, 0) + F.coeff(2, 1) + F.coeff(1, 2) + F.coeff(0, 3) == 14
    assert model_gamma(s) == GammaTriangle.make(
        {(0, 3): 1, (1, 1): 2, (1, 0): 1}, 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_sphere_facet_count_is_catalan(n):
    sph = sphere(type_a_subdivision(n))
    assert len(sph.complex.facets) == catalan(n + 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_diagonal_counts(n):
    s = type_a_subdivision(n)
    assert len(s.complex.vertices) == (n + 3) * n // 2 - n


@pytest.mark.parametrize("n", range(1, 6))
def test_sphere_is_flag(n):
    # built from the facets, the sphere takes the generic path; it must be
    # flag and the clique complex that the flag path builds from the graph
    s = type_a_subdivision(n)
    by_facets = sphere(Subdivision(Complex(s.complex.vertices, s.complex.facets),
                                   s.index_set, s.carriers)).complex
    assert not by_facets._flag
    assert is_flag(by_facets) and by_facets.facets == sphere(s).complex.facets


def test_dihedral_rejects_small():
    with pytest.raises(ValueError):
        dihedral_subdivision(1)


def test_dihedral_gammas():
    assert model_gamma(dihedral_subdivision(3)) == GammaTriangle.make(
        {(0, 2): 1, (1, 0): 1}, 2)
    assert model_gamma(dihedral_subdivision(2)) == GammaTriangle.make(
        {(0, 2): 1}, 2)
    assert model_gamma(dihedral_subdivision(6)) == GammaTriangle.make(
        {(0, 2): 1, (1, 0): 4}, 2)


def test_count_roots_by_support():
    assert count_roots_by_support(3) == {2: 2, 3: 1}
    assert count_roots_by_support(1) == {}
    assert count_roots_by_support(4) == {2: 3, 3: 2, 4: 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_gamma_1l_counts_roots_by_support(n):
    counts = count_roots_by_support(n)
    gt = closed_gamma_triangle("A", n)
    for l in range(max(n - 1, 0)):
        assert gt.entry(1, l) == counts.get(n - l, 0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_parabolic_restrictions_factor(n):
    """Restricting the type A model to an index subset splits it into
    smaller type A models along runs of consecutive indices."""
    s = type_a_subdivision(n)
    import itertools
    for r in range(n + 1):
        for J in itertools.combinations(range(1, n + 1), r):
            sub = sub_subdivision(s, frozenset(f"s{i}" for i in J))
            expected = Poly1.one()
            run = 0
            for i in range(1, n + 2):
                if i in J:
                    run += 1
                elif run:
                    expected = expected * local_gamma_poly(
                        TypedComponent("A", run))
                    run = 0
            assert local_gamma(sub) == expected, (n, J)


def test_export_round_trips_through_json():
    s = type_a_subdivision(3)
    again = Subdivision.from_dict(s.to_dict())
    assert model_gamma(again) == model_gamma(s)
