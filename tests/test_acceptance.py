"""Acceptance suite: every criterion is an exact-equality check and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete."""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from gammatri import cluster, coxeter, series, subdivisions, transforms, verify
from gammatri.complexes import Complex, f_polynomial
from gammatri.poly import Poly1, Poly2
from gammatri.subdivisions import SphereWithFacet
from gammatri.transforms import GammaTriangle


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def polygon_complex(n):
    labels = [f"v{i}" for i in range(n)]
    return Complex.make(labels, [{labels[i], labels[(i + 1) % n]}
                                 for i in range(n)])


def test_criterion_1_polygon_family():
    with criterion("1 polygon-family"):
        for n in range(4, 13):
            s = cluster.dihedral_subdivision(n - 2)
            F = subdivisions.f_triangle(subdivisions.sphere(s))
            assert F == Poly2({(0, 0): 1, (1, 0): n - 2, (2, 0): n - 3,
                               (0, 1): 2, (1, 1): 2, (0, 2): 1}), n
            H = transforms.H_from_F(F, 2)
            assert H == Poly2({(0, 0): 1, (1, 0): n - 4,
                               (1, 1): 2, (2, 2): 1}), n
            assert transforms.Gamma_from_H(H, 2) == GammaTriangle.make(
                {(0, 2): 1, (1, 0): n - 4}, 2), n
        # n = 3: the triangle of 3 edges with an edge facet
        cpx = polygon_complex(3)
        sph = SphereWithFacet.make(cpx, {"v0", "v1"})
        H3 = transforms.H_from_F(subdivisions.f_triangle(sph), 2)
        assert transforms.Gamma_from_H(H3, 2).entry(1, 0) == -1


def test_criterion_2_a3_example():
    with criterion("2 type-A3-example"):
        s = cluster.type_a_subdivision(3)
        sph = subdivisions.sphere(s)
        F = subdivisions.f_triangle(sph)
        assert F == Poly2({(0, 0): 1, (1, 0): 6, (2, 0): 10, (3, 0): 5,
                           (0, 1): 3, (1, 1): 8, (2, 1): 5,
                           (0, 2): 3, (1, 2): 3, (0, 3): 1})
        facet_count = sum(c for (i, j), c in F.items() if i + j == 3)
        assert facet_count == 5 + 5 + 3 + 1 == 14
        H = transforms.H_from_F(F, 3)
        assert H == Poly2({(0, 0): 1, (1, 0): 3, (2, 0): 1,
                           (1, 1): 3, (2, 1): 2, (2, 2): 3, (3, 3): 1})
        assert H.substitute_y(1) == Poly1({0: 1, 1: 6, 2: 6, 3: 1})
        assert transforms.Gamma_from_H(H, 3) == GammaTriangle.make(
            {(0, 3): 1, (1, 1): 2, (1, 0): 1}, 3)


def test_criterion_3_three_way_agreement():
    with criterion("3 three-way-A1-A6"):
        start = time.monotonic()
        for n in range(1, 7):
            s = cluster.type_a_subdivision(n)
            by_model = verify.model_gamma(s)
            by_local_sum = subdivisions.gamma_from_local_sum(s)
            by_closed = coxeter.closed_gamma_triangle("A", n)
            assert by_model == by_local_sum == by_closed, n
        elapsed = time.monotonic() - start
        assert elapsed <= 30, f"took {elapsed:.1f}s"


def test_criterion_4_tables():
    with criterion("4 tables"):
        rep = verify.tables_report()
        for check in rep.checks:
            assert check.ok, f"{check.name}: {check.detail}"
        # rows j >= 1 of the exceptional tables really come from subdiagram
        # closed forms: the diagram route only consults storage at J = empty
        for name in ("F4", "H4", "E6", "E7", "E8"):
            assert coxeter.table_mismatches(name) == []


def test_criterion_5_series_identities_order_24():
    with criterion("5 series-identities-t24"):
        checks = series.verify_identities(24)
        assert {c.name for c in checks} == set(series.IDENTITY_NAMES)
        for check in checks:
            assert check.ok, f"{check.name}: {check.detail}"


def test_criterion_6_carlitz_convolutions():
    with criterion("6 carlitz-convolutions"):
        for check in series.carlitz_convolution_check():
            assert check.ok, f"{check.name}: {check.detail}"


def test_criterion_7_binomial_identity():
    with criterion("7 binomial-identity-n40"):
        (check,) = series.binomial_identity_check()
        assert check.ok, check.detail


def test_criterion_8_property_suites():
    with criterion("8 property-suites"):
        models = {f"A{n}": cluster.type_a_subdivision(n) for n in range(1, 7)}
        models.update({f"I2({m})": cluster.dihedral_subdivision(m)
                       for m in range(2, 13)})

        for name, s in models.items():
            d = len(s.index_set)
            sph = subdivisions.sphere(s)
            F = subdivisions.f_triangle(sph)
            H = transforms.H_from_F(F, d)
            assert F.substitute_y("x") == f_polynomial(sph.complex), name
            assert H.substitute_y(1) == transforms.h_from_f(
                f_polynomial(sph.complex), d), name
            lh = subdivisions.local_h(s)
            assert all(lh.coeff(i) == lh.coeff(d - i)
                       for i in range(d + 1)), name
            total = Poly1.zero()
            for r in range(d + 1):
                for J in combinations(s.index_set, r):
                    total = total + subdivisions.local_h(
                        subdivisions.sub_subdivision(s, frozenset(J)))
            assert total == transforms.h_from_f(f_polynomial(s.complex), d), name

        rng = random.Random(173)
        for _ in range(200):
            d = rng.randint(0, 8)
            f = Poly1({e: rng.randint(-5, 5) for e in range(d + 1)})
            assert transforms.f_from_h(transforms.h_from_f(f, d), d) == f
            coeffs = {}
            for i in range(d // 2 + 1):
                for j in range(d - 2 * i + 1):
                    if rng.random() < 0.5:
                        coeffs[(i, j)] = rng.randint(-4, 4)
            g = GammaTriangle.make(coeffs, d)
            H = transforms.H_from_Gamma(g)
            assert transforms.Gamma_from_H(H, d) == g
            F = transforms.F_from_H(H, d)
            assert transforms.H_from_F(F, d) == H
            h = H.substitute_y(1)
            vec = transforms.gamma_from_h(h, d)
            assert transforms.poly_from_gamma(vec) == \
                transforms.poly_from_gamma(g.row_sums())

        a2 = cluster.type_a_subdivision(2)
        joined = subdivisions.join_subdivisions(
            a2, cluster.type_a_subdivision(2))
        assert subdivisions.local_gamma(joined) == Poly1({2: 1})

        for n in range(1, 7):
            counts = cluster.count_roots_by_support(n)
            gt = coxeter.closed_gamma_triangle("A", n)
            for l in range(max(n - 1, 0)):
                assert gt.entry(1, l) == counts.get(n - l, 0), (n, l)

        assert coxeter.pell_discriminant_check()

        produced = [coxeter.gamma_triangle_diagram(
            coxeter.standard_diagram(k, r))
            for k, r in (("A", 6), ("B", 6), ("D", 6), ("E6", 6), ("E7", 7),
                         ("E8", 8), ("F4", 4), ("H3", 3), ("H4", 4))]
        produced += [coxeter.rank23_formula(h, 2) for h in range(2, 13)]
        for gt in produced:
            assert all(c >= 0 for _, c in gt.items())
            for j in range(gt.degree + 1):
                if gt.degree >= 1:
                    assert gt.entry(0, j) == (1 if j == gt.degree else 0)


def test_criterion_9_three_way_agreement_a7():
    with criterion("9 three-way-A7"):
        s = cluster.type_a_subdivision(7)
        by_model = verify.model_gamma(s)
        by_local_sum = subdivisions.gamma_from_local_sum(s)
        by_closed = coxeter.closed_gamma_triangle("A", 7)
        assert by_model == by_local_sum == by_closed


def test_criterion_10_series_identities_order_48():
    with criterion("10 series-identities-t48"):
        checks = series.verify_identities(48)
        assert {c.name for c in checks} == set(series.IDENTITY_NAMES)
        for check in checks:
            assert check.ok, f"{check.name}: {check.detail}"


def test_criterion_11_three_way_agreement_a8():
    with criterion("11 three-way-A8"):
        s = cluster.type_a_subdivision(8)
        by_model = verify.model_gamma(s)
        by_local_sum = subdivisions.gamma_from_local_sum(s)
        by_closed = coxeter.closed_gamma_triangle("A", 8)
        assert by_model == by_local_sum == by_closed
