"""Verification suites: stored tables, generating-series identities, and
model/formula cross-checks. Each suite returns a Report; everything is an
exact-equality check."""

from __future__ import annotations

import random
from itertools import combinations

from . import cluster, coxeter, series, subdivisions, transforms
from .complexes import Complex, f_polynomial, is_flag
from .poly import Poly1
from .report import Report
from .subdivisions import Subdivision, model_gamma
from .transforms import GammaTriangle

DEFAULT_ORDER = 24
DEFAULT_MAX_RANK = 6
ROUNDTRIP_CASES = 200


def tables_report() -> Report:
    """Reproduce every stored triangle and the rank 2/3 formula families."""
    rep = Report("tables")
    for h in range(2, 13):
        formula = coxeter.rank23_formula(h, 2)
        model = model_gamma(cluster.dihedral_subdivision(h))
        diagram = coxeter.gamma_triangle_diagram(
            coxeter.standard_diagram("I2", m=h))
        ok = formula == model == diagram
        rep.add(f"rank2_h{h}", ok,
                "formula == model == diagram" if ok else
                f"formula {dict(formula.items())}, model {dict(model.items())}")
    rank3_types = {2: ("A1^3", None), 4: ("A", 3), 6: ("B", 3), 10: ("H3", 3)}
    for h, (label, rank) in rank3_types.items():
        formula = coxeter.rank23_formula(h, 3)
        if label == "A1^3":
            dgm = coxeter.CoxeterDiagram.make(["a", "b", "c"], [])
        else:
            dgm = coxeter.standard_diagram(label, rank)
        recomputed = coxeter.gamma_triangle_diagram(dgm)
        ok = formula == recomputed
        rep.add(f"rank3_h{h}", ok, f"matches {label}" if ok else
                f"formula {dict(formula.items())} != {dict(recomputed.items())}")
    for name in coxeter.reference_tables():
        mismatches = coxeter.table_mismatches(name)
        rep.add(f"table_{name}", not mismatches,
                "reproduced entrywise" if not mismatches else
                "; ".join(f"({i},{j}) expected {w} got {g}"
                          for _, i, j, w, g in mismatches))
    for prefix, kind, least in (("closed", "A", 1), ("closed", "B", 2),
                                ("assembled", "D", 4)):
        for n in range(least, 9):
            ok = (coxeter.closed_triangle(kind, n)
                  == coxeter.gamma_triangle_diagram(coxeter.standard_diagram(kind, n)))
            rep.add(f"{prefix}_{kind}{n}", ok)
    rep.add("assembled_D3_is_A3",
            coxeter.closed_triangle("D", 3) == coxeter.closed_triangle("A", 3))
    return rep


def check_order(order: int) -> None:
    """series_report's checks of its order, which build nothing."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    series.check_identity_order(order)


def check_max_rank(max_rank: int) -> None:
    """crosscheck_report's check of its max rank."""
    if max_rank < 1:
        raise ValueError(f"max rank must be >= 1, got {max_rank}")


def series_report(order: int = DEFAULT_ORDER) -> Report:
    check_order(order)
    rep = Report(f"series (order {order})")
    rep.extend(series.verify_identities(order))
    rep.extend(series.carlitz_convolution_check())
    rep.extend(series.binomial_identity_check())
    GA = series.G_closed("A", 9)  # G_sum would repeat tables' closed_A checks
    for n in range(1, 9):
        want = coxeter.gamma_triangle_diagram(
            coxeter.standard_diagram("A", n)).to_poly2()
        got = GA.coeff(n)
        rep.add(f"GA_coefficient_t{n}", want == got,
                "matches the diagram triangle" if want == got else
                f"series {got} != diagram {want}")
    return rep


def _random_gamma_triangle(rng: random.Random) -> GammaTriangle:
    d = rng.randint(0, 8)
    coeffs = {}
    for i in range(d // 2 + 1):
        for j in range(d - 2 * i + 1):
            if rng.random() < 0.4:
                coeffs[(i, j)] = rng.randint(-4, 4)
    return GammaTriangle.make(coeffs, d)


def _random_poly1(rng: random.Random, deg: int) -> Poly1:
    return Poly1({e: rng.randint(-5, 5) for e in range(deg + 1)})


def crosscheck_report(max_rank: int = DEFAULT_MAX_RANK) -> Report:
    """Three-way triangle agreement on the type A models plus the module
    invariants: specializations, round trips, local-h properties, join
    multiplicativity, root-support counts and the sign observations."""
    check_max_rank(max_rank)
    rep = Report(f"crosscheck (max rank {max_rank})")
    rng = random.Random(20240917)

    models = {f"A{n}": cluster.type_a_subdivision(n)
              for n in range(1, max_rank + 1)}
    models.update({f"I2({m})": cluster.dihedral_subdivision(m)
                   for m in range(2, 7)})

    # each model's sphere, F, H, model and local-sum triangles, built once
    routes = {}
    for name, s in models.items():
        d = len(s.index_set)
        sph = subdivisions.sphere(s)
        F = subdivisions.f_triangle(sph)
        H = transforms.H_from_F(F, d)
        routes[name] = (sph, F, H, transforms.Gamma_from_H(H, d),
                        subdivisions.gamma_from_local_sum(s))

    for n in range(1, max_rank + 1):
        *_, by_model, by_local = routes[f"A{n}"]
        by_formula = coxeter.closed_triangle("A", n)
        ok = by_model == by_local == by_formula
        rep.add(f"three_way_A{n}", ok,
                "model == local-sum == closed form" if ok else
                f"model {dict(by_model.items())}, local {dict(by_local.items())}, "
                f"closed {dict(by_formula.items())}")

    for name, s in models.items():
        d = len(s.index_set)
        sph, F, H, gt, by_local = routes[name]
        f = f_polynomial(sph.complex)  # a face list, against F's clique-tree count
        rep.add(f"F(x,x)=f_{name}", F.substitute_y("x") == f)
        rep.add(f"H(x,1)=h_{name}", H.substitute_y(1) == transforms.h_from_f(f, d))
        rep.add(f"H_two_routes_{name}",
                H == subdivisions.h_triangle_direct(s))
        lh = subdivisions.local_h(s)
        rep.add(f"local_h_symmetric_{name}",
                all(lh.coeff(i) == lh.coeff(d - i) for i in range(d + 1)))
        mob = Poly1.sum(
            subdivisions.local_h(subdivisions.sub_subdivision(s, frozenset(J)))
            for r in range(d + 1) for J in combinations(s.index_set, r))
        rep.add(f"moebius_inversion_{name}",
                mob == transforms.h_from_f(f_polynomial(s.complex), d))
        rep.add(f"gamma_row_sums_{name}",
                gt.row_sums() == transforms.gamma_from_h(H.substitute_y(1), d))
        rep.add(f"local_gamma_is_y0_row_{name}",
                gt.row(0) == subdivisions.local_gamma(s))
        # built from facets on the generic path: the flag path's clique complex
        by_facets = subdivisions.sphere(Subdivision(
            Complex(s.complex.vertices, s.complex.facets), s.index_set, s.carriers))
        rep.add(f"sphere_flag_{name}", is_flag(by_facets.complex)
                and by_facets.complex.facets == sph.complex.facets)

    a2 = cluster.type_a_subdivision(2)
    joined = subdivisions.join_subdivisions(a2, cluster.type_a_subdivision(2))
    prod = subdivisions.local_gamma(a2) * subdivisions.local_gamma(a2)
    got = subdivisions.local_gamma(joined)
    rep.add("join_multiplicativity_A2_A2",
            got == prod and got == Poly1({2: 1}),
            f"local gamma of the join is {got}")

    for n in range(1, max_rank + 1):
        counts = cluster.count_roots_by_support(n)
        gt = coxeter.closed_triangle("A", n)
        ok = all(gt.entry(1, l) == counts.get(n - l, 0)
                 for l in range(0, max(n - 1, 0)))
        rep.add(f"root_support_counts_A{n}", ok)

    rep.add("pell_discriminant_is_I2_6", coxeter.pell_discriminant_check())

    produced = [coxeter.gamma_triangle_diagram(coxeter.standard_diagram(k, r))
                for k, r in (("A", 5), ("B", 5), ("D", 5), ("E6", 6),
                             ("F4", 4), ("H4", 4))]
    produced += [coxeter.rank23_formula(h, 2) for h in range(2, 13)]
    rep.add("observed_nonnegativity",
            all(c >= 0 for gt in produced for _, c in gt.items()),
            "all produced cluster-type entries are >= 0 (observation)")
    rep.add("gamma_0j_unit_top",
            all(gt.entry(0, j) == (1 if j == gt.degree else 0)
                for gt in produced for j in range(gt.degree + 1)),
            "gamma_(0,j) = [j = d] on connected cluster types")

    ok_fh = ok_hg = ok_hgamma = True
    for _ in range(ROUNDTRIP_CASES):
        d = rng.randint(0, 8)
        f = _random_poly1(rng, d)
        if transforms.f_from_h(transforms.h_from_f(f, d), d) != f:
            ok_fh = False
        g = _random_gamma_triangle(rng)
        H = transforms.H_from_Gamma(g)
        if transforms.Gamma_from_H(H, g.degree) != g:
            ok_hgamma = False
        F = transforms.F_from_H(H, g.degree)
        if F != transforms.F_from_Gamma(g):
            ok_hgamma = False
        if transforms.H_from_F(F, g.degree) != H:
            ok_fh = False
        vec = transforms.gamma_from_h(H.substitute_y(1), g.degree)
        if transforms.poly_from_gamma(vec) != transforms.poly_from_gamma(
                g.row_sums()):
            ok_hg = False
    detail = f"{ROUNDTRIP_CASES} randomized cases"
    rep.add("roundtrip_f_h_F_H", ok_fh, detail)
    rep.add("roundtrip_gamma_triangle", ok_hgamma, detail)
    rep.add("gamma_vector_refinement", ok_hg, detail)
    return rep


def all_report(order: int = DEFAULT_ORDER,
               max_rank: int = DEFAULT_MAX_RANK) -> list[Report]:
    """Every suite; both numbers are checked before any suite runs."""
    check_order(order)
    check_max_rank(max_rank)
    return [tables_report(), series_report(order), crosscheck_report(max_rank)]
