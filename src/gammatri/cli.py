"""Command-line frontend.

Subcommands:
  triangles  F/H/Gamma of a complex-with-facet or of a subdivision's sphere
  cluster    Gamma-triangle of a named finite type (model / formula / local-sum)
  diagram    Gamma-triangle of a Coxeter diagram file
  local      local h and local gamma of a subdivision file
  series     coefficients of the generating series, closed or summed route
  family     terms of the Lucas/Pell triangle recursions
  verify     run the verification suites (exit code 0 iff everything passes)

Output is deterministic; --out switches between the human table layout and
JSON; --version prints the package version. The only recognized environment
variable is NO_COLOR, which disables the pass/fail coloring of verify.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, cluster, coxeter, series, subdivisions, transforms, verify
from .complexes import Complex, InvalidComplex
from .coxeter import ClassificationError, CoxeterDiagram
from .render import render_triangle
from .subdivisions import InvalidSubdivision, SphereWithFacet, Subdivision
from .transforms import GammaTriangle, NotGammaRepresentable


class CliError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"{path}: cannot read ({exc})")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON ({exc})")


def _load_subdivision(path: str) -> Subdivision:
    try:
        return Subdivision.from_dict(_load_json(path))
    except (InvalidSubdivision, InvalidComplex) as exc:
        raise CliError(f"{path}: {exc}")


def _print_triangles(F, H, gt: GammaTriangle, d: int, out: str) -> None:
    vec = gt.row_sums()
    if out in ("table", "both"):
        print(f"d = {d}")
        print("F-triangle (rows j = d..0, columns i = 0..d):")
        print(render_triangle(F, d, "F"))
        print("H-triangle:")
        print(render_triangle(H, d, "H"))
        print("Gamma-triangle:")
        print(render_triangle(gt, d, "Gamma"))
        print(f"gamma-vector (row sums): {list(vec)}")
    if out in ("json", "both"):
        print(json.dumps({
            "d": d,
            "F": F.to_triples(),
            "H": H.to_triples(),
            "Gamma": gt.to_dict(),
            "gamma_vector": [str(c) for c in vec],
        }, indent=2))


def cmd_triangles(args) -> int:
    if bool(args.complex) == bool(args.subdivision):
        raise CliError("give exactly one of --complex (with --facet) or --subdivision")
    if args.complex:
        if not args.facet:
            raise CliError("--complex needs --facet with comma-separated vertex labels")
        try:
            cpx = Complex.from_dict(_load_json(args.complex))
            sph = SphereWithFacet.make(
                cpx, frozenset(v.strip() for v in args.facet.split(",")))
        except InvalidComplex as exc:
            raise CliError(f"{args.complex}: {exc}")
        d = len(sph.facet)
    else:
        s = _load_subdivision(args.subdivision)
        sph = subdivisions.sphere(s)
        d = len(s.index_set)
    F = subdivisions.f_triangle(sph)
    try:
        H = transforms.H_from_F(F, d)
        gt = transforms.Gamma_from_H(H, d)
    except NotGammaRepresentable as exc:
        print(f"Gamma-triangle not representable: {exc}", file=sys.stderr)
        return 1
    _print_triangles(F, H, gt, d, args.out)
    return 0


# the combinatorial models and closed forms by kind, as parse_type names it
MODELS = {
    "A": lambda rank, m: cluster.type_a_subdivision(rank),
    "I2": lambda rank, m: cluster.dihedral_subdivision(m),
}
FORMULAS = {
    "A": lambda rank, m: coxeter.closed_gamma_triangle("A", rank),
    "B": lambda rank, m: coxeter.closed_gamma_triangle("B", rank),
    "D": lambda rank, m: coxeter.gamma_triangle_D(rank),
    "I2": lambda rank, m: coxeter.rank23_formula(m, 2),
    "H3": lambda rank, m: coxeter.rank23_formula(10, 3),
}


def _cluster_gamma(kind: str, rank: int, m: int | None,
                   method: str) -> GammaTriangle:
    if method == "model":
        if kind not in MODELS:
            raise CliError(f"method 'model' supports types A and I2, not {kind}")
        return subdivisions.model_gamma(MODELS[kind](rank, m))
    if method == "formula" and kind in FORMULAS and (kind, rank) != ("D", 2):
        return FORMULAS[kind](rank, m)
    # every other kind, and D2, which gamma_triangle_D rejects: the subset
    # sum over the diagram IS the formula, with stored local data for the
    # full diagram
    return coxeter.gamma_triangle_diagram(coxeter.standard_diagram(kind, rank, m))


def cmd_cluster(args) -> int:
    kind, rank, m = coxeter.parse_type(args.type, args.rank, args.m)
    gt = _cluster_gamma(kind, rank, m, args.method)
    if args.export:
        if kind not in MODELS:
            raise CliError(f"--export needs a combinatorial model (A or I2), not {kind}")
        try:
            with open(args.export, "w", encoding="utf-8") as fh:
                json.dump(MODELS[kind](rank, m).to_dict(), fh, indent=2)
        except OSError as exc:
            raise CliError(f"{args.export}: cannot write ({exc})")
        print(f"model written to {args.export}")
    if args.out in ("table", "both"):
        print(f"Gamma-triangle (d = {gt.degree}, method {args.method}):")
        print(render_triangle(gt, gt.degree, "Gamma"))
        print(f"gamma-vector (row sums): {list(gt.row_sums())}")
    if args.out in ("json", "both"):
        print(json.dumps(gt.to_dict(), indent=2))
    return 0


def cmd_diagram(args) -> int:
    try:
        dgm = CoxeterDiagram.from_dict(_load_json(args.file))
        components = coxeter.classify(dgm)
        gt = coxeter.gamma_triangle_diagram(dgm)
    except ClassificationError as exc:
        raise CliError(f"{args.file}: {exc}")
    if args.out in ("table", "both"):
        print("components:", ", ".join(str(c) for c in components))
        print(f"Gamma-triangle (d = {gt.degree}):")
        print(render_triangle(gt, gt.degree, "Gamma"))
    if args.out in ("json", "both"):
        print(json.dumps({
            "components": [str(c) for c in components],
            "Gamma": gt.to_dict(),
        }, indent=2))
    return 0


def cmd_local(args) -> int:
    s = _load_subdivision(args.file)
    lh = subdivisions.local_h(s)
    try:
        lg = subdivisions.local_gamma(s)
    except NotGammaRepresentable as exc:
        print(f"local gamma not representable: {exc}", file=sys.stderr)
        return 1
    if args.out in ("table", "both"):
        print(f"validation checks run: {', '.join(subdivisions.VALIDATION_CHECKS)}")
        print(f"local h:     {lh}")
        print(f"local gamma: {lg}")
    if args.out in ("json", "both"):
        print(json.dumps({
            "local_h": lh.to_pairs(),
            "local_gamma": lg.to_pairs(),
        }, indent=2))
    return 0


SERIES_BUILDERS = {
    "g": {"closed": series.g_base, "sum": series.eq_c_series},
    "gA": {"closed": lambda n: series.g_closed("A", n),
           "sum": lambda n: series.g_sum("A", n)},
    "gB": {"closed": lambda n: series.g_closed("B", n),
           "sum": lambda n: series.g_sum("B", n)},
    "gD": {"closed": lambda n: series.g_closed("D", n),
           "sum": lambda n: series.g_sum("D", n)},
    "GA": {"closed": lambda n: series.G_closed("A", n),
           "sum": lambda n: series.G_sum("A", n)},
    "GB": {"closed": lambda n: series.G_closed("B", n),
           "sum": lambda n: series.G_sum("B", n)},
    "GD": {"closed": lambda n: series.G_closed("D", n),
           "sum": series.G_D_assembled},
}


def cmd_series(args) -> int:
    s = SERIES_BUILDERS[args.name][args.route](args.order)
    if args.out in ("table", "both"):
        print(f"{args.name} ({args.route} route) through t^{s.order - 1}:")
        for n, c in enumerate(s.coeffs):
            print(f"  t^{n}: {c}")
    if args.out in ("json", "both"):
        print(json.dumps({
            "name": args.name,
            "route": args.route,
            "order": s.order,
            "coefficients": [[n, c.to_triples()] for n, c in enumerate(s.coeffs)],
        }, indent=2))
    return 0


def cmd_family(args) -> int:
    u = coxeter.family_recursion(args.name, args.n)
    if args.out in ("table", "both"):
        print(f"{args.name} u_{args.n} = {u}")
    if args.out in ("json", "both"):
        print(json.dumps({"name": args.name, "n": args.n,
                          "u": u.to_triples()}, indent=2))
    return 0


def cmd_verify(args) -> int:
    if args.suite == "tables":
        reports = [verify.tables_report()]
    elif args.suite == "series":
        reports = [verify.series_report(args.order)]
    elif args.suite == "crosscheck":
        reports = [verify.crosscheck_report(args.max_rank)]
    else:
        reports = verify.all_report(args.order, args.max_rank)
    for rep in reports:
        rep.render()
    return 0 if all(rep.ok for rep in reports) else 1


def _add_out(p) -> None:
    p.add_argument("--out", choices=("table", "json", "both"), default="table",
                   help="output format (default: table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammatri",
        description="Exact F/H/Gamma-triangles, local h/gamma-vectors and "
                    "generating-series checks.")
    parser.add_argument("--version", action="version",
                        version=f"gammatri {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangles",
                       help="F, H and Gamma of a complex or subdivision")
    p.add_argument("--complex", help="complex JSON file (needs --facet)")
    p.add_argument("--facet", help="distinguished facet, comma-separated labels")
    p.add_argument("--subdivision", help="subdivision JSON file")
    _add_out(p)
    p.set_defaults(func=cmd_triangles)

    p = sub.add_parser("cluster", help="Gamma-triangle of a named finite type")
    p.add_argument("type", help="A, B, C, D, E, F, H, I2, or E6/F4/H3/I2(5)/...")
    p.add_argument("rank", type=int, nargs="?", default=None)
    p.add_argument("--m", type=int, help="edge label for type I2")
    p.add_argument("--method", choices=("model", "formula", "local-sum"),
                   default="formula")
    p.add_argument("--export", metavar="FILE",
                   help="also write the combinatorial model as subdivision JSON")
    _add_out(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("diagram", help="Gamma-triangle of a Coxeter diagram file")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("local", help="local h and local gamma of a subdivision")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("series", help="generating-series coefficients")
    p.add_argument("--name", choices=sorted(SERIES_BUILDERS), required=True)
    p.add_argument("--order", type=int, default=verify.DEFAULT_ORDER)
    p.add_argument("--route", choices=("closed", "sum"), default="closed")
    _add_out(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("family", help="Lucas/Pell recursion terms")
    p.add_argument("name", choices=("lucas", "pell"))
    p.add_argument("n", type=int)
    _add_out(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=("tables", "series", "crosscheck", "all"),
                   default="all")
    p.add_argument("--order", type=int, default=verify.DEFAULT_ORDER)
    p.add_argument("--max-rank", type=int, default=verify.DEFAULT_MAX_RANK)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:  # domain errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
