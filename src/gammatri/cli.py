"""Command-line frontend.

Subcommands:
  triangles  F/H/Gamma of a complex-with-facet or of a subdivision's sphere
  cluster    Gamma-triangle of a named finite type (model / formula / local-sum)
  diagram    Gamma-triangle of a Coxeter diagram file
  local      local h and local gamma of a subdivision file
  series     coefficients of the generating series, closed or summed route
  family     terms of the Lucas/Pell triangle recursions
  verify     run the verification suites (exit code 0 iff everything passes)

Output is deterministic and stdout holds only the result: --out picks the
table layout, JSON or both; the --export notice goes to stderr. A table is
written as it is built, a row at a time, once every check has passed. Bad
input, a stray --m or --facet and a result with no gamma expansion exit 1
with `error: ...` on stderr, naming any file at fault, and so does an input
that asks for more memory than there is; a reader that closes stdout
early ends the command with exit 1 and no message. NO_COLOR, the only
environment variable read, turns off the pass/fail coloring of verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import __version__, cluster, coxeter, series, subdivisions, transforms, verify
from .complexes import Complex
from .coxeter import CoxeterDiagram
from .render import render_triangle
from .subdivisions import SphereWithFacet, Subdivision
from .transforms import GammaTriangle


class CliError(Exception):
    pass


def _load(path: str, build):
    """build(data) for the JSON data in the file at path; any failure to read,
    decode or build is a CliError that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"{path}: cannot read ({exc})")
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or deep JSON
        raise CliError(f"{path}: invalid JSON ({exc})")
    try:
        return build(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _emit(out: str, lines, data) -> None:
    """Print the table lines() lists, each item a line or a triangle's rows,
    the JSON of data, or both, as --out says; JSON never calls lines()."""
    if out in ("table", "both"):
        for item in lines():
            for line in (item,) if isinstance(item, str) else item:
                print(line)
    if out in ("json", "both"):
        print(json.dumps(data, indent=2))


def cmd_triangles(args) -> None:
    if bool(args.complex) == bool(args.subdivision):
        raise CliError("give exactly one of --complex (with --facet) or --subdivision")
    if args.subdivision and args.facet:
        raise CliError("--facet goes with --complex only: the distinguished "
                       "facet of a subdivision's sphere is its index set")
    if args.complex:
        if not args.facet:
            raise CliError("--complex needs --facet with comma-separated vertex labels")
        facet = frozenset(v.strip() for v in args.facet.split(","))
        sph = _load(args.complex,
                    lambda data: SphereWithFacet.make(Complex.from_dict(data), facet))
    else:  # the distinguished facet of a subdivision's sphere is its index set
        sph = subdivisions.sphere(_load(args.subdivision, Subdivision.from_dict))
    d = sph.facet.bit_count()
    F = subdivisions.f_triangle(sph)
    H = transforms.H_from_F(F, d)
    gt = transforms.Gamma_from_H(H, d)
    vec = gt.row_sums()
    _emit(args.out, lambda: [
        f"d = {d}",
        "F-triangle (rows j = d..0, columns i = 0..d):",
        render_triangle(F, d, "F"),
        "H-triangle:",
        render_triangle(H, d, "H"),
        "Gamma-triangle:",
        render_triangle(gt, d, "Gamma"),
        f"gamma-vector (row sums): {list(vec)}",
    ], {
        "d": d,
        "F": F.to_triples(),
        "H": H.to_triples(),
        "Gamma": gt.to_dict(),
        "gamma_vector": [str(c) for c in vec],
    })


# the combinatorial models by kind, as parse_type names it
MODELS = {
    "A": lambda rank, m: cluster.type_a_subdivision(rank),
    "I2": lambda rank, m: cluster.dihedral_subdivision(m),
}


def _model(kind: str, rank: int, m: int | None) -> Subdivision:
    if kind not in MODELS:
        raise CliError(f"type {kind} has no combinatorial model "
                       f"(models exist for {', '.join(MODELS)})")
    return MODELS[kind](rank, m)


def cmd_cluster(args) -> None:
    kind, rank, m = coxeter.parse_type(args.type, args.rank, args.m)
    model = _model(kind, rank, m) if args.method == "model" or args.export else None
    if args.method == "model":
        gt = subdivisions.model_gamma(model)
    elif args.method == "formula":
        gt = coxeter.closed_triangle(kind, rank, m)
    else:
        gt = coxeter.gamma_triangle_diagram(coxeter.standard_diagram(kind, rank, m))
    if args.export:
        try:
            with open(args.export, "w", encoding="utf-8") as fh:
                json.dump(model.to_dict(), fh, indent=2)
        except OSError as exc:
            raise CliError(f"{args.export}: cannot write ({exc})")
        print(f"model written to {args.export}", file=sys.stderr)
    _emit(args.out, lambda: [
        f"Gamma-triangle (d = {gt.degree}, method {args.method}):",
        render_triangle(gt, gt.degree, "Gamma"),
        f"gamma-vector (row sums): {list(gt.row_sums())}",
    ], gt.to_dict())


def _classified(data) -> tuple[list, GammaTriangle]:
    dgm = CoxeterDiagram.from_dict(data)
    return coxeter.classify(dgm), coxeter.gamma_triangle_diagram(dgm)


def cmd_diagram(args) -> None:
    components, gt = _load(args.file, _classified)
    names = [str(c) for c in components]
    _emit(args.out, lambda: [
        f"components: {', '.join(names)}",
        f"Gamma-triangle (d = {gt.degree}):",
        render_triangle(gt, gt.degree, "Gamma"),
    ], {"components": names, "Gamma": gt.to_dict()})


def cmd_local(args) -> None:
    s = _load(args.file, Subdivision.from_dict)
    lh = subdivisions.local_h(s)
    lg = subdivisions.local_gamma(s)
    _emit(args.out, lambda: [
        f"validation checks run: {', '.join(subdivisions.VALIDATION_CHECKS)}",
        f"local h:     {lh}",
        f"local gamma: {lg}",
    ], {"local_h": lh.to_pairs(), "local_gamma": lg.to_pairs()})


SERIES_BUILDERS = {
    "g": {"closed": series.g_base, "sum": series.eq_c_series},
    **{f"{name}{kind}": {"closed": partial(closed, kind), "sum": partial(summed, kind)}
       for name, closed, summed in (("g", series.g_closed, series.g_sum),
                                    ("G", series.G_closed, series.G_sum))
       for kind in "ABD"},
}


def cmd_series(args) -> None:
    s = SERIES_BUILDERS[args.name][args.route](args.order)
    _emit(args.out, lambda: [
        f"{args.name} ({args.route} route) through t^{s.order - 1}:",
        *(f"  t^{n}: {c}" for n, c in enumerate(s.coeffs)),
    ], {
        "name": args.name,
        "route": args.route,
        "order": s.order,
        "coefficients": [[n, c.to_triples()] for n, c in enumerate(s.coeffs)],
    })


def cmd_family(args) -> None:
    u = coxeter.family_recursion(args.name, args.n)
    _emit(args.out, lambda: [f"{args.name} u_{args.n} = {u}"],
          {"name": args.name, "n": args.n, "u": u.to_triples()})


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammatri",
        description="Exact F/H/Gamma-triangles, local h/gamma-vectors and "
                    "generating-series checks.")
    parser.add_argument("--version", action="version",
                        version=f"gammatri {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # --out of every _emit command
    out.add_argument("--out", choices=("table", "json", "both"), default="table",
                     help="output format (default: table)")

    def command(func, help: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(func.__name__[len("cmd_"):], parents=parents, help=help)
        p.set_defaults(func=func)
        return p

    p = command(cmd_triangles, "F, H and Gamma of a complex or subdivision", out)
    p.add_argument("--complex", help="complex JSON file (needs --facet)")
    p.add_argument("--facet", help="distinguished facet, comma-separated labels")
    p.add_argument("--subdivision", help="subdivision JSON file")

    p = command(cmd_cluster, "Gamma-triangle of a named finite type", out)
    p.add_argument("type", help="A, B, C, D, E, F, H, I2, or E6/F4/H3/I2(5)/...")
    p.add_argument("rank", type=int, nargs="?", default=None)
    p.add_argument("--m", type=int, help="edge label for type I2")
    p.add_argument("--method", choices=("model", "formula", "local-sum"),
                   default="formula")
    p.add_argument("--export", metavar="FILE",
                   help="also write the combinatorial model as subdivision JSON")

    p = command(cmd_diagram, "Gamma-triangle of a Coxeter diagram file", out)
    p.add_argument("file")

    p = command(cmd_local, "local h and local gamma of a subdivision", out)
    p.add_argument("file")

    p = command(cmd_series, "generating-series coefficients", out)
    p.add_argument("--name", choices=sorted(SERIES_BUILDERS), required=True)
    p.add_argument("--order", type=int, default=verify.DEFAULT_ORDER)
    p.add_argument("--route", choices=("closed", "sum"), default="closed")

    p = command(cmd_family, "Lucas/Pell recursion terms", out)
    p.add_argument("name", choices=("lucas", "pell"))
    p.add_argument("n", type=int)

    p = command(cmd_verify, "run verification suites")
    p.add_argument("--suite", choices=("tables", "series", "crosscheck", "all"),
                   default="all")
    p.add_argument("--order", type=int, default=verify.DEFAULT_ORDER)
    p.add_argument("--max-rank", type=int, default=verify.DEFAULT_MAX_RANK)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exact coefficients print in full: CPython's limit on the digits of an
    # int-to-str conversion (0 for none) is lifted, and restored on return
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 3.10.7 and later
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        status = args.func(args) or 0  # only verify has a status of its own
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except (CliError, ValueError) as exc:  # domain errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # an input that asks for more memory than there is
        print("error: out of memory: the input is too large for this machine",
              file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early: stop without a traceback, and point
        # stdout at devnull so the flush at interpreter exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
