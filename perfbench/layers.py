"""Per-layer metrics: one layer per module of src/gammatri/.

`instrument` wraps the public callables named below while a traced pass
runs; `layer_metrics` turns what the tracer recorded into the per-layer
metrics that BENCHMARK.json lists. Calls to helpers that are not wrapped
count toward the self time of the nearest wrapped caller, so a module's
`<module>.self_s` is the self time of its wrapped callables only.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

from spans import Instrumentation, Tracer, self_times

MODULES = ("cluster", "complexes", "subdivisions", "transforms", "coxeter",
           "poly", "series", "verify", "cli")

# (module, qualified name, span name); the span name drops the dunder
SPANS = (
    ("cluster", "type_a_subdivision", "cluster.type_a_subdivision"),
    ("cluster", "dihedral_subdivision", "cluster.dihedral_subdivision"),
    ("complexes", "Complex.make", "complexes.Complex.make"),
    ("complexes", "face_set", "complexes.face_set"),
    ("subdivisions", "sphere", "subdivisions.sphere"),
    ("subdivisions", "f_triangle", "subdivisions.f_triangle"),
    ("subdivisions", "restrict", "subdivisions.restrict"),
    ("subdivisions", "local_h", "subdivisions.local_h"),
    ("subdivisions", "gamma_from_local_sum", "subdivisions.gamma_from_local_sum"),
    ("subdivisions", "Subdivision.validate", "subdivisions.Subdivision.validate"),
    ("transforms", "H_from_F", "transforms.H_from_F"),
    ("transforms", "Gamma_from_H", "transforms.Gamma_from_H"),
    ("coxeter", "gamma_triangle_diagram", "coxeter.gamma_triangle_diagram"),
    ("coxeter", "classify", "coxeter.classify"),
    ("poly", "Poly2.__mul__", "poly.Poly2.mul"),
    ("poly", "Poly1.__mul__", "poly.Poly1.mul"),
    ("series", "TruncSeries.__mul__", "series.TruncSeries.mul"),
    ("series", "TruncSeries.sqrt", "series.TruncSeries.sqrt"),
    ("series", "TruncSeries.inverse", "series.TruncSeries.inverse"),
    ("series", "g_sum", "series.g_sum"),
    ("series", "G_sum", "series.G_sum"),
    ("series", "g_closed", "series.g_closed"),
    ("series", "G_closed", "series.G_closed"),
    ("verify", "tables_report", "verify.tables_report"),
    ("verify", "series_report", "verify.series_report"),
    ("verify", "crosscheck_report", "verify.crosscheck_report"),
    ("cli", "main", "cli.main"),
)

# Per-layer metrics as (name, workload where the layer dominates); units
# and directions are in BENCHMARK.json. The end-to-end metric each should
# move: cluster -> setup_s; complexes, poly, series -> run_s and
# peak_rss_mb; subdivisions, transforms, coxeter, verify -> run_s;
# cli -> setup_s and run_s.
METRICS = (
    ("cluster.type_a_subdivision.self_s", "face-model"),
    ("cluster.facets", "face-model"),
    ("cluster.self_s", "face-model"),
    ("complexes.Complex.make.calls", "face-model"),
    ("complexes.Complex.make.self_s", "face-model"),
    ("complexes.face_set.self_s", "face-model"),
    ("complexes.faces", "face-model"),
    ("complexes.self_s", "face-model"),
    ("subdivisions.sphere.self_s", "face-model"),
    ("subdivisions.sphere.facets", "face-model"),
    ("subdivisions.f_triangle.self_s", "face-model"),
    ("subdivisions.restrict.calls", "face-model"),
    ("subdivisions.restrict.self_s", "face-model"),
    ("subdivisions.local_h.self_s", "face-model"),
    ("subdivisions.gamma_from_local_sum.self_s", "face-model"),
    ("subdivisions.Subdivision.validate.self_s", "face-model"),
    ("subdivisions.self_s", "face-model"),
    ("transforms.H_from_F.self_s", "face-model"),
    ("transforms.Gamma_from_H.self_s", "face-model"),
    ("transforms.self_s", "face-model"),
    ("coxeter.gamma_triangle_diagram.self_s", "diagram-sums"),
    ("coxeter.classify.calls", "diagram-sums"),
    ("coxeter.classify.self_s", "diagram-sums"),
    ("coxeter.local_gamma_poly.calls", "diagram-sums"),
    ("coxeter.self_s", "diagram-sums"),
    ("poly.Poly2.mul.calls", "series-identities"),
    ("poly.Poly2.mul.self_s", "series-identities"),
    ("poly.Poly2.mul.term_products", "series-identities"),
    ("poly.Poly2.init.calls", "series-identities"),
    ("poly.Poly1.mul.calls", "diagram-sums"),
    ("poly.Poly1.mul.self_s", "diagram-sums"),
    ("poly.self_s", "series-identities"),
    ("series.TruncSeries.mul.calls", "series-identities"),
    ("series.TruncSeries.mul.self_s", "series-identities"),
    ("series.TruncSeries.sqrt.self_s", "series-identities"),
    ("series.TruncSeries.inverse.self_s", "series-identities"),
    ("series.g_sum.self_s", "series-identities"),
    ("series.G_sum.self_s", "series-identities"),
    ("series.g_closed.self_s", "series-identities"),
    ("series.G_closed.self_s", "series-identities"),
    ("series.self_s", "series-identities"),
    ("verify.tables_report.self_s", "verify-cli"),
    ("verify.series_report.self_s", "verify-cli"),
    ("verify.crosscheck_report.self_s", "verify-cli"),
    ("verify.checks", "verify-cli"),
    ("verify.self_s", "verify-cli"),
    ("cli.import_s", "verify-cli"),
    ("cli.main.self_s", "verify-cli"),
    ("cli.self_s", "verify-cli"),
    ("trace.run_s", None),
    ("trace.overhead_s", None),
)

# measured outside the tracer: cli.import_s in fresh interpreters,
# trace.run_s around the traced pass, trace.overhead_s against an
# untraced pass
MEASURED_ELSEWHERE = ("cli.import_s", "trace.run_s", "trace.overhead_s")


def _poly_terms(args) -> int:
    """len(a) * len(b) for a Poly2 product; Poly2 keeps its terms in _c."""
    a, b = args
    if type(a) is type(b):
        return len(a._c) * len(b._c)
    return 0


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every callable in SPANS and the counters for the duration."""
    modules = {m: importlib.import_module(f"gammatri.{m}") for m in MODULES}
    complexes, coxeter, poly = modules["complexes"], modules["coxeter"], modules["poly"]

    counts = tracer.counts
    for name in ("cluster.facets", "subdivisions.sphere.facets",
                 "poly.Poly2.mul.term_products", "verify.checks"):
        counts.setdefault(name, 0)

    def add_facets(key):
        def after(result):
            counts[key] += len(getattr(result, "complex", result).facets)
        return after

    def add_terms(args):
        counts["poly.Poly2.mul.term_products"] += _poly_terms(args)

    def add_checks(report):
        counts["verify.checks"] += len(report.checks)

    hooks = {
        "cluster.type_a_subdivision": {"after": add_facets("cluster.facets")},
        "cluster.dihedral_subdivision": {"after": add_facets("cluster.facets")},
        "subdivisions.sphere": {"after": add_facets("subdivisions.sphere.facets")},
        "poly.Poly2.mul": {"before": add_terms},
        "verify.tables_report": {"after": add_checks},
        "verify.series_report": {"after": add_checks},
        "verify.crosscheck_report": {"after": add_checks},
    }
    inst = Instrumentation()
    try:
        for mod, qualname, name in SPANS:
            inst.wrap(modules[mod], qualname,
                      lambda fn, name=name: tracer.span(name, fn, **hooks.get(name, {})))
        inst.wrap(complexes, "all_faces", lambda fn: tracer.counter(
            "complexes.faces", fn,
            lambda args, groups: sum(len(g) for g in groups.values())))
        inst.wrap(coxeter, "local_gamma_poly",
                  lambda fn: tracer.counter("coxeter.local_gamma_poly.calls", fn))
        inst.wrap(poly, "Poly2.__init__",
                  lambda fn: tracer.counter("poly.Poly2.init.calls", fn))
        yield tracer
    finally:
        inst.restore()


def layer_metrics(tracer: Tracer) -> dict:
    """Every metric of METRICS except MEASURED_ELSEWHERE; layers the pass
    never entered read 0."""
    stats = self_times(tracer.spans())
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, (_, secs) in stats.items():
        module_self[name.split(".", 1)[0]] += secs
    out = {}
    for name, _ in METRICS:
        if name in MEASURED_ELSEWHERE:
            continue
        prefix, _, field = name.rpartition(".")
        if name in tracer.counts:
            out[name] = tracer.counts[name]
        elif prefix in module_self and field == "self_s":
            out[name] = module_self[prefix]
        elif field == "self_s":
            out[name] = stats.get(prefix, (0, 0.0))[1]
        elif field == "calls":
            out[name] = stats.get(prefix, (0, 0.0))[0]
        else:
            raise KeyError(f"no source for per-layer metric {name}")
    return out
