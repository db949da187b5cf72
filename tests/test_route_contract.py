"""The route map as a tested contract: each route that computes a
Gamma-triangle runs under a sys.setprofile tracer, on inputs built before
the tracer starts, and must not call into the routes it is checked against.
Every gammatri function that two routes both call is listed in SHARED with
the reason it carries no route data, so a new shared node fails here until
it is named. The two series routes, closed and sum, are held to the same
contract among themselves.

Traced frames are named by the module-level function or class attribute
whose code holds them (nested functions and comprehensions count as their
owner), found by walking the package's namespaces; this needs no
co_qualname, which Python 3.10 lacks."""

import importlib
import pkgutil
import sys
import types

import pytest

import gammatri
from gammatri.cluster import dihedral_subdivision, type_a_subdivision
from gammatri.coxeter import closed_triangle, gamma_triangle_diagram, standard_diagram
from gammatri.series import G_closed, G_sum, g_closed, g_sum
from gammatri.subdivisions import Subdivision, gamma_from_local_sum, model_gamma

# every module of the package but __main__, which runs the CLI on import
MODULES = [importlib.import_module(f"gammatri.{m.name}")
           for m in pkgutil.iter_modules(gammatri.__path__) if m.name != "__main__"]


def _owners() -> dict:
    """Each code object of the package mapped to 'module.qualname' of the
    module-level function or class attribute that holds it."""
    owners = {}

    def claim(code, name):
        owners[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                claim(const, name)

    def functions(obj):
        # cached_property, property, classmethod, lru_cache
        for attr in ("func", "fget", "__func__", "__wrapped__"):
            obj = getattr(obj, attr, obj)
        return [obj] if isinstance(obj, types.FunctionType) else []

    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for fn in (f for m in members for f in functions(m)):
                claim(fn.__code__, f"{short}.{fn.__qualname__}")
    return owners


OWNERS = _owners()


def traced(route, inputs) -> set[str]:
    """The names of the package functions that route calls on inputs. The
    package's lru caches start empty, so what a route calls does not depend
    on what ran before it."""
    for mod in MODULES:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = OWNERS.get(code)
            if name is None and frame.f_globals.get("__name__", "").startswith("gammatri."):
                name = f"{frame.f_globals['__name__'][9:]}.{code.co_name}"
            if name is not None:
                called.add(name)

    sys.setprofile(profile)
    try:
        for x in inputs:
            route(*x)
    finally:
        sys.setprofile(None)
    return called


def models():
    """Fresh type A and dihedral models, as built and as loaded, so that no
    cached face search is carried in from an earlier route."""
    built = [type_a_subdivision(n) for n in range(1, 6)] \
        + [dihedral_subdivision(m) for m in range(2, 7)]
    return [(s,) for s in built] \
        + [(Subdivision.from_dict(s.to_dict()),) for s in built]


TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(1, 9)]
         + [("D", n) for n in range(2, 9)]
         + [(k,) for k in ("E6", "E7", "E8", "F4", "H3", "H4")]
         + [("I2", None, m) for m in range(2, 9)])

ROUTES = {
    "model_gamma": (model_gamma, models),
    "gamma_from_local_sum": (gamma_from_local_sum, models),
    "closed_triangle": (closed_triangle, lambda: TYPES),
    "gamma_triangle_diagram": (
        gamma_triangle_diagram, lambda: [(standard_diagram(*t),) for t in TYPES]),
}

# what each route must never call: a module, or a function with all it holds
FORBIDDEN = {
    "model_gamma": ("coxeter", "subdivisions._local_h_sum",
                    "subdivisions.h_triangle_direct"),
    "gamma_from_local_sum": ("subdivisions.sphere", "subdivisions.f_triangle"),
    "closed_triangle": ("coxeter.gamma_triangle_diagram", "series", "subdivisions"),
    "gamma_triangle_diagram": ("coxeter.closed_triangle", "coxeter.reference_tables"),
}

VALUES = "a value type: it stores and combines coefficients the route computed"
MASKS = "a mask helper that carries no route data"

# every function that two routes both call, with why sharing it carries no
# route data from one route into the other
SHARED = {
    "complexes._bits": MASKS,
    "coxeter.local_gamma_poly": "the closed local gamma of one component: the "
        "closed D route's j = 0 row and every diagram-sum component read it, "
        "and the stored tables and the models check it",
    "coxeter.TypedComponent.__init__": "the component type that "
        "local_gamma_poly takes",
    "poly.Poly1.__init__": VALUES,
    "poly.Poly1.coeff": VALUES,
    "poly.Poly1.degree": VALUES,
    "poly.binom": "a binomial coefficient",
    "poly.binomial_row": "the rows of (1 + s x)^n, by n and s alone",
    "poly.quotient": "an exact division that names its fault",
    "transforms.GammaTriangle.__init__": VALUES,
    "transforms.GammaTriangle.__post_init__": VALUES,
    "transforms.GammaTriangle.make": VALUES,
    "transforms.gamma_from_h": "the gamma expansion of one palindromic "
        "polynomial: Gamma_from_H and the local sum each apply it to their own",
}


# the series routes by kind at one order: the closed route solves every
# series out of g, the sum route reads each rank's term off coxeter
SERIES_INPUTS = [(kind, 12) for kind in "ABD"]
SERIES_ROUTES = {"closed": (g_closed, G_closed), "sum": (g_sum, G_sum)}

SERIES_FORBIDDEN = {
    "closed": ("coxeter",),
    "sum": ("series.g_base", "series.TruncSeries.sqrt",
            "series.TruncSeries.inverse", "packed"),
}

# every function that both series routes call, with why sharing it carries
# no series data from one route into the other
SERIES_SHARED = {
    "poly.Poly2.__init__": VALUES,
    "poly._Poly._build": VALUES,
    "poly._Poly.zero": VALUES,
    "series.TruncSeries.__init__": VALUES,
    "series.TruncSeries.from_map": VALUES,
}


def _matches(name: str, rule: str) -> bool:
    return name == rule or name.startswith(rule + ".")


@pytest.fixture(scope="module")
def calls() -> dict[str, set[str]]:
    out = {}
    for route, (fn, inputs) in ROUTES.items():
        args = inputs()  # built before the tracer starts
        out[route] = traced(fn, args)
    return out


@pytest.fixture(scope="module")
def series_calls() -> dict[str, set[str]]:
    return {route: set().union(*(traced(fn, SERIES_INPUTS) for fn in fns))
            for route, fns in SERIES_ROUTES.items()}


def test_every_name_is_a_package_function(calls, series_calls):
    # a frame without a module-level owner would hide behind its co_name,
    # and a rule naming no function would never fire
    named = set(OWNERS.values())
    assert {n for c in [*calls.values(), *series_calls.values()] for n in c} <= named
    rules = [r for rs in [*FORBIDDEN.values(), *SERIES_FORBIDDEN.values()]
             for r in rs] + list(SHARED) + list(SERIES_SHARED)
    assert [r for r in rules if not any(_matches(n, r) for n in named)] == []


@pytest.mark.parametrize("route", FORBIDDEN)
def test_route_calls_nothing_forbidden(calls, route):
    assert calls[route], "the tracer saw no call"
    bad = sorted(n for n in calls[route]
                 if any(_matches(n, rule) for rule in FORBIDDEN[route]))
    assert not bad, f"{route} calls {bad}"


def test_every_shared_function_is_listed(calls):
    routes = list(calls)
    shared = {n for i, a in enumerate(routes) for b in routes[i + 1:]
              for n in calls[a] & calls[b]}
    assert sorted(shared - SHARED.keys()) == [], "shared but not listed"
    assert sorted(SHARED.keys() - shared) == [], "listed but not shared"


@pytest.mark.parametrize("route", SERIES_FORBIDDEN)
def test_series_route_calls_nothing_forbidden(series_calls, route):
    assert series_calls[route], "the tracer saw no call"
    bad = sorted(n for n in series_calls[route]
                 if any(_matches(n, rule) for rule in SERIES_FORBIDDEN[route]))
    assert not bad, f"the {route} series route calls {bad}"


def test_every_shared_series_function_is_listed(series_calls):
    shared = series_calls["closed"] & series_calls["sum"]
    assert sorted(shared - SERIES_SHARED.keys()) == [], "shared but not listed"
    assert sorted(SERIES_SHARED.keys() - shared) == [], "listed but not shared"
