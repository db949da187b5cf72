"""Every callable that perfbench wraps still resolves, so that deleting or
renaming one fails here, not only in a traced benchmark pass."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

# the SPANS entries plus the counters that layers.instrument wraps by name
WRAPPED = [(module, qualname) for module, qualname, _ in layers.SPANS] + [
    ("complexes", "all_faces"),
    ("coxeter", "local_gamma_poly"),
    ("poly", "Poly2.__init__"),
]


@pytest.mark.parametrize("module, qualname", WRAPPED,
                         ids=[f"{m}.{q}" for m, q in WRAPPED])
def test_wrapped_callable_resolves(module, qualname):
    mod = importlib.import_module(f"gammatri.{module}")
    if "." in qualname:
        # a method is wrapped where its class defines it, as
        # spans.Instrumentation.wrap reads it
        cls_name, attr = qualname.split(".")
        target = vars(getattr(mod, cls_name))[attr]
        target = getattr(target, "__func__", target)
    else:
        target = getattr(mod, qualname)
    assert callable(target)
