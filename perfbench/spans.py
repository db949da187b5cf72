"""Spans and counters recorded around calls into the gammatri package.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one started, or -1 at the top level. Spans stay in
memory, in flat arrays, until the traced run ends; `self_times` then turns
them into per-name call counts and self times.

Wrapping a function only in the module that defines it is not enough:
`from .complexes import face_set` gives `subdivisions` a second binding of
the same object, and calls through that binding would bypass the wrapper.
`Instrumentation.wrap` therefore replaces every module attribute in the
package that is the original object, and `restore` puts every one back.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter


class Tracer:
    """In-memory span recorder with named integer counters."""

    def __init__(self):
        self._labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._span_name = array("l")
        self._span_parent = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._labels)
            self._labels.append(name)
        return self._ids[name]

    def span(self, name: str, fn, before=None, after=None):
        """Return a wrapper of fn that records one span per call.

        before(args) runs ahead of the call and after(result) behind it,
        outside the timed interval; they feed the counters."""
        nid = self._name_id(name)
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn, amount=None):
        """Return a wrapper of fn that adds amount(args, result) (default 1)
        to the counter `name` and records no span."""
        counts = self.counts
        counts.setdefault(name, 0)
        if amount is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += amount(args, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self):
        """The recorded spans as (name, start, end, parent) tuples, in the
        order the calls started."""
        names = self._labels
        return [(names[n], s, e, p) for n, s, e, p in zip(
            self._span_name, self._span_start, self._span_end, self._span_parent)]


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds). A span's self time is its
    duration minus the durations of its direct children."""
    spans = list(spans)
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, start, end, _), covered in zip(spans, child):
        calls, secs = out.get(name, (0, 0.0))
        out[name] = (calls + 1, secs + (end - start) - covered)
    return out


PACKAGE = "gammatri"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Instrumentation:
    """Replaces package callables by wrappers and restores them all."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module, qualname: str, make_wrapper) -> None:
        """Wrap module.<qualname>, where qualname is `func` or `Class.method`.

        A module-level function is replaced in every package module that
        binds the same object; a method is replaced on its class (classmethods
        keep their descriptor)."""
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = getattr(module, qualname)
        new = make_wrapper(original)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, new)

    def restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
