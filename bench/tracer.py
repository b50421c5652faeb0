"""Spans and counters recorded from outside the package.

The tracer wraps a layer's public functions where *other* modules see them:
it replaces the attribute in every ``lagrangeforge`` module that holds the
function (the package namespaces included, so the benchmark's own calls
through ``lf.<name>`` are seen too), but not in the module that defines it.
A module's calls into itself, recursive tree walks included, therefore stay
unwrapped, and one span is one call across a layer boundary.

Spans are kept in memory as ``(layer, start, end, parent)`` tuples and
reduced once, when the run ends.  A layer's self time is its spans'
duration minus the part covered by their direct child spans.  The stack of
open spans assumes one thread, which holds because the benchmark runs the
package with ``LAGRANGEFORGE_THREADS`` unset (a single worker).
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list = []    # (namespace, key, original)

    # --- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            spans[index] = (layer, start, time.perf_counter(), parent)
            stack.pop()

    def wrap(self, layer: str, fn, before=None, after=None):
        """Wrap ``fn`` so every call records a span of ``layer``.

        ``before(args, kwargs)`` may replace the arguments, and
        ``after(result)`` sees the result; both run outside the span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (layer, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # --- patching --------------------------------------------------------------

    def patch(self, module, name: str, layer: str, before=None, after=None,
              include_defining: bool = False) -> None:
        """Wrap ``module.name`` in every package module that imported it.

        ``include_defining`` also patches the defining module, for helpers
        such as the CLI's ``validate_spec`` that only their own module calls.
        """
        original = getattr(module, name)
        wrapper = self.wrap(layer, original, before, after)
        for mod in _package_modules(module.__name__.split(".")[0]):
            if mod is module and not include_defining:
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patched.append((namespace, key, original))
                    namespace[key] = wrapper

    def patch_mapping(self, mapping: dict, layer: str) -> None:
        """Wrap every function stored as a value of ``mapping``."""
        for key, original in list(mapping.items()):
            self._patched.append((mapping, key, original))
            mapping[key] = self.wrap(layer, original)

    def restore(self) -> list:
        """Put every original back; return the names that did not come back."""
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        missing = [key for namespace, key, original in self._patched
                   if namespace.get(key) is not original]
        self._patched.clear()
        return missing

    # --- reduction -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """``{layer: {"calls", "total_s", "self_s"}}`` over the spans so far."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict = {}
        for i, (layer, start, end, parent) in enumerate(spans):
            entry = totals.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[i]
        return totals


def _package_modules(package: str) -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]
