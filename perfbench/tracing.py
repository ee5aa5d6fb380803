"""Spans around exocast's public functions, recorded from outside the package.

`Tracer.wrap` replaces a function at every place a loaded ``exocast`` module
binds it: the defining module, each module that imported it by name
(``from .selection import lasso_select``), and module-level dicts that hold
it (``cli.COMMANDS``). A reach check can then tell whether every wrapped
function was called through a wrapper. Spans stay in memory; `restore` puts every original
back and `Tracer.check_restored` proves it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "exocast"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for j in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[j].start, cursor)
            hi = min(spans[j].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def outermost_seconds(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration of spans not nested in a span of
    the same name, so recursion is not counted twice."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            totals[span.name] += span.end - span.start
    return dict(totals)


@dataclass
class _Binding:
    target: str  # the wrapped function, as "module.attr"
    site: str  # where it was bound: "module.attr" or "module.dict[key]"
    holder: dict
    key: str
    original: Callable


class Tracer:
    """Records spans (name, start, end, parent) and per-name call counts,
    distinct-input counts and result counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.inputs: dict[str, set[int]] = defaultdict(set)
        self.counters: Counter[str] = Counter()
        self.reached: Counter[str] = Counter()  # per wrapped "module.attr"
        self._stack: list[int] = []
        self._bindings: list[_Binding] = []

    def _call(self, name, target, fn, key, on_result, args, kwargs):
        self.calls[name] += 1
        self.reached[target] += 1
        if key is not None:
            self.inputs[name].add(key(*args, **kwargs))
        index = len(self.spans)
        self.spans.append(None)  # reserved so children point at this index
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)
        if on_result is not None:
            on_result(self.counters, result, args, kwargs)
        return result

    def wrap(
        self,
        module: str,
        attr: str,
        name: str,
        *,
        key: Callable[..., int] | None = None,
        on_result: Callable | None = None,
        only_in: tuple[str, ...] | None = None,
    ) -> list[str]:
        """Wrap `module.attr` wherever it is bound; `only_in` limits the
        modules whose bindings are replaced. Returns the binding sites."""
        original = getattr(importlib.import_module(module), attr)
        sites = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            if only_in is not None and mod_name not in only_in:
                continue
            namespace = vars(mod)
            holders = [(namespace, mod_name, k) for k, v in namespace.items() if v is original]
            for dict_name, value in namespace.items():
                if isinstance(value, dict) and not dict_name.startswith("__"):
                    holders += [
                        (value, f"{mod_name}.{dict_name}", k)
                        for k, v in value.items()
                        if v is original
                    ]
            for holder, where, k in holders:
                site = f"{where}[{k}]" if where != mod_name else f"{mod_name}.{k}"
                target = f"{module}.{attr}"
                holder[k] = self._wrapper(name, target, original, key, on_result)
                self._bindings.append(_Binding(target, site, holder, k, original))
                sites.append(site)
        if not sites:
            raise LookupError(f"{module}.{attr} is bound nowhere in {PACKAGE}")
        return sites

    def _wrapper(self, name, target, fn, key, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, target, fn, key, on_result, args, kwargs)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent and self time."""
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps([span.name, span.start, span.end, span.parent, self_s]) + "\n")

    @property
    def sites(self) -> list[str]:
        return [b.site for b in self._bindings]

    @property
    def targets(self) -> set[str]:
        return {b.target for b in self._bindings}

    def restore(self) -> None:
        for binding in reversed(self._bindings):
            binding.holder[binding.key] = binding.original

    def check_restored(self) -> list[str]:
        """Problems left after `restore`: a binding not back to its original,
        or any wrapper still reachable from an exocast module."""
        problems = [
            f"{b.site} not restored"
            for b in self._bindings
            if b.holder.get(b.key) is not b.original
        ]
        return problems + installed_wrappers()


def installed_wrappers() -> list[str]:
    """Every binding in a loaded exocast module that is a tracing wrapper."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, "__perfbench_wrapper__", False):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, dict) and not attr.startswith("__"):
                found += [
                    f"{mod_name}.{attr}[{k}]"
                    for k, v in value.items()
                    if getattr(v, "__perfbench_wrapper__", False)
                ]
    return found
