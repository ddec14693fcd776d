"""Spans around orbitcheck's layer-boundary functions, recorded from outside.

The tracer rebinds each listed function, in every ``orbitcheck`` module
that holds it, to a wrapper that records a span (name, start, end,
parent, pass). Callers such as ``catalog.catalog_instantiate`` or
``go._go_check_exact`` look their callees up as module globals, so the
rebinding catches the calls between layers without touching ``src/``.
Spans stay in memory until the run writes them out. tracemalloc runs
only while ``memory`` is set, in a pass of its own whose times are not
used, so it inflates no self time.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """One layer-boundary function: where it lives and what to record."""

    name: str
    module: str
    attr: str
    peak: bool = False
    exact_name: str | None = None


# Layers are the modules under src/orbitcheck. core, linalg and exact are
# the substrate under every layer and natred is closed-form, so neither
# gets a span here.
TARGETS = (
    Target("zoo.classical", "orbitcheck.zoo", "classical"),
    Target("zoo.named_embedding", "orbitcheck.zoo", "named_embedding"),
    Target("zoo.as_embedding", "orbitcheck.zoo", "as_embedding"),
    Target("spaces.reductive_space", "orbitcheck.spaces", "reductive_space",
           peak=True),
    Target("spaces.decompose_isotropy", "orbitcheck.spaces",
           "decompose_isotropy", peak=True),
    Target("spaces.classify_structure", "orbitcheck.spaces",
           "classify_structure"),
    Target("spaces.exact_module_bases", "orbitcheck.spaces",
           "exact_module_bases"),
    Target("filters.necessary_filter", "orbitcheck.filters",
           "necessary_filter", peak=True),
    # go_check(exact_mode=True) is the exact lane: its own span name, and
    # no tracemalloc, which would multiply the cost of Fraction arithmetic.
    Target("go.go_check", "orbitcheck.go", "go_check", peak=True,
           exact_name="go.go_check_exact"),
    Target("catalog.catalog_instantiate", "orbitcheck.catalog",
           "catalog_instantiate"),
    Target("catalog.catalog_run", "orbitcheck.catalog", "catalog_run"),
)

SPAN_NAMES = tuple(t.name for t in TARGETS) + ("go.go_check_exact",)
PEAK_NAMES = tuple(t.name for t in TARGETS if t.peak)


def decompose_system_mb(space) -> float:
    """Size of the dense equivariance system decompose_isotropy solves.

    Computed, not measured: (dim h * dim m^2) rows by dim m (dim m + 1) / 2
    float64 columns.
    """
    dh, dm = space.h.dim, space.m.dim
    return dh * dm * dm * (dm * (dm + 1) // 2) * 8 / 1e6


@dataclass
class Span:
    name: str
    parent: int
    pass_index: int
    start: float = 0.0
    end: float = 0.0
    peak_mb: float | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; installs and removes its wrappers."""

    def __init__(self, origin: float):
        self.origin = origin
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.pass_index = -1
        self.memory = False

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            exact = target.exact_name is not None and kwargs.get("exact_mode")
            span = Span(name=target.exact_name if exact else target.name,
                        parent=self._stack[-1] if self._stack else -1,
                        pass_index=self.pass_index)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            own_tm = (self.memory and target.peak and not exact
                      and not tracemalloc.is_tracing())
            if own_tm:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if own_tm:
                    span.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                self._stack.pop()
            if target.name == "spaces.decompose_isotropy":
                span.counts["system_mb"] = decompose_system_mb(args[0])
            elif target.name == "go.go_check":
                span.counts["samples"] = result.n_samples
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every orbitcheck global that names a target function."""
        if self._saved:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if n == "orbitcheck" or n.startswith("orbitcheck.")]
        for target in TARGETS:
            fn = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(target, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as out:
            for i, (span, own) in enumerate(zip(self.spans, selfs)):
                out.write(json.dumps({
                    "id": i, "name": span.name, "parent": span.parent,
                    "pass": span.pass_index,
                    "start_s": round(span.start - self.origin, 6),
                    "end_s": round(span.end - self.origin, 6),
                    "self_s": round(own, 6), "peak_mb": span.peak_mb,
                    **span.counts}) + "\n")
