"""Spans around calls into each diskcheck layer, recorded from outside src/.

The tracer rebinds module and class attributes to timing wrappers and puts
every original back when it exits. A boundary is one attribute in one
namespace: `diskcheck.witnesses:check` is the name through which witnesses
calls checks.check, and it is wrapped separately from `diskcheck:check`,
the package entry point, so each call passes exactly one wrapper. A
boundary whose module or attribute does not exist is skipped and reports
zero calls, so the benchmark keeps running when a later change removes or
renames a function.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

LAYERS = ("series", "functionals", "bounds", "checks", "witnesses", "funcspec", "cli")

# (namespace, attribute, layer of the code behind it). Dotted attributes
# are class members. Names a module imports from another come first in
# each layer; the rest are the layer's own module-level functions, rebound
# so calls inside the module are seen too.
BOUNDARIES = (
    ("diskcheck.series", "PolySeries.__post_init__", "series"),
    ("diskcheck.series", "PolySeries.eval", "series"),
    ("diskcheck.series", "PolySeries.derivative", "series"),
    ("diskcheck.series", "SeriesA.__post_init__", "series"),
    ("diskcheck.series", "SeriesA.from_tail", "series"),
    ("diskcheck.series", "SeriesA.derivative", "series"),
    ("diskcheck.series", "SeriesA.divide_by_z", "series"),
    ("diskcheck.series", "SeriesA.scale_radius", "series"),
    ("diskcheck.series", "SeriesA.to_zfprime", "series"),
    ("diskcheck.checks", "as_polynomial", "functionals"),
    ("diskcheck.checks", "_require_nonsingular", "functionals"),
    ("diskcheck.witnesses", "as_polynomial", "functionals"),
    ("diskcheck", "as_polynomial", "functionals"),
    ("diskcheck", "eval_functional", "functionals"),
    ("diskcheck.checks", "poly_sup", "bounds"),
    ("diskcheck.checks", "_poly_sup_argmax", "bounds"),
    ("diskcheck.checks", "_circle_argopt", "bounds"),
    ("diskcheck.checks", "_deep_circle_argmax", "bounds"),
    ("diskcheck.witnesses", "coeff_bound", "bounds"),
    ("diskcheck.bounds", "circle_argmax", "bounds"),
    ("diskcheck.bounds", "coeff_bound", "bounds"),
    ("diskcheck.bounds", "_circle_argopt", "bounds"),
    ("diskcheck", "poly_sup", "bounds"),
    ("diskcheck", "circle_argmax", "bounds"),
    ("diskcheck", "coeff_bound", "bounds"),
    ("diskcheck.witnesses", "check", "checks"),
    ("diskcheck.witnesses", "threshold", "checks"),
    ("diskcheck.witnesses", "validate_params", "checks"),
    ("diskcheck.cli", "check", "checks"),
    ("diskcheck.cli", "membership", "checks"),
    ("diskcheck.checks", "threshold", "checks"),
    ("diskcheck.checks", "validate_params", "checks"),
    ("diskcheck", "check", "checks"),
    ("diskcheck", "membership", "checks"),
    ("diskcheck", "jack_probe", "checks"),
    ("diskcheck.witnesses", "sample_satisfying", "witnesses"),
    ("diskcheck.cli", "falsify", "witnesses"),
    ("diskcheck.cli", "radius_of_validity", "witnesses"),
    ("diskcheck.cli", "make_witness", "witnesses"),
    ("diskcheck", "falsify", "witnesses"),
    ("diskcheck", "radius_of_validity", "witnesses"),
    ("diskcheck.cli", "load_function", "funcspec"),
    ("diskcheck.cli", "function_to_dict", "funcspec"),
    ("diskcheck.witnesses", "function_to_dict", "funcspec"),
    ("diskcheck.funcspec", "function_from_dict", "funcspec"),
    ("diskcheck.cli", "main", "cli"),
)

#: Boundaries whose arguments and results are handed to the observer.
OBSERVED = frozenset({
    "check", "membership", "jack_probe", "falsify", "radius_of_validity",
    "load_function", "main",
})


@dataclass
class Boundary:
    namespace: str
    attr: str
    layer: str
    present: bool = False
    calls: int = 0
    errors: int = 0
    total_ns: int = 0
    self_ns: int = 0


#: Spans kept per traced run; counters cover every call.
MAX_SPANS = 50_000

#: Field order of each recorded span.
SPAN_FIELDS = ("id", "name", "layer", "start_ns", "end_ns", "parent", "item", "error")


@dataclass
class Tracer:
    """Context manager that wraps every present boundary while active.

    `observer(boundary, args, kwargs, result, duration_ns)` is called after
    each successful call through an OBSERVED boundary. The first MAX_SPANS
    spans to start are kept; counters cover every call.
    """

    observer: object = None
    boundaries: tuple = BOUNDARIES
    item: int | None = None
    spans: list = field(default_factory=list)
    dropped: int = 0
    stats: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)
    _next_id: int = 0

    def __post_init__(self):
        for ns, attr, layer in self.boundaries:
            self.stats[f"{ns}:{attr}"] = Boundary(ns, attr, layer)

    # -- install / restore

    @staticmethod
    def _resolve(ns: str, attr: str):
        """(owner, name, raw attribute) or None when it does not exist."""
        try:
            owner = importlib.import_module(ns)
        except ImportError:
            return None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            raw = owner.__dict__.get(name)
        else:
            raw = getattr(owner, name, None)
        if raw is None:
            return None
        return owner, name, raw

    def __enter__(self):
        try:
            for key, b in self.stats.items():
                found = self._resolve(b.namespace, b.attr)
                b.present = found is not None
                if not found:
                    continue
                owner, name, raw = found
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, key, b))
                elif callable(raw):
                    wrapped = self._wrap(raw, key, b)
                else:
                    b.present = False
                    continue
                self._saved.append((owner, name, raw))
                setattr(owner, name, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    # -- recording

    def _wrap(self, fn, key: str, b: Boundary):
        tracer = self
        observe = b.attr.rsplit(".", 1)[-1] in OBSERVED and tracer.observer is not None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                b.calls += 1
                b.errors += failed
                b.total_ns += dur
                b.self_ns += dur - frame[1]
                if sid < MAX_SPANS:  # ids rise with start time, so parents are kept
                    tracer.spans.append((sid, key, b.layer, t0, t1, parent, tracer.item, failed))
                else:
                    tracer.dropped += 1
            if observe:
                tracer.observer(b, args, kwargs, result, dur)
            return result

        return wrapper

    # -- summaries

    def layer_totals(self) -> dict:
        out = {layer: {"calls": 0, "self_ns": 0, "errors": 0} for layer in LAYERS}
        for b in self.stats.values():
            t = out.setdefault(b.layer, {"calls": 0, "self_ns": 0, "errors": 0})
            t["calls"] += b.calls
            t["self_ns"] += b.self_ns
            t["errors"] += b.errors
        return out

    def dump(self, path, extra: dict) -> None:
        doc = {
            "boundaries": [vars(b) for b in self.stats.values()],
            "layers": self.layer_totals(),
            "spans_dropped": self.dropped,
            "span_fields": SPAN_FIELDS,
            "spans": self.spans,
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
