"""In-memory span tracing installed from outside the library.

The library has no spans of its own, so the tracer wraps callables at the
layer boundaries: every public function of the entclass modules, the
constructors of the validated value types, the ``monotone.MEASURES``
evaluators (bound at import, so patching the module attribute alone would
miss them) and the ``numpy.linalg`` kernels the library calls. A span is
``(name, parent, start_ns, end_ns)``. After each operation its spans are
folded into per-name totals; the spans of the operations the caller asks to
keep stay in memory and are written once, when the run ends.

A layer's self time is its span's duration minus the durations of its
direct children. The process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

#: Library modules whose public functions are wrapped, in layer order.
LAYER_MODULES = ("tensor", "numerics", "invariants", "classify", "monotone", "protocols", "cli")

#: Class-level callables wrapped in place: (module, class, attribute, span name).
#: Wrapping ``__post_init__`` times construction, including validation.
CLASS_TARGETS = (
    ("tensor", "StateTensor", "__post_init__", "tensor.StateTensor"),
    ("tensor", "LocalOperation", "__post_init__", "tensor.LocalOperation"),
    ("numerics", "RandomSource", "generator", "numerics.RandomSource.generator"),
    ("monotone", "PovmPair", "__post_init__", "monotone.PovmPair"),
)

#: numpy.linalg kernels; eigh and eigvalsh share one span name.
LINALG_TARGETS = {
    "svd": "linalg.svd",
    "eigh": "linalg.eig",
    "eigvalsh": "linalg.eig",
    "qr": "linalg.qr",
    "det": "linalg.det",
}


class Tracer:
    """Collects spans for wrapped callables while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []  # the operation under way
        self.kept: list = []  # the operations kept for the trace file
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [calls, self ns]
        self._stack: list[int] = []

    def fold(self, keep: bool) -> None:
        """Add the finished operation's spans to ``totals`` and drop them,
        or with ``keep`` move them to ``kept``."""
        for name, (calls, self_ns) in layer_totals(self.spans).items():
            entry = self.totals[name]
            entry[0] += calls
            entry[1] += self_ns
        if keep:
            offset = len(self.kept)
            self.kept += [(n, p + offset if p >= 0 else -1, t0, t1) for n, p, t0, t1 in self.spans]
        self.spans.clear()

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, clock())
                stack.pop()

        return traced


def install(tracer: Tracer):
    """Wrap the library's layer boundaries so they record into ``tracer``.

    Every binding of a wrapped function in any loaded entclass module is
    replaced, so names imported with ``from .x import f`` are traced too.
    Returns a function that puts every original back.
    """
    import numpy.linalg

    import entclass.cli  # noqa: F401  (loads every layer module, the CLI too)

    modules = {name: sys.modules[f"entclass.{name}"] for name in LAYER_MODULES}
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    originals = []

    def patch(owner, attr, value):
        originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    loaded = [m for n, m in list(sys.modules.items()) if n == "entclass" or n.startswith("entclass.")]
    for module in loaded:
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                patch(module, attr, hit[1])

    measures = modules["monotone"].MEASURES
    original_measures = dict(measures)
    for key, (fn, dims, degree) in list(measures.items()):
        hit = wrapped.get(id(fn))
        measures[key] = (hit[1] if hit else fn, dims, degree)

    for module_name, class_name, attr, span in CLASS_TARGETS:
        cls = getattr(modules[module_name], class_name)
        patch(cls, attr, tracer.wrap(span, getattr(cls, attr)))
    state_cls = modules["tensor"].StateTensor
    patch(state_cls, "norm", property(tracer.wrap("tensor.StateTensor.norm", state_cls.norm.fget)))

    for attr, span in LINALG_TARGETS.items():
        patch(numpy.linalg, attr, tracer.wrap(span, getattr(numpy.linalg, attr)))

    def uninstall():
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)
        measures.update(original_measures)

    return uninstall


def layer_totals(spans) -> dict[str, tuple[int, int]]:
    """Per span name: (calls, self time in ns)."""
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for i, (name, parent, start, end) in enumerate(spans):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start - child_ns[i]
    return {name: (calls, self_ns) for name, (calls, self_ns) in totals.items()}


def dump(path, spans, meta: dict) -> None:
    """Write spans as compact JSON: a name table and [name, parent, start, end] rows."""
    names: dict[str, int] = {}
    rows = []
    for name, parent, start, end in spans:
        rows.append([names.setdefault(name, len(names)), parent, start, end])
    doc = dict(meta, clock="time.perf_counter_ns", names=list(names), spans=rows)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, separators=(",", ":"))


def load(path) -> list:
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    names = doc["names"]
    return [(names[n], parent, start, end) for n, parent, start, end in doc["spans"]]
