"""In-memory span tracing of purecross, installed from outside the package.

:func:`instrument` wraps the public functions of each layer module, plus
the methods the per-layer metrics name, and rebinds every reference to
the original in every purecross namespace.  That matters for names
imported with ``from .x import f``: ``pipeline`` calls its own binding of
``partition_weight``, so wrapping only ``bijections.partition_weight``
would miss those calls.

A span is (name, start, end, parent, tag); spans of one repetition share
a run id.  A call that returns a generator gets one extra span per
resume, tagged ``"next"``, so lazily produced items are timed where they
are produced.
"""

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("partition", "enumeration", "bijections", "series", "pipeline", "cli")
# Methods the per-layer metrics need, as (module, class, method, span name).
METHODS = (
    ("series", "Series", "__mul__", "series.mul"),
    ("series", "Series", "compose", "series.compose"),
    ("series", "Series", "inverse", "series.inverse"),
    ("series", "Series", "reversion", "series.reversion"),
    ("partition", "Partition", "noncrossing_cover", "partition.noncrossing_cover"),
)
# Names whose inclusive time is reported as ``<name>.s``.
INCLUSIVE = {
    "series.reversion", "series.solve_fixpoint", "pipeline.derive_c_from_d",
    "pipeline.derive_b_from_c", "pipeline.derive_a_from_b", "pipeline.counts_table",
    "pipeline.forward_weighted",
}
CLASS_KEYS = {"all": "all", "nc": "nc", "co": "co", "pc+": "pc_plus", "pc": "pc"}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, tag]
        self.counts = Counter()
        self._stack = []

    def _open(self, name, tag=None):
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, tag])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, tagger=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if tagger is not None:
                span[4] = tagger(args, kwargs, result)
            if inspect.isgenerator(result):
                return self._resumes(name, result)
            return result

        return traced

    def _resumes(self, name, gen):
        items = name + ".items"
        while True:
            span = self._open(name, "next")
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(span)
            self.counts[items] += 1
            yield item

    def write(self, path):
        """Append the spans to a gzipped JSON-lines file, one
        ``[run, id, name, start, end, parent, tag]`` array per line."""
        with gzip.open(path, "at", encoding="utf-8", compresslevel=1) as out:
            run = json.dumps(self.run_id)
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                out.write(f'[{run},{i},"{name}",{start!r},{end!r},{parent},{json.dumps(tag)}]\n')


def _count_tagger(signature):
    def tag(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return [bound.arguments["cls"].value, bound.arguments["workers"], result]

    return tag


def instrument(tracer):
    """Wrap the layers of the already imported purecross package."""
    modules = {layer: sys.modules[f"purecross.{layer}"] for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            tagger = _count_tagger(inspect.signature(obj)) if (layer, attr) == ("enumeration", "count") else None
            wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj, tagger)
    classes = []
    for layer, cls_name, meth, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        wrapped[vars(cls)[meth]] = tracer.wrap(name, vars(cls)[meth])
        classes.append(cls)
    namespaces = [m for n, m in sys.modules.items() if n == "purecross" or n.startswith("purecross.")]
    for ns in namespaces + classes:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(ns, attr, wrapped[obj])


def layer_metrics(tracer, wall, t0, t1):
    """Per-layer metrics of one traced repetition, and a list of
    accounting problems.

    Every span must lie inside its parent, and top-level spans inside the
    timed region [t0, t1].  Then self times are nonnegative, and the self
    times of the layer spans plus ``trace.untraced_s`` (the time outside
    any layer span) add up to ``wall``.
    """
    spans = tracer.spans
    eps = 1e-9
    problems = []
    child = [0.0] * len(spans)
    is_layer = [False] * len(spans)
    # Nearest enclosing layer span (benchmark spans do not count), and
    # whether series.solve_fixpoint encloses the span.
    layer_parent = [-1] * len(spans)
    in_fixpoint = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        is_layer[i] = name.partition(".")[0] in LAYERS
        lo, hi = (spans[parent][1], spans[parent][2]) if parent >= 0 else (t0, t1)
        if not lo - eps <= start <= end <= hi + eps:
            problems.append(f"span {i} {name} [{start}, {end}] outside its parent [{lo}, {hi}]")
        if parent >= 0:
            child[parent] += end - start
            layer_parent[i] = parent if is_layer[parent] else layer_parent[parent]
            in_fixpoint[i] = in_fixpoint[parent] or spans[parent][0] == "series.solve_fixpoint"

    calls, self_s, incl, layer_self = Counter(), Counter(), Counter(), Counter()
    serial, parallel, accepted = Counter(), Counter(), Counter()
    trials, top, fixpoint_composes = [], 0.0, 0
    for i, (name, start, end, parent, tag) in enumerate(spans):
        duration = end - start
        own = duration - child[i]
        if own < -eps:
            problems.append(f"span {i} {name}: children cover more than its {duration}s")
        self_s[name] += own
        if tag != "next":
            calls[name] += 1
        if is_layer[i]:
            layer_self[name.partition(".")[0]] += own
            if layer_parent[i] < 0:
                top += duration
        if name in INCLUSIVE:
            # Only the outermost span of a name counts, so recursion is not
            # counted twice.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += duration
        if name == "series.compose" and in_fixpoint[i]:
            fixpoint_composes += 1
        elif name == "enumeration.count":
            cls, workers, result = tag
            (serial if workers == 1 else parallel)[cls] += duration
            if workers == 1:
                accepted[cls] += result
        elif name == "bench.trial":
            trials.append(duration)
    untraced = wall - top
    if untraced < -eps:
        problems.append(f"layer spans cover {top}s of a {wall}s timed region")

    m = {}
    for name in ("series.mul", "series.compose", "series.inverse"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["series.reversion.calls"] = calls["series.reversion"]
    m["series.reversion.s"] = incl["series.reversion"]
    m["series.solve_fixpoint.s"] = incl["series.solve_fixpoint"]
    m["series.solve_fixpoint.compose_calls"] = fixpoint_composes
    for fn in ("derive_c_from_d", "derive_b_from_c", "derive_a_from_b", "counts_table", "forward_weighted"):
        m[f"pipeline.{fn}.s"] = incl[f"pipeline.{fn}"]
    m["pipeline.weighted_brute_coeffs.self_s"] = self_s["pipeline.weighted_brute_coeffs"]
    for cls, key in CLASS_KEYS.items():
        m[f"enumeration.count.s.{key}"] = serial[cls]
        m[f"enumeration.count_w2.s.{key}"] = parallel[cls]
        m[f"enumeration.count.accepted_per_s.{key}"] = accepted[cls] / serial[cls] if serial[cls] else 0.0
    m["enumeration.iterate.calls"] = calls["enumeration.iterate"]
    m["enumeration.iterate.items"] = tracer.counts["enumeration.iterate.items"]
    m["enumeration.iterate.self_s"] = self_s["enumeration.iterate"]
    for fn in ("partition_weight", "connected_weight", "pc_plus_weight"):
        m[f"bijections.{fn}.calls"] = calls[f"bijections.{fn}"]
        m[f"bijections.{fn}.self_s"] = self_s[f"bijections.{fn}"]
    m["bijections.first_trial_s"] = trials[0] if trials else 0.0
    m["bijections.later_trial_s"] = statistics.median(trials[1:]) if len(trials) > 1 else 0.0
    m["partition.noncrossing_cover.calls"] = calls["partition.noncrossing_cover"]
    m["partition.noncrossing_cover.self_s"] = self_s["partition.noncrossing_cover"]
    m["cli.self_s"] = self_s["cli.run"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    m["trace.untraced_s"] = untraced
    m["trace.spans"] = len(spans)
    return m, problems
