"""Span and counter recorder for the benchmark's traced run.

The recorder wraps the public functions of each layer at every binding
a caller can reach them through: the defining module and every other
loaded module that imported the name (``from m import f``), package
re-exports and the benchmark's own modules included. Calls made through
a module attribute at call time (``kernels.update_weights``, ``from
repro.rng import u01`` inside a function) resolve to the wrapped
defining-module attribute. Nothing in ``src/`` is edited; the wrappers
are removed on exit.

Each span records name, start, end and parent; the span file's header
carries the run id. Self time is a span's duration minus the summed
duration of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Modules that define or import a traced function; imported before
# wrapping, so every binding exists when the recorder scans for it and
# none is created from a wrapper while tracing.
TRACED_MODULES = (
    "repro.rng",
    "repro.dynamics.kernels",
    "repro.dynamics.state",
    "repro.diffusion.local",
    "repro.graph.local",
    "repro.kg.metagraphs",
    "repro.data.datasets",
    "repro.core.nominees",
    "repro.core.clustering",
    "repro.core.dre",
    "repro.core.tdsi",
    "repro.core.dysim",
    "repro.baselines.cr_greedy",
    "repro.baselines.hag",
    "repro.baselines.bundlegrd",
    "repro.baselines.ps",
    "repro.baselines.opt",
    "repro.experiments.harness",
    "repro.diffusion.spark_engine",
)
SPARK_MODULE = "repro.diffusion.spark_engine"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _simulate_name(args, kwargs):
    frozen = kwargs.get("frozen", False)
    return "local.simulate_frozen" if frozen else "local.simulate_dynamic"


def _simulate_counts(c, name, args, kwargs, out):
    m = _arg(args, kwargs, 3, "n_samples")
    c[name + ".samples"] += m
    c[name + ".user_samples"] += m * _arg(args, kwargs, 0, "model").n_users


def _markets(c, name, args, kwargs, out):
    c["clustering.markets"] += len(out)


def _rows(c, name, args, kwargs, out):
    c[name + ".rows"] += len(args[0])


def _events(c, name, args, kwargs, out):
    c[name + ".events"] += len(args[0])


def _draws(c, name, args, kwargs, out):
    c[name + ".draws"] += getattr(out, "size", 1)


# (metric prefix or name function, module, attribute, counter). The
# attribute may be ``Class.method``; that entry and ``simulate_spark``
# get the dedicated wrappers below.
SPECS = (
    ("data.make_dataset", "repro.data.datasets", "make_dataset", None),
    ("kg.relevance_table_pandas", "repro.kg.metagraphs", "relevance_table_pandas", None),
    ("nominees.select_nominees", "repro.core.nominees", "select_nominees", None),
    ("nominees.candidate_pool", "repro.core.nominees", "candidate_pool", None),
    ("clustering.identify_target_markets", "repro.core.clustering",
     "identify_target_markets", _markets),
    ("clustering.group_and_order", "repro.core.clustering", "group_and_order", None),
    ("dre.dr_all_items", "repro.core.dre", "dr_all_items", None),
    ("tdsi.sigma_pi", "repro.core.tdsi", "MarketEvaluator.sigma_pi", None),
    ("tdsi.substantial_influence", "repro.core.tdsi", "substantial_influence", None),
    ("baselines.hag", "repro.baselines.hag", "hag", None),
    ("baselines.bundlegrd", "repro.baselines.bundlegrd", "bundlegrd", None),
    ("baselines.ps", "repro.baselines.ps", "ps", None),
    ("baselines.cr_greedy_timings", "repro.baselines.cr_greedy", "cr_greedy_timings", None),
    ("graph.mioa_reach", "repro.graph.local", "mioa_reach", None),
    ("graph.undirected_bfs_hops", "repro.graph.local", "undirected_bfs_hops", None),
    ("graph.diameter_within", "repro.graph.local", "diameter_within", None),
    (_simulate_name, "repro.diffusion.local", "simulate", _simulate_counts),
    ("local.likelihood_pi", "repro.diffusion.local", "likelihood_pi", None),
    ("kernels.update_weights", "repro.dynamics.kernels", "update_weights", None),
    ("kernels.preference_batch", "repro.dynamics.kernels", "preference_batch", _rows),
    ("kernels.influence_strength", "repro.dynamics.kernels", "influence_strength", _events),
    ("rng.u01", "repro.rng", "u01", _draws),
    ("spark.simulate_spark", SPARK_MODULE, "simulate_spark", None),
)

class Tracer:
    """Records spans and counters while installed (``with Tracer(...)``).

    Spans live in memory as ``(id, parent, name, start, end)`` with the
    parent ``-1`` for a root span, and are written out by :meth:`dump`.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, name, start, child seconds, children]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, _ = frame
        dur = end - start
        parent = -1
        if self._stack:
            up = self._stack[-1]
            up[3] += dur
            up[4] += 1
            parent = up[0]
        self.spans.append((span_id, parent, name, start, end))
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - child_s

    def _wrap(self, label, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if count is not None:
                count(tracer.counts, name, args, kwargs, out)
            return out

        return wrapper

    def _wrap_sigma_pi(self, fn):
        """``MarketEvaluator.sigma_pi``: a call with no traced child is a cache hit."""
        tracer = self

        @functools.wraps(fn)
        def sigma_pi(ev, seeds):
            frame = tracer._enter("tdsi.sigma_pi")
            try:
                return fn(ev, seeds)
            finally:
                tracer._exit(frame)
                tracer.counts["tdsi.sigma_pi.hits"] += frame[4] == 0

        return sigma_pi

    def _wrap_spark(self, fn):
        """``simulate_spark``: runs under a job group so its stages can be counted."""
        tracer = self

        @functools.wraps(fn)
        def simulate_spark(spark, *args, **kwargs):
            sc = spark.sparkContext
            group = f"perfbench-{tracer.run_id}-{tracer._next_id}"
            sc.setJobGroup(group, "perfbench traced simulate_spark")
            frame = tracer._enter("spark.simulate_spark")
            try:
                out = fn(spark, *args, **kwargs)
            finally:
                tracer._exit(frame)
                sc.setLocalProperty("spark.jobGroup.id", None)
            st = sc.statusTracker()
            tracer.counts["spark.stages"] += sum(
                len(st.getJobInfo(j).stageIds) for j in st.getJobIdsForGroup(group)
            )
            tracer.counts["spark.adoption_rows"] += len(out.adoptions)
            return out

        return simulate_spark

    # -- install / remove ------------------------------------------------
    def __enter__(self) -> "Tracer":
        for m in TRACED_MODULES:
            importlib.import_module(m)
        for label, mod_name, attr, count in SPECS:
            owner = sys.modules[mod_name]
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap_sigma_pi(getattr(cls, meth)))
                continue
            fn = getattr(owner, attr)
            if attr == "simulate_spark":
                wrapper = self._wrap_spark(fn)
            else:
                wrapper = self._wrap(label, fn, count)
            # One wrapper per function, installed at every binding in any
            # loaded module (the program's and the benchmark's own): a
            # pickler that resolves the function by module and name (as
            # Spark's does for worker closures) then finds the wrapper
            # and ships a reference to the plain function.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(attr) is fn:
                    self._set(mod, attr, wrapper)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results ---------------------------------------------------------
    def metrics(self, overhead_s: float, names) -> dict[str, float]:
        """The per-layer metrics ``names`` (0 for layers not reached)."""
        vals: dict[str, float] = dict(self.counts)
        for name in self.calls:
            vals[f"{name}.calls"] = self.calls[name]
            vals[f"{name}.s"] = self.total[name]
            vals[f"{name}.self_s"] = self.self_s[name]
        calls = self.calls.get("tdsi.sigma_pi", 0)
        vals["tdsi.sigma_pi.hit_ratio"] = (
            self.counts.get("tdsi.sigma_pi.hits", 0) / calls if calls else 0.0
        )
        vals["trace.spans"] = len(self.spans)
        vals["trace.overhead_s"] = overhead_s
        return {name: vals.get(name, 0) for name in names}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header, then one span per line."""
        with open(path, "w") as f:
            f.write(json.dumps({"run_id": self.run_id, "fields":
                                ["id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
