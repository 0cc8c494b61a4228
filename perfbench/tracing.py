"""Span recording around the program's public layer boundaries.

``install`` replaces functions and methods of the imported ``stochenum``
modules with wrappers that record one span per call: a name, a start,
an end and the index of the enclosing span.  Spans live in compact
arrays in memory; ``layer_metrics`` turns them into per-layer counts and
times at the end, and ``dump`` writes them out.

Wrappers replace module attributes, so they see exactly the calls made
through that binding: ``derive_seed`` is wrapped where the walk modules
import it, not where ``verify`` does.  A call that re-enters the span it
is already in (a weight's ``value_at`` calling its base class) is passed
through without a second span.
"""

from __future__ import annotations

import functools
import json
import types
import weakref
from array import array
from collections import Counter
from statistics import median
from time import perf_counter

from stats import high_percentile, self_times

VERIFY_CHECKS = (
    "check_fixture_golden", "check_cost_split_identity", "check_unbiasedness",
    "check_variance_forms", "check_alpha_suite", "check_zero_variance",
)
ANALYSIS_FUNCTIONS = (
    "enumerate_distribution", "recursive_variance", "recursive_cv2", "alpha_stats", "count_sequences",
)


class Recorder:
    """Spans and per-span extras of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.units: dict[int, int] = {}  # span -> work units (runs, outcomes)
        self.tags: dict[int, str] = {}  # span -> cell label
        self.keys: dict[str, set] = {}  # name -> distinct argument keys, packed into ints
        self._serials: dict[int, tuple] = {}  # id -> (serial, weak reference)
        self._next_serial = 0

    def reset(self):
        for arr in (self.name_of, self.starts, self.ends, self.parents):
            del arr[:]
        self.stack.clear()
        self.units.clear()
        self.tags.clear()
        for keys in self.keys.values():
            keys.clear()
        self._serials.clear()
        self._next_serial = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.keys[name] = set()
        return self._ids[name]

    def serial(self, obj) -> int:
        """Small integer per object, in order of first sight.

        Keyed by id, with a weak reference to tell a reused id from the
        object that first had it, so counts never depend on allocation.
        """
        known = self._serials.get(id(obj))
        if known is None or known[1]() is not obj:
            known = self._serials[id(obj)] = (self._next_serial, weakref.ref(obj))
            self._next_serial += 1
        return known[0]

    def open(self, name: str, tag: str | None = None) -> int:
        idx = len(self.name_of)
        self.name_of.append(self.name_id(name))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        if tag is not None:
            self.tags[idx] = tag
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, key=None, units=None, tag=None):
        """Wrapper recording a span per call of ``fn``.

        ``key(args)`` adds to the name's distinct-key set, ``units(args,
        result)`` stores a work count on the span, ``tag(args)`` a label.
        """
        nid = self.name_id(name)
        name_of, starts, ends, parents, stack = self.name_of, self.starts, self.ends, self.parents, self.stack
        keys = self.keys[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and name_of[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if key is not None:
                keys.add(key(args))
            if tag is not None:
                self.tags[idx] = tag(args)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if units is not None:
                self.units[idx] = units(args, result)
            return result

        return wrapper

    def dump(self, prefix: str):
        """Write the spans as raw arrays, one file per field, plus a JSON index."""
        fields = {"name": self.name_of, "start": self.starts, "end": self.ends, "parent": self.parents}
        for field, arr in fields.items():
            with open(f"{prefix}.{field}.bin", "wb") as fh:
                arr.tofile(fh)
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump({
                "spans": len(self.name_of),
                "names": self.names,
                "fields": {field: arr.typecode for field, arr in fields.items()},
                "tags": {str(i): tag for i, tag in self.tags.items()},
            }, fh)


def install(rec: Recorder):
    """Wrap the layer boundaries of the imported program.  Not undone."""
    from stochenum import analysis, cli, estimators, experiments, posets, sampling, verify

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, **kw))

    # sampling: per-run stream seeding as the walk modules see it
    for mod in (estimators, posets):
        patch(mod, "derive_seed", "sampling.derive_seed")
    patch(estimators, "RandomSource", "sampling.stream_init")
    posets.random = types.SimpleNamespace(Random=rec.wrap(posets.random.Random, "sampling.stream_init"))
    patch(sampling.RandomChoice, "pick_subset", "sampling.pick_subset")

    # estimators
    patch(estimators.UniformHyperchild, "draw", "estimators.draw")
    patch(estimators.ImportanceInduced, "draw", "estimators.draw")
    patch(estimators, "_walk", "estimators.generic_walk")
    patch(cli, "run_many", "estimators.run_many")

    # posets
    tree_cls = posets.LEDecisionTree
    fixture = tree_cls(posets.fixture_poset())
    kind_of = {type(posets.importance_function(fixture, kind)): kind for kind in ("uniform", "f1", "f2", "f3")}
    patch(tree_cls, "__init__", "posets.tree_init")
    patch(tree_cls, "successors", "posets.successors")
    # keys pack (object serial, mask[, element]) into one int: ints are not
    # tracked by the cyclic GC, so millions of them do not slow collection
    patch(tree_cls, "maximal_after", "posets.maximal_after", key=lambda a: rec.serial(a[0]) << 64 | a[1])
    patch(
        tree_cls, "fast_run_block", "posets.fast_run_block",
        units=lambda a, r: a[5] - a[4],
        tag=lambda a: f"n{a[0].n}-{kind_of.get(type(a[2]), 'other')}",
    )
    weight_classes = set(kind_of)
    for cls in list(kind_of):
        weight_classes.update(c for c in cls.__mro__ if c is not object)
    for cls in sorted(weight_classes, key=lambda c: c.__name__):
        if "value_at" in vars(cls):
            patch(cls, "value_at", "posets.weight",
                  key=lambda a: rec.serial(a[0]) << 70 | a[1] << 6 | a[2])
        if "__call__" in vars(cls):
            patch(cls, "__call__", "posets.weight",
                  key=lambda a: rec.serial(a[0]) << 70 | a[1][1] << 6 | a[1][0][-1])
    for mod in (cli, experiments, verify):
        if hasattr(mod, "count_linear_extensions"):
            patch(mod, "count_linear_extensions", "posets.count_linear_extensions")
        if hasattr(mod, "random_poset"):
            patch(mod, "random_poset", "posets.random_poset")

    # experiments: one span per sweep task (per poset and swept point)
    patch(experiments, "_poset_task", "experiments.task")

    # analysis, through both the verify and the analysis bindings
    for fname in ANALYSIS_FUNCTIONS:
        for mod in (verify, analysis):
            patch(mod, fname, f"analysis.{fname}",
                  units=(lambda a, r: len(r.outcomes)) if fname == "enumerate_distribution" else None)

    # verify
    for fname in VERIFY_CHECKS + ("enumerable_posets",):
        patch(verify, fname, f"verify.{fname}")


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer counts and times of one traced pass.

    ``.calls``, ``.distinct``, ``.runs``, ``.outcomes`` and ``.count``
    are exact counts; ``.s`` is the total duration of a name's spans,
    ``.self_s`` the same less the time covered by child spans.
    """
    count = len(rec.name_of)
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    calls = Counter()
    total = Counter()
    self_total = Counter()
    spans_of = {"experiments.task": [], "posets.fast_run_block": [], "analysis.enumerate_distribution": []}
    for i in range(count):
        name = rec.names[rec.name_of[i]]
        calls[name] += 1
        total[name] += rec.ends[i] - rec.starts[i]
        self_total[name] += selfs[i]
        if name in spans_of:
            spans_of[name].append(i)

    def per(value, base, scale=1.0):
        return value / base * scale if base else 0.0

    m = {}
    seeds = calls["sampling.derive_seed"]
    m["sampling.seed.calls"] = seeds
    m["sampling.seed.us_per_call"] = per(
        total["sampling.derive_seed"] + total["sampling.stream_init"], seeds, 1e6)
    m["sampling.pick_subset.calls"] = calls["sampling.pick_subset"]
    m["sampling.pick_subset.self_s"] = self_total["sampling.pick_subset"]
    m["estimators.draw.calls"] = calls["estimators.draw"]
    m["estimators.draw.self_s"] = self_total["estimators.draw"]
    m["estimators.generic_walk.runs"] = calls["estimators.generic_walk"]
    m["estimators.generic_walk.us_per_run"] = per(
        total["estimators.generic_walk"], calls["estimators.generic_walk"], 1e6)
    m["posets.successors.calls"] = calls["posets.successors"]
    m["posets.successors.self_s"] = self_total["posets.successors"]
    m["posets.maximal_after.calls"] = calls["posets.maximal_after"]
    m["posets.maximal_after.distinct"] = len(rec.keys.get("posets.maximal_after", ()))
    m["posets.weight.calls"] = calls["posets.weight"]
    m["posets.weight.distinct"] = len(rec.keys.get("posets.weight", ()))
    m["posets.weight.self_s"] = self_total["posets.weight"]

    block_runs = Counter()
    block_s = Counter()
    for i in spans_of["posets.fast_run_block"]:
        label = _cell_of(rec, i)
        block_runs[label] += rec.units[i]
        block_s[label] += rec.ends[i] - rec.starts[i]
    m["posets.fast_run_block.runs"] = sum(block_runs.values())
    m["posets.fast_run_block.us_per_run"] = per(sum(block_s.values()), sum(block_runs.values()), 1e6)
    m["posets.fast_run_block.cells"] = {label: (block_runs[label], block_s[label]) for label in sorted(block_runs)}

    for name in ("posets.count_linear_extensions", "posets.random_poset", "posets.tree_init"):
        m[f"{name}.s"] = total[name]
    task_s = [rec.ends[i] - rec.starts[i] for i in spans_of["experiments.task"]]
    m["experiments.task.count"] = len(task_s)
    m["experiments.task.s.p50"] = median(task_s) if task_s else 0.0
    hi = high_percentile(task_s)
    m["experiments.task.s.p_hi"] = hi[1] if hi else 0.0
    m["experiments.task.s.p_hi_pct"] = hi[0] if hi else 0.0

    for fname in ANALYSIS_FUNCTIONS:
        m[f"analysis.{fname}.s"] = total[f"analysis.{fname}"]
    m["analysis.enumerate_distribution.outcomes"] = sum(rec.units[i] for i in spans_of["analysis.enumerate_distribution"])
    for fname in VERIFY_CHECKS + ("enumerable_posets",):
        m[f"verify.{fname}.s"] = total[f"verify.{fname}"]
    m["trace.spans"] = count
    return m


def _cell_of(rec: Recorder, idx: int) -> str:
    """Label of a span: its own tag, prefixed by its invocation's tag."""
    own = rec.tags.get(idx, "")
    i = rec.parents[idx]
    while i >= 0:
        if rec.names[rec.name_of[i]] == "cli.invocation":
            return f"{rec.tags.get(i, '')}:{own}"
        i = rec.parents[i]
    return own
