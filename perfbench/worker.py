"""Child processes of the benchmark: set-up probes and the workload runner.

    python3 perfbench/worker.py setup SPEC OUT
        Fresh-process set-up: import the package, load or generate the
        workload's instances, build their decision trees and count exact
        references.  OUT gets the monotonic time at which the first
        estimator run or check could start, and the exact counts.

    python3 perfbench/worker.py run SPEC OUT
        Runs the workload's CLI invocations through ``stochenum.cli.main``
        in this process (pool workers are its children), then, with
        tracing on, again under the span recorder.  OUT gets one record
        per invocation and, when traced, the per-layer metrics.

SPEC is the JSON that run.py writes (see ``workloads.build``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(spec: dict, out_path: str):
    t0 = time.monotonic()
    import stochenum.cli  # noqa: F401  (the entry point's whole import graph)
    from stochenum.posets import MAX_DP_ELEMENTS, LEDecisionTree, count_linear_extensions, load_poset, random_poset
    from stochenum.sampling import derive_seed
    from stochenum.verify import enumerable_posets

    import_s = time.monotonic() - t0
    s = spec["setup"]
    exact = {}
    for entry in s["posets"]:
        poset = load_poset(entry["path"])
        LEDecisionTree(poset)
        if poset.n <= MAX_DP_ELEMENTS:
            exact[entry["label"]] = count_linear_extensions(poset)
    if s["sweep"]:
        # the sweep's own instance stream (experiments._poset_task)
        sw = s["sweep"]
        for point_idx, n in enumerate(sw["values"]):
            for k in range(sw["posets"]):
                LEDecisionTree(random_poset(n, sw["p"], derive_seed(sw["seed"], "poset", point_idx, k)))
    if s["verify"]:
        v = s["verify"]
        budgets = tuple(range(1, v["max_budget"] + 1))
        for poset in enumerable_posets(v["posets"], v["seed"], v["max_n"], budgets, v["max_sequences"]):
            LEDecisionTree(poset)
    ready = time.monotonic()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "import_s": import_s, "exact": exact}, fh)


def _invoke(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Executes passes over the workload's cells and records each invocation."""

    def __init__(self, spec: dict, rec=None):
        from stochenum import cli

        self.spec = spec
        self.cli = cli
        self.rec = rec
        self.walk_s = 0.0
        # One timer on the walk entry points, so runs per second divide
        # by walk time, not by the exact count the CLI adds afterwards.
        for attr in ("run_many", "run_sweep"):
            setattr(cli, attr, self._timed(getattr(cli, attr)))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.walk_s += time.perf_counter() - t
        return timed

    def run_pass(self, label: str, workers_cap: int | None = None) -> list[dict]:
        records = []
        for cell in self.spec["cells"]:
            workers = cell["workers"] if workers_cap is None else min(cell["workers"], workers_cap)
            argv = ["--threads", str(workers)] + cell["argv"]
            self.walk_s = 0.0
            span = self.rec.open("cli.invocation", cell["name"]) if self.rec else None
            t = time.perf_counter()
            rc, out, err = _invoke(self.cli.main, argv)
            wall = time.perf_counter() - t
            if span is not None:
                self.rec.close(span)
            records.append({
                "pass": label, "cell": cell["name"], "workers": workers, "rc": rc,
                "wall_s": wall, "walk_s": self.walk_s, "stdout": out, "stderr": err[-4000:],
            })
        return records


def run(spec: dict, out_path: str):
    seconds = spec["seconds"]
    runner = Runner(spec)
    result = {"records": [], "layers": None}
    records = result["records"]
    multi = any(c["workers"] > 1 for c in spec["cells"])
    t0 = time.perf_counter()
    if multi:
        records += runner.run_pass("reference", workers_cap=1)
    if not spec["trace"]:
        t0 = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t0 < seconds:
            records += runner.run_pass(f"measured-{i}")
            i += 1
    else:
        from tracing import Recorder, install, layer_metrics

        records += runner.run_pass("measured-0")
        rec = Recorder()
        runner.rec = rec
        install(rec)
        layers = []
        i = 0
        while i == 0 or time.perf_counter() - t0 < seconds:
            rec.reset()
            records += runner.run_pass(f"traced-{i}", workers_cap=1)
            layers.append(layer_metrics(rec))
            i += 1
        rec.dump(os.path.join(os.path.dirname(out_path), "spans"))
        result["layers"] = layers
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec_arg = json.load(fh)
    if mode == "setup":
        setup(spec_arg, sys.argv[3])
    elif mode == "run":
        run(spec_arg, sys.argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
