"""Benchmark entry point: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It generates the workload's
inputs from the seed, times the set-up in fresh processes, runs the
workload in one child process through ``stochenum.cli.main`` for about
S seconds, checks every output, prints a report and, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import stats  # noqa: E402
from statistics import median  # noqa: E402
import workloads  # noqa: E402

# Fresh-process set-ups per untraced run, whose median is reported: at
# least SETUP_REPEATS, and more until they have taken SETUP_SECONDS, so a
# 0.2 s set-up is timed about ten times and a 1.6 s one three times.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
RUN_LIMIT_S = 170  # children still running this long after start are killed
RSS_UNIT_BYTES = 1024  # ru_maxrss is in KiB on Linux

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
REPORT_ONLY = (
    ("time_to_1pct_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
)
WEIGHTED_CELLS = tuple(
    f"{label}-{kind}" for label, *_ in workloads.INSTANCES["weighted"] for kind in workloads.WEIGHTED_KINDS
)
SWEEP_CELLS = tuple(
    f"sweep-n{n}-{kind}" for n in workloads.SWEEP_VALUES for kind in workloads.SWEEP_KINDS
)
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("sampling.seed.calls", "count", "lower"),
    ("sampling.seed.us_per_call", "us", "lower"),
    ("sampling.pick_subset.calls", "count", "lower"),
    ("sampling.pick_subset.self_s", "s", "lower"),
    ("estimators.draw.calls", "count", "lower"),
    ("estimators.draw.self_s", "s", "lower"),
    ("estimators.generic_walk.runs", "count", "lower"),
    ("estimators.generic_walk.us_per_run", "us", "lower"),
    ("estimators.run_many.fanout_eff", "ratio", "higher"),
    ("estimators.time_to_1pct_s", "s", "lower"),
    ("posets.successors.calls", "count", "lower"),
    ("posets.successors.self_s", "s", "lower"),
    ("posets.maximal_after.calls", "count", "lower"),
    ("posets.maximal_after.distinct", "count", "lower"),
    ("posets.weight.calls", "count", "lower"),
    ("posets.weight.distinct", "count", "lower"),
    ("posets.weight.self_s", "s", "lower"),
    ("posets.fast_run_block.runs", "count", "lower"),
    ("posets.fast_run_block.us_per_run", "us", "lower"),
) + tuple(
    (f"posets.fast_run_block.us_per_run.{cell}", "us", "lower") for cell in WEIGHTED_CELLS + SWEEP_CELLS
) + (
    ("posets.count_linear_extensions.s", "s", "lower"),
    ("posets.random_poset.s", "s", "lower"),
    ("posets.tree_init.s", "s", "lower"),
    ("experiments.task.count", "count", "lower"),
    ("experiments.task.s.p50", "s", "lower"),
    ("experiments.task.s.p_hi", "s", "lower"),
    ("experiments.pool_eff", "ratio", "higher"),
    ("analysis.enumerate_distribution.s", "s", "lower"),
    ("analysis.enumerate_distribution.outcomes", "count", "lower"),
    ("analysis.recursive_variance.s", "s", "lower"),
    ("analysis.recursive_cv2.s", "s", "lower"),
    ("analysis.alpha_stats.s", "s", "lower"),
    ("analysis.count_sequences.s", "s", "lower"),
) + tuple(
    (f"verify.{name}.s", "s", "lower")
    for name in ("check_fixture_golden", "check_cost_split_identity", "check_unbiasedness",
                 "check_variance_forms", "check_alpha_suite", "check_zero_variance", "enumerable_posets")
) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# Per-layer values that must repeat exactly between traced passes and runs.
EXACT_SUFFIXES = (".calls", ".distinct", ".runs", ".outcomes", ".count", "trace.spans")


def spawn_and_wait(argv: list[str], deadline: float, err_path: str):
    """Run a child in its own process group; returns (exit code, rusage of its process tree, stderr).

    The whole group is killed at the monotonic ``deadline``, so pool
    workers never outlive this process.
    """
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True, stdout=subprocess.DEVNULL, stderr=err)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as err:
        return proc.returncode, usage, err.read()


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def time_setups(spec_path: str, workdir: str, repeats: int, min_seconds: float, deadline: float) -> list[dict]:
    probes = []
    started = time.monotonic()
    for k in range(SETUP_MAX_REPEATS):
        if k >= repeats and time.monotonic() - started >= min_seconds:
            break
        out = os.path.join(workdir, f"setup-{k}.json")
        spawned = time.monotonic()
        rc, _, err = spawn_and_wait([sys.executable, os.path.join(HERE, "worker.py"), "setup", spec_path, out],
                                    deadline, out + ".err")
        if rc != 0:
            raise RuntimeError(f"set-up probe failed with exit code {rc}:\n{err}")
        with open(out, encoding="utf-8") as fh:
            probe = json.load(fh)
        probe["setup_s"] = probe["ready"] - spawned
        probes.append(probe)
    return probes


def evaluate(spec: dict, records: list[dict], exact: dict) -> tuple[list[list[str]], list[list[str]]]:
    """Per invocation record, in record order: its failure reasons, and
    its mismatches that are the known defect (see ``workloads.KNOWN_DEFECT``)."""
    cells = {c["name"]: c for c in spec["cells"]}
    multi = any(c["workers"] > 1 for c in spec["cells"])
    reference_pass = "reference" if multi else "measured-0"
    reference = {r["cell"]: r["stdout"] for r in records if r["pass"] == reference_pass}
    failures, known = [], []
    for r in records:
        reasons = workloads.invocation_failures(r["rc"], r["stdout"], r["stderr"])
        defects = []
        cell = cells[r["cell"]]
        if r["rc"] == 0 and "poset" in cell:
            reasons += workloads.estimate_failures(r["stdout"], exact.get(cell["poset"]), cell.get("m2"))
        elif r["rc"] == 0 and r["cell"] == "sweep":
            reasons += workloads.sweep_failures(r["stdout"])
        elif r["cell"] == "verify":
            reasons += workloads.verify_failures(r["stdout"])
        if r["pass"] != reference_pass and r["cell"] in reference:
            mismatch = workloads.mismatch_failures(r["stdout"], reference[r["cell"]])
            if r["workers"] > 1 and cell.get("n", 0) > workloads.PACKED_KEY_MAX_N:
                defects += mismatch
            else:
                reasons += mismatch
        failures.append(reasons)
        known.append(defects)
    return failures, known


def passes_of(records: list[dict], prefix: str) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["pass"].startswith(prefix):
            out.setdefault(r["pass"], []).append(r)
    return out


def runs_per_s(records: list[dict]) -> float:
    """Work units per walk second over one pass (verify: per wall second)."""
    work = sum(workloads.work_done(r["cell"], r["stdout"]) for r in records)
    walk = sum(r["walk_s"] if r["walk_s"] > 0 else r["wall_s"] for r in records)
    return work / walk


def time_to_1pct(passes: dict[str, list[dict]]) -> float:
    """Sum over cells of rel_variance x (walk seconds per run) / 1e-4."""
    by_cell: dict[str, list[dict]] = {}
    for recs in passes.values():
        for r in recs:
            by_cell.setdefault(r["cell"], []).append(r)
    total = 0.0
    for recs in by_cell.values():
        per_run = median([r["walk_s"] / workloads.work_done(r["cell"], r["stdout"]) for r in recs])
        total += workloads.rel_variance(recs[0]["stdout"]) * per_run / 1e-4
    return total


def end_to_end(spec, records, probes, usage, failures) -> tuple[dict, dict]:
    measured = passes_of(records, "measured")
    walls = [sum(r["wall_s"] for r in recs) for recs in measured.values()]
    m = {
        "wall_s": median(walls),
        "setup_s": median([p["setup_s"] for p in probes]),
        "runs_per_s": median([runs_per_s(recs) for recs in measured.values()]),
        "peak_rss_mb": usage.ru_maxrss * RSS_UNIT_BYTES / 1e6,
        "failed_frac": stats.failed_frac(failures),
    }
    if spec["workload"] == "weighted":
        m["time_to_1pct_s"] = time_to_1pct(measured)
    hi = stats.high_percentile(walls)
    detail = {
        "wall_s": f"median of {len(walls)} passes"
                  + (f", p{hi[0]:.0f} {hi[1]:.4f} s" if hi else ", too few passes for a high percentile"),
        "setup_s": f"median of {len(probes)} fresh processes",
        "runs_per_s": f"median of {len(walls)} passes",
    }
    return m, detail


def per_layer(spec, records, probes, layers) -> tuple[dict, list[str]]:
    """Per-layer metrics, and any count that differed between traced passes.

    Counts and the per-cell walk times come from the first traced pass,
    other times are medians over the traced passes.
    """
    problems = []
    first = layers[0]
    for other in layers[1:]:
        for name, value in first.items():
            if name.endswith(EXACT_SUFFIXES) and other[name] != value:
                problems.append(f"trace count {name} differs between traced passes: {value} vs {other[name]}")
    m = {}
    for name, value in first.items():
        if name == "posets.fast_run_block.cells":
            continue
        if name.endswith(EXACT_SUFFIXES) or not isinstance(value, float):
            m[name] = value
        else:
            m[name] = median([layer[name] for layer in layers])
    # one value per instance class and kind: weighted cells "n40p05.2-f3"
    # fold into "n40p05-f3", sweep trees into "sweep-n15-f3"
    cells: dict[str, list] = {}
    for label, (runs, seconds) in first["posets.fast_run_block.cells"].items():
        invocation, own = label.split(":", 1)
        key = f"sweep-{own}" if invocation == "sweep" else invocation.split(".")[0] + "-" + own.split("-")[1]
        acc = cells.setdefault(key, [0, 0.0])
        acc[0] += runs
        acc[1] += seconds
    for cell in WEIGHTED_CELLS + SWEEP_CELLS:
        runs, seconds = cells.get(cell, (0, 0.0))
        m[f"posets.fast_run_block.us_per_run.{cell}"] = seconds / runs * 1e6 if runs else 0.0

    m["cli.import_s"] = median([p["import_s"] for p in probes])
    multi = any(c["workers"] > 1 for c in spec["cells"])
    untraced = passes_of(records, "reference" if multi else "measured-0")
    base_wall = sum(r["wall_s"] for recs in untraced.values() for r in recs)
    traced_walls = [sum(r["wall_s"] for r in recs) for recs in passes_of(records, "traced").values()]
    m["trace.overhead_s"] = median(traced_walls) - base_wall
    m["estimators.run_many.fanout_eff"] = 0.0
    m["experiments.pool_eff"] = 0.0
    m["estimators.time_to_1pct_s"] = 0.0
    if multi:
        one = sum(r["walk_s"] for recs in untraced.values() for r in recs)
        many = sum(r["walk_s"] for r in passes_of(records, "measured-0")["measured-0"])
        eff_name = "experiments.pool_eff" if spec["workload"] == "sweep" else "estimators.run_many.fanout_eff"
        m[eff_name] = one / (workloads.WORKERS * many)
    if spec["workload"] == "weighted":
        m["estimators.time_to_1pct_s"] = time_to_1pct(passes_of(records, "measured"))
    missing = [name for name, _, _ in PER_LAYER if name not in m]
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    return m, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stochenum", "cli.py")):
        print(f"error: no program to benchmark: {os.path.join(SRC, 'stochenum')} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(workdir, exist_ok=True)

    spec = workloads.build(args.workload, args.seed, workdir)
    spec.update(seconds=args.seconds, trace=bool(args.trace))
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)

    deadline = time.monotonic() + RUN_LIMIT_S
    probes = (time_setups(spec_path, workdir, 1, 0.0, deadline) if args.trace
              else time_setups(spec_path, workdir, SETUP_REPEATS, SETUP_SECONDS, deadline))
    exact = probes[0]["exact"]
    result_path = os.path.join(workdir, "result.json")
    rc, usage, err = spawn_and_wait([sys.executable, os.path.join(HERE, "worker.py"), "run", spec_path, result_path],
                                    deadline, result_path + ".err")
    if rc != 0:
        print(f"error: workload runner failed with exit code {rc}:\n{err}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    records = result["records"]
    failures, known = evaluate(spec, records, exact)

    info = machine()
    print(f"machine: nproc={info['nproc']} python={info['python']} cpu={info['cpu']}")
    print(f"workload: {args.workload} (seed {args.seed}) -- {workloads.WHY[args.workload]}")
    e2e, detail = end_to_end(spec, records, probes, usage, failures)
    units = {name: unit for name, unit, _ in END_TO_END + REPORT_ONLY}
    for name, value in e2e.items():
        extra = f"  ({detail[name]})" if name in detail else ""
        print(f"  {name:<16} {value:.6g} {units[name]}{extra}")
    if args.trace:
        layers, problems = per_layer(spec, records, probes, result["layers"])
        failures[-1] += problems  # the last record belongs to the last traced pass
        print(f"per-layer metrics ({len(result['layers'])} traced passes at 1 worker; spans in {workdir}):")
        layer_units = {name: unit for name, unit, _ in PER_LAYER}
        for name, unit, _ in PER_LAYER:
            extra = ""
            if name == "experiments.task.s.p_hi" and layers["experiments.task.count"]:
                extra = f"  (p{layers['experiments.task.s.p_hi_pct']:.0f} of {layers['experiments.task.count']} tasks)"
            print(f"  {name:<52} {layers[name]:.6g} {unit}{extra}")
        metrics = {name: {"value": layers[name], "unit": layer_units[name]} for name, _, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    for tag, per_record in (("FAILURE", failures), (f"KNOWN DEFECT {workloads.KNOWN_DEFECT}", known)):
        named: dict[str, int] = {}
        for r, reasons in zip(records, per_record):
            for reason in reasons:
                key = f"{args.workload}/{r['cell']}: {reason}"
                named[key] = named.get(key, 0) + 1
        for key, count in named.items():
            print(f"{tag} {key} [{count}x]")
    hits = sum(1 for defects in known if defects)
    if hits:
        print(f"{workloads.KNOWN_DEFECT}: {hits} of {len(known)} invocations show the known defect "
              f"(n > {workloads.PACKED_KEY_MAX_N} worker-count mismatch); not counted in failed")
    failed = sum(1 for reasons in failures if reasons)
    print(json.dumps({"correct": failed == 0, "attempted": len(failures), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
