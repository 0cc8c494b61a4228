"""The four workloads: their inputs, their CLI invocations and their output checks.

Every input derives from the benchmark seed.  Estimate workloads get
posets generated by ``random_poset`` and written as files, then passed
to the CLI with ``--poset``; the sweep and verify workloads generate
their instances inside the program from the CLI seed.
"""

from __future__ import annotations

import csv
import io
import math
import os

WHY = {
    "single-path": "estimate at the CLI defaults (B=1, uniform) on n=20/24, p=0.2, 1 worker: "
                   "generic walk, per-run seeding, two-phase draw; no fast path, no weight memo",
    "weighted": "estimate B=5 with f2/f3 on narrow n=24 p=0.2, wide n=24 p=0.05 and n=40 p=0.05, "
                "2 workers: fast path, weight and expansion memos warm vs cold, run_many fan-out",
    "sweep": "sweep over n=10,15,20 at B=5 with all four kinds, 2 workers: many fresh trees with "
             "cold caches, poset generation, process pool and merge",
    "verify": "verify at reduced size: exact Fraction enumeration and the variance/CV/alpha "
              "recursions, with the walk nearly idle",
}
WORKLOADS = tuple(WHY)

WORKERS = 2  # the machine's core count; the load never uses more
SINGLE_PATH_RUNS = 1000  # the CLI default
WEIGHTED_RUNS = 128
WEIGHTED_BUDGET = 5
WEIGHTED_KINDS = ("f2", "f3")
SWEEP_VALUES = (10, 15, 20)
SWEEP_POSETS = 16
SWEEP_P = 0.2  # the CLI default
SWEEP_KINDS = ("uniform", "f1", "f2", "f3")  # the CLI default
SWEEP_ARGS = ["sweep", "--kind", "n", "--values", ",".join(map(str, SWEEP_VALUES)), "--budget", "5",
              "--posets", str(SWEEP_POSETS), "--estimates", "256"]
VERIFY_MAX_N = 5
VERIFY_MAX_BUDGET = 3
VERIFY_POSETS = 16
VERIFY_MAX_SEQUENCES = 200
VERIFY_ARGS = ["verify", "--max-n", str(VERIFY_MAX_N), "--max-budget", str(VERIFY_MAX_BUDGET),
               "--posets", str(VERIFY_POSETS), "--max-sequences", str(VERIFY_MAX_SEQUENCES)]

# Estimate means must lie within this many standard errors of the exact
# count.  An estimate is nonnegative, so a large value that lifts the mean
# lifts its standard error with it, and the upper side of this test holds
# even for heavy-tailed estimates.
MEAN_TOLERANCE_STDERRS = 8.0
# The lower side does not: the B=1 uniform estimates are so heavy tailed
# that their sample mean and standard error both run low (one n=24 cell
# read 0.40x its exact count at 8.7 standard errors; 40,000 runs read
# 0.86x).  For those cells the lower bound comes from the exact second
# moment m2 instead: for nonnegative i.i.d. runs,
# P(mu - mean >= t) <= exp(-N t^2 / (2 m2)) (Maurer 2003), so a mean
# below mu - sqrt(2 m2 ln(1/delta) / N) fails with this delta.  On these
# posets the exact relative variance m2/mu^2 - 1 runs from about 30 to
# 2,700, so at 1000 runs the bound sits below zero and the lower side
# catches only a negative mean.
LOWER_TAIL_DELTA = 1e-9

# The DP cost of a random poset follows its up-set count, which ranges
# over 30x between draws: 86k to 2.4M at n=24, p=0.05, and 230 to 15.8k
# at n=24, p=0.2, where it moved the single-path set-up from 0.18 to
# 0.27 s.  Each poset of these classes is the first from its stream
# whose count lies in the class's band (the middle fifth or so of 200
# draws at p=0.2), which fixes the DP working set while the poset itself
# still changes with the seed.
UPSET_BANDS = {
    "n24p05": (240_000, 260_000),
    "n24p20": (1300, 1900),
    "n20p20": (800, 1200),
}
# Likewise verify's cost follows the number of hypernode sequences its
# instance set has over budgets 1..3, which ranges 168..689 over 30 seeds
# at this size; the CLI seed is the first from the benchmark seed's
# stream whose instance set has a count in this band.
VERIFY_SEQUENCES = (390, 410)
# The sweep's peak memory follows the largest up-set count among its
# n=20 posets (the exact count and f3's completion memo fill one entry
# per up-set): over ten seeds that count ran from 1.9k to 11.5k and the
# peak resident set from 28 to 37 MB.  Its walk time follows, in part,
# the total up-set count of those posets (20k to 33k).  The sweep's CLI
# seed is the first from the benchmark seed's stream whose largest and
# total counts both lie in these bands (about 7 draws of 4 ms).
SWEEP_MAX_UPSETS = (4000, 6000)
SWEEP_TOTAL_UPSETS = (22_000, 28_000)
MAX_DRAWS = 5000

# ROADMAP defect 3a: the fast path packs weight-memo keys as
# ``mask << 5 | elem``, which collide once n > 32, so weights depend on
# the order of evaluation and a 2-worker estimate differs from the
# 1-worker one.  The worker-count check still runs on those cells and
# its mismatches are printed by name on every run, but they are kept out
# of ``failed``: the benchmark is meant to run only operations that
# succeed, and the n=40 cell stays as it is so that the defect shows.
# Every other check on those cells counts.  Delete this once 3a is fixed.
KNOWN_DEFECT = "ROADMAP-3a"
PACKED_KEY_MAX_N = 32

# (label, n, p, posets) per estimate workload.  Walk cost per run varies
# by about 10% between random posets of one class, so classes without a
# size band average over several posets.
INSTANCES = {
    "single-path": (("n20p20", 20, 0.2, 4), ("n24p20", 24, 0.2, 4)),
    "weighted": (("n24p20", 24, 0.2, 2), ("n24p05", 24, 0.05, 1), ("n40p05", 40, 0.05, 4)),
}


def upset_count(poset) -> int:
    """Number of up-sets (equivalently antichains) of a poset.

    The deleted-set DP visits exactly these states.  Counted per
    connected component of the comparability graph, whose counts
    multiply, by the antichain recursion on one element at a time.
    """
    comparable = [poset.gt[i] | poset.above[i] for i in range(poset.n)]
    total = 1
    left = (1 << poset.n) - 1
    while left:
        comp = left & -left
        frontier = comp
        while frontier:
            e = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = comparable[e] & ~comp
            comp |= new
            frontier |= new
        left &= ~comp
        memo = {0: 1}

        def antichains(mask):
            known = memo.get(mask)
            if known is None:
                low = mask & -mask
                e = low.bit_length() - 1
                rest = mask & ~low
                known = antichains(rest) + antichains(rest & ~comparable[e])
                memo[mask] = known
            return known

        total *= antichains(comp)
    return total


def knuth_second_moment(poset) -> int:
    """E[X^2] of one B=1 uniform estimate X on the poset's decision tree.

    X is the product of the successor counts along a uniformly random
    root-to-leaf path, so per deleted up-set with s successors
    E[X^2] = s * (sum of E[X^2] over the s children), and 1 at the leaf.
    Same state space as ``count_linear_extensions``.
    """
    full = (1 << poset.n) - 1
    above = poset.above
    memo = {full: 1}

    def moment(deleted: int) -> int:
        known = memo.get(deleted)
        if known is None:
            remaining = full & ~deleted
            children = [deleted | 1 << e for e in range(poset.n)
                        if remaining >> e & 1 and above[e] & remaining == 0]
            known = len(children) * sum(moment(c) for c in children)
            memo[deleted] = known
        return known

    return moment(0)


def _poset(label, n, p, seed, index):
    from stochenum.posets import random_poset
    from stochenum.sampling import derive_seed

    if label not in UPSET_BANDS:
        return random_poset(n, p, derive_seed(seed, "poset", label, index))
    lo, hi = UPSET_BANDS[label]
    for draw in range(MAX_DRAWS):
        poset = random_poset(n, p, derive_seed(seed, "poset", label, index, draw))
        if lo <= upset_count(poset) <= hi:
            return poset
    raise RuntimeError(f"no {label} poset with {lo}..{hi} up-sets in {MAX_DRAWS} draws")


def verify_sequences(cli_seed: int) -> int:
    """Hypernode sequences over budgets 1..max of verify's poset instances."""
    from stochenum.analysis import count_sequences
    from stochenum.posets import LEDecisionTree
    from stochenum.verify import enumerable_posets

    budgets = tuple(range(1, VERIFY_MAX_BUDGET + 1))
    total = 0
    for poset in enumerable_posets(VERIFY_POSETS, cli_seed, VERIFY_MAX_N, budgets, VERIFY_MAX_SEQUENCES):
        tree = LEDecisionTree(poset)
        total += sum(count_sequences(tree, b, max_sequences=VERIFY_MAX_SEQUENCES) for b in budgets)
    return total


def _verify_seed(seed: int) -> int:
    from stochenum.sampling import derive_seed

    lo, hi = VERIFY_SEQUENCES
    for draw in range(MAX_DRAWS):
        cli_seed = 1 + derive_seed(seed, "verify", draw) % (2**31 - 1)
        if lo <= verify_sequences(cli_seed) <= hi:
            return cli_seed
    raise RuntimeError(f"no verify seed with {lo}..{hi} sequences in {MAX_DRAWS} draws")


def _sweep_seed(seed: int) -> int:
    from stochenum.posets import random_poset
    from stochenum.sampling import derive_seed

    point = len(SWEEP_VALUES) - 1
    for draw in range(MAX_DRAWS):
        cli_seed = 1 + derive_seed(seed, "sweep", draw) % (2**31 - 1)
        counts = [upset_count(random_poset(SWEEP_VALUES[point], SWEEP_P, derive_seed(cli_seed, "poset", point, k)))
                  for k in range(SWEEP_POSETS)]
        if (SWEEP_MAX_UPSETS[0] <= max(counts) <= SWEEP_MAX_UPSETS[1]
                and SWEEP_TOTAL_UPSETS[0] <= sum(counts) <= SWEEP_TOTAL_UPSETS[1]):
            return cli_seed
    raise RuntimeError(f"no sweep seed with up-set counts in {SWEEP_MAX_UPSETS} (largest) and "
                       f"{SWEEP_TOTAL_UPSETS} (total) in {MAX_DRAWS} draws")


def build(workload: str, seed: int, workdir: str) -> dict:
    """Generate the workload's inputs and describe its invocations.

    Returns a JSON-ready spec: ``cells`` lists one CLI invocation each
    (argv without the worker count), and ``setup`` what a fresh process
    loads or generates before the first estimator run or check.
    """
    from stochenum.posets import save_poset

    cells = []
    setup = {"posets": [], "sweep": None, "verify": None}
    common = ["--seed", str(seed)]
    if workload in INSTANCES:
        for label, n, p, count in INSTANCES[workload]:
            for index in range(count):
                name = f"{label}.{index}"
                path = os.path.join(workdir, f"{name}.poset")
                poset = _poset(label, n, p, seed, index)
                save_poset(poset, path)
                setup["posets"].append({"label": name, "path": path, "n": n})
                if workload == "single-path":
                    argv = common + ["estimate", "--poset", path, "--runs", str(SINGLE_PATH_RUNS)]
                    cells.append({"name": name, "argv": argv, "workers": 1, "poset": name,
                                  "m2": knuth_second_moment(poset)})
                    continue
                for kind in WEIGHTED_KINDS:
                    argv = common + ["estimate", "--poset", path, "--budget", str(WEIGHTED_BUDGET),
                                     "--importance", kind, "--runs", str(WEIGHTED_RUNS)]
                    cells.append({"name": f"{name}-{kind}", "argv": argv, "workers": WORKERS,
                                  "poset": name, "n": n})
    elif workload == "sweep":
        cli_seed = _sweep_seed(seed)
        cells.append({"name": "sweep", "argv": ["--seed", str(cli_seed)] + SWEEP_ARGS, "workers": WORKERS})
        setup["sweep"] = {"seed": cli_seed, "values": SWEEP_VALUES, "posets": SWEEP_POSETS, "p": SWEEP_P}
    elif workload == "verify":
        cli_seed = _verify_seed(seed)
        cells.append({"name": "verify", "argv": ["--seed", str(cli_seed)] + VERIFY_ARGS, "workers": 1})
        setup["verify"] = {"seed": cli_seed, "max_n": VERIFY_MAX_N, "max_budget": VERIFY_MAX_BUDGET,
                           "posets": VERIFY_POSETS, "max_sequences": VERIFY_MAX_SEQUENCES}
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {"workload": workload, "seed": seed, "cells": cells, "setup": setup}


def _rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def invocation_failures(rc: int, stdout: str, stderr: str) -> list[str]:
    """Failures any invocation can show: exit code, traceback, a FAIL line."""
    out = []
    if rc != 0:
        out.append(f"exit code {rc}")
    if "Traceback (most recent call last)" in stderr:
        out.append("traceback")
    if any(line.startswith("FAIL") for line in stdout.splitlines()):
        out.append("FAIL line")
    return out


def mismatch_failures(stdout: str, reference: str) -> list[str]:
    """Output of a multi-worker invocation against its 1-worker run."""
    if stdout == reference:
        return []
    detail = ""
    try:
        mine, ref = _rows(stdout), _rows(reference)
        if len(mine) == len(ref) == 1 and "mean" in mine[0]:
            detail = f" (mean {mine[0]['mean']} vs {ref[0]['mean']} on 1 worker)"
    except csv.Error:
        pass
    return [f"{WORKERS}-worker output differs from 1-worker{detail}"]


def estimate_failures(stdout: str, exact: int | None, m2: int | None = None) -> list[str]:
    """An estimate row's mean against the exact count, when one exists.

    ``m2`` is the exact second moment of one run, given for the B=1
    uniform cells; it sets the lower bound in place of the standard error.
    """
    rows = _rows(stdout)
    if len(rows) != 1:
        return [f"expected one estimate row, got {len(rows)}"]
    row = rows[0]
    if exact is None:
        return []
    if row["exact"] != str(exact):
        return [f"exact column {row['exact']} != reference count {exact}"]
    mean, stderr = float(row["mean"]), float(row["stderr"])
    if mean - exact > MEAN_TOLERANCE_STDERRS * stderr:
        return [f"mean {mean:.6g} is {(mean - exact) / stderr:.1f} stderr above exact {exact}"]
    if m2 is None:
        if exact - mean > MEAN_TOLERANCE_STDERRS * stderr:
            return [f"mean {mean:.6g} is {(exact - mean) / stderr:.1f} stderr below exact {exact}"]
        return []
    low = exact - math.sqrt(2 * m2 * math.log(1 / LOWER_TAIL_DELTA) / int(row["runs"]))
    if mean < low:
        return [f"mean {mean:.6g} is below {low:.6g}, the lower bound from exact {exact} and its second moment"]
    return []


def sweep_failures(stdout: str) -> list[str]:
    """f2 and f3 must sit below uniform at every swept point."""
    by_n: dict[str, dict[str, float]] = {}
    for row in _rows(stdout):
        by_n.setdefault(row["n"], {})[row["importance"]] = float(row["mean_rel_var"])
    if sorted(by_n, key=int) != [str(v) for v in SWEEP_VALUES]:
        return [f"swept points {sorted(by_n)} != {list(SWEEP_VALUES)}"]
    out = []
    for n, cells in by_n.items():
        for kind in ("f2", "f3"):
            if not cells[kind] < cells["uniform"]:
                out.append(f"{kind} rel. variance {cells[kind]:.4g} not below uniform "
                           f"{cells['uniform']:.4g} at n={n}")
    return out


def verify_failures(stdout: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    if not checks or any(not line.startswith("PASS") for line in checks):
        return ["not every check line is PASS"]
    return []


def work_done(cell_name: str, stdout: str) -> int:
    """Units of work one invocation completed, for the runs_per_s metric.

    Estimates: the runs column.  Sweep: posets x estimates over all rows.
    Verify runs no estimates: its check lines.  The instance counts on
    those lines would not do, as the cost-splitting check's count follows
    the seed (223 to 367) while its cost hardly moves.
    """
    if cell_name == "verify":
        return sum(1 for line in stdout.splitlines() if line.startswith(("PASS", "FAIL")))
    rows = _rows(stdout)
    if cell_name == "sweep":
        return sum(int(r["posets"]) * int(r["estimates_per_poset"]) for r in rows)
    return sum(int(r["runs"]) for r in rows)


def rel_variance(stdout: str) -> float:
    rows = _rows(stdout)
    return float(rows[0]["rel_variance"])
