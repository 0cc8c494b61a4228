"""Sweep experiments: relative variance of the weighted estimators on random posets.

Two protocols are supported.  Sweeping over poset size at a fixed budget
shows how the importance functions scale; sweeping over the budget at a
fixed size shows how quickly extra per-level width buys variance down.
For every swept point a batch of random posets is generated, each poset
gets a batch of independent estimates per importance function, and the
per-poset relative variance (sample variance over squared sample mean)
is averaged across posets.

Everything is keyed off the base seed and batch indices, so a sweep is
reproducible run to run and independent of how many workers execute it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .estimators import ImportanceInduced, _run_block, summarize
from .errors import CapExceeded, VerificationFailure
from .posets import MAX_DP_ELEMENTS, LEDecisionTree, count_linear_extensions, importance_function, random_poset
from .sampling import derive_seed

CSV_HEADER = (
    "kind", "n", "B", "importance", "posets", "estimates_per_poset",
    "mean_rel_var", "stderr", "guard_frac", "seconds",
)

DEFAULT_IMPORTANCE = ("uniform", "f1", "f2", "f3")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: what varies, what is fixed, and how many replicates.

    ``kind`` is "n" (sweep poset size, budget fixed) or "B" (sweep
    budget, size fixed).  Replicate counts default to max(64,
    round((n/scale)^2)) per point, which at the default scale 1 is
    already n^2 from n = 8 up; ``full_protocol`` gives exactly n^2,
    ignoring ``scale`` and the floor of 64.  ``exact_reference`` needs
    the exact count at every point, so a size past ``MAX_DP_ELEMENTS``
    raises CapExceeded here, before any work.
    """

    kind: str
    swept: tuple[int, ...]
    fixed_n: int | None = None
    fixed_budget: int | None = None
    edge_probability: float = 0.2
    posets_per_point: int | None = None
    estimates_per_poset: int | None = None
    importance: tuple[str, ...] = DEFAULT_IMPORTANCE
    seed: int = 0
    scale: float = 1.0
    full_protocol: bool = False
    exact_reference: bool = False
    verify_small: bool = False
    timing: bool = False

    def __post_init__(self):
        if self.kind not in ("n", "B"):
            raise ValueError(f"sweep kind must be 'n' or 'B', got {self.kind!r}")
        if not self.swept:
            raise ValueError("swept value list is empty")
        if list(self.swept) != sorted(set(self.swept)):
            raise ValueError("swept values must be strictly increasing")
        if any(v < 1 for v in self.swept):
            raise ValueError("swept values must be >= 1")
        if self.kind == "n" and self.fixed_budget is None:
            raise ValueError("an 'n' sweep needs a fixed budget")
        if self.kind == "B" and self.fixed_n is None:
            raise ValueError("a 'B' sweep needs a fixed poset size")
        if self.fixed_budget is not None and self.fixed_budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.fixed_budget}")
        if not self.scale > 0:  # NaN included
            raise ValueError("scale must be positive")
        if self.posets_per_point is not None and self.posets_per_point < 1:
            raise ValueError("replicate counts must be >= 1")
        sizes = self.swept if self.kind == "n" else (self.fixed_n,)
        for n in sizes:
            if (count := self.estimates_at(n)) < 2:  # one estimate has no sample variance
                raise ValueError(f"estimates per poset must be >= 2, got {count}")
        if not self.importance:
            raise ValueError("at least one importance kind is required")
        if self.exact_reference and max(sizes) > MAX_DP_ELEMENTS:
            raise CapExceeded(
                f"exact reference needs the exact count at n={max(sizes)}; cap is n <= {MAX_DP_ELEMENTS}"
            )

    def point(self, value: int) -> tuple[int, int]:
        """(n, budget) at one swept value."""
        if self.kind == "n":
            return value, self.fixed_budget
        return self.fixed_n, value

    def replicates(self, n: int) -> int:
        if self.full_protocol:
            return n * n
        return max(64, round((n / self.scale) ** 2))

    def posets_at(self, n: int) -> int:
        return self.posets_per_point if self.posets_per_point is not None else self.replicates(n)

    def estimates_at(self, n: int) -> int:
        return (
            self.estimates_per_poset
            if self.estimates_per_poset is not None
            else self.replicates(n)
        )


@dataclass(frozen=True)
class SweepRow:
    """Aggregated result at one (point, importance) cell."""

    kind: str
    n: int
    budget: int
    importance: str
    posets: int
    estimates_per_poset: int
    mean_rel_var: float
    stderr: float | None  # None where a single poset leaves it undefined
    guard_frac: float | None = None
    seconds: float | None = None

    def csv_fields(self) -> list[str]:
        return [
            self.kind,
            str(self.n),
            str(self.budget),
            self.importance,
            str(self.posets),
            str(self.estimates_per_poset),
            repr(self.mean_rel_var),
            "" if self.stderr is None else repr(self.stderr),
            "" if self.guard_frac is None else repr(self.guard_frac),
            "0" if self.seconds is None else format(self.seconds, ".3f"),
        ]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "B": self.budget,
            "importance": self.importance,
            "posets": self.posets,
            "estimates_per_poset": self.estimates_per_poset,
            "mean_rel_var": self.mean_rel_var,
            "stderr": self.stderr,
            "guard_frac": self.guard_frac,
            "seconds": self.seconds,
        }


def _poset_task(args) -> tuple[int, int, dict]:
    """All estimates for one poset at one swept point; returns per-importance stats."""
    cfg, point_idx, poset_idx = args
    n, budget = cfg.point(cfg.swept[point_idx])
    poset = random_poset(n, cfg.edge_probability, derive_seed(cfg.seed, "poset", point_idx, poset_idx))
    tree = LEDecisionTree(poset)
    estimates_n = cfg.estimates_at(n)
    exact = None
    if cfg.exact_reference or cfg.verify_small:
        exact = count_linear_extensions(poset) if n <= MAX_DP_ELEMENTS else None
    out = {}
    for imp_idx, imp in enumerate(cfg.importance):
        t0 = time.perf_counter() if cfg.timing else 0.0
        weight = importance_function(tree, imp)
        dist = ImportanceInduced(weight)
        run_seed = derive_seed(cfg.seed, "run", point_idx, poset_idx, imp_idx)
        estimates = _run_block(tree, budget, dist, run_seed, 0, estimates_n)
        summary = summarize(estimates)
        ratio = summary.mean / exact if cfg.verify_small and exact is not None else None
        if cfg.exact_reference:
            rel = summary.variance / (exact * exact)
        else:
            rel = summary.rel_variance
        guard = None
        if hasattr(weight, "guard_hits"):
            guard = (weight.guard_hits, weight.evaluations)
        seconds = (time.perf_counter() - t0) if cfg.timing else None
        out[imp] = (rel, guard, seconds, ratio)
    return point_idx, poset_idx, out


def _check_ratios(ratios: list[float], n: int, budget: int, imp: str) -> None:
    """Pooled ``verify_small`` test of one (point, importance) cell.

    Each poset's mean/exact ratio has expectation 1; fails when their mean
    is more than 5 standard errors (+1e-9 for rounding) from 1.  Fewer
    than two ratios give no standard error and are not checked.
    """
    if len(ratios) < 2:
        return
    summary = summarize(ratios)
    if abs(summary.mean - 1) > 5 * summary.stderr + 1e-9:
        raise VerificationFailure(
            f"mean of estimate/exact ratios {summary.mean!r} over {summary.runs} posets is more than 5 "
            f"standard errors ({summary.stderr!r}) from 1 (n={n}, B={budget}, importance={imp})"
        )


def run_sweep(cfg: SweepConfig, threads: int = 1) -> list[SweepRow]:
    """Execute the sweep; rows come back sorted by (point, importance).

    The per-task seeds depend only on (base seed, point, poset), never on
    the worker layout, so any thread count produces identical rows.
    """
    tasks = []
    for point_idx, value in enumerate(cfg.swept):
        n, _ = cfg.point(value)
        for poset_idx in range(cfg.posets_at(n)):
            tasks.append((cfg, point_idx, poset_idx))
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            results = list(pool.map(_poset_task, tasks, chunksize=max(1, len(tasks) // (threads * 8))))
    else:
        results = [_poset_task(t) for t in tasks]

    by_cell: dict[tuple[int, str], list] = {}
    for point_idx, poset_idx, stats in results:
        for imp, payload in stats.items():
            by_cell.setdefault((point_idx, imp), []).append((poset_idx, payload))

    rows = []
    for point_idx, value in enumerate(cfg.swept):
        n, budget = cfg.point(value)
        for imp in cfg.importance:
            cell = sorted(by_cell.get((point_idx, imp), ()))
            if cfg.verify_small:
                _check_ratios([r for _, (_, _, _, r) in cell if r is not None], n, budget, imp)
            # every estimate is positive and each poset has at least two,
            # so every relative variance is defined
            summary = summarize([rel for _, (rel, _, _, _) in cell])
            hits = sum(g[0] for _, (_, g, _, _) in cell if g is not None)
            evals = sum(g[1] for _, (_, g, _, _) in cell if g is not None)
            guard_frac = (hits / evals) if evals else None
            seconds = None
            if cfg.timing:
                seconds = math.fsum(s for _, (_, _, s, _) in cell if s is not None)
            rows.append(
                SweepRow(
                    kind=cfg.kind,
                    n=n,
                    budget=budget,
                    importance=imp,
                    posets=len(cell),
                    estimates_per_poset=cfg.estimates_at(n),
                    mean_rel_var=summary.mean,
                    stderr=summary.stderr,
                    guard_frac=guard_frac,
                    seconds=seconds,
                )
            )
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    """RFC-4180 CSV with a header row; stable field formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.csv_fields())
    return buf.getvalue()


def rows_to_json_lines(rows: list[SweepRow]) -> str:
    return "".join(json.dumps(row.to_dict(), sort_keys=True) + "\n" for row in rows)


def rows_to_gnuplot(rows: list[SweepRow]) -> str:
    """Companion column layout: swept value, one relative-variance column
    per importance kind, ready for log-scale plotting."""
    imps = []
    for row in rows:
        if row.importance not in imps:
            imps.append(row.importance)
    by_value: dict[int, dict[str, float]] = {}
    kind = rows[0].kind if rows else "n"
    for row in rows:
        value = row.n if kind == "n" else row.budget
        by_value.setdefault(value, {})[row.importance] = row.mean_rel_var
    lines = ["# " + " ".join([kind] + imps)]
    for value in sorted(by_value):
        cells = [str(value)] + [repr(by_value[value].get(imp, float("nan"))) for imp in imps]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComparisonPoint:
    n: int
    budget: int
    ranking: tuple[str, ...]
    rel_var: dict = field(hash=False, default_factory=dict)


@dataclass(frozen=True)
class ComparisonReport:
    points: tuple[ComparisonPoint, ...]
    beats_uniform: dict = field(hash=False, default_factory=dict)


def compare_importance(rows: list[SweepRow]) -> ComparisonReport:
    """Rank importance kinds per swept point by mean relative variance.

    Also reports, for each non-uniform kind, the fraction of points where
    it came in strictly below the uniform baseline.
    """
    by_point: dict[tuple[int, int], dict[str, float]] = {}
    for row in rows:
        by_point.setdefault((row.n, row.budget), {})[row.importance] = row.mean_rel_var
    points = []
    wins: dict[str, int] = {}
    comparable = 0
    for (n, budget), cells in sorted(by_point.items()):
        ranking = tuple(sorted(cells, key=lambda imp: (cells[imp], imp)))
        points.append(ComparisonPoint(n=n, budget=budget, ranking=ranking, rel_var=dict(cells)))
        if "uniform" in cells:
            comparable += 1
            for imp, value in cells.items():
                if imp != "uniform" and value < cells["uniform"]:
                    wins[imp] = wins.get(imp, 0) + 1
    beats = {imp: wins.get(imp, 0) / comparable for imp in wins} if comparable else {}
    for point in points:
        for imp in point.rel_var:
            if imp != "uniform" and comparable and imp not in beats:
                beats[imp] = 0.0
    return ComparisonReport(points=tuple(points), beats_uniform=beats)


def format_comparison(report: ComparisonReport) -> str:
    lines = []
    for point in report.points:
        cells = ", ".join(f"{imp}={point.rel_var[imp]:.6g}" for imp in point.ranking)
        lines.append(f"n={point.n} B={point.budget}: {cells}")
    for imp in sorted(report.beats_uniform):
        lines.append(f"{imp} beats uniform at {report.beats_uniform[imp]:.0%} of points")
    return "\n".join(lines)
