"""Sweep protocol: replicate scaling, determinism, output formats, rankings."""

import csv
import io
import json

import pytest

from stochenum import experiments
from stochenum.errors import CapExceeded
from stochenum.estimators import ImportanceInduced, _run_block, summarize
from stochenum.experiments import (
    SweepConfig,
    compare_importance,
    format_comparison,
    rows_to_csv,
    rows_to_gnuplot,
    rows_to_json_lines,
    run_sweep,
    CSV_HEADER,
)
from stochenum.posets import (
    MAX_DP_ELEMENTS,
    LEDecisionTree,
    count_linear_extensions,
    importance_function,
    random_poset,
)
from stochenum.sampling import derive_seed


def small_config(**overrides):
    base = dict(
        kind="n",
        swept=(4, 5),
        fixed_budget=2,
        posets_per_point=8,
        estimates_per_poset=24,
        seed=99,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(kind="x", swept=(1,), fixed_budget=1)
    with pytest.raises(ValueError):
        SweepConfig(kind="n", swept=(), fixed_budget=1)
    with pytest.raises(ValueError):
        SweepConfig(kind="n", swept=(5, 3), fixed_budget=1)
    with pytest.raises(ValueError):
        SweepConfig(kind="n", swept=(3, 5))  # missing fixed budget
    with pytest.raises(ValueError):
        SweepConfig(kind="B", swept=(1, 2))  # missing fixed n
    with pytest.raises(ValueError):
        SweepConfig(kind="n", swept=(3,), fixed_budget=1, posets_per_point=0)


@pytest.mark.parametrize("overrides, got", [
    (dict(estimates_per_poset=1), 1),
    (dict(estimates_per_poset=0), 0),
    (dict(estimates_per_poset=None, full_protocol=True, swept=(1, 4)), 1),  # n^2 at n = 1
])
def test_config_rejects_fewer_than_two_estimates(overrides, got):
    with pytest.raises(ValueError, match=f"estimates per poset must be >= 2, got {got}"):
        small_config(**overrides)


def test_replicate_scaling():
    cfg = SweepConfig(kind="n", swept=(10,), fixed_budget=5, seed=1)
    assert cfg.replicates(10) == 100
    assert cfg.replicates(4) == 64  # floor
    scaled = SweepConfig(kind="n", swept=(20,), fixed_budget=5, seed=1, scale=2.0)
    assert scaled.replicates(20) == 100
    full = SweepConfig(kind="n", swept=(6,), fixed_budget=5, seed=1, full_protocol=True)
    assert full.replicates(6) == 36


def test_run_sweep_starts_no_idle_workers(monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    cfg = small_config(swept=(5,), posets_per_point=2)
    # two tasks: two workers, not eight
    assert run_sweep(cfg, threads=8) == run_sweep(cfg)
    assert started == [2]


def test_row_counts_for_both_protocols():
    over_n = SweepConfig(kind="n", swept=(3, 4, 5), fixed_budget=2,
                         posets_per_point=4, estimates_per_poset=8, seed=5)
    rows = run_sweep(over_n)
    assert len(rows) == 3 * 4  # points x importance kinds
    over_b = SweepConfig(kind="B", swept=tuple(range(1, 6)), fixed_n=4,
                         posets_per_point=4, estimates_per_poset=8, seed=5)
    rows = run_sweep(over_b)
    assert len(rows) == 5 * 4
    keys = [(r.kind, r.n, r.budget, r.importance) for r in rows]
    assert len(set(keys)) == len(keys)


def test_sweep_deterministic_across_thread_counts():
    cfg = small_config()
    a = run_sweep(cfg, threads=1)
    b = run_sweep(cfg, threads=2)
    assert rows_to_csv(a) == rows_to_csv(b)
    assert a == b


def test_sweep_rerun_identical():
    cfg = small_config()
    assert rows_to_csv(run_sweep(cfg)) == rows_to_csv(run_sweep(cfg))


def test_chain_posets_have_zero_relative_variance():
    cfg = SweepConfig(kind="n", swept=(5, 6), fixed_budget=3, edge_probability=1.0,
                      posets_per_point=4, estimates_per_poset=10, seed=3)
    for row in run_sweep(cfg):
        assert row.mean_rel_var == 0.0
        assert row.zero_mean_posets == 0


def test_ideal_importance_control_column():
    cfg = SweepConfig(kind="n", swept=(8,), fixed_budget=3, importance=("ideal",),
                      posets_per_point=6, estimates_per_poset=32, seed=12)
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert rows[0].mean_rel_var <= 1e-12


def test_halving_replicates_halves_estimate_count():
    full = run_sweep(small_config(posets_per_point=8, estimates_per_poset=24))
    half = run_sweep(small_config(posets_per_point=4, estimates_per_poset=24))
    total = lambda rows: sum(r.posets * r.estimates_per_poset for r in rows)
    assert total(half) * 2 == total(full)


def test_guard_fraction_reported_for_height_ratio_only():
    cfg = small_config(importance=("uniform", "f3"))
    rows = run_sweep(cfg)
    by_imp = {r.importance: r for r in rows if r.n == 4}
    assert by_imp["uniform"].guard_frac is None
    assert 0.0 <= by_imp["f3"].guard_frac <= 1.0


def test_csv_schema_and_layout():
    rows = run_sweep(small_config())
    text = rows_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert tuple(parsed[0]) == CSV_HEADER
    assert len(parsed) == 1 + len(rows)
    assert parsed[1][0] == "n"
    # seconds column stays a constant placeholder unless timing is enabled
    assert {line[-1] for line in parsed[1:]} == {"0"}


def test_json_lines_round_trip():
    rows = run_sweep(small_config())
    decoded = [json.loads(line) for line in rows_to_json_lines(rows).splitlines()]
    assert len(decoded) == len(rows)
    for row, d in zip(rows, decoded):
        assert d == {k: v for k, v in row.to_dict().items()}


def test_gnuplot_companion_layout():
    rows = run_sweep(small_config())
    text = rows_to_gnuplot(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "# n uniform f1 f2 f3"
    assert len(lines) == 3
    assert lines[1].split()[0] == "4"
    assert len(lines[1].split()) == 5


def test_exact_reference_and_verify_small_modes():
    cfg = small_config(exact_reference=True, verify_small=True)
    rows = run_sweep(cfg)
    # each row is the mean over its posets of sample variance / exact^2,
    # recomputed here at the sweep task's seeds
    for point_idx, value in enumerate(cfg.swept):
        n, budget = cfg.point(value)
        for imp_idx, imp in enumerate(cfg.importance):
            rels = []
            for poset_idx in range(cfg.posets_at(n)):
                poset = random_poset(n, cfg.edge_probability, derive_seed(cfg.seed, "poset", point_idx, poset_idx))
                tree = LEDecisionTree(poset)
                dist = ImportanceInduced(importance_function(tree, imp))
                run_seed = derive_seed(cfg.seed, "run", point_idx, poset_idx, imp_idx)
                estimates = _run_block(tree, budget, dist, run_seed, 0, cfg.estimates_at(n))
                rels.append(summarize(estimates).variance / count_linear_extensions(poset) ** 2)
            (row,) = [r for r in rows if r.n == n and r.importance == imp]
            assert row.mean_rel_var == summarize(rels).mean
    # the sample-mean reference reads other values on the same runs
    sample_ref = run_sweep(small_config(verify_small=True))
    assert [r.mean_rel_var for r in rows] != [r.mean_rel_var for r in sample_ref]


@pytest.mark.parametrize("overrides", [
    dict(swept=(MAX_DP_ELEMENTS, MAX_DP_ELEMENTS + 1)),
    dict(kind="B", swept=(1,), fixed_n=MAX_DP_ELEMENTS + 1),
])
def test_exact_reference_past_the_counter_cap_raises(overrides):
    # the exact count is needed at every point, so the config refuses
    # before any poset is drawn
    with pytest.raises(CapExceeded, match=f"n={MAX_DP_ELEMENTS + 1}; cap is n <= {MAX_DP_ELEMENTS}"):
        small_config(exact_reference=True, **overrides)
    small_config(**overrides)  # the sample-mean reference has no cap


def test_timing_flag_populates_seconds():
    cfg = small_config(timing=True, posets_per_point=2, estimates_per_poset=4)
    rows = run_sweep(cfg)
    assert all(r.seconds is not None and r.seconds >= 0 for r in rows)


def test_compare_importance_report():
    cfg = small_config(posets_per_point=16, estimates_per_poset=32)
    rows = run_sweep(cfg)
    report = compare_importance(rows)
    assert len(report.points) == 2
    for point in report.points:
        assert set(point.ranking) == {"uniform", "f1", "f2", "f3"}
        ordered = [point.rel_var[i] for i in point.ranking]
        assert ordered == sorted(ordered)
    assert set(report.beats_uniform) == {"f1", "f2", "f3"}
    assert all(0.0 <= v <= 1.0 for v in report.beats_uniform.values())
    text = format_comparison(report)
    assert "beats uniform" in text
