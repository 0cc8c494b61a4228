"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria, tolerances and runtime limits are pinned here and nowhere else:

  1. golden fixture replays and counts, exact, < 1 s
  2. enumerated expectation == exact cost, exactly, over the fixture and
     200 seeded enumerable posets (n <= 6, budgets 1..3, four weight
     kinds), < 2 min
  3. recursive variance / CV^2 match enumeration exactly on the same
     instance set
  4. alpha suite: expected alpha 1 within 1e-12, the bound chain with
     zero tolerance on direction, cost-splitting identity exact on all
     reachable hypernodes
  5. exact-cost weights give every single estimate within 1e-9 relative
     of the truth (fixture + 50 posets n <= 8, 1000 runs each)
  6. n=12, B=5, guarded-ratio weights: sample mean within 3 standard
     errors of the exact count on >= 19 of 20 posets at 1e5 runs,
     < 5 min
  7. desk-scale sweep (n in {10,15,20}, B=5, 64 posets x 256 estimates):
     mean relative variance of f2 and f3 strictly below uniform at every
     point, < 15 min
  8. sweeps are byte-identical across thread counts

Near-antichain posets at n >= 5 have outcome spaces beyond any exact
enumeration (billions of sequences), so the instance sets for 2-4 are
drawn from seeded posets filtered to fit the stated enumeration caps.
"""

import time

import pytest

from stochenum.analysis import cost_split_identity
from stochenum.estimators import (
    ImportanceInduced,
    UniformHyperchild,
    run_many,
    sep_estimate,
)
from stochenum.experiments import SweepConfig, rows_to_csv, run_sweep
from stochenum.posets import LEDecisionTree, count_linear_extensions, importance_function, random_poset
from stochenum.sampling import RandomChoice, RandomSource, derive_seed
from stochenum.tree import (
    Hypernode,
    fixture_example_importance,
    fixture_example_tree,
    hypernode_successors,
)
from stochenum.verify import (
    Cell,
    check_alpha_suite,
    check_fixture_golden,
    check_unbiasedness,
    check_variance_forms,
    enumerable_posets,
)

SEED = 20240501
POSET_WEIGHTS = ("uniform", "f1", "f2", "f3")


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def small_cells():
    """Cells shared by criteria 2 and 3: 200 seeded enumerable posets with
    n <= 6 (per poset, budgets 1..3 times four weight kinds) and the
    fixture tree's three draws, plus the time the filter took."""
    t0 = time.perf_counter()
    posets = enumerable_posets(200, SEED, 6, (1, 2, 3), 20_000)
    poset_cells = []
    for idx, poset in enumerate(posets):
        tree = LEDecisionTree(poset)
        dists = [(kind, ImportanceInduced(importance_function(tree, kind))) for kind in POSET_WEIGHTS]
        poset_cells.append([
            Cell(f"poset {idx} (n={poset.n})", tree, budget, kind, dist, 20_000)
            for budget in (1, 2, 3) for kind, dist in dists
        ])
    fixture = fixture_example_tree()
    fixture_draws = (
        ("uniform", UniformHyperchild()),
        ("leafcount", ImportanceInduced(fixture_example_importance())),
        ("ideal", ImportanceInduced(fixture.subtree_cost)),
    )
    fixture_cells = [
        Cell("fixture", fixture, budget, label, dist, 20_000) for budget in (1, 2, 3) for label, dist in fixture_draws
    ]
    return posets, poset_cells, fixture_cells, {"filter": time.perf_counter() - t0}


def test_criterion_1_golden_fixtures():
    t0 = time.perf_counter()
    res = check_fixture_golden()
    elapsed = time.perf_counter() - t0
    assert res.passed, res.failures
    assert elapsed < 1.0
    report(1, f"replays 12.75 / 13.0 with D (2, 5/2, 5, 5/2) and 15; counts 14 and 7; {elapsed:.3f}s")


def test_criterion_2_deterministic_unbiasedness(small_cells):
    posets, poset_cells, fixture_cells, timings = small_cells
    t0 = time.perf_counter()
    res = check_unbiasedness(fixture_cells + [cell for cells in poset_cells for cell in cells])
    assert res.passed, res.failures
    assert res.instances == 200 * 3 * 4 + 9
    # the exact cost the check compares against is the per-component DP count
    assert all(cell.cost == 14 for cell in fixture_cells)
    for idx, (poset, cells) in enumerate(zip(posets, poset_cells)):
        count = count_linear_extensions(poset)
        assert all(cell.cost == count for cell in cells), f"poset {idx} (n={poset.n}): DP count {count}"
    timings["unbiasedness"] = time.perf_counter() - t0
    elapsed = timings["filter"] + timings["unbiasedness"]
    assert elapsed < 120.0
    report(2, f"{res.instances - 9} poset cells + 9 fixture cells, all exact, {elapsed:.0f}s")


def test_criterion_3_variance_formula_equivalence(small_cells):
    _, poset_cells, _, timings = small_cells
    t0 = time.perf_counter()
    res = check_variance_forms([cell for cells in poset_cells for cell in cells])
    assert res.passed, res.failures
    assert res.instances == 200 * 3 * 4
    # the enumerations read here ran on criterion 2's clock when it ran first
    elapsed = timings["filter"] + timings.get("unbiasedness", 0.0) + (time.perf_counter() - t0)
    assert elapsed < 120.0
    report(3, f"{res.instances} cells, all exact, {elapsed:.0f}s")


def _reachable_hypernodes(tree, budget, cap=4000):
    import itertools

    seen = []
    level = {tree.root_hypernode}
    while level:
        seen.extend(level)
        if len(seen) > cap:
            break
        nxt = set()
        for h in level:
            succ = hypernode_successors(h, tree)
            if not succ:
                continue
            take = min(budget, len(succ))
            for sub in itertools.combinations(succ, take):
                nxt.add(Hypernode(sub))
        level = nxt
    return seen[:cap]


def test_criterion_4_alpha_suite():
    small = enumerable_posets(18, SEED, 5, (1, 2, 3), 8_000, sizes=(2, 3, 4, 5))
    big = enumerable_posets(6, SEED, 7, (1, 2, 3), 15_000, sizes=(6, 7))
    fixture = fixture_example_tree()
    instances = [("fixture", fixture, [("uniform", lambda x: 1.0), ("leafcount", fixture_example_importance())])]
    for i, poset in enumerate(small + big):
        tree = LEDecisionTree(poset)
        instances.append(
            (f"poset-{i}(n={poset.n})", tree, [(k, importance_function(tree, k)) for k in POSET_WEIGHTS])
        )

    # Expected alpha exactly 1 (within 1e-12 a fortiori) and the bound
    # chain with zero tolerance on direction, on the verify code path.
    res = check_alpha_suite([
        Cell(label, tree, budget, k, ImportanceInduced(w), 20_000)
        for label, tree, weights in instances for budget in (1, 2, 3) for k, w in weights
    ])
    assert res.passed, res.failures
    assert res.instances == sum(3 * len(weights) for _, _, weights in instances)
    identity_checked = 0
    for label, tree, weights in instances:
        for budget in (1, 2, 3):
            for h in _reachable_hypernodes(tree, budget):
                lhs, rhs = cost_split_identity(tree, h, budget)
                assert lhs == rhs, f"{label} B={budget}: identity broke at {h!r}"
                identity_checked += 1
    report(4, f"{res.instances} alpha cells exact, identity exact on {identity_checked} hypernodes")


def test_criterion_5_zero_variance():
    t0 = time.perf_counter()
    fixture = fixture_example_tree()
    dist = ImportanceInduced(fixture.subtree_cost)
    for i in range(1000):
        est = sep_estimate(fixture, 2, dist, RandomChoice(RandomSource(derive_seed(SEED, "zv", i)))).estimate
        assert abs(est - 14.0) <= 1e-9 * 14.0

    checked = 0
    for i in range(50):
        n = 2 + i % 7  # 2..8
        poset = random_poset(n, 0.2, derive_seed(SEED, "zvp", i))
        tree = LEDecisionTree(poset)
        exact = float(count_linear_extensions(poset))
        budget = 1 + i % 3
        weight = importance_function(tree, "ideal")
        estimates = tree.fast_run_block(budget, weight, derive_seed(SEED, "zvr", i), 0, 1000)
        for est in estimates:
            assert abs(est - exact) <= 1e-9 * exact, f"poset {i} (n={n}) B={budget}: {est} vs {exact}"
        checked += len(estimates)
    report(5, f"fixture x1000 + 50 posets x1000 runs, all within 1e-9 ({checked + 1000} estimates, "
              f"{time.perf_counter() - t0:.0f}s)")


def test_criterion_6_statistical_sanity():
    t0 = time.perf_counter()
    hits = 0
    margins = []
    for i in range(20):
        poset = random_poset(12, 0.2, derive_seed(SEED, "stat", i))
        tree = LEDecisionTree(poset)
        exact = count_linear_extensions(poset)
        dist = ImportanceInduced(importance_function(tree, "f3"))
        summary = run_many(tree, 5, dist, 100_000, derive_seed(SEED, "statrun", i), threads=2)
        deviation = abs(summary.mean - exact) / summary.stderr
        margins.append(deviation)
        if deviation <= 3.0:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 19, f"only {hits}/20 within 3 standard errors; deviations {margins}"
    assert elapsed < 300.0
    report(6, f"{hits}/20 posets within 3 SE (max deviation {max(margins):.2f}), {elapsed:.0f}s")


def test_criterion_7_importance_beats_uniform():
    t0 = time.perf_counter()
    cfg = SweepConfig(
        kind="n", swept=(10, 15, 20), fixed_budget=5,
        posets_per_point=64, estimates_per_poset=256, seed=SEED,
    )
    rows = run_sweep(cfg, threads=2)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 3 * 4
    by_point = {}
    for row in rows:
        by_point.setdefault(row.n, {})[row.importance] = row.mean_rel_var
    for n, cells in by_point.items():
        assert cells["f2"] < cells["uniform"], f"f2 not below uniform at n={n}: {cells}"
        assert cells["f3"] < cells["uniform"], f"f3 not below uniform at n={n}: {cells}"
    f1_worse_at_10 = by_point[10]["f1"] > by_point[10]["uniform"]
    assert elapsed < 900.0
    report(7, f"f2,f3 < uniform at n=10,15,20; f1 worse than uniform at n=10: {f1_worse_at_10}; {elapsed:.0f}s")


def test_criterion_8_thread_count_determinism():
    cfg = SweepConfig(
        kind="B", swept=(1, 2, 3), fixed_n=8,
        posets_per_point=12, estimates_per_poset=32, seed=SEED,
    )
    csv_1 = rows_to_csv(run_sweep(cfg, threads=1))
    csv_2 = rows_to_csv(run_sweep(cfg, threads=2))
    csv_3 = rows_to_csv(run_sweep(cfg, threads=3))
    assert csv_1 == csv_2 == csv_3
    assert csv_1.encode() == csv_2.encode()
    report(8, f"byte-identical CSV across 1/2/3 workers ({len(csv_1.splitlines()) - 1} rows)")
