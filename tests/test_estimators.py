"""Estimator walks: golden replays, reductions, aggregation, fast path."""

import math
import pickle
import random
import tracemalloc

import pytest
from explicit_distribution import ExplicitDistribution, RecordingDistribution
from hypothesis import given, settings
from hypothesis import strategies as st

from stochenum import estimators
from stochenum.analysis import enumerate_distribution
from stochenum.errors import EstimateOverflow
from stochenum.estimators import (
    ImportanceInduced,
    UniformHyperchild,
    _run_block,
    _walk,
    run_many,
    sep_estimate,
    summarize,
)
from stochenum.posets import LEDecisionTree, Poset, importance_function, random_poset
from stochenum.sampling import RUN_GROUP, RandomChoice, RandomSource, ScriptedChoice, derive_seed
from stochenum.tree import (
    ExplicitTree,
    fixture_example_importance,
    fixture_example_tree,
    hypernode_successors,
)


def chain_tree(height):
    children = {i: (i + 1,) for i in range(height)}
    return ExplicitTree(children, roots=(0,))


def contract_walks(t, budget, dist, seed, runs):
    """Stream contract v2 spelled out on the generic walk: one choice
    source per group of RUN_GROUP runs, consumed in run order."""
    out = []
    for i in range(runs):
        if i % RUN_GROUP == 0:
            choice = RandomChoice(RandomSource(derive_seed(seed, i // RUN_GROUP)))
        out.append(_walk(t, budget, dist, choice))
    return out


def test_uniform_budget2_scripted_replay():
    t = fixture_example_tree()
    script = ScriptedChoice([
        ("subset", ("b", "c")),
        ("subset", ("d", "e")),
        ("subset", ("h", "i")),
        ("subset", ("m",)),
    ])
    dist = RecordingDistribution(UniformHyperchild())
    traj = sep_estimate(t, 2, dist, script)
    assert traj.estimate == 12.75
    assert traj.d_products == (2.0, 3.0, 4.5, 2.25)
    assert len(traj.d_factors) == len(dist.draws) == 4
    assert dist.draws[0][0] == ("b", "c")
    assert sorted(dist.draws[1][1]) == ["d", "e"]
    assert script.exhausted()


def test_weighted_budget2_scripted_replay():
    t = fixture_example_tree()
    script = ScriptedChoice([
        ("weighted", "c"), ("subset", ("b",)),
        ("weighted", "e"), ("subset", ("d",)),
        ("weighted", "i"), ("subset", ("h",)),
        ("weighted", "m"),
    ])
    traj = sep_estimate(t, 2, ImportanceInduced(fixture_example_importance()), script)
    assert traj.estimate == 13.0
    assert traj.d_products == (2.0, 2.5, 5.0, 2.5)
    assert script.exhausted()


def test_single_path_scripted_replay():
    t = fixture_example_tree()
    script = ScriptedChoice([
        ("subset", ("c",)), ("subset", ("f",)), ("subset", ("j",)), ("subset", ("n",)),
    ])
    traj = sep_estimate(t, 1, UniformHyperchild(), script)
    assert traj.d_factors == (2.0, 2.0, 1.0, 1.0)
    assert traj.estimate == 15.0


def test_chain_tree_is_exact_for_any_seed():
    t = chain_tree(9)
    for seed in range(10):
        traj = sep_estimate(t, 1, UniformHyperchild(), RandomChoice(seed))
        assert traj.estimate == 10.0


def test_height_zero_is_exact():
    t = ExplicitTree({}, roots=("v",), costs={"v": 2.5})
    assert sep_estimate(t, 3, UniformHyperchild(), RandomChoice(0)).estimate == 2.5
    assert sep_estimate(t, 1, UniformHyperchild(), RandomChoice(0)).estimate == 2.5


def test_budget_beyond_width_is_exact():
    t = fixture_example_tree()
    for seed in range(20):
        traj = sep_estimate(t, 14, UniformHyperchild(), RandomChoice(seed))
        assert traj.estimate == pytest.approx(14.0, rel=1e-12)


def test_weighted_is_the_induced_distribution_walk():
    # Under the induced draw the level factor is (|w|/|x|) * r(S)/r(w).
    t = fixture_example_tree()
    w = fixture_example_importance()
    for seed in range(10):
        dist = RecordingDistribution(ImportanceInduced(w))
        traj = sep_estimate(t, 2, dist, RandomChoice(RandomSource(seed)))
        path = [t.root_hypernode] + [chosen for _, chosen in dist.draws]
        assert len(traj.d_factors) == len(dist.draws)
        for k, d_k in enumerate(traj.d_factors):
            x, chosen = path[k], path[k + 1]
            r_all = sum(w(v) for v in hypernode_successors(x, t))
            assert d_k == pytest.approx(len(chosen) / len(x) * r_all / sum(w(v) for v in chosen), rel=1e-12)


def test_budget_one_weighted_equals_single_path():
    # At budget 1 the weighted walk is Knuth's single path: one node per
    # level, and the estimate sums each level's cost times the running
    # product of r(S)/w(chosen).
    t = fixture_example_tree()
    w = fixture_example_importance()
    for seed in range(10):
        dist = RecordingDistribution(ImportanceInduced(w))
        traj = sep_estimate(t, 1, dist, RandomChoice(RandomSource(seed)))
        assert all(len(chosen) == 1 for _, chosen in dist.draws)
        path = ["a"] + [chosen[0] for _, chosen in dist.draws]
        total, product = 1.0, 1.0
        for parent, child in zip(path, path[1:]):
            product *= sum(w(v) for v in t.successors(parent)) / w(child)
            total += product
        assert traj.estimate == pytest.approx(total, rel=1e-12)


def test_uniform_weight_matches_uniform_distribution_exactly():
    # same candidate probabilities, same level factors, same outcome moments
    t = fixture_example_tree()
    uni = lambda x: 1.0
    d_w = ImportanceInduced(uni)
    d_u = UniformHyperchild()
    succ = ("d", "e", "f")
    for budget in (1, 2, 3):
        table_w = dict(d_w.support(succ, budget))
        table_u = dict(d_u.support(succ, budget))
        assert table_w == table_u
        od_w = enumerate_distribution(t, budget, d_w)
        od_u = enumerate_distribution(t, budget, d_u)
        assert od_w.mean == od_u.mean
        assert od_w.variance == od_u.variance
    draw = d_w.draw(succ, 2, RandomChoice(0))
    assert draw.d_multiplier == len(succ) / 2


def test_explicit_distribution_draw_and_probability():
    t = fixture_example_tree()
    table = {
        ("b", "c"): [(("b", "c"), 1)],
        ("d", "e", "f"): [(("d", "e"), "1/2"), (("d", "f"), "1/4"), (("e", "f"), "1/4")],
        ("g", "h", "i"): [(("g", "h"), "1/3"), (("g", "i"), "1/3"), (("h", "i"), "1/3")],
        ("g", "j"): [(("g", "j"), 1)],
        ("h", "i", "j"): [(("h", "i"), "1/3"), (("h", "j"), "1/3"), (("i", "j"), "1/3")],
        ("k", "l"): [(("k", "l"), 1)],
        ("k", "l", "m"): [(("k", "l"), "1/3"), (("k", "m"), "1/3"), (("l", "m"), "1/3")],
        ("m",): [(("m",), 1)],
        ("k", "l", "n"): [(("k", "l"), "1/3"), (("k", "n"), "1/3"), (("l", "n"), "1/3")],
        ("m", "n"): [(("m", "n"), 1)],
        ("n",): [(("n",), 1)],
    }
    dist = ExplicitDistribution(table)
    od = enumerate_distribution(t, 2, dist)
    assert od.total_probability == 1
    assert od.mean == 14  # unbiased for any valid candidate distribution
    traj = sep_estimate(t, 2, dist, RandomChoice(3))
    assert traj.estimate > 0


def test_nonpositive_probabilities_rejected():
    with pytest.raises(ValueError):
        ExplicitDistribution({("b",): [(("b",), 0)]})

    from stochenum.estimators import Draw, HypernodeDistribution

    class Bad(HypernodeDistribution):
        def __init__(self, d_multiplier):
            self.d_multiplier = d_multiplier

        def draw(self, succ, budget, choice):
            return Draw((succ[0],), self.d_multiplier)

    t = ExplicitTree({"a": ("b",)}, roots=("a",))
    for bad in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError, match="level factor"):
            sep_estimate(t, 1, Bad(bad), RandomChoice(0))


def test_estimate_overflow_reported():
    t = ExplicitTree({"a": ("b",), "b": ("c",)}, roots=("a",))
    dist = ExplicitDistribution({
        ("b",): [(("b",), 1e-300)],
        ("c",): [(("c",), 1e-300)],
    })
    with pytest.raises(EstimateOverflow):
        sep_estimate(t, 1, dist, RandomChoice(0))


def test_subtree_cost_weight_zero_variance_on_fixture():
    t = fixture_example_tree()
    dist = ImportanceInduced(t.subtree_cost)
    for seed in range(200):
        traj = sep_estimate(t, 2, dist, RandomChoice(seed))
        assert traj.estimate == pytest.approx(14.0, rel=1e-12)


def test_summarize_basic():
    s = summarize([2.0, 4.0, 6.0])
    assert s.mean == 4.0
    assert s.variance == 4.0
    assert s.stderr == pytest.approx(math.sqrt(4.0 / 3))
    assert s.rel_variance == 0.25


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100)), min_size=2, max_size=30))
def test_summarize_scaling_is_exact(estimates):
    # The plain formulas, which run unscaled in this range.
    n = len(estimates)
    mean = math.fsum(estimates) / n
    var = math.fsum((x - mean) ** 2 for x in estimates) / (n - 1)
    s = summarize(estimates)
    assert (s.mean, s.variance, s.stderr) == (mean, var, math.sqrt(var / n))
    assert s.rel_variance == (var / (mean * mean) if mean else None)


def test_summarize_estimates_beyond_square_range():
    # Their squares, and the plain sum of the first three, overflow.
    s = summarize([1.5e308, 0.5e308, 1e308])
    assert (s.mean, s.stderr, s.rel_variance) == (1e308, 2.8867513459481287e307, 0.25)
    assert s.variance == math.inf
    # The squared mean of these underflows to zero.
    tiny = math.ldexp(1.0, -1070)
    s = summarize([tiny, 3 * tiny])
    assert (s.mean, s.stderr, s.rel_variance) == (2 * tiny, tiny, 0.5)


def test_summarize_reads_in_window_estimates_without_a_copy():
    rng = random.Random(5)
    estimates = [rng.uniform(0.0, 1e6) for _ in range(100_000)]
    tracemalloc.start()
    try:
        [math.ldexp(x, 0) for x in estimates]
        one_copy = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        summarize(estimates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_copy / 20, (peak, one_copy)


def test_summarize_single_run_flags():
    s = summarize([3.0])
    assert s.runs == 1 and s.mean == 3.0
    assert s.variance is None and s.stderr is None and s.rel_variance is None


def test_summarize_zero_mean_rel_variance():
    s = summarize([1.0, -1.0])
    assert s.mean == 0.0
    assert s.rel_variance is None


def test_run_many_thread_count_invariance():
    # Fresh trees, so neither run inherits the other's expansion caches.
    # n=40 once read weights from packed memo keys that collided beyond 32
    # elements and made the estimates order dependent.
    def summary(n, p, seed, threads):
        tree = LEDecisionTree(random_poset(n, p, seed))
        dist = ImportanceInduced(importance_function(tree, "f2"))
        return run_many(tree, 3, dist, 400, 11, threads=threads)

    for n, p, seed in ((8, 0.2, 5), (40, 0.05, 3)):
        assert summary(n, p, seed, 1) == summary(n, p, seed, 2) == summary(n, p, seed, 3)


# Past 64 runs the runs split into two to four chunks, so each example
# starts a pool of 2 workers and one of up to 3.
@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(6, 14),
    p=st.sampled_from((0.05, 0.2, 0.4)),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("uniform", "f1", "f2", "f3")),
    budget=st.integers(1, 4),
    runs=st.integers(65, 200),
)
def test_run_many_thread_invariance_property(n, p, seed, kind, budget, runs):
    def summary(threads):
        tree = LEDecisionTree(random_poset(n, p, seed))
        dist = ImportanceInduced(importance_function(tree, kind))
        return run_many(tree, budget, dist, runs, seed, threads=threads)

    assert summary(1) == summary(2) == summary(3)


def test_fast_block_independent_of_block_order():
    def fresh_block(start, stop):
        tree = LEDecisionTree(random_poset(40, 0.05, 3))
        return tree.fast_run_block(3, importance_function(tree, "f2"), 11, start, stop)

    tree = LEDecisionTree(random_poset(40, 0.05, 3))
    w = importance_function(tree, "f2")
    late = tree.fast_run_block(3, w, 11, 100, 200)
    early = tree.fast_run_block(3, w, 11, 0, 100)
    assert early + late == fresh_block(0, 200)


@settings(max_examples=20, deadline=None)
@given(
    cuts=st.lists(st.integers(0, 200), max_size=4),
    kind=st.sampled_from(("uniform", "f2", "f3")),
    budget=st.integers(1, 3),
)
def test_run_blocks_split_anywhere_concatenate(cuts, kind, budget):
    # Blocks may start and stop mid-group; a weight without child_values
    # sends _run_block down the generic walk.
    tree = LEDecisionTree(random_poset(9, 0.2, 5))
    w = importance_function(tree, kind)
    generic = ImportanceInduced(lambda node: w(node))
    whole = tree.fast_run_block(budget, w, 13, 0, 200)
    bounds = list(zip([0, *sorted(cuts)], [*sorted(cuts), 200]))
    assert [x for a, b in bounds for x in tree.fast_run_block(budget, w, 13, a, b)] == whole
    assert [x for a, b in bounds for x in _run_block(tree, budget, generic, 13, a, b)] == whole


def test_run_many_starts_no_idle_workers(monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(estimators, "ProcessPoolExecutor", InlinePool)
    tree = LEDecisionTree(random_poset(10, 0.2, 1))
    dist = UniformHyperchild()
    # 50 runs fit in one chunk, so they run in this process.
    assert run_many(tree, 2, dist, 50, 7, threads=2) == run_many(tree, 2, dist, 50, 7)
    assert started == []
    # 130 runs make chunks of 64, 64 and 2: three workers, not eight.
    assert run_many(tree, 2, dist, 130, 7, threads=8) == run_many(tree, 2, dist, 130, 7)
    assert started == [3]


def test_uniform_run_many_golden_means():
    # Means recorded under stream contract v2; they change only with the
    # contract or with the draw.
    tree = LEDecisionTree(random_poset(20, 0.2, 7))
    assert repr(run_many(tree, 1, UniformHyperchild(), 500, 42).mean) == "850379442.048"
    assert repr(run_many(tree, 5, UniformHyperchild(), 500, 42).mean) == "794018565.4913888"


def test_weighted_run_many_golden_means():
    # Means and f3 counters recorded under stream contract v2; they change
    # only with the contract, the draw or the weights.
    def run(poset, kind, budget, runs):
        tree = LEDecisionTree(poset)
        w = importance_function(tree, kind)
        return repr(run_many(tree, budget, ImportanceInduced(w), runs, 11).mean), w

    p20 = random_poset(20, 0.2, 7)
    assert run(p20, "f1", 5, 300)[0] == "733050394.3420141"
    assert run(p20, "f2", 5, 300)[0] == "787529072.1630517"
    mean, w = run(p20, "f3", 5, 300)
    assert mean == "787578652.741355" and (w.evaluations, w.guard_hits) == (84643, 8809)
    assert run(p20, "ideal", 5, 300)[0] == "818833212.0"
    p40 = random_poset(40, 0.05, 3)
    assert run(p40, "f2", 3, 100)[0] == "2.5169391778672053e+38"
    mean, w = run(p40, "f3", 3, 100)
    assert mean == "4.2135052653206385e+38" and (w.evaluations, w.guard_hits) == (120633, 1034)


def test_run_many_mean_near_truth():
    t = fixture_example_tree()
    s = run_many(t, 2, UniformHyperchild(), 20_000, 77)
    assert abs(s.mean - 14.0) <= 3 * s.stderr


def test_run_many_ideal_variance_zero():
    t = fixture_example_tree()
    s = run_many(t, 2, ImportanceInduced(t.subtree_cost), 200, 3)
    assert s.rel_variance <= 1e-12


def test_run_many_propagates_errors_with_context():
    class Broken(ExplicitTree):
        def cost(self, node):
            if node == "c":
                raise RuntimeError("boom")
            return 1.0

    t = Broken({"a": ("b", "c")}, roots=("a",))
    with pytest.raises(RuntimeError, match="run 0"):
        run_many(t, 2, UniformHyperchild(), 3, 0)


def test_fast_block_matches_generic_walk_bitwise():
    # kind None is the uniform draw of UniformHyperchild.  150 runs span
    # three run groups, the last one partial.
    for seed in (3, 5):
        p = random_poset(9, 0.2, seed)
        tree = LEDecisionTree(p)
        for kind in (None, "uniform", "f1", "f2", "f3", "ideal"):
            for budget in (1, 2, 4):
                if kind is None:
                    fast = tree.fast_run_block(budget, None, 31, 0, 150)
                    dist = UniformHyperchild()
                else:
                    fast = tree.fast_run_block(budget, importance_function(tree, kind), 31, 0, 150)
                    dist = ImportanceInduced(importance_function(tree, kind))
                assert fast == [traj.estimate for traj in contract_walks(tree, budget, dist, 31, 150)]


def test_fast_block_guard_counters_match_generic():
    p = random_poset(9, 0.2, 8)
    tree = LEDecisionTree(p)
    w_fast = importance_function(tree, "f3")
    tree.fast_run_block(3, w_fast, 17, 0, 150)
    w_gen = importance_function(tree, "f3")
    contract_walks(tree, 3, ImportanceInduced(w_gen), 17, 150)
    assert (w_fast.evaluations, w_fast.guard_hits) == (w_gen.evaluations, w_gen.guard_hits)


def test_run_block_dispatches_to_fast_path():
    p = random_poset(7, 0.2, 2)
    tree = LEDecisionTree(p)
    calls = []
    real = tree.fast_run_block

    def spy(budget, weight, seed, start, stop):
        calls.append(weight)
        return real(budget, weight, seed, start, stop)

    tree.fast_run_block = spy
    w = importance_function(tree, "f3")
    via_block = _run_block(tree, 2, ImportanceInduced(w), 9, 0, 40)
    direct = real(2, importance_function(tree, "f3"), 9, 0, 40)
    assert via_block == direct and calls == [w]
    via_block = _run_block(tree, 2, UniformHyperchild(), 9, 0, 40)
    assert via_block == real(2, None, 9, 0, 40) and calls == [w, None]


def test_overflow_passes_through_run_block_with_log_value():
    tree = LEDecisionTree(Poset(200, [0] * 200))  # 200! extensions
    with pytest.raises(EstimateOverflow) as fast:
        _run_block(tree, 1, UniformHyperchild(), 4, 0, 3)
    with pytest.raises(EstimateOverflow) as generic:
        _walk(tree, 1, UniformHyperchild(), RandomChoice(RandomSource(derive_seed(4, 0))))
    assert math.isfinite(fast.value.log_value)
    assert fast.value.log_value == generic.value.log_value
    with pytest.raises(EstimateOverflow):
        run_many(tree, 1, UniformHyperchild(), 8, 4, threads=2)


def test_estimate_overflow_survives_pickling():
    back = pickle.loads(pickle.dumps(EstimateOverflow(710.8)))
    assert type(back) is EstimateOverflow and back.log_value == 710.8


def test_trajectory_fields_reconstruct_estimate():
    # Under the uniform draw D_k = |S| / |x|; the estimate is |root| times
    # the root's mean cost plus each level's mean cost times D.
    t = fixture_example_tree()
    mean_cost = lambda nodes: sum(t.cost(v) for v in nodes) / len(nodes)
    for seed in range(6):
        dist = RecordingDistribution(UniformHyperchild())
        traj = sep_estimate(t, 2, dist, RandomChoice(seed))
        path = [t.root_hypernode] + [chosen for _, chosen in dist.draws]
        assert len(traj.d_factors) == len(traj.d_products) == len(dist.draws)
        total = mean_cost(path[0])
        product = 1.0
        for k, (succ, chosen) in enumerate(dist.draws):
            assert traj.d_factors[k] == pytest.approx(len(succ) / len(path[k]), rel=1e-12)
            product *= traj.d_factors[k]
            assert traj.d_products[k] == product
            total += mean_cost(chosen) * product
        assert traj.estimate == pytest.approx(len(path[0]) * total, rel=1e-12)
        assert all(t.successors(v) == () for v in path[-1])


def test_multi_root_forest_unbiased():
    forest = ExplicitTree(
        {"r1": ("x", "y"), "r2": ("z",), "z": ("w",)},
        roots=("r1", "r2"),
        costs={"r1": 1.0, "r2": 1.0, "x": 2.0, "y": 0.5, "z": 1.0, "w": 3.0},
    )
    root = forest.root_hypernode
    assert len(root) == 2
    total = 1.0 + 1.0 + 2.0 + 0.5 + 1.0 + 3.0
    from stochenum.tree import exact_forest_cost

    assert exact_forest_cost(forest) == total
    od = enumerate_distribution(forest, 2, UniformHyperchild())
    assert float(od.mean) == pytest.approx(total, rel=1e-12)
    s = run_many(forest, 2, UniformHyperchild(), 5000, 8)
    assert abs(s.mean - total) <= 4 * s.stderr
