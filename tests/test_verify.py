"""The check suite behind ``stochenum verify``: pinned output, and one
exact analysis per cell."""

import dataclasses
import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from stochenum import posets, verify
from stochenum.analysis import AlphaStats, cost_split_identity
from stochenum.cli import main
from stochenum.estimators import ImportanceInduced, UniformHyperchild, sep_estimate
from stochenum.posets import LEDecisionTree, Poset
from stochenum.sampling import RandomSource, derive_seed
from stochenum.tree import (
    ExplicitTree,
    TreeOracle,
    exact_forest_cost,
    fixture_example_importance,
    fixture_example_tree,
)

# stdout and the --out CSV of `--seed 7 verify --max-n 5 --posets 16
# --max-sequences 200`.  The cost-splitting line counts distinct sampled
# hypernodes, so it follows the node representation; the unbiasedness line
# counts cells, one uniform cell per poset and budget; the CSV has kept
# its bytes since before the per-cell sharing.
GOLDEN_STDOUT = """\
PASS  golden fixtures (5 instances)
PASS  cost-splitting identity (371 instances)
PASS  unbiasedness of enumerated expectation (201 instances)
PASS  recursive variance and CV agreement (198 instances)
PASS  alpha diagnostics and bounds (198 instances)
PASS  zero variance under exact-cost weights (51 instances)
wrote {out}
all 6 checks passed
"""
GOLDEN_CSV_ROWS = 199
GOLDEN_CSV_SHA256 = "df7d0ecc24f6e07b9d8aa4cea03d372fef6c1c10fb6cea7225edf8083e9aaaec"


def test_verify_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = main(["--seed", "7", "verify", "--max-n", "5", "--posets", "16",
                 "--max-sequences", "200", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == GOLDEN_STDOUT.format(out=out)
    data = out.read_bytes()
    assert data.count(b"\n") == GOLDEN_CSV_ROWS
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CSV_SHA256


def test_run_checks_analyzes_each_weighted_cell_once(monkeypatch):
    calls = {name: Counter() for name in ("enumerate", "variance", "cv2", "alpha")}

    def spy(name, fn):
        def wrapper(t, budget, dist, *args, **kwargs):
            calls[name][t, budget, getattr(dist, "weight", None)] += 1
            return fn(t, budget, dist, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "enumerate_distribution", spy("enumerate", verify.enumerate_distribution))
    monkeypatch.setattr(verify, "recursive_variance", spy("variance", verify.recursive_variance))
    monkeypatch.setattr(verify, "recursive_cv2", spy("cv2", verify.recursive_cv2))
    monkeypatch.setattr(verify, "alpha_stats", spy("alpha", verify.alpha_stats))
    posets, budgets = 4, 2
    results = verify.run_checks(max_n=4, max_budget=budgets, posets=posets, seed=3, max_sequences=2000)
    assert all(r.passed for r in results)
    # fixture: the uniform draw and the leaf-count weight; posets: four kinds each
    weighted = budgets * (2 + 4 * posets)
    assert len(calls["variance"]) == len(calls["cv2"]) == len(calls["alpha"]) == weighted
    assert set(calls["alpha"]) == set(calls["variance"]) == set(calls["cv2"])
    # one enumeration per cell: the weighted cells, the fixture's ideal
    # draw, and the posets' ideal draws, which only the zero-variance check
    # reads (it shares the fixture's)
    assert len(calls["enumerate"]) == weighted + budgets * (1 + posets)
    for name in calls:
        assert set(calls[name].values()) == {1}, name


def test_run_checks_computes_each_subtree_cost_once(monkeypatch):
    # Each oracle keeps one subtree-cost memo that every cell and check
    # reads: an explicit tree's post-order pass reads a node's cost once,
    # and a decision tree's counter fills each remaining set once per
    # poset (the cost-splitting check and the cells share one tree).
    computed = Counter()
    oracles = {}  # keeps each oracle alive, so no two share an id
    inside = [0]
    subtree_cost, cost, completions = TreeOracle.subtree_cost, ExplicitTree.cost, posets._completions

    def counted_subtree_cost(self, node):
        inside[0] += 1
        try:
            return subtree_cost(self, node)
        finally:
            inside[0] -= 1

    def counted_cost(self, node):
        if inside[0]:
            oracles[id(self)] = self
            computed[id(self), node] += 1
        return cost(self, node)

    def counted_completions(above, memo, remaining):
        if remaining not in memo:
            computed[above, remaining] += 1
        return completions(above, memo, remaining)

    monkeypatch.setattr(TreeOracle, "subtree_cost", counted_subtree_cost)
    monkeypatch.setattr(ExplicitTree, "cost", counted_cost)
    monkeypatch.setattr(posets, "_completions", counted_completions)
    results = verify.run_checks(max_n=4, max_budget=2, posets=4, seed=3, max_sequences=2000)
    assert all(r.passed for r in results)
    # the fixture and the random trees, and the posets' decision trees
    assert len(oracles) == 4 and any(isinstance(key[0], tuple) for key in computed)
    assert set(computed.values()) == {1}


def test_max_sequences_caps_every_enumeration(monkeypatch):
    caps = Counter()
    enumerate_distribution = verify.enumerate_distribution

    def spy(t, budget, dist, max_sequences=None):
        caps[max_sequences] += 1
        return enumerate_distribution(t, budget, dist, max_sequences)

    monkeypatch.setattr(verify, "enumerate_distribution", spy)
    results = verify.run_checks(max_n=4, max_budget=2, posets=4, seed=3, max_sequences=2000)
    assert all(r.passed for r in results)
    assert set(caps) == {2000}


def test_zero_variance_reads_cells():
    # the fixture's ideal draw at each budget: an exact variance of 0, and
    # the exact cost on every sampled run
    t = fixture_example_tree()
    dist = ImportanceInduced(t.subtree_cost)
    cells = [verify.Cell("fixture", t, budget, "ideal", dist, 1000) for budget in (1, 2, 3)]
    res = verify.check_zero_variance(cells, runs=100, seed=5)
    assert res.passed and res.instances == 3
    # a draw that is not zero-variance fails on its enumeration
    cells = [verify.Cell("fixture", t, 2, "uniform", UniformHyperchild(), 1000)]
    res = verify.check_zero_variance(cells, runs=100, seed=5)
    assert not res.passed and "enumerated variance" in res.failures[0]


def test_zero_variance_holds_on_non_dyadic_costs():
    # Tenths have no exact float sums: exact subtree costs, read exactly by
    # the weighted draw's support, still give an enumerated variance of 0.
    t = ExplicitTree(
        {"r": ("a", "b", "c"), "a": ("d", "e"), "b": ("f",), "c": ("g", "h")},
        roots=("r",),
        costs={"r": .1, "a": .2, "b": .3, "c": .7, "d": .1, "e": .2, "f": .3, "g": .1, "h": .6},
    )
    dist = ImportanceInduced(t.subtree_cost)
    cells = [verify.Cell("tenths", t, budget, "ideal", dist, 1000) for budget in (1, 2, 3)]
    res = verify.check_zero_variance(cells, runs=100, seed=5)
    assert res.passed and res.instances == 3


def test_unbiasedness_passes_on_a_zero_cost_successor_forest():
    # The root's children cost nothing, so alpha is undefined below the
    # root; the estimate is still unbiased, and only the alpha check raises.
    t = ExplicitTree({"a": ("b", "c"), "b": ("d",)}, roots=("a",),
                     costs={"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0})
    dist = ImportanceInduced(lambda node: 1.0)
    cells = [verify.Cell("zero-cost", t, budget, "uniform", dist, 1000) for budget in (1, 2)]
    res = verify.check_unbiasedness(cells)
    assert res.passed and res.instances == 2
    with pytest.raises(ValueError, match="alpha undefined"):
        verify.check_alpha_suite(cells[:1])


def test_alpha_suite_takes_the_uniform_draw():
    # the uniform draw and the weighted draw of a constant weight have one
    # support, so they give one bounds row
    t = fixture_example_tree()
    uniform = verify.Cell("fixture", t, 2, "uniform", UniformHyperchild(), 1000)
    constant = verify.Cell("fixture", t, 2, "uniform", ImportanceInduced(lambda node: 1.0), 1000)
    rows = []
    for cell in (uniform, constant):
        sink = []
        res = verify.check_alpha_suite([cell], sink)
        assert res.passed and res.instances == 1
        rows.append(sink)
    assert uniform.alpha == constant.alpha
    assert rows[0] == rows[1] and len(rows[0]) == 1


def test_identity_hypernodes_hold_equal_state_members():
    # On an antichain two members with one deleted set share a child, and
    # the sampled hypernodes hold it twice where two positions pick it.
    tree = LEDecisionTree(Poset(5, [0] * 5))
    rng = RandomSource(derive_seed(1, "split"))
    sampled = verify._identity_hypernodes(tree, 3, rng)
    assert all(type(h) is tuple and list(h) == sorted(h) for h in sampled)
    shared = [h for h in sampled if len(set(h)) < len(h)]
    assert shared
    for h in shared:
        lhs, rhs = cost_split_identity(tree, h, 3)
        assert lhs == rhs


class _SlottedWeight:
    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

    def __call__(self, node):
        return self.table(node)


def test_cells_take_unhashable_oracles_and_slotted_weights():
    class Unhashable(ExplicitTree):
        __hash__ = None

    fixture = fixture_example_tree()
    t = Unhashable({k: fixture.successors(k) for k in "abcdefghijklmn"}, roots=("a",))
    dist = ImportanceInduced(_SlottedWeight(fixture_example_importance()))
    for tree in (fixture, t):
        cells = [verify.Cell("fixture", tree, budget, "leafcount", dist, 200_000) for budget in (1, 2)]
        res = verify.check_variance_forms(cells)
        assert res.passed and res.instances == 2


# Every failure branch of the checks, made to fire once: a cell's cached
# analysis is preset, or the binding a check calls is replaced.

def _fixture_cell(**preset):
    """Budget-2 uniform fixture cell with the named analyses preset."""
    cell = verify.Cell("fixture", fixture_example_tree(), 2, "uniform", UniformHyperchild(), 1000)
    vars(cell).update(preset)
    return cell


def _assert_fails(res, name, message):
    assert res.failures == [message]
    assert res.line() == f"FAIL  {name} ({res.instances} instances)  [{message}]"


def _perturbed_replays(when):
    """``sep_estimate`` with the estimate off by one where ``when(budget, dist)``."""
    def fake(t, budget, dist, choice):
        traj = sep_estimate(t, budget, dist, choice)
        return dataclasses.replace(traj, estimate=traj.estimate + 1) if when(budget, dist) else traj
    return fake


@pytest.mark.parametrize("attr, fake, message", [
    ("exact_forest_cost", lambda t: 13.0 if isinstance(t, ExplicitTree) else exact_forest_cost(t),
     "fixture tree cost 13.0 != 14"),
    ("sep_estimate", _perturbed_replays(lambda b, d: b == 2 and isinstance(d, UniformHyperchild)),
     "uniform budget-2 replay gave 13.75 != 12.75"),
    ("sep_estimate", _perturbed_replays(lambda b, d: isinstance(d, ImportanceInduced)),
     "weighted budget-2 replay gave 14.0, D (2.0, 2.5, 5.0, 2.5)"),
    ("sep_estimate", _perturbed_replays(lambda b, d: b == 1),
     "single-path replay gave 16.0, D factors (2.0, 2.0, 1.0, 1.0)"),
    ("count_linear_extensions", lambda poset: 8, "fixture poset counts dp=8, tree=7.0, expected 7"),
])
def test_golden_failure_branches(monkeypatch, attr, fake, message):
    monkeypatch.setattr(verify, attr, fake)
    res = verify.check_fixture_golden()
    assert res.instances == 5
    _assert_fails(res, "golden fixtures", message)


def test_cost_split_identity_failure_branch(monkeypatch):
    monkeypatch.setattr(verify, "cost_split_identity", lambda t, h, budget: (Fraction(1), Fraction(2)))
    res = verify.check_cost_split_identity([("fixture-tree", fixture_example_tree())], (2,), seed=1)
    # the first sampled hypernode is the root, named by its member tuple
    assert res.instances == 1
    _assert_fails(res, "cost-splitting identity", "fixture-tree: identity broke at ('a',) budget 2: 1 != 2")


def test_unbiasedness_mean_off_the_cost_fails():
    cell = _fixture_cell(enumeration=(Fraction(13), Fraction(1), Fraction(0)))
    _assert_fails(verify.check_unbiasedness([cell]), "unbiasedness of enumerated expectation",
                  "fixture B=2 uniform: mean 13 != cost 14")


@pytest.mark.parametrize("preset, message", [
    (dict(enumeration=(14, 1, Fraction(5)), variance=Fraction(6)),
     "fixture B=2 uniform: recursion 6 != enumeration 5"),
    (dict(enumeration=(14, 1, Fraction(196)), variance=Fraction(196), cv2=Fraction(2)),
     "fixture B=2 uniform: cv2 recursion 2 != 1"),
])
def test_variance_forms_failure_branches(preset, message):
    _assert_fails(verify.check_variance_forms([_fixture_cell(**preset)]),
                  "recursive variance and CV agreement", message)


@pytest.mark.parametrize("cv2, alpha, message", [
    # alpha as (mean, variance, max, level product)
    ("0", ("2", "0", "2", "2"), "fixture B=2 uniform: expected alpha 2 != 1"),
    ("1", ("1", "0", "5", "5"), "fixture B=2 uniform: cv2 1 > alpha variance 0"),
    ("1", ("1", "2", "3/2", "5"), "fixture B=2 uniform: cv2 1 > max alpha - 1 = 1/2"),
    ("1", ("1", "2", "3", "3/2"), "fixture B=2 uniform: cv2 1 > level product - 1 = 1/2"),
    ("0", ("1", "5", "2", "5"), "fixture B=2 uniform: alpha second moment above max*mean"),
])
def test_alpha_suite_failure_branches(cv2, alpha, message):
    sink = []
    cell = _fixture_cell(cv2=Fraction(cv2), alpha=AlphaStats(*map(Fraction, alpha)))
    res = verify.check_alpha_suite([cell], sink)
    _assert_fails(res, "alpha diagnostics and bounds", message)
    assert sink == []


def test_zero_variance_sampled_run_off_the_cost_fails():
    # the enumerated variance is 0, but the runs give 14 against a cost of 15
    t = fixture_example_tree()
    cell = verify.Cell("fixture", t, 2, "ideal", ImportanceInduced(t.subtree_cost), 1000)
    cell.cost = Fraction(15)
    _assert_fails(verify.check_zero_variance([cell], runs=10, seed=5), "zero variance under exact-cost weights",
                  "fixture B=2 ideal run 0: estimate 14.0 != cost 15.0")
