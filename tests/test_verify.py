"""The check suite behind ``stochenum verify``: pinned output, and one
exact analysis per cell."""

import hashlib
from collections import Counter

import pytest

from stochenum import verify
from stochenum.analysis import cost_split_identity
from stochenum.cli import main
from stochenum.estimators import ImportanceInduced, UniformHyperchild, ideal_cost_distribution
from stochenum.posets import LEDecisionTree, Poset
from stochenum.sampling import RandomSource, derive_seed
from stochenum.tree import ExplicitTree, fixture_example_importance, fixture_example_tree

# stdout and the --out CSV of `--seed 7 verify --max-n 5 --posets 16
# --max-sequences 200`.  The cost-splitting line counts distinct sampled
# hypernodes, so it follows the node representation; the CSV has kept its
# bytes since before the per-cell sharing.
GOLDEN_STDOUT = """\
PASS  golden fixtures (5 instances)
PASS  cost-splitting identity (371 instances)
PASS  unbiasedness of enumerated expectation (249 instances)
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
    # draw, the posets' uniform draws, and the posets' ideal draws, which
    # only the zero-variance check reads (it shares the fixture's)
    cells = weighted + budgets * (1 + posets)
    assert len(calls["enumerate"]) == cells + budgets * posets
    for name in calls:
        assert set(calls[name].values()) == {1}, name


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
    dist = ideal_cost_distribution(t)
    cells = [verify.Cell("fixture", t, budget, "ideal", dist, 1000) for budget in (1, 2, 3)]
    res = verify.check_zero_variance(cells, runs=100, seed=5)
    assert res.passed and res.instances == 3
    # a draw that is not zero-variance fails on its enumeration
    cells = [verify.Cell("fixture", t, 2, "uniform", UniformHyperchild(), 1000)]
    res = verify.check_zero_variance(cells, runs=100, seed=5)
    assert not res.passed and "enumerated variance" in res.failures[0]


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
    shared = [h for h in verify._identity_hypernodes(tree, 3, rng) if len(set(h)) < len(h)]
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
