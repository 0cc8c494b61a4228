"""The check suite behind ``stochenum verify``: pinned output, and one
exact analysis per cell."""

import hashlib
from collections import Counter

import pytest

from stochenum import verify
from stochenum.cli import main
from stochenum.estimators import ImportanceInduced, UniformHyperchild
from stochenum.tree import ExplicitTree, fixture_example_importance, fixture_example_tree

# Recorded before the per-cell sharing: stdout and the --out CSV of
# `--seed 7 verify --max-n 5 --posets 16 --max-sequences 200`.
GOLDEN_STDOUT = """\
PASS  golden fixtures (5 instances)
PASS  cost-splitting identity (395 instances)
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
    # fixture: uniform and leaf-count weights; posets: four kinds each
    weighted = budgets * (2 + 4 * posets)
    assert len(calls["variance"]) == len(calls["cv2"]) == len(calls["alpha"]) == weighted
    assert set(calls["alpha"]) == set(calls["variance"]) == set(calls["cv2"])
    # one enumeration per cell: the weighted cells, the fixture's uniform
    # and ideal draws, the posets' uniform draws; then one per instance
    # and budget in the zero-variance check
    cells = weighted + budgets * (2 + posets)
    assert len(calls["enumerate"]) == cells + budgets * (1 + posets)
    for name in calls:
        assert set(calls[name].values()) == {1}, name


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


def test_alpha_suite_rejects_a_draw_without_alpha():
    cell = verify.Cell("fixture", fixture_example_tree(), 2, "uniform-dist", UniformHyperchild(), 1000)
    assert verify.check_unbiasedness([cell]).passed
    with pytest.raises(ValueError, match="ImportanceInduced"):
        verify.check_alpha_suite([cell])


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
