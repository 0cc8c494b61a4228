"""Command-line surface: flags, formats, exit codes, determinism."""

import csv
import functools
import inspect
import io
import json
import math
import os
from fractions import Fraction

import pytest
from explicit_distribution import ExplicitDistribution

from stochenum import cli, estimators, experiments, tree, verify
from stochenum.cli import main
from stochenum.errors import CapExceeded
from stochenum.posets import random_poset, save_poset
from stochenum.verify import DEFAULT_SEED, Cell, check_unbiasedness, enumerable_posets
from stochenum.tree import fixture_example_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_poset_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.poset"
    out2 = tmp_path / "b.poset"
    code1, text1, _ = run_cli(capsys, "--seed", "7", "gen-poset", "--n", "12", "--out", str(out1))
    code2, text2, _ = run_cli(capsys, "--seed", "7", "gen-poset", "--n", "12", "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert text1.replace("a.poset", "b.poset") == text2
    assert "linear extensions:" in text1


def test_gen_poset_extreme_probabilities(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen-poset", "--n", "3", "--p", "0", "--out", str(tmp_path / "anti"))
    assert code == 0 and "linear extensions: 6" in out
    code, out, _ = run_cli(capsys, "gen-poset", "--n", "3", "--p", "1", "--out", str(tmp_path / "chain"))
    assert code == 0 and "linear extensions: 1" in out


def test_exact_fixture_and_methods(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "exact", "--fixture", "poset-fig3", "--method", "both")
    assert code == 0
    assert "dp: 7" in out and "tree: 7" in out

    chain = tmp_path / "chain.poset"
    save_poset(random_poset(10, 1.0, 1), chain)
    code, out, _ = run_cli(capsys, "exact", "--poset", str(chain))
    assert code == 0 and "dp: 1" in out

    anti = tmp_path / "anti.poset"
    save_poset(random_poset(8, 0.0, 1), anti)
    code, out, _ = run_cli(capsys, "exact", "--poset", str(anti), "--method", "both")
    assert code == 0 and "dp: 40320" in out

    # Components {0>1>2}, {3>4}, {5>6}, {7}: 8!/(3! 2! 2! 1!) = 1680.
    split = tmp_path / "split.poset"
    split.write_text("8\n0 1\n1 2\n5 6\n3 4\n")
    code, out, _ = run_cli(capsys, "exact", "--poset", str(split), "--method", "both")
    assert code == 0
    assert out == "dp: 1680\ntree: 1680\n"


def test_exact_cap_exit_code(tmp_path, capsys):
    big = tmp_path / "big.poset"
    save_poset(random_poset(30, 0.3, 1), big)
    code, _, err = run_cli(capsys, "exact", "--poset", str(big))
    assert code == 3
    assert "cap" in err


def test_exact_both_prints_dp_count_before_tree_cap(tmp_path, capsys, monkeypatch):
    anti = tmp_path / "anti.poset"
    save_poset(random_poset(8, 0.0, 1), anti)  # 40320 extensions, far more tree nodes
    monkeypatch.setattr(cli, "exact_forest_cost", functools.partial(tree.exact_forest_cost, max_nodes=1000))
    code, out, err = run_cli(capsys, "exact", "--poset", str(anti), "--method", "both")
    assert code == 3
    assert out == "dp: 40320\n"
    assert err.count("\n") == 1 and "1000 nodes" in err
    code, out, _ = run_cli(capsys, "exact", "--poset", str(anti), "--method", "tree")
    assert code == 3 and out == ""


def test_estimate_overflow_exit_code(tmp_path, capsys):
    anti = tmp_path / "anti.poset"
    anti.write_text("200\n")  # an antichain: 200! extensions, beyond double range
    for threads in ("1", "2"):
        code, out, err = run_cli(capsys, "--threads", threads, "estimate", "--poset", str(anti), "--runs", "8")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "overflow" in err and "Traceback" not in err


def _die_in_worker(task):
    os._exit(9)  # as when the OOM killer ends a worker


@pytest.mark.parametrize("module, name, argv", [
    (estimators, "_run_block_star", ("estimate", "--fixture", "poset-fig3", "--runs", "256")),
    (experiments, "_poset_task",
     ("sweep", "--kind", "n", "--values", "4", "--budget", "2", "--posets", "4", "--estimates", "8")),
])
def test_dead_worker_exit_code(capsys, monkeypatch, module, name, argv):
    # The pool looks the task function up by name in the forked worker,
    # so the worker runs the patched one.
    monkeypatch.setattr(module, name, _die_in_worker)
    code, out, err = run_cli(capsys, "--threads", "2", *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("worker process died") and "Traceback" not in err


def test_recursion_limit_exit_code(capsys, monkeypatch):
    # An instance deep enough for the exact recursion to pass the
    # interpreter's limit ends in one stderr line, not a traceback.
    def too_deep(**kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "run_checks", too_deep)
    code, out, err = run_cli(capsys, "verify")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "recursion depth" in err and "Traceback" not in err


def test_estimate_with_squares_beyond_double_range(tmp_path, capsys):
    # Estimates near 1e198 are finite, but their squares are not.
    path = tmp_path / "p.poset"
    assert run_cli(capsys, "--seed", "3", "gen-poset", "--n", "120", "--p", "0.01", "--out", str(path))[0] == 0
    code, out, err = run_cli(capsys, "estimate", "--poset", str(path), "--runs", "50")
    assert code == 0 and "Traceback" not in err
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["variance"] == "inf"
    for field in ("mean", "rel_variance", "stderr"):
        assert math.isfinite(float(row[field]))


def test_bad_poset_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_text("3\n0 1\n1 0\n")
    code, _, err = run_cli(capsys, "exact", "--poset", str(bad))
    assert code == 2
    assert "line" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--fixture", "nope"])
    assert exc.value.code == 2


def test_estimate_fixture_summary(capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "5", "estimate",
        "--fixture", "example", "--budget", "2", "--runs", "4000",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["exact"] == "14"
    mean = float(row["mean"])
    stderr = float(row["stderr"])
    assert abs(mean - 14.0) <= 4 * stderr


def test_estimate_formats_encode_same_data(capsys):
    args = ("--seed", "3", "estimate", "--fixture", "example", "--budget", "2", "--runs", "500")
    code, out_csv, _ = run_cli(capsys, "--format", "csv", *args)
    code2, out_json, _ = run_cli(capsys, "--format", "json-lines", *args)
    assert code == code2 == 0
    csv_row = next(csv.DictReader(io.StringIO(out_csv)))
    json_row = json.loads(out_json)
    assert {k: str(v) for k, v in json_row.items()} == csv_row


def test_estimate_budget1_sibling_weight_equals_uniform(tmp_path, capsys):
    poset = tmp_path / "p.poset"
    save_poset(random_poset(9, 0.2, 13), poset)
    base = ("--seed", "21", "estimate", "--poset", str(poset), "--budget", "1", "--runs", "800")
    _, out_uniform, _ = run_cli(capsys, *base, "--importance", "uniform")
    _, out_f1, _ = run_cli(capsys, *base, "--importance", "1")
    row_u = next(csv.DictReader(io.StringIO(out_uniform)))
    row_f = next(csv.DictReader(io.StringIO(out_f1)))
    row_u.pop("importance")
    row_f.pop("importance")
    assert row_u == row_f


def test_estimate_ideal_importance_zero_variance(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--fixture", "example", "--budget", "2",
        "--importance", "ideal", "--runs", "200",
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["rel_variance"]) <= 1e-12


@pytest.mark.parametrize("threads", ["1", "2"])
def test_estimate_ideal_bytes_are_pinned(capsys, threads):
    # The exact-cost weight is the oracle's bound subtree_cost, which
    # pickles into the workers together with its memo.
    code, out, err = run_cli(capsys, "--seed", "0", "--threads", threads, "estimate", "--fixture", "example",
                             "--importance", "ideal", "--budget", "2", "--runs", "300")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == (
        "example,2,ideal,300,14.0,5.69879449925547e-31,2.907548213905852e-33,4.358437984437188e-17,14"
    )


def test_estimate_labeled_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--fixture", "example-importance", "--budget", "2", "--runs", "400",
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["exact"] == "14"


def test_estimate_example_importance_is_labeled_leafcount(capsys):
    code, out, err = run_cli(capsys, "--seed", "2", "estimate", "--fixture", "example-importance",
                             "--budget", "2", "--runs", "50")
    assert code == 0 and err == ""
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["importance"] == "leafcount"
    code, out, err = run_cli(capsys, "estimate", "--fixture", "example-importance",
                             "--importance", "ideal", "--runs", "50")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "--importance ideal would be ignored" in err


def test_estimate_default_importance_is_uniform(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--fixture", "poset-fig3", "--runs", "20")
    assert code == 0
    assert next(csv.DictReader(io.StringIO(out)))["importance"] == "uniform"


def test_estimate_poset_importance_on_plain_tree_rejected(capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--fixture", "example", "--importance", "2", "--runs", "10",
    )
    assert code == 2
    assert "poset" in err


@pytest.mark.parametrize("fixture", ["example", "example-importance", "poset-fig3"])
@pytest.mark.parametrize("importance", ["uniform", "1", "2", "3", "f1", "f2", "f3", "ideal"])
def test_fixture_estimates_at_two_workers(capsys, fixture, importance):
    # The weight crosses the process pool by pickling.  Supported pairs
    # print the 1-worker bytes; the plain tree's poset weights stay usage
    # errors, and so does any --importance on the example-importance
    # fixture, which always runs its leaf-count weight.
    args = ("--seed", "4", "estimate", "--fixture", fixture, "--budget", "2",
            "--importance", importance, "--runs", "200")
    one = run_cli(capsys, "--threads", "1", *args)
    two = run_cli(capsys, "--threads", "2", *args)
    supported = fixture == "poset-fig3" or (fixture == "example" and importance in ("uniform", "ideal"))
    assert one[0] == two[0] == (0 if supported else 2)
    assert one[1:] == two[1:]


def test_sweep_empty_values_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--kind", "n", "--values", "")
    assert code == 2 and out == ""
    assert "swept value list is empty" in err


def test_sweep_csv_and_rerun_identical(tmp_path, capsys):
    args = (
        "--seed", "9", "sweep", "--kind", "B", "--n", "5", "--values", "1,2,3",
        "--posets", "6", "--estimates", "12",
    )
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    parsed = list(csv.reader(io.StringIO(out1)))
    assert len(parsed) == 1 + 3 * 4


def test_sweep_out_writes_companion(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, text, _ = run_cli(
        capsys, "--seed", "2", "sweep", "--kind", "n", "--values", "4,5", "--budget", "2",
        "--posets", "4", "--estimates", "8", "--out", str(out), "--compare",
    )
    assert code == 0
    assert out.exists() and (tmp_path / "sweep.csv.gnuplot.dat").exists()
    assert "beats uniform" in text
    header = out.read_text().splitlines()[0]
    assert header == "kind,n,B,importance,posets,estimates_per_poset,mean_rel_var,stderr,guard_frac,seconds"


def test_sweep_json_lines(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json-lines", "--seed", "2", "sweep", "--kind", "n",
        "--values", "4", "--budget", "2", "--posets", "4", "--estimates", "8",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4
    assert {r["importance"] for r in rows} == {"uniform", "f1", "f2", "f3"}


def test_sweep_stderr_of_one_poset_is_empty(capsys):
    argv = ("sweep", "--kind", "n", "--values", "5", "--budget", "2", "--posets", "1", "--estimates", "4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4 and all(r["stderr"] == "" for r in rows)
    code, out, _ = run_cli(capsys, "--format", "json-lines", *argv)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4 and all(r["stderr"] is None for r in rows)


def test_threads_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("SE_COUNT_THREADS", "2")
    code, out, _ = run_cli(
        capsys, "--seed", "4", "estimate", "--fixture", "example", "--budget", "2", "--runs", "600",
    )
    assert code == 0
    monkeypatch.setenv("SE_COUNT_THREADS", "1")
    code2, out2, _ = run_cli(
        capsys, "--seed", "4", "estimate", "--fixture", "example", "--budget", "2", "--runs", "600",
    )
    assert code2 == 0
    assert out == out2  # worker count never changes results


@pytest.mark.parametrize("argv", [
    ("estimate", "--fixture", "poset-fig3", "--budget", "0"),
    ("estimate", "--fixture", "example", "--budget", "-1"),
    ("sweep", "--kind", "n", "--values", "5", "--budget", "0", "--posets", "1", "--estimates", "2"),
    ("verify", "--max-n", "0"),
    ("verify", "--max-n", "-1"),
    ("verify", "--max-budget", "0"),
    ("verify", "--posets", "0"),
    ("verify", "--max-sequences", "0"),
])
def test_nonpositive_sizes_are_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_sweep_single_estimate_is_a_usage_error(capsys):
    # one estimate per poset has no sample variance to report
    code, out, err = run_cli(
        capsys, "sweep", "--kind", "n", "--values", "5", "--budget", "2", "--posets", "1", "--estimates", "1",
    )
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: estimates per poset must be >= 2, got 1"]


@pytest.mark.parametrize("flag, env", [
    (("--threads", "0"), None),
    (("--threads", "-2"), None),
    ((), "two"),
    ((), "0"),
])
@pytest.mark.parametrize("command", [
    ("estimate", "--fixture", "example", "--runs", "8"),
    ("sweep", "--kind", "n", "--values", "5", "--budget", "2", "--posets", "1", "--estimates", "2"),
    ("gen-poset", "--n", "3", "--out", "x.poset"),
    ("exact", "--fixture", "poset-fig3"),
    ("verify", "--max-n", "3", "--posets", "1"),
])
def test_threads_below_one_rejected(monkeypatch, tmp_path, capsys, flag, env, command):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("SE_COUNT_THREADS", raising=False)
    else:
        monkeypatch.setenv("SE_COUNT_THREADS", env)
    code, out, err = run_cli(capsys, *flag, *command)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert ("--threads" if flag else "SE_COUNT_THREADS") in err
    assert not (tmp_path / "x.poset").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_verify_small_failure_exit_code(monkeypatch, capsys, threads):
    # A biased estimator (every estimate x1.5) fails the pooled check with
    # one stderr line, in the parent process and in pool workers alike.
    run_block = experiments._run_block
    monkeypatch.setattr(experiments, "_run_block", lambda *a: [1.5 * x for x in run_block(*a)])
    code, out, err = run_cli(
        capsys, "--threads", threads, "--seed", "1", "sweep", "--kind", "n", "--values", "10",
        "--budget", "5", "--posets", "12", "--estimates", "64", "--importance", "f2",
        "--verify-small",
    )
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("verification failure:") and "5 standard" in err


@pytest.mark.parametrize("argv", [
    # float rounding alone: a mean 2138400.0000000005 against 2138400
    ("--seed", "3", "sweep", "--kind", "n", "--values", "12", "--budget", "1",
     "--posets", "25", "--estimates", "144"),
    # 3 heavy-tailed B=1 estimates per poset
    ("--seed", "1", "sweep", "--kind", "n", "--values", "12", "--budget", "1",
     "--posets", "40", "--estimates", "3", "--importance", "uniform"),
])
def test_sweep_verify_small_passes_correct_estimates(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--verify-small")
    assert code == 0 and err == ""
    assert out.startswith("kind,n,B,importance")


def test_verify_cap_too_small_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "6", "--posets", "2", "--max-sequences", "1")
    assert code == 3
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    # Running out of enumerable instances is the same cap, not a crash.
    with pytest.raises(CapExceeded, match="enumerable posets"):
        enumerable_posets(1, 0, 6, (1,), 0, sizes=(6,))


@pytest.mark.parametrize("argv, seed", [
    (("--seed", "0", "verify"), 0),
    (("verify",), DEFAULT_SEED),
])
def test_verify_seed_reaches_run_checks(monkeypatch, capsys, argv, seed):
    seen = []
    monkeypatch.setattr(cli, "run_checks", lambda **kw: seen.append(kw["seed"]) or [])
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and seen == [seed]


def test_verify_defaults_are_run_checks_defaults(monkeypatch, capsys):
    # `stochenum verify` with no options is `run_checks()`
    seen = []
    monkeypatch.setattr(cli, "run_checks", lambda **kw: seen.append(kw) or [])
    code, _, _ = run_cli(capsys, "verify")
    assert code == 0 and len(seen) == 1
    passed = {name: value for name, value in seen[0].items() if name != "bounds_sink"}
    params = inspect.signature(verify.run_checks).parameters
    assert passed == {name: p.default for name, p in params.items() if name != "bounds_sink"}


def test_other_commands_default_to_seed_zero(tmp_path, capsys):
    default = run_cli(capsys, "gen-poset", "--n", "12", "--out", str(tmp_path / "a.poset"))
    zero = run_cli(capsys, "--seed", "0", "gen-poset", "--n", "12", "--out", str(tmp_path / "b.poset"))
    assert default[1].replace("a.poset", "b.poset") == zero[1]
    assert (tmp_path / "a.poset").read_bytes() == (tmp_path / "b.poset").read_bytes()


def test_verify_failure_exit_code(monkeypatch, tmp_path, capsys):
    # two checks fail: one FAIL line each, the bounds CSV is still written,
    # and stderr counts the failures and gives each first counterexample
    monkeypatch.setattr(verify, "count_linear_extensions", lambda poset: 8)
    monkeypatch.setattr(verify, "cost_split_identity", lambda t, h, budget: (Fraction(1), Fraction(2)))
    bounds = tmp_path / "bounds.csv"
    code, out, err = run_cli(capsys, "verify", "--max-n", "3", "--posets", "2", "--out", str(bounds))
    golden = "fixture poset counts dp=8, tree=7.0, expected 7"
    identity = "fixture-tree: identity broke at ('a',) budget 1: 1 != 2"
    lines = out.splitlines()
    assert code == 1 and len(lines) == 7
    assert lines[0] == f"FAIL  golden fixtures (5 instances)  [{golden}]"
    assert lines[1] == f"FAIL  cost-splitting identity (1 instances)  [{identity}]"
    assert all(line.startswith("PASS  ") for line in lines[2:6])
    assert lines[6] == f"wrote {bounds}" and bounds.exists()
    assert err == f"2 of 6 checks failed\n  counterexample: {golden}\n  counterexample: {identity}\n"


def test_exact_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "exact_forest_cost", lambda t: 8.0)
    code, out, err = run_cli(capsys, "exact", "--fixture", "poset-fig3", "--method", "both")
    assert code == 1 and out == "dp: 7\ntree: 8\n"
    assert err == "MISMATCH on poset-fig3: dp=7 tree=8\n"


def test_estimate_ideal_past_the_counter_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "p25.poset"
    save_poset(random_poset(25, 0.2, 1), path)
    code, out, err = run_cli(capsys, "estimate", "--poset", str(path), "--importance", "ideal", "--runs", "2")
    assert code == 3 and out == ""
    assert err == "resource cap exceeded: exact-cost weights need the deleted-set table; cap is n <= 24\n"


def test_sweep_exact_ref_past_the_counter_cap_exit_code(monkeypatch, capsys):
    # refused before any work: not even the n=24 point draws a poset
    monkeypatch.setattr(experiments, "random_poset", None)
    code, out, err = run_cli(
        capsys, "--seed", "1", "sweep", "--kind", "n", "--values", "24,25", "--budget", "1",
        "--posets", "2", "--estimates", "8", "--importance", "uniform", "--exact-ref",
    )
    assert code == 3 and out == ""
    assert err == "resource cap exceeded: exact reference needs the exact count at n=25; cap is n <= 24\n"


def test_verify_trivial_and_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--posets", "2")
    assert code == 0
    assert "all 6 checks passed" in out


def test_verify_bounds_export(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code, _, _ = run_cli(
        capsys, "verify", "--max-n", "3", "--posets", "2", "--out", str(out),
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("instance,budget,importance,variance,cv2")


def test_corrupted_distribution_fails_unbiasedness():
    # a lying candidate table (valid probabilities, wrong shape) must be caught
    t = fixture_example_tree()
    table = {
        ("b", "c"): [(("b", "c"), 1)],
        ("d", "e", "f"): [(("d", "e"), "2/3"), (("d", "f"), "1/6"), (("e", "f"), "1/6")],
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
    # the lying table reports 1/3 each while the walk would sample 2/3-1/6-1/6;
    # for the enumeration oracle the reported probabilities ARE the model, so
    # corrupt the reported ones against the level-factor formula instead
    class Lying(ExplicitDistribution):
        def support(self, succ, budget):
            for nodes, p in super().support(succ, budget):
                yield nodes, p * 2 if nodes == ("d", "e") else p

    res = check_unbiasedness([Cell("fixture", t, 2, "lying", Lying(table), 200_000)])
    assert not res.passed
