"""Command-line frontend.

Subcommands: gen-poset (random instance to a file), exact (count linear
extensions), estimate (repeated estimator runs with a summary), sweep
(the relative-variance experiment protocols), and verify (the
correctness check suite).

Exit codes: 0 success, 1 verification or assertion failure (a failed
``verify`` check, an ``exact --method both`` mismatch, or a ``sweep
--verify-small`` pooled mean/exact ratio off 1), 2 usage or input error, 3
resource cap exceeded, an estimate beyond double range
(``EstimateOverflow``; one stderr line with the estimate's natural log),
a worker process that died (``BrokenProcessPool``; one stderr line), or
an instance too deep for the interpreter's recursion limit
(``RecursionError``; one stderr line).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from .analysis import BOUNDS_CSV_HEADER
from .errors import CapExceeded, EstimateOverflow, VerificationFailure
from .estimators import ImportanceInduced, UniformHyperchild, ideal_cost_distribution, run_many
from .experiments import (
    SweepConfig,
    compare_importance,
    format_comparison,
    rows_to_csv,
    rows_to_gnuplot,
    rows_to_json_lines,
    run_sweep,
)
from .posets import (
    LEDecisionTree,
    MAX_DP_ELEMENTS,
    PosetFormatError,
    count_linear_extensions,
    fixture_poset,
    importance_function,
    load_poset,
    random_poset,
    save_poset,
)
from .tree import exact_forest_cost, fixture_example_importance, fixture_example_tree
from .verify import DEFAULT_SEED, run_checks

FIXTURES = ("example", "example-importance", "poset-fig3")


def _threads(args) -> int:
    """Worker count: ``--threads``, else ``SE_COUNT_THREADS``, else 1.

    Resolved once in ``main`` for every subcommand, so a count below 1
    or an unparsable variable is a usage error wherever it appears.
    """
    if args.threads is not None:
        value, source = args.threads, "--threads"
    else:
        env = os.environ.get("SE_COUNT_THREADS")
        if not env:
            return 1
        source = "SE_COUNT_THREADS"
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer >= 1, got {env!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochenum",
        description="Tree-cost estimation by stochastic enumeration, with an "
        "application to counting linear extensions of posets.",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help=f"base seed for all randomness (default: {DEFAULT_SEED} for verify, 0 otherwise)",
    )
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker processes (default: SE_COUNT_THREADS or 1)",
    )
    parser.add_argument(
        "--format", choices=("csv", "json-lines"), default="csv",
        help="output encoding for tabular results",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-poset", help="generate a random poset file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.2, help="pair relation probability")
    p.add_argument("--out", required=True)

    p = sub.add_parser("exact", help="count linear extensions exactly")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poset", help="poset file")
    src.add_argument("--fixture", choices=("poset-fig3",))
    p.add_argument("--method", choices=("dp", "tree", "both"), default="dp")

    p = sub.add_parser("estimate", help="run the estimator repeatedly and summarize")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poset", help="poset file")
    src.add_argument("--fixture", choices=FIXTURES)
    p.add_argument("--budget", type=int, default=1)
    p.add_argument(
        "--importance", default=None,
        choices=("uniform", "1", "2", "3", "f1", "f2", "f3", "ideal"),
        help="weight kind (default: uniform; the example-importance fixture "
        "always runs its leaf-count weight and takes no --importance)",
    )
    p.add_argument("--runs", type=int, default=1000)

    p = sub.add_parser("sweep", help="relative-variance sweep over n or budget")
    p.add_argument("--kind", choices=("n", "B"), required=True)
    p.add_argument("--values", help="comma-separated swept values (defaults per kind)")
    p.add_argument("--n", type=int, help="fixed poset size for a B sweep")
    p.add_argument("--budget", type=int, help="fixed budget for an n sweep")
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--posets", type=int, help="posets per swept point")
    p.add_argument("--estimates", type=int, help="estimates per poset")
    p.add_argument("--importance", default="uniform,f1,f2,f3", help="comma-separated kinds")
    p.add_argument("--scale", type=float, default=1.0, help="replicate scale divisor")
    p.add_argument("--full-protocol", action="store_true", help="exactly n^2 replicates: ignore --scale and the floor of 64")
    p.add_argument("--exact-ref", action="store_true",
                   help="divide by the exact squared count instead of the squared sample mean")
    p.add_argument("--verify-small", action="store_true",
                   help="cross-check estimate means against exact counts (n <= 24): per point "
                   "and kind, fail when the mean of the per-poset mean/exact ratios is more than "
                   "5 standard errors from 1; a point with fewer than two exact counts is not checked")
    p.add_argument("--timing", action="store_true",
                   help="record wall time per row (breaks byte-reproducibility)")
    p.add_argument("--compare", action="store_true", help="print an importance ranking report")
    p.add_argument("--out", help="CSV output path; a .gnuplot.dat companion is written too")

    p = sub.add_parser("verify", help="run the correctness check suite")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--max-budget", type=int, default=3)
    p.add_argument("--posets", type=int, default=12)
    p.add_argument("--max-sequences", type=int, default=20_000)
    p.add_argument("--out", help="write the bound diagnostics as CSV")

    return parser


def _load_instance(args):
    """(tree oracle, poset or None, label) from --poset / --fixture flags."""
    if getattr(args, "poset", None):
        poset = load_poset(args.poset)
        return LEDecisionTree(poset), poset, args.poset
    name = args.fixture
    if name in ("example", "example-importance"):
        return fixture_example_tree(), None, name
    if name == "poset-fig3":
        poset = fixture_poset()
        return LEDecisionTree(poset), poset, name
    raise ValueError(f"unknown fixture {name!r}")


def _emit_table(fmt: str, header: tuple, rows: list[list], out=None):
    if out is None:
        out = sys.stdout
    if fmt == "json-lines":
        for row in rows:
            out.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def cmd_gen_poset(args) -> int:
    poset = random_poset(args.n, args.p, args.seed)
    save_poset(poset, args.out)
    relations = len(poset.relation_pairs())
    print(f"n={poset.n} relations={relations} file={args.out}")
    if poset.n <= MAX_DP_ELEMENTS:
        print(f"linear extensions: {count_linear_extensions(poset)}")
    return 0


def cmd_exact(args) -> int:
    _, poset, label = _load_instance(args)
    if poset is None:
        raise ValueError("exact counting needs a poset instance")
    counts = {}
    # each count is printed as soon as it is known, so a tree traversal
    # that passes its cap still leaves the DP count on stdout
    if args.method in ("dp", "both"):
        counts["dp"] = count_linear_extensions(poset)
        print(f"dp: {counts['dp']}", flush=True)
    if args.method in ("tree", "both"):
        counts["tree"] = int(exact_forest_cost(LEDecisionTree(poset)))
        print(f"tree: {counts['tree']}")
    if args.method == "both" and counts["dp"] != counts["tree"]:
        print(f"MISMATCH on {label}: dp={counts['dp']} tree={counts['tree']}", file=sys.stderr)
        return 1
    return 0


def cmd_estimate(args) -> int:
    tree, poset, label = _load_instance(args)
    importance = args.importance or "uniform"
    if args.fixture == "example-importance":
        if args.importance is not None:
            raise ValueError(
                f"--importance {args.importance} would be ignored: the example-importance "
                "fixture always runs its leaf-count weight"
            )
        importance = "leafcount"
        dist = ImportanceInduced(fixture_example_importance())
    elif importance == "uniform":
        dist = UniformHyperchild()
    elif poset is not None:
        dist = ImportanceInduced(importance_function(tree, importance))
    elif importance == "ideal":
        dist = ideal_cost_distribution(tree)
    else:
        raise ValueError(
            f"importance {importance!r} needs a poset instance; "
            "the plain tree fixture supports uniform and ideal"
        )
    summary = run_many(tree, args.budget, dist, args.runs, args.seed, threads=args.threads)
    exact = None
    if poset is not None and poset.n <= MAX_DP_ELEMENTS:
        exact = count_linear_extensions(poset)
    elif poset is None:
        exact = int(exact_forest_cost(tree))
    header = ("instance", "budget", "importance", "runs", "mean", "variance", "rel_variance", "stderr", "exact")
    row = [
        label, str(args.budget), importance, str(summary.runs),
        repr(summary.mean),
        "" if summary.variance is None else repr(summary.variance),
        "" if summary.rel_variance is None else repr(summary.rel_variance),
        "" if summary.stderr is None else repr(summary.stderr),
        "" if exact is None else str(exact),
    ]
    _emit_table(args.format, header, [row])
    return 0


def _parse_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"bad swept value list {text!r}") from None


def cmd_sweep(args) -> int:
    if args.values is not None:
        swept = _parse_values(args.values)
    elif args.kind == "n":
        swept = (10, 15, 20)
    else:
        swept = tuple(range(1, 21))
    cfg = SweepConfig(
        kind=args.kind,
        swept=swept,
        fixed_n=args.n,
        fixed_budget=args.budget,
        edge_probability=args.p,
        posets_per_point=args.posets,
        estimates_per_poset=args.estimates,
        importance=tuple(args.importance.split(",")),
        seed=args.seed,
        scale=args.scale,
        full_protocol=args.full_protocol,
        exact_reference=args.exact_ref,
        verify_small=args.verify_small,
        timing=args.timing,
    )
    rows = run_sweep(cfg, threads=args.threads)
    if args.format == "json-lines":
        text = rows_to_json_lines(rows)
    else:
        text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if args.format == "csv" else rows_to_csv(rows))
        with open(args.out + ".gnuplot.dat", "w", encoding="utf-8") as fh:
            fh.write(rows_to_gnuplot(rows))
        print(f"wrote {args.out} and {args.out}.gnuplot.dat")
        if args.format == "json-lines":
            sys.stdout.write(text)
    else:
        sys.stdout.write(text)
    if args.compare:
        print(format_comparison(compare_importance(rows)))
    return 0


def cmd_verify(args) -> int:
    bounds: list = []
    results = run_checks(
        max_n=args.max_n,
        max_budget=args.max_budget,
        posets=args.posets,
        seed=args.seed,
        max_sequences=args.max_sequences,
        bounds_sink=bounds,
    )
    for res in results:
        print(res.line())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(BOUNDS_CSV_HEADER)
            writer.writerows(bounds)
        print(f"wrote {args.out}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        for r in failed:
            for msg in r.failures:
                print(f"  counterexample: {msg}", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-poset": cmd_gen_poset,
        "exact": cmd_exact,
        "estimate": cmd_estimate,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    if args.seed is None:
        args.seed = DEFAULT_SEED if args.command == "verify" else 0
    try:
        args.threads = _threads(args)
        return handlers[args.command](args)
    except (CapExceeded, RecursionError) as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except EstimateOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"worker process died: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (PosetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
