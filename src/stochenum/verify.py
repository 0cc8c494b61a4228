"""Executable correctness checks over fixtures and seeded random instances.

Every mathematical guarantee the estimators rely on is run here as a
concrete assertion: golden replays of the worked examples, the
cost-splitting identity, exact unbiasedness of the enumerated outcome
distribution, agreement of the recursive variance and CV forms with
enumeration, the alpha diagnostics with their bound chain, and the
zero-variance property of exact-cost weights.  The CLI exposes this as a
user-facing command; the test suite calls the same functions.

The exact checks (unbiasedness, the variance forms, alpha, zero
variance) take lists of ``Cell``: one (instance, budget, draw) each,
whose enumeration, variance recursion, CV^2 recursion and alpha
recursion run on first use and are kept as scalars, every enumeration
under the suite's one sequence cap.  ``run_checks`` builds each cell
once and hands the same object to every check that reads it, so each is
analyzed once.  The zero-variance check also samples each of its cells'
runs through ``estimators._run_block``, under stream contract v2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .analysis import (
    AlphaStats,
    alpha_stats,
    bounds_csv_row,
    cost_split_identity,
    count_sequences,
    enumerate_distribution,
    recursive_cv2,
    recursive_variance,
)
from .errors import CapExceeded
from .estimators import ImportanceInduced, UniformHyperchild, _run_block, sep_estimate
from .posets import LEDecisionTree, Poset, count_linear_extensions, fixture_poset, importance_function, random_poset
from .sampling import RandomSource, ScriptedChoice, derive_seed
from .tree import (
    ExplicitTree,
    exact_forest_cost,
    fixture_example_importance,
    fixture_example_tree,
    hypernode_successors,
)

DEFAULT_SEED = 20240501


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        self.failures.append(message)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.failures[0]}]" if self.failures else ""
        return f"{status}  {self.name} ({self.instances} instances){extra}"


def random_tree(seed: int, max_depth: int = 4, max_children: int = 3) -> ExplicitTree:
    """Small random explicit tree with mixed costs, for identity checks."""
    rng = RandomSource(derive_seed(seed, "tree"))
    costs = (0.0, 0.5, 1.0, 2.0)
    children: dict[int, list[int]] = {}
    node_costs = {0: costs[rng.randrange(len(costs))]}
    frontier = [0]
    next_id = 1
    for depth in range(max_depth):
        nxt = []
        for node in frontier:
            kid_count = rng.randrange(max_children + 1)
            if depth == 0 and kid_count == 0:
                kid_count = 1
            kids = []
            for _ in range(kid_count):
                kids.append(next_id)
                node_costs[next_id] = costs[rng.randrange(len(costs))]
                next_id += 1
            children[node] = kids
            nxt.extend(kids)
        frontier = nxt
    return ExplicitTree(children, roots=(0,), costs=node_costs)


def enumerable_posets(
    count: int,
    seed: int,
    max_n: int,
    budgets: tuple[int, ...],
    max_sequences: int,
    sizes: tuple[int, ...] | None = None,
) -> list[Poset]:
    """First ``count`` seeded random posets whose outcome spaces fit the cap.

    Near-antichain posets have outcome spaces beyond any exact
    enumeration (billions of sequences already at six elements), so
    instances are drawn until enough enumerable ones are found.  Fully
    deterministic for a fixed seed.  ``sizes`` overrides the default
    element-count cycle of 2..max_n.
    """
    if sizes is None:
        lo = 1 if max_n == 1 else 2
        sizes = tuple(range(lo, max_n + 1))
    out = []
    attempt = 0
    while len(out) < count:
        n = sizes[attempt % len(sizes)]
        poset = random_poset(n, 0.2, derive_seed(seed, "poset", attempt))
        attempt += 1
        if attempt > 400 * count:
            raise CapExceeded("could not find enough enumerable posets; lower max_n or raise the cap")
        tree = LEDecisionTree(poset)
        try:
            for budget in budgets:
                count_sequences(tree, budget, max_sequences=max_sequences)
        except CapExceeded:
            continue
        out.append(poset)
    return out


def check_fixture_golden() -> CheckResult:
    """Scripted replays of the worked examples and the fixture counts."""
    res = CheckResult("golden fixtures")
    t = fixture_example_tree()
    if exact_forest_cost(t) != 14.0:
        res.fail(f"fixture tree cost {exact_forest_cost(t)} != 14")
    res.instances += 1

    script = ScriptedChoice([
        ("subset", ("b", "c")),
        ("subset", ("d", "e")),
        ("subset", ("h", "i")),
        ("subset", ("m",)),
    ])
    traj = sep_estimate(t, 2, UniformHyperchild(), script)
    if traj.estimate != 12.75 or not script.exhausted():
        res.fail(f"uniform budget-2 replay gave {traj.estimate} != 12.75")
    res.instances += 1

    script = ScriptedChoice([
        ("weighted", "c"), ("subset", ("b",)),
        ("weighted", "e"), ("subset", ("d",)),
        ("weighted", "i"), ("subset", ("h",)),
        ("weighted", "m"),
    ])
    traj = sep_estimate(t, 2, ImportanceInduced(fixture_example_importance()), script)
    if traj.estimate != 13.0 or traj.d_products != (2.0, 2.5, 5.0, 2.5) or not script.exhausted():
        res.fail(f"weighted budget-2 replay gave {traj.estimate}, D {traj.d_products}")
    res.instances += 1

    script = ScriptedChoice([
        ("subset", ("c",)), ("subset", ("f",)), ("subset", ("j",)), ("subset", ("n",)),
    ])
    traj = sep_estimate(t, 1, UniformHyperchild(), script)
    if traj.estimate != 15.0 or traj.d_factors != (2.0, 2.0, 1.0, 1.0):
        res.fail(f"single-path replay gave {traj.estimate}, D factors {traj.d_factors}")
    res.instances += 1

    poset = fixture_poset()
    dp = count_linear_extensions(poset)
    tree_count = exact_forest_cost(LEDecisionTree(poset))
    if dp != 7 or tree_count != 7.0:
        res.fail(f"fixture poset counts dp={dp}, tree={tree_count}, expected 7")
    res.instances += 1
    return res


def _identity_hypernodes(t, budget, rng, per_level=3):
    """Root plus a few random reachable hypernodes per level, each its
    sorted member tuple."""
    out = [t.root_hypernode]
    level = [t.root_hypernode]
    while level:
        nxt = []
        for h in level:
            succ = hypernode_successors(h, t)
            if not succ:
                continue
            take = min(budget, len(succ))
            for _ in range(per_level):
                # distinct positions, so a child two members share can
                # be picked twice
                picked = {rng.randrange(len(succ)) for _ in range(take)}
                nxt.append(tuple(sorted(succ[i] for i in picked)))
        level = list(dict.fromkeys(nxt))
        out.extend(level)
    return out


def check_cost_split_identity(trees, budgets, seed) -> CheckResult:
    """Exact hyperchild cost-splitting identity on sampled hypernodes."""
    res = CheckResult("cost-splitting identity")
    rng = RandomSource(derive_seed(seed, "split"))
    for label, t in trees:
        for budget in budgets:
            for h in _identity_hypernodes(t, budget, rng):
                lhs, rhs = cost_split_identity(t, h, budget)
                res.instances += 1
                if lhs != rhs:
                    res.fail(f"{label}: identity broke at {h!r} budget {budget}: {lhs} != {rhs}")
                    return res
    return res


class Cell:
    """One (instance, budget, draw) cell of the exact checks.

    Each part is computed on first use and kept, so every check that
    reads a cell shares one analysis of it: ``cost`` is the exact forest
    cost; ``enumeration`` is (mean, total probability, variance) of the
    outcome distribution, capped at ``max_sequences``; ``variance``,
    ``cv2`` and ``alpha`` are the recursions.  Only scalars are kept,
    never the outcomes.
    """

    def __init__(self, label: str, t, budget: int, draw_label: str, dist, max_sequences: int):
        self.label, self.t, self.budget = label, t, budget
        self.draw_label, self.dist, self.max_sequences = draw_label, dist, max_sequences

    def __str__(self) -> str:
        return f"{self.label} B={self.budget} {self.draw_label}"

    @cached_property
    def cost(self) -> Fraction:
        return sum(map(self.t.subtree_cost, self.t.root_hypernode), Fraction(0))

    @cached_property
    def enumeration(self) -> tuple:
        od = enumerate_distribution(self.t, self.budget, self.dist, self.max_sequences)
        return od.mean, od.total_probability, od.variance

    @cached_property
    def variance(self) -> Fraction:
        return recursive_variance(self.t, self.budget, self.dist)

    @cached_property
    def cv2(self) -> Fraction:
        return recursive_cv2(self.t, self.budget, self.dist)

    @cached_property
    def alpha(self) -> AlphaStats:
        return alpha_stats(self.t, self.budget, self.dist)


def check_unbiasedness(cells) -> CheckResult:
    """Enumerated expectation equals exact forest cost, exactly."""
    res = CheckResult("unbiasedness of enumerated expectation")
    for cell in cells:
        mean, total_probability, _ = cell.enumeration
        res.instances += 1
        if total_probability != 1:
            res.fail(f"{cell}: probabilities sum to {total_probability}")
            return res
        if mean != cell.cost:
            res.fail(f"{cell}: mean {mean} != cost {cell.cost}")
            return res
    return res


def check_variance_forms(cells) -> CheckResult:
    """Recursive variance and CV^2 agree with enumeration, exactly."""
    res = CheckResult("recursive variance and CV agreement")
    for cell in cells:
        variance = cell.enumeration[2]
        res.instances += 1
        if cell.variance != variance:
            res.fail(f"{cell}: recursion {cell.variance} != enumeration {variance}")
            return res
        cost = cell.cost
        if cost != 0 and cell.cv2 != variance / (cost * cost):
            res.fail(f"{cell}: cv2 recursion {cell.cv2} != {variance / (cost * cost)}")
            return res
    return res


def check_alpha_suite(cells, bounds_sink=None) -> CheckResult:
    """Expected alpha is 1; the variance/max/product bound chain holds."""
    res = CheckResult("alpha diagnostics and bounds")
    for cell in cells:
        stats = cell.alpha
        cv2 = cell.cv2
        res.instances += 1
        if stats.mean != 1:
            res.fail(f"{cell}: expected alpha {stats.mean} != 1")
            return res
        if not cv2 <= stats.variance:
            res.fail(f"{cell}: cv2 {cv2} > alpha variance {stats.variance}")
            return res
        if not cv2 <= stats.max_value - 1:
            res.fail(f"{cell}: cv2 {cv2} > max alpha - 1 = {stats.max_value - 1}")
            return res
        if not cv2 <= stats.level_max_product - 1:
            res.fail(f"{cell}: cv2 {cv2} > level product - 1 = {stats.level_max_product - 1}")
            return res
        # second-moment chain: Var + E^2 = E[alpha^2] <= max * E
        if not stats.variance + stats.mean ** 2 <= stats.max_value * stats.mean:
            res.fail(f"{cell}: alpha second moment above max*mean")
            return res
        if bounds_sink is not None:
            bounds_sink.append(bounds_csv_row(cell.label, cell.budget, cell.draw_label, cell.variance, cv2, stats))
    return res


def check_zero_variance(cells, runs, seed) -> CheckResult:
    """Exact-cost weights give back the exact cost on every single run."""
    res = CheckResult("zero variance under exact-cost weights")
    for cell in cells:
        variance = cell.enumeration[2]
        res.instances += 1
        if variance != 0:
            res.fail(f"{cell}: enumerated variance {variance} != 0")
            return res
        cost = float(cell.cost)
        run_seed = derive_seed(seed, "zv", cell.label, cell.budget)
        for k, est in enumerate(_run_block(cell.t, cell.budget, cell.dist, run_seed, 0, runs)):
            if abs(est - cost) > 1e-9 * max(1.0, abs(cost)):
                res.fail(f"{cell} run {k}: estimate {est} != cost {cost}")
                return res
    return res


def run_checks(
    max_n: int = 7,
    max_budget: int = 3,
    posets: int = 12,
    seed: int = DEFAULT_SEED,
    max_sequences: int = 20_000,
    bounds_sink: list | None = None,
) -> list[CheckResult]:
    """Run the whole suite; returns one result per check."""
    for name, value in (("max_n", max_n), ("max_budget", max_budget), ("posets", posets),
                        ("max_sequences", max_sequences)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    budgets = tuple(range(1, max_budget + 1))
    fixture = fixture_example_tree()
    poset_trees = [LEDecisionTree(p) for p in enumerable_posets(posets, seed, max_n, budgets, max_sequences)]

    trees = [("fixture-tree", fixture)]
    for i in range(3):
        trees.append((f"random-tree-{i}", random_tree(derive_seed(seed, i))))
    for i, tree in enumerate(poset_trees[: max(3, posets // 3)]):
        trees.append((f"poset-{i}", tree))

    # one cell per (instance, budget, draw), handed to every check that reads it
    unbiased_cells: list[Cell] = []
    weighted_cells: list[Cell] = []
    ideal_cells: list[Cell] = []
    leafcount = ImportanceInduced(fixture_example_importance())
    instances = [("fixture-tree", fixture, [
        ("uniform", UniformHyperchild(), (unbiased_cells, weighted_cells)),
        ("leafcount", leafcount, (unbiased_cells, weighted_cells)),
        ("ideal", ImportanceInduced(fixture.subtree_cost), (unbiased_cells, ideal_cells)),
    ])]
    for i, tree in enumerate(poset_trees):
        draws = [("uniform", UniformHyperchild(), (unbiased_cells, weighted_cells))]
        draws += [(kind, ImportanceInduced(importance_function(tree, kind)), (unbiased_cells, weighted_cells))
                  for kind in ("f1", "f2", "f3")]
        draws.append(("ideal", ImportanceInduced(importance_function(tree, "ideal")), (ideal_cells,)))
        instances.append((f"poset-{i}(n={tree.n})", tree, draws))
    for label, t, draws in instances:
        for budget in budgets:
            for draw_label, dist, readers in draws:
                cell = Cell(label, t, budget, draw_label, dist, max_sequences)
                for cells in readers:
                    cells.append(cell)

    results = [
        check_fixture_golden(),
        check_cost_split_identity(trees, budgets, seed),
        check_unbiasedness(unbiased_cells),
        check_variance_forms(weighted_cells),
        check_alpha_suite(weighted_cells, bounds_sink),
        check_zero_variance(ideal_cells, runs=50, seed=seed),
    ]
    return results
