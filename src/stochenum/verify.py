"""Executable correctness checks over fixtures and seeded random instances.

Every mathematical guarantee the estimators rely on is run here as a
concrete assertion: golden replays of the worked examples, the
cost-splitting identity, exact unbiasedness of the enumerated outcome
distribution, agreement of the recursive variance and CV forms with
enumeration, the alpha diagnostics with their bound chain, and the
zero-variance property of exact-cost weights.  The CLI exposes this as a
user-facing command; the test suite calls the same functions.

A weighted (tree, budget, weight) cell is analyzed once however many
checks read it: one enumeration under the weight's induced draw (which
also yields the alpha moments), one variance recursion and one CV^2
recursion.  Only their scalars are kept, per tree, for as long as the
tree and the weight live, so the checks share them whether they run
from ``run_checks`` or one by one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

# alpha_stats is not called here (a cell reads the alpha moments off its
# one enumeration), but stays bound in this module with the other
# analysis entry points for instrumentation that wraps them here.
from .analysis import (  # noqa: F401
    AlphaStats,
    AlphaUndefined,
    alpha_stats,
    bounds_csv_row,
    cost_split_identity,
    count_sequences,
    enumerate_distribution,
    recursive_cv2,
    recursive_variance,
)
from .errors import CapExceeded
from .estimators import (
    ImportanceInduced,
    UniformHyperchild,
    ideal_cost_distribution,
    sep_estimate,
)
from .posets import LEDecisionTree, Poset, count_linear_extensions, fixture_poset, importance_function, random_poset
from .sampling import RandomChoice, RandomSource, ScriptedChoice, derive_seed
from .tree import (
    ExplicitTree,
    Hypernode,
    exact_forest_cost,
    fixture_example_importance,
    fixture_example_tree,
    hypernode_successors,
    subtree_cost_function,
)

DEFAULT_SEED = 20240501
POSET_IMPORTANCE = ("uniform", "f1", "f2", "f3")


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
    """Root plus a few random reachable hypernodes per level."""
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
                picked = sorted(
                    {succ[rng.randrange(len(succ))] for _ in range(take)}
                )
                nxt.append(Hypernode(tuple(picked)))
        seen = set()
        level = []
        for h in nxt:
            if h.nodes not in seen:
                seen.add(h.nodes)
                level.append(h)
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


def _exact_cost(t) -> Fraction:
    subcost = subtree_cost_function(t, Fraction)
    return sum((subcost(v) for v in t.root_hypernode), Fraction(0))


class _Enumerated(NamedTuple):
    mean: Fraction
    total_probability: Fraction
    variance: Fraction


# tree -> {(part, budget, max_sequences, id(weight)): (weight reference, value)}
_CELLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _analysis(part: str, t, budget: int, weight, max_sequences: int):
    """One part of a weighted cell's analysis, computed on first use.

    Every part reads the draw ``ImportanceInduced(weight)``.  Parts:
    "enumeration" is the ``_Enumerated`` moments paired with their
    AlphaStats (or the message of the AlphaUndefined the enumeration with
    alpha raised); "variance" and "cv2" are the recursions.  An entry
    counts only while its weight reference still resolves to this very
    object, so a new weight that reuses an old one's id recomputes.  No
    entry holds its tree, so a tree is freed with its last user.
    """
    key = (part, budget, max_sequences, id(weight))
    try:
        cells = _CELLS.setdefault(t, {})
    except TypeError:  # an oracle that is unhashable or has no weak references
        cells = {}
    entry = cells.get(key)
    if entry is not None and entry[0]() is weight:
        return entry[1]
    dist = ImportanceInduced(weight)
    if part == "variance":
        value = recursive_variance(t, budget, dist)
    elif part == "cv2":
        value = recursive_cv2(t, budget, dist)
    else:
        try:
            od = enumerate_distribution(t, budget, dist, max_sequences=max_sequences, alpha=True)
            alpha = AlphaStats.from_distribution(od)
        except AlphaUndefined as exc:
            # The estimate's moments are still defined; only the alpha
            # check raises, as a standalone alpha_stats would.
            od = enumerate_distribution(t, budget, dist, max_sequences=max_sequences)
            alpha = str(exc)
        value = _Enumerated(od.mean, od.total_probability, od.variance), alpha
    try:
        ref = weakref.ref(weight)
    except TypeError:  # e.g. an instance of a class with __slots__ and no __weakref__
        ref = lambda: weight
    cells[key] = ref, value
    return value


def check_unbiasedness(instances, budgets, max_sequences) -> CheckResult:
    """Enumerated expectation equals exact forest cost, exactly."""
    res = CheckResult("unbiasedness of enumerated expectation")
    for label, t, dists in instances:
        cost = _exact_cost(t)
        for budget in budgets:
            for dist_label, dist in dists:
                # exactly the cell's draw; a subclass may change the support
                if type(dist) is ImportanceInduced:
                    od = _analysis("enumeration", t, budget, dist.weight, max_sequences)[0]
                else:
                    od = enumerate_distribution(t, budget, dist, max_sequences=max_sequences)
                res.instances += 1
                if od.total_probability != 1:
                    res.fail(f"{label} B={budget} {dist_label}: probabilities sum to {od.total_probability}")
                    return res
                if od.mean != cost:
                    res.fail(f"{label} B={budget} {dist_label}: mean {od.mean} != cost {cost}")
                    return res
    return res


def check_variance_forms(instances, budgets, max_sequences) -> CheckResult:
    """Recursive variance and CV^2 agree with enumeration, exactly."""
    res = CheckResult("recursive variance and CV agreement")
    for label, t, weights in instances:
        cost = _exact_cost(t)
        for budget in budgets:
            for w_label, weight in weights:
                od = _analysis("enumeration", t, budget, weight, max_sequences)[0]
                var = _analysis("variance", t, budget, weight, max_sequences)
                res.instances += 1
                if var != od.variance:
                    res.fail(f"{label} B={budget} {w_label}: recursion {var} != enumeration {od.variance}")
                    return res
                if cost != 0:
                    cv2 = _analysis("cv2", t, budget, weight, max_sequences)
                    if cv2 != var / (cost * cost):
                        res.fail(f"{label} B={budget} {w_label}: cv2 recursion {cv2} != {var / (cost * cost)}")
                        return res
    return res


def check_alpha_suite(instances, budgets, max_sequences, bounds_sink=None) -> CheckResult:
    """Expected alpha is 1; the variance/max/product bound chain holds."""
    res = CheckResult("alpha diagnostics and bounds")
    for label, t, weights in instances:
        for budget in budgets:
            for w_label, weight in weights:
                stats = _analysis("enumeration", t, budget, weight, max_sequences)[1]
                if isinstance(stats, str):
                    raise AlphaUndefined(stats)
                cv2 = _analysis("cv2", t, budget, weight, max_sequences)
                res.instances += 1
                if stats.mean != 1:
                    res.fail(f"{label} B={budget} {w_label}: expected alpha {stats.mean} != 1")
                    return res
                if not cv2 <= stats.variance:
                    res.fail(f"{label} B={budget} {w_label}: cv2 {cv2} > alpha variance {stats.variance}")
                    return res
                if not cv2 <= stats.max_value - 1:
                    res.fail(f"{label} B={budget} {w_label}: cv2 {cv2} > max alpha - 1 = {stats.max_value - 1}")
                    return res
                if not cv2 <= stats.level_max_product - 1:
                    res.fail(
                        f"{label} B={budget} {w_label}: cv2 {cv2} > level product - 1 = "
                        f"{stats.level_max_product - 1}"
                    )
                    return res
                # second-moment chain: Var + E^2 = E[alpha^2] <= max * E
                if not stats.variance + stats.mean ** 2 <= stats.max_value * stats.mean:
                    res.fail(f"{label} B={budget} {w_label}: alpha second moment above max*mean")
                    return res
                if bounds_sink is not None:
                    var = _analysis("variance", t, budget, weight, max_sequences)
                    bounds_sink.append(bounds_csv_row(label, budget, w_label, var, cv2, stats))
    return res


def check_zero_variance(instances, budgets, runs, seed) -> CheckResult:
    """Exact-cost weights give back the exact cost on every single run."""
    res = CheckResult("zero variance under exact-cost weights")
    for label, t in instances:
        cost = float(_exact_cost(t))
        dist = ideal_cost_distribution(t)
        for budget in budgets:
            od = enumerate_distribution(t, budget, dist, max_sequences=200_000)
            res.instances += 1
            if od.variance != 0:
                res.fail(f"{label} B={budget}: enumerated variance {od.variance} != 0")
                return res
            for k in range(runs):
                choice = RandomChoice(RandomSource(derive_seed(seed, "zv", label, budget, k)))
                est = sep_estimate(t, budget, dist, choice, record=False).estimate
                if abs(est - cost) > 1e-9 * max(1.0, abs(cost)):
                    res.fail(f"{label} B={budget} run {k}: estimate {est} != cost {cost}")
                    return res
    return res


def run_checks(
    max_n: int = 6,
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
    poset_instances = enumerable_posets(posets, seed, max_n, budgets, max_sequences)

    trees = [("fixture-tree", fixture)]
    for i in range(3):
        trees.append((f"random-tree-{i}", random_tree(derive_seed(seed, i))))
    for i, p in enumerate(poset_instances[: max(3, posets // 3)]):
        trees.append((f"poset-{i}", LEDecisionTree(p)))

    uniform_weight = lambda node: 1.0
    leafcount = fixture_example_importance()
    fixture_dists = [
        ("uniform", UniformHyperchild()),
        ("leafcount", ImportanceInduced(leafcount)),
        ("ideal", ideal_cost_distribution(fixture)),
    ]
    unbiased_instances = [("fixture-tree", fixture, fixture_dists)]
    weighted_instances = [
        ("fixture-tree", fixture, [("uniform", uniform_weight), ("leafcount", leafcount)]),
    ]
    zero_var_instances = [("fixture-tree", fixture)]
    for i, p in enumerate(poset_instances):
        tree = LEDecisionTree(p)
        label = f"poset-{i}(n={p.n})"
        weights = [(kind, importance_function(tree, kind)) for kind in POSET_IMPORTANCE]
        unbiased_instances.append(
            (label, tree, [(k, ImportanceInduced(w)) for k, w in weights] + [("uniform-dist", UniformHyperchild())])
        )
        weighted_instances.append((label, tree, weights))
        zero_var_instances.append((label, tree))

    results = [
        check_fixture_golden(),
        check_cost_split_identity(trees, budgets, seed),
        check_unbiasedness(unbiased_instances, budgets, max_sequences),
        check_variance_forms(weighted_instances, budgets, max_sequences),
        check_alpha_suite(weighted_instances, budgets, max_sequences, bounds_sink),
        check_zero_variance(zero_var_instances, budgets, runs=50, seed=seed),
    ]
    return results
