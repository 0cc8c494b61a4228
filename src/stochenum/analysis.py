"""Exact analysis of estimator distributions on small instances.

Everything here enumerates exponential spaces and is meant as a test
oracle: the full outcome distribution of a walk (every hypernode
sequence, its probability, and the estimate it would produce), the
recursive closed forms for variance and squared coefficient of
variation, and the alpha diagnostic that measures how far a weight
function is from the exact subtree-cost function.

Computations run in exact rational arithmetic by default (every float
input is treated as the rational it denotes), so identities hold with
zero tolerance; pass exact=False to trade that for speed on larger
instance sets.  All enumerations count against explicit caps and raise
CapExceeded rather than truncating.

The recursions (sequence count, variance, CV^2) memoize per hypernode.
When the oracle defines ``state`` (see ``TreeOracle``) and the weight, if
any, has ``child_values``, the memo key is the multiset of member states,
so hypernodes reached by different paths are evaluated once.  Having
``child_values`` marks a weight as a function of the node's state, the
contract the mask walk's expansion cache relies on too; any other weight
may read the whole path, so its memo stays keyed on the members.  Exact
results do not change; in float mode a merged hypernode may sum its
terms in another order and so round differently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import CapExceeded
from .estimators import HypernodeDistribution, ImportanceInduced
from .sampling import NonpositiveWeight, WeightFunction
from .tree import Hypernode, TreeOracle, hypernode_successors, subtree_cost_function

DEFAULT_SEQUENCE_CAP = 1_000_000
DEFAULT_STATE_CAP = 1_000_000

BOUNDS_CSV_HEADER = (
    "instance", "budget", "importance",
    "variance", "cv2", "alpha_variance", "alpha_max", "level_product_bound",
)


class AlphaUndefined(ValueError):
    """A successor forest of zero total cost leaves an alpha factor undefined."""


class _Expansion(NamedTuple):
    """Successor union S, min(budget, |S|), C(|S|-1, take-1), and the
    successor weights with r(S) and subtree costs with c(S) (or None)."""

    succ: tuple
    take: int
    binom: int
    w_of: dict | None
    r_all: object
    c_of: dict | None
    c_all: object


def _expand(t: TreeOracle, nodes, budget: int, wvalue=None, subcost=None) -> _Expansion | None:
    """Expansion of the hypernode ``nodes``; None when it is terminal."""
    succ = hypernode_successors(nodes, t)
    if not succ:
        return None
    take = min(budget, len(succ))
    w_of = r_all = c_of = c_all = None
    if wvalue is not None:
        w_of = {x: wvalue(x) for x in succ}
        r_all = sum(w_of.values())
    if subcost is not None:
        c_of = {x: subcost(x) for x in succ}
        c_all = sum(c_of.values())
    return _Expansion(succ, take, comb(len(succ) - 1, take - 1), w_of, r_all, c_of, c_all)


def _domain(t: TreeOracle, weight: WeightFunction | None, exact: bool):
    """(conv, weight value, subtree cost) in the exact or float domain.

    The weight value raises NonpositiveWeight on a weight <= 0 (NaN
    included) before conversion, reporting the float the draw sees.
    """
    conv = Fraction if exact else float
    if weight is None:
        return conv, None, None

    def wvalue(x):
        w = float(weight(x))
        if not w > 0:
            raise NonpositiveWeight(x, w)
        return conv(w)

    return conv, wvalue, subtree_cost_function(t, conv)


def _memo_key(t: TreeOracle, weight: WeightFunction | None):
    """Memo key of a hypernode's member tuple, or None for the tuple itself.

    States merge hypernodes only under the contract in the module
    docstring: the oracle defines ``state`` and the weight, if any, has
    ``child_values``.
    """
    state = t.state
    if state is None or (weight is not None and not hasattr(weight, "child_values")):
        return None
    return lambda nodes: tuple(sorted(map(state, nodes)))


@dataclass(frozen=True)
class Outcome:
    """One complete hypernode sequence with its probability and estimate."""

    probability: object
    estimate: object
    alpha: object | None = None
    sequence: tuple | None = None


@dataclass(frozen=True)
class OutcomeDistribution:
    """Every outcome of a walk, with exact moments of the estimate.

    ``level_max`` holds, per depth, the largest single-step alpha factor
    over every (hypernode, candidate) pair the walk can reach there; it
    is empty without a weight function.
    """

    outcomes: tuple[Outcome, ...]
    mean: object
    variance: object
    cv2: object | None
    total_probability: object
    level_max: tuple

    def __len__(self) -> int:
        return len(self.outcomes)


def count_sequences(
    t: TreeOracle,
    budget: int,
    max_sequences: int = DEFAULT_SEQUENCE_CAP,
) -> int:
    """Number of complete hypernode sequences a walk could produce.

    Cheap feasibility probe for the enumerators below: a hypernode's
    count is the sum over its hyperchildren (1 when terminal), memoized
    per hypernode.  Aborts with CapExceeded as soon as a partial sum
    passes the cap; every partial sum is at most the total, so that
    happens exactly when the total does.
    """

    def capped(total):
        if total > max_sequences:
            raise CapExceeded(f"more than {max_sequences} hypernode sequences")
        return total

    def step(nodes, exp, count_of):
        if exp is None:
            return capped(1)
        total = 0
        for sub in itertools.combinations(exp.succ, exp.take):
            total = capped(total + count_of(tuple(sorted(sub))))
        return total

    return _hypernode_recursion(t, budget, math.inf, _memo_key(t, None), step)


def enumerate_distribution(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    max_sequences: int = DEFAULT_SEQUENCE_CAP,
    exact: bool = True,
    weight: WeightFunction | None = None,
    keep_sequences: bool = False,
) -> OutcomeDistribution:
    """Depth-first enumeration of every walk outcome under ``dist``.

    Each outcome records the exact probability of its hypernode sequence
    and the exact estimate the walk arithmetic assigns to it.  When a
    weight function is supplied, the sequence's alpha value is recorded
    too: the product over levels of (r(S)/r(w)) * (c(w)/c(S)), which
    compares the weight the chosen hypernode w got with its share of
    subtree cost.  The empty product is 1, and an exact subtree-cost
    weight gives 1 at every step.  The per-depth maxima of the single-step
    factors go to ``level_max``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    root = t.root_hypernode
    conv, wvalue, subcost = _domain(t, weight, exact)
    size0 = len(root)
    outcomes = []
    level_max = []
    count = 0

    def rec(nodes, depth, prob, d_product, total, alpha_acc, seq):
        nonlocal count
        exp = _expand(t, nodes, budget, wvalue, subcost)
        if exp is None:
            count += 1
            if count > max_sequences:
                raise CapExceeded(f"more than {max_sequences} hypernode sequences")
            outcomes.append(Outcome(prob, size0 * total, alpha_acc, seq))
            return
        if weight is not None and exp.c_all == 0:
            raise AlphaUndefined(f"successor forest of {nodes!r} has zero total cost; alpha undefined")
        size = len(nodes)
        for wnodes, p in dist.support(exp.succ, budget):
            p = conv(p)
            d_k = conv(len(wnodes)) / (size * exp.binom * p)
            d2 = d_product * d_k
            lvl = sum(conv(t.cost(x)) for x in wnodes) / len(wnodes)
            alpha2 = alpha_acc
            if weight is not None:
                r_ratio = exp.r_all / sum(exp.w_of[x] for x in wnodes)
                c_ratio = sum(exp.c_of[x] for x in wnodes) / exp.c_all
                # not alpha_acc * factor: float mode would round differently
                alpha2 = alpha_acc * r_ratio * c_ratio
                factor = r_ratio * c_ratio
                if depth == len(level_max):
                    level_max.append(factor)
                elif factor > level_max[depth]:
                    level_max[depth] = factor
            rec(
                wnodes,
                depth + 1,
                prob * p,
                d2,
                total + lvl * d2,
                alpha2,
                seq + (Hypernode(wnodes),) if seq is not None else None,
            )

    one = conv(1)
    lvl0 = sum(conv(t.cost(v)) for v in root.nodes) / size0
    try:
        rec(root.nodes, 0, one, one, lvl0, one, (root,) if keep_sequences else None)
    finally:
        del rec  # rec refers to itself: break that cycle so the tree and memos free now

    if exact:
        total_p = sum(o.probability for o in outcomes)
        mean = sum(o.probability * o.estimate for o in outcomes)
        variance = sum(o.probability * (o.estimate - mean) ** 2 for o in outcomes)
    else:
        total_p = math.fsum(o.probability for o in outcomes)
        mean = math.fsum(o.probability * o.estimate for o in outcomes)
        variance = math.fsum(o.probability * (o.estimate - mean) ** 2 for o in outcomes)
    cv2 = variance / (mean * mean) if mean != 0 else None
    return OutcomeDistribution(tuple(outcomes), mean, variance, cv2, total_p, tuple(level_max))


@dataclass(frozen=True)
class AlphaStats:
    """Moments and maxima of alpha under the weighted-draw distribution."""

    mean: object
    variance: object
    max_value: object
    level_max_product: object
    sequences: int

    @classmethod
    def from_distribution(cls, od: OutcomeDistribution, exact: bool = True) -> "AlphaStats":
        """Alpha moments of an enumeration made with a weight function."""
        if exact:
            mean = sum(o.probability * o.alpha for o in od.outcomes)
            var = sum(o.probability * (o.alpha - mean) ** 2 for o in od.outcomes)
        else:
            mean = math.fsum(o.probability * o.alpha for o in od.outcomes)
            var = math.fsum(o.probability * (o.alpha - mean) ** 2 for o in od.outcomes)
        max_alpha = max(o.alpha for o in od.outcomes)
        product = Fraction(1) if exact else 1.0
        for factor in od.level_max:
            product *= factor
        return cls(mean, var, max_alpha, product, len(od.outcomes))


def alpha_stats(
    t: TreeOracle,
    budget: int,
    weight: WeightFunction,
    max_sequences: int = DEFAULT_SEQUENCE_CAP,
    exact: bool = True,
) -> AlphaStats:
    """Full enumeration of alpha over the weighted walk.

    Reports the exact expectation (1 when everything is correct), the
    variance and the maximum over all sequences, plus the looser bound
    built from per-level maxima of single-step factors over every
    reachable hypernode.
    """
    od = enumerate_distribution(
        t, budget, ImportanceInduced(weight), max_sequences=max_sequences, exact=exact, weight=weight,
    )
    return AlphaStats.from_distribution(od, exact)


def _hypernode_recursion(t, budget, max_states, key, step, wvalue=None, subcost=None):
    """Memoized recursion over the hypernodes reachable from the root.

    ``step(nodes, exp, value_of)`` gives a hypernode's value from its
    expansion (None when terminal) and the values of its hyperchildren.
    ``key`` maps a member tuple to its memo key (None: the tuple itself).
    """
    memo: dict = {}
    visited = 0

    def value_of(nodes):
        nonlocal visited
        k = nodes if key is None else key(nodes)
        known = memo.get(k)
        if known is not None:
            return known
        visited += 1
        if visited > max_states:
            raise CapExceeded(f"more than {max_states} hypernode states")
        memo[k] = step(nodes, _expand(t, nodes, budget, wvalue, subcost), value_of)
        return memo[k]

    try:
        return value_of(t.root_hypernode.nodes)
    finally:
        del value_of  # value_of refers to itself: break that cycle so the memo frees now


def recursive_variance(
    t: TreeOracle,
    budget: int,
    weight: WeightFunction,
    max_states: int = DEFAULT_STATE_CAP,
    exact: bool = True,
):
    """Variance of the weighted estimate by the hyperchild recursion.

    Evaluates, per hypernode v with successor set S and candidates w,

        Var(v) = sum_w  (r(S)/r(w)) * (Var(w) + Cost(T_w)^2) / C(|S|-1, |w|-1)
                 - Cost(T_S)^2

    with variance 0 at terminal hypernodes.  Memoized per hypernode (by
    member states where the module docstring allows); this is the
    closed-form twin of the enumeration variance and the pair is
    asserted equal in the test suite.
    """
    conv, wvalue, subcost = _domain(t, weight, exact)

    def step(nodes, exp, var_of):
        if exp is None:
            return conv(0)
        acc = conv(0)
        for sub in itertools.combinations(exp.succ, exp.take):
            r_sel = sum(exp.w_of[x] for x in sub)
            c_sel = sum(exp.c_of[x] for x in sub)
            acc += (exp.r_all / r_sel) * (var_of(tuple(sorted(sub))) + c_sel * c_sel) / exp.binom
        return acc - exp.c_all * exp.c_all

    return _hypernode_recursion(t, budget, max_states, _memo_key(t, weight), step, wvalue, subcost)


def recursive_cv2(
    t: TreeOracle,
    budget: int,
    weight: WeightFunction,
    max_states: int = DEFAULT_STATE_CAP,
    exact: bool = True,
):
    """Squared coefficient of variation by its own hyperchild recursion.

    Same shape as ``recursive_variance`` but normalized by subtree costs
    level by level; must agree with variance / cost^2 exactly.  Raises on
    a zero-cost forest, where the ratio is undefined, and on a
    nonpositive weight.
    """
    conv, wvalue, subcost = _domain(t, weight, exact)

    def step(nodes, exp, cv2_of):
        cost_v = sum(subcost(x) for x in nodes)
        if cost_v == 0:
            raise ValueError(f"forest at {nodes!r} has zero total cost; CV undefined")
        if exp is None:
            return conv(0)
        acc = conv(0)
        for sub in itertools.combinations(exp.succ, exp.take):
            r_sel = sum(exp.w_of[x] for x in sub)
            ratio = sum(exp.c_of[x] for x in sub) / cost_v
            acc += (exp.r_all / r_sel) * ratio * ratio * (cv2_of(tuple(sorted(sub))) + 1) / exp.binom
        ratio_s = exp.c_all / cost_v
        return acc - ratio_s * ratio_s

    return _hypernode_recursion(t, budget, max_states, _memo_key(t, weight), step, wvalue, subcost)


def cost_split_identity(t: TreeOracle, h: Hypernode, budget: int):
    """Both sides of the hyperchild cost-splitting identity, exactly.

    The cost of the successor forest of ``h`` must equal the sum over
    candidate hypernodes w of Cost(T_w) / C(|S|-1, |w|-1); every candidate
    contains each successor equally often, so the weights cancel.  Returns
    (lhs, rhs) as exact rationals for the caller to compare.
    """
    exp = _expand(t, h.nodes, budget, subcost=subtree_cost_function(t, Fraction))
    if exp is None:
        return Fraction(0), Fraction(0)
    rhs = Fraction(0)
    for sub in itertools.combinations(exp.succ, exp.take):
        rhs += sum(exp.c_of[x] for x in sub) / Fraction(exp.binom)
    return sum(exp.c_of.values(), Fraction(0)), rhs


def bounds_csv_row(instance: str, budget: int, importance: str, variance, cv2, stats: AlphaStats) -> list[str]:
    """One exportable row of the bound diagnostics for an instance."""
    return [
        instance,
        str(budget),
        importance,
        repr(float(variance)),
        repr(float(cv2)),
        repr(float(stats.variance)),
        repr(float(stats.max_value)),
        repr(float(stats.level_max_product)),
    ]
