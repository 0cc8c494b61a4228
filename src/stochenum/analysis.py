"""Exact analysis of estimator distributions on small instances.

Everything here is exact and meant as a test oracle: the full outcome
distribution of a walk (every hypernode sequence, its probability, and
the estimate it would produce), and the hyperchild recursions for the
variance, the squared coefficient of variation and the alpha
diagnostic.  The draw enters only through ``dist.support``, which gives
each candidate hyperchild w of a successor union S its exact
probability P(w).  An alpha step is the zero-variance draw's
probability of w over P(w), c(w) / (c(S) * C(|S|-1, |w|-1) * P(w)) with
c the subtree cost; under ``ImportanceInduced`` it is the paper's
(r(S)/r(w)) * (c(w)/c(S)).

Every result is exact: each float input (cost, weight) is the rational
it denotes, so identities hold with zero tolerance.  The arithmetic runs
on plain integers: a successor union's subtree costs go on one common
integer scale (``estimators.integer_scale``), the enumeration carries
probability, D product and running total down each path as unreduced
numerator/denominator pairs, and the recursions sum a hypernode's
candidates over one common denominator.  A value is reduced only where
it leaves that loop: per outcome, per memo entry, and for the returned
moments and maxima.  All enumerations count against explicit caps and
raise CapExceeded rather than truncating.

The recursions (sequence count, variance, CV^2, alpha) memoize per
hypernode, so alpha reaches instances far past any enumeration.
When the oracle defines ``state`` (see ``TreeOracle``) and the draw is
``UniformHyperchild`` or ``ImportanceInduced`` of a weight with
``child_values`` (the mark of a weight that is a function of the node's
state, which the mask walk's expansion cache relies on too), the memo
key is the multiset of member states, so hypernodes reached by
different paths are evaluated once.  Any other draw may read the whole
path, so its memo stays keyed on the members.  Results do not depend on
the key.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import CapExceeded
from .estimators import HypernodeDistribution, ImportanceInduced, UniformHyperchild, integer_scale
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
    """Successor union S, min(budget, |S|), C(|S|-1, take-1), and, when
    asked for, the subtree costs as numerators over ``c_den`` with c(S)
    the numerator of their sum."""

    succ: tuple
    take: int
    binom: int
    c_of: dict | None
    c_all: int | None
    c_den: int | None


def _expand(t: TreeOracle, nodes, budget: int, subcost=None) -> _Expansion | None:
    """Expansion of the hypernode ``nodes``; None when it is terminal."""
    succ = hypernode_successors(nodes, t)
    if not succ:
        return None
    take = min(budget, len(succ))
    c_of = c_all = c_den = None
    if subcost is not None:
        costs, c_den = integer_scale([subcost(x) for x in succ])
        c_of = dict(zip(succ, costs))
        c_all = sum(costs)
    return _Expansion(succ, take, comb(len(succ) - 1, take - 1), c_of, c_all, c_den)


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _add(sn: int, sd: int, n: int, d: int) -> tuple[int, int]:
    """sn/sd + n/d in lowest terms, for positive denominators."""
    g = math.gcd(sd, d)
    return _reduced(sn * (d // g) + n * (sd // g), sd // g * d)


def _add_unreduced(sn: int, sd: int, n: int, d: int) -> tuple[int, int]:
    """sn/sd + n/d over lcm(sd, d), for positive denominators."""
    if d == sd:
        return sn + n, sd
    g = math.gcd(sd, d)
    return sn * (d // g) + n * (sd // g), sd // g * d


def _memo_key(t: TreeOracle, dist: HypernodeDistribution):
    """Memo key of a hypernode's member tuple, or None for the tuple itself.

    States merge hypernodes only under the contract in the module
    docstring, for those two draw classes exactly (a subclass may change
    the support).
    """
    state = t.state
    if state is None or not (
        type(dist) is UniformHyperchild
        or type(dist) is ImportanceInduced and hasattr(dist.weight, "child_values")
    ):
        return None
    return lambda nodes: tuple(sorted(map(state, nodes)))


def _moments(pairs) -> tuple[Fraction, Fraction, Fraction]:
    """sum(p), mean = sum(p * x) and sum(p * (x - mean)^2) over (p, x)
    pairs of Fractions.

    Sums p, p*x and p*x^2 on integers; the variance is then the same
    rational as sum(p*x^2) - 2 mean^2 + mean^2 sum(p).
    """
    s0 = s1 = s2 = (0, 1)
    for p, x in pairs:
        n, d = p.numerator, p.denominator
        xn, xd = x.numerator, x.denominator
        s0 = _add(*s0, n, d)
        s1 = _add(*s1, n * xn, d * xd)
        s2 = _add(*s2, n * xn * xn, d * xd * xd)
    total, mean, second = (Fraction(*s) for s in (s0, s1, s2))
    return total, mean, second - 2 * mean * mean + mean * mean * total


@dataclass(frozen=True)
class Outcome:
    """One complete hypernode sequence with its probability and estimate."""

    probability: object
    estimate: object
    sequence: tuple | None = None


@dataclass(frozen=True)
class OutcomeDistribution:
    """Every outcome of a walk, with exact moments of the estimate."""

    outcomes: tuple[Outcome, ...]
    mean: object
    variance: object
    cv2: object | None
    total_probability: object

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

    # the count is the same under every draw with the uniform draw's support
    return _hypernode_recursion(t, budget, math.inf, _memo_key(t, UniformHyperchild()), step)


def enumerate_distribution(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    max_sequences: int = DEFAULT_SEQUENCE_CAP,
    keep_sequences: bool = False,
) -> OutcomeDistribution:
    """Depth-first enumeration of every walk outcome under ``dist``.

    Outcomes come in depth-first order, candidates in ``dist.support``
    order.  Each distinct hypernode is expanded once: its candidates' step
    factors are kept by member tuple and reused on every path that reaches
    it.  Each outcome records the exact probability of its hypernode
    sequence and the exact estimate the walk arithmetic assigns to it.

    ``dist.support`` may yield any rational probability (anything with
    ``numerator`` and ``denominator``).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    root = t.root_hypernode
    size0 = len(root)
    outcomes = []
    candidates_of: dict = {}  # member tuple -> its candidates' step factors, None when terminal
    count = 0

    def candidates(nodes):
        """Per candidate w of size m with P(w) = pn/pd: (w, pn, pd, m * pd,
        f = |v| * C(|S|-1, m-1) * pn, k_sel, k_den * m, the Hypernode when
        sequences are kept); None when terminal."""
        exp = _expand(t, nodes, budget)
        if exp is None:
            return None
        costs, k_den = integer_scale([t.cost(x) for x in exp.succ])
        k_of = dict(zip(exp.succ, costs))
        size_binom = len(nodes) * exp.binom
        return [
            (
                wnodes, p.numerator, p.denominator, len(wnodes) * p.denominator, size_binom * p.numerator,
                sum(k_of[x] for x in wnodes), k_den * len(wnodes), Hypernode(wnodes) if keep_sequences else None,
            )
            for wnodes, p in dist.support(exp.succ, budget)
        ]

    # Unreduced integer pairs down the recursion: probability pn/pd, D
    # product dn/dd, and the running total tn / (dd * tq), whose
    # denominator keeps dd's so that it grows by one level's factors per
    # level.
    def rec(nodes, pn, pd, dn, dd, tn, tq, seq):
        nonlocal count
        if nodes not in candidates_of:
            candidates_of[nodes] = candidates(nodes)
        cands = candidates_of[nodes]
        if cands is None:
            count += 1
            if count > max_sequences:
                raise CapExceeded(f"more than {max_sequences} hypernode sequences")
            outcomes.append(Outcome(Fraction(pn, pd), Fraction(size0 * tn, dd * tq), seq))
            return
        for wnodes, p_num, p_den, m_den, f, k_sel, k_m, hyper in cands:
            # d_k = m / (|v| * C(|S|-1, m-1) * p)
            dn2 = dn * m_den
            if k_sel:  # total += (k_sel / (k_den * m)) * D
                tn2, tq2 = tn * f * k_m + k_sel * dn2 * tq, tq * k_m
            else:
                tn2, tq2 = tn * f, tq
            rec(wnodes, pn * p_num, pd * p_den, dn2, dd * f, tn2, tq2, seq + (hyper,) if seq is not None else None)

    costs, k_den = integer_scale([t.cost(v) for v in root.nodes])
    try:
        rec(root.nodes, 1, 1, 1, 1, sum(costs), k_den * size0, (root,) if keep_sequences else None)
    finally:
        del rec  # rec refers to itself: break that cycle so the tree and memos free now

    total_p, mean, variance = _moments((o.probability, o.estimate) for o in outcomes)
    cv2 = variance / (mean * mean) if mean != 0 else None
    return OutcomeDistribution(tuple(outcomes), mean, variance, cv2, total_p)


@dataclass(frozen=True)
class AlphaStats:
    """Moments and maxima of alpha under the draw it was computed for."""

    mean: object
    variance: object
    max_value: object
    level_max_product: object


def _hypernode_recursion(t, budget, max_states, key, step, subcost=None):
    """Memoized recursion over the hypernodes reachable from the root.

    ``step(nodes, exp, value_of)`` gives a hypernode's value from its
    expansion (None when terminal) and the values of its hyperchildren.
    ``key`` maps a member tuple to its memo key (None: the tuple itself).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
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
        memo[k] = step(nodes, _expand(t, nodes, budget, subcost), value_of)
        return memo[k]

    try:
        return value_of(t.root_hypernode.nodes)
    finally:
        del value_of  # value_of refers to itself: break that cycle so the memo frees now


def _hyperchild_sum(exp: _Expansion, dist, budget: int, value_of, term) -> Fraction:
    """sum_w X(w) / (C(|S|-1, |w|-1)^2 * P(w)) - Cost(T_S)^2 over the
    candidates w of ``dist``, where ``term(value_of(w), c(w) numerator,
    c_den^2)`` gives X(w) times c_den^2 as a (numerator, denominator) pair."""
    c_den2 = exp.c_den * exp.c_den
    num, den = 0, 1
    for sub, p in dist.support(exp.succ, budget):
        n, d = term(value_of(sub), sum(exp.c_of[x] for x in sub), c_den2)
        num, den = _add(num, den, n * p.denominator, d * p.numerator)
    binom2 = exp.binom * exp.binom
    return Fraction(num - exp.c_all * exp.c_all * binom2 * den, binom2 * den * c_den2)


def recursive_variance(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    max_states: int = DEFAULT_STATE_CAP,
) -> Fraction:
    """Variance of the estimate under ``dist`` by the hyperchild recursion.

    Evaluates, per hypernode v with successor set S and candidates w of
    probability P(w),

        Var(v) = sum_w (Var(w) + Cost(T_w)^2) / (C(|S|-1, |w|-1)^2 * P(w))
                 - Cost(T_S)^2

    with variance 0 at terminal hypernodes; under ``ImportanceInduced``,
    1 / (C(|S|-1, |w|-1) * P(w)) is r(S)/r(w).  Memoized per hypernode (by
    member states where the module docstring allows); this is the
    closed-form twin of the enumeration variance and the pair is
    asserted equal in the test suite.
    """

    def step(nodes, exp, var_of):
        if exp is None:
            return Fraction(0)
        # (Var(w) + Cost(T_w)^2) times c_den^2
        return _hyperchild_sum(
            exp, dist, budget, var_of,
            lambda var, c_sel, c_den2: (var.numerator * c_den2 + c_sel * c_sel * var.denominator, var.denominator),
        )

    subcost = subtree_cost_function(t, Fraction)
    return _hypernode_recursion(t, budget, max_states, _memo_key(t, dist), step, subcost)


def recursive_cv2(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    max_states: int = DEFAULT_STATE_CAP,
) -> Fraction:
    """Squared coefficient of variation by its own hyperchild recursion.

    Same shape as ``recursive_variance`` but normalized by subtree costs
    level by level; must agree with variance / cost^2 exactly.  Raises on
    a zero-cost forest, where the ratio is undefined, and on whatever
    ``dist.support`` rejects (a nonpositive weight).
    """
    subcost = subtree_cost_function(t, Fraction)

    def step(nodes, exp, cv2_of):
        cost_v = sum(subcost(x) for x in nodes)
        if cost_v == 0:
            raise ValueError(f"forest at {nodes!r} has zero total cost; CV undefined")
        if exp is None:
            return Fraction(0)
        # Cost(T_w)^2 * (CV2(w) + 1) times c_den^2
        unnormalized = _hyperchild_sum(
            exp, dist, budget, cv2_of,
            lambda cv2, c_sel, c_den2: (c_sel * c_sel * (cv2.numerator + cv2.denominator), cv2.denominator),
        )
        return unnormalized / (cost_v * cost_v)

    return _hypernode_recursion(t, budget, max_states, _memo_key(t, dist), step, subcost)


def alpha_stats(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    max_states: int = DEFAULT_STATE_CAP,
) -> AlphaStats:
    """Moments and maxima of alpha under ``dist`` by the hyperchild recursion.

    Alpha is the product over levels of step(w) = c(w) / (c(S) *
    C(|S|-1, |w|-1) * P(w)) (see the module docstring).  Per hypernode,
    over the candidates w of ``dist`` and with 1 at terminal hypernodes,
    E[alpha] = sum_w P(w) step(w) E[alpha](w), where P(w) step(w) needs no
    P(w); E[alpha^2] = sum_w P(w) step(w)^2 E[alpha^2](w); and, as node
    costs are nonnegative, max alpha = max_w step(w) max alpha(w).  Each
    hypernode also yields its largest step per depth below it; a
    hypernode's depth is fixed, so the root's are the per-level maxima
    whose product bounds max alpha.  Memoized as ``recursive_cv2`` is;
    raises AlphaUndefined at a reachable successor forest of zero cost.
    """

    def step(nodes, exp, value_of):
        # E[alpha], E[alpha^2], max alpha and each depth's step maximum as
        # reduced integer pairs
        if exp is None:
            return (1, 1), (1, 1), (1, 1), ()
        if exp.c_all == 0:
            raise AlphaUndefined(f"successor forest of {nodes!r} has zero total cost; alpha undefined")
        # With k = c_den * c(S) * C(|S|-1, |w|-1), c(w) = c / c_den and P(w) =
        # pn / pd: P(w) step(w) = c / k and step(w) = c * pd / (pn * k).  Sums
        # stay unreduced over k, and this level's maxima compare without k,
        # until one reduction per value.
        e1n, e1d, e2n, e2d = 0, 1, 0, 1
        top = None
        level_max = []
        for sub, p in dist.support(exp.succ, budget):
            (a1n, a1d), (a2n, a2d), (bn, bd), levels = value_of(sub)
            c = sum(exp.c_of[x] for x in sub)
            sn, sd = c * p.denominator, p.numerator
            e1n, e1d = _add_unreduced(e1n, e1d, c * a1n, a1d)
            e2n, e2d = _add_unreduced(e2n, e2d, c * sn * a2n, sd * a2d)
            n, d = sn * bn, sd * bd
            if top is None or n * top[1] > top[0] * d:
                top = n, d
            for i, (n, d) in enumerate(((sn, sd), *levels)):
                if i == len(level_max):
                    level_max.append((n, d))
                elif n * level_max[i][1] > level_max[i][0] * d:
                    level_max[i] = n, d
        k = exp.c_all * exp.binom
        level_max[0] = _reduced(level_max[0][0], level_max[0][1] * k)
        return _reduced(e1n, e1d * k), _reduced(e2n, e2d * k * k), _reduced(top[0], top[1] * k), tuple(level_max)

    subcost = subtree_cost_function(t, Fraction)
    a1, a2, top, levels = _hypernode_recursion(t, budget, max_states, _memo_key(t, dist), step, subcost)
    mean = Fraction(*a1)
    product = math.prod((Fraction(*lv) for lv in levels), start=Fraction(1))
    return AlphaStats(mean, Fraction(*a2) - mean * mean, Fraction(*top), product)


def cost_split_identity(t: TreeOracle, h: Hypernode, budget: int):
    """Both sides of the hyperchild cost-splitting identity, exactly.

    The cost of the successor forest of ``h`` must equal the sum over
    candidate hypernodes w of Cost(T_w) / C(|S|-1, |w|-1); every candidate
    contains each successor equally often, so the weights cancel.  Returns
    (lhs, rhs) as exact rationals for the caller to compare.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    exp = _expand(t, h.nodes, budget, subtree_cost_function(t, Fraction))
    if exp is None:
        return Fraction(0), Fraction(0)
    rhs = sum(sum(exp.c_of[x] for x in sub) for sub in itertools.combinations(exp.succ, exp.take))
    return Fraction(exp.c_all, exp.c_den), Fraction(rhs, exp.binom * exp.c_den)


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
