"""Exact analysis of estimator distributions on small instances.

Everything here is exact and meant as a test oracle: the full outcome
distribution of a walk (every hypernode sequence, its probability, and
the estimate it would produce), and one hyperchild recursion,
``exact_pass``, that gives the variance, the squared coefficient of
variation and the alpha diagnostic together.  The draw enters only
through ``dist.support``, which gives each candidate hyperchild w of a
successor union S its exact probability P(w).  An alpha step is the
zero-variance draw's probability of w over P(w),
c(w) / (c(S) * C(|S|-1, |w|-1) * P(w)) with c the subtree cost; under
``ImportanceInduced`` it is the paper's (r(S)/r(w)) * (c(w)/c(S)).

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

The recursions (the sequence count and the exact pass) memoize per
hypernode, so alpha reaches instances far past any enumeration.  The
exact pass expands each reachable hypernode once and reads its
``dist.support`` once for all three parts; ``recursive_variance``,
``recursive_cv2`` and ``alpha_stats`` read one part each and compute
only that one.  The enumeration stays memo-free over paths, as the
independent check of the pass.  A hypernode is the sorted tuple of its
members, and node references are states (see ``tree``), so hypernodes
reached by different paths share one memo entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import CapExceeded
from .estimators import HypernodeDistribution, integer_scale
from .tree import TreeOracle, hypernode_successors

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
    asked for, the oracle's subtree costs as numerators over ``c_den``
    with c(S) the numerator of their sum."""

    succ: tuple
    take: int
    binom: int
    c_of: dict | None
    c_all: int | None
    c_den: int | None


def _expand(t: TreeOracle, nodes, budget: int, costs: bool = False) -> _Expansion | None:
    """Expansion of the hypernode ``nodes``; None when it is terminal."""
    succ = hypernode_successors(nodes, t)
    if not succ:
        return None
    take = min(budget, len(succ))
    c_of = c_all = c_den = None
    if costs:
        scaled, c_den = integer_scale([t.subtree_cost(x) for x in succ])
        c_of = dict(zip(succ, scaled))
        c_all = sum(scaled)
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
class OutcomeDistribution:
    """Every outcome of a walk, with exact moments of the estimate.

    ``outcomes`` holds one (probability, estimate) pair of Fractions per
    complete hypernode sequence, in depth-first order.
    """

    outcomes: tuple[tuple[Fraction, Fraction], ...]
    mean: object
    variance: object
    total_probability: object


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

    return _hypernode_recursion(t, budget, math.inf, step)


def enumerate_distribution(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    max_sequences: int = DEFAULT_SEQUENCE_CAP,
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
        f = |v| * C(|S|-1, m-1) * pn, k_sel, k_den * m); None when terminal."""
        exp = _expand(t, nodes, budget)
        if exp is None:
            return None
        costs, k_den = integer_scale([t.cost(x) for x in exp.succ])
        k_of = dict(zip(exp.succ, costs))
        size_binom = len(nodes) * exp.binom
        return [
            (wnodes, p.numerator, p.denominator, len(wnodes) * p.denominator, size_binom * p.numerator,
             sum(k_of[x] for x in wnodes), k_den * len(wnodes))
            for wnodes, p in dist.support(exp.succ, budget)
        ]

    # Unreduced integer pairs down the recursion: probability pn/pd, D
    # product dn/dd, and the running total tn / (dd * tq), whose
    # denominator keeps dd's so that it grows by one level's factors per
    # level.
    def rec(nodes, pn, pd, dn, dd, tn, tq):
        nonlocal count
        if nodes not in candidates_of:
            candidates_of[nodes] = candidates(nodes)
        cands = candidates_of[nodes]
        if cands is None:
            count += 1
            if count > max_sequences:
                raise CapExceeded(f"more than {max_sequences} hypernode sequences")
            outcomes.append((Fraction(pn, pd), Fraction(size0 * tn, dd * tq)))
            return
        for wnodes, p_num, p_den, m_den, f, k_sel, k_m in cands:
            # d_k = m / (|v| * C(|S|-1, m-1) * p)
            dn2 = dn * m_den
            if k_sel:  # total += (k_sel / (k_den * m)) * D
                tn2, tq2 = tn * f * k_m + k_sel * dn2 * tq, tq * k_m
            else:
                tn2, tq2 = tn * f, tq
            rec(wnodes, pn * p_num, pd * p_den, dn2, dd * f, tn2, tq2)

    costs, k_den = integer_scale([t.cost(v) for v in root])
    try:
        rec(root, 1, 1, 1, 1, sum(costs), k_den * size0)
    finally:
        del rec  # rec refers to itself: break that cycle so the tree and memos free now

    total_p, mean, variance = _moments(outcomes)
    return OutcomeDistribution(tuple(outcomes), mean, variance, total_p)


@dataclass(frozen=True)
class AlphaStats:
    """Moments and maxima of alpha under the draw it was computed for."""

    mean: object
    variance: object
    max_value: object
    level_max_product: object


def _hypernode_recursion(t, budget, max_states, step, costs=False):
    """Memoized recursion over the hypernodes reachable from the root.

    ``step(nodes, exp, value_of)`` gives a hypernode's value from its
    expansion (None when terminal; with subtree costs when ``costs`` is
    true) and the values of its hyperchildren, each keyed by its sorted
    member tuple.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    memo: dict = {}
    visited = 0

    def value_of(nodes):
        nonlocal visited
        known = memo.get(nodes)
        if known is not None:
            return known
        visited += 1
        if visited > max_states:
            raise CapExceeded(f"more than {max_states} hypernode states")
        memo[nodes] = step(nodes, _expand(t, nodes, budget, costs), value_of)
        return memo[nodes]

    try:
        return value_of(t.root_hypernode)
    finally:
        del value_of  # value_of refers to itself: break that cycle so the memo frees now


_PARTS = ("variance", "cv2", "alpha")
_ALPHA_TERMINAL = ((1, 1), (1, 1), (1, 1), ())  # E[alpha], E[alpha^2], max alpha, no levels


def _defined(part):
    """A part's value; an undefined part raises its exception afresh."""
    if isinstance(part, Exception):
        raise type(part)(*part.args)
    return part


class ExactPass(NamedTuple):
    """The parts of one ``exact_pass``, None where not asked for.  An
    undefined part is kept as its exception, which reading ``cv2`` or
    ``alpha`` raises; the other parts stay readable."""

    variance: Fraction | None
    cv2_or_error: Fraction | ValueError | None
    alpha_or_error: AlphaStats | AlphaUndefined | None

    cv2 = property(lambda self: _defined(self.cv2_or_error))
    alpha = property(lambda self: _defined(self.alpha_or_error))


def exact_pass(t: TreeOracle, budget: int, dist: HypernodeDistribution, max_states: int = DEFAULT_STATE_CAP,
               _parts: tuple[str, ...] = _PARTS) -> ExactPass:
    """Variance, CV^2 and alpha of the estimate under ``dist`` by one
    hyperchild recursion, which expands each reachable hypernode once and
    reads its ``dist.support`` once.

    Per hypernode v with successor union S, candidates w of probability
    P(w) and b = C(|S|-1, |w|-1), with 0 at terminal hypernodes:

        Var(v) = sum_w (Var(w) + Cost(T_w)^2) / (b^2 P(w)) - Cost(T_S)^2
        CV2(v) = (sum_w Cost(T_w)^2 (CV2(w) + 1) / (b^2 P(w)) - Cost(T_S)^2) / Cost(T_v)^2

    two formulas, so that CV^2 = Var / Cost^2 checks the recursion; under
    ``ImportanceInduced``, 1 / (b P(w)) is r(S)/r(w).  Alpha is the product
    over levels of step(w) = c(w) / (c(S) b P(w)), 1 at terminal
    hypernodes: E[alpha] = sum_w P(w) step(w) E[alpha](w), E[alpha^2] =
    sum_w P(w) step(w)^2 E[alpha^2](w) and, as costs are nonnegative, max
    alpha = max_w step(w) max alpha(w).  Each hypernode also keeps its
    largest step per depth below it, whose product at the root bounds max
    alpha.  Raises CapExceeded past ``max_states`` hypernodes and whatever
    ``dist.support`` rejects.  ``_parts`` names the parts to compute; each
    reader below computes its own only.
    """
    want = tuple(part in _parts for part in _PARTS)

    def step(nodes, exp, parts_of):
        # A part is its value, or the exception that leaves it undefined
        # from here up; an undefined part needs nothing from below.
        var_on, cv2_on, alpha_on = want
        var = cv2 = alpha = None
        cost_v = sum(map(t.subtree_cost, nodes)) if cv2_on else None
        if cost_v == 0:
            cv2, cv2_on = ValueError(f"forest at {nodes!r} has zero total cost; CV undefined"), False
        if exp is None:
            return (Fraction(0) if var_on else None, Fraction(0) if cv2_on else cv2,
                    _ALPHA_TERMINAL if alpha_on else None)
        if alpha_on and exp.c_all == 0:
            alpha = AlphaUndefined(f"successor forest of {nodes!r} has zero total cost; alpha undefined")
            alpha_on = False
        if not (var_on or cv2_on or alpha_on):
            return var, cv2, alpha
        # Sums on integers.  Alpha's stay unreduced over k = c_den * c(S) * b:
        # with c(w) = c / c_den and P(w) = pn / pd, P(w) step(w) = c / k and
        # step(w) = c * pd / (pn * k), so this level's maxima compare without k.
        c_den2 = exp.c_den * exp.c_den
        vn, vd, cn, cd, e1n, e1d, e2n, e2d = 0, 1, 0, 1, 0, 1, 0, 1
        top = None
        level_max = []
        for sub, p in dist.support(exp.succ, budget):
            var_w, cv2_w, alpha_w = parts_of(sub)
            if cv2_on and isinstance(cv2_w, ValueError):
                cv2, cv2_on = cv2_w, False
            if alpha_on and isinstance(alpha_w, AlphaUndefined):
                alpha, alpha_on = alpha_w, False
            if not (var_on or cv2_on or alpha_on):
                break
            c = sum(exp.c_of[x] for x in sub)
            pn, pd = p.numerator, p.denominator
            if var_on:  # (Var(w) + Cost(T_w)^2) * c_den^2 / P(w)
                n, d = var_w.numerator, var_w.denominator
                vn, vd = _add(vn, vd, (n * c_den2 + c * c * d) * pd, d * pn)
            if cv2_on:  # Cost(T_w)^2 * (CV2(w) + 1) * c_den^2 / P(w)
                n, d = cv2_w.numerator, cv2_w.denominator
                cn, cd = _add(cn, cd, c * c * (n + d) * pd, d * pn)
            if alpha_on:
                (a1n, a1d), (a2n, a2d), (bn, bd), levels = alpha_w
                sn, sd = c * pd, pn
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
        binom2 = exp.binom * exp.binom
        c_all2 = exp.c_all * exp.c_all * binom2
        if var_on:
            var = Fraction(vn - c_all2 * vd, binom2 * vd * c_den2)
        if cv2_on:
            cv2 = Fraction(cn - c_all2 * cd, binom2 * cd * c_den2) / (cost_v * cost_v)
        if alpha_on:
            k = exp.c_all * exp.binom
            level_max[0] = _reduced(level_max[0][0], level_max[0][1] * k)
            alpha = (_reduced(e1n, e1d * k), _reduced(e2n, e2d * k * k),
                     _reduced(top[0], top[1] * k), tuple(level_max))
        return var, cv2, alpha

    var, cv2, alpha = _hypernode_recursion(t, budget, max_states, step, costs=True)
    if type(alpha) is tuple:
        a1, a2, top, levels = alpha
        mean = Fraction(*a1)
        product = math.prod((Fraction(*lv) for lv in levels), start=Fraction(1))
        alpha = AlphaStats(mean, Fraction(*a2) - mean * mean, Fraction(*top), product)
    return ExactPass(var, cv2, alpha)


def recursive_variance(t: TreeOracle, budget: int, dist: HypernodeDistribution,
                       max_states: int = DEFAULT_STATE_CAP) -> Fraction:
    """``exact_pass``'s variance alone: the enumeration variance in closed form."""
    return exact_pass(t, budget, dist, max_states, _parts=("variance",)).variance


def recursive_cv2(t: TreeOracle, budget: int, dist: HypernodeDistribution,
                  max_states: int = DEFAULT_STATE_CAP) -> Fraction:
    """``exact_pass``'s CV^2 alone; ValueError at a reachable zero-cost forest."""
    return exact_pass(t, budget, dist, max_states, _parts=("cv2",)).cv2


def alpha_stats(t: TreeOracle, budget: int, dist: HypernodeDistribution,
                max_states: int = DEFAULT_STATE_CAP) -> AlphaStats:
    """``exact_pass``'s alpha alone; AlphaUndefined at a reachable zero-cost successor forest."""
    return exact_pass(t, budget, dist, max_states, _parts=("alpha",)).alpha


def cost_split_identity(t: TreeOracle, h: tuple, budget: int):
    """Both sides of the hyperchild cost-splitting identity, exactly.

    The cost of the successor forest of the hypernode ``h`` (its sorted
    member tuple) must equal the sum over candidate hypernodes w of
    Cost(T_w) / C(|S|-1, |w|-1); every candidate contains each successor
    equally often, so the weights cancel.  Returns (lhs, rhs) as exact
    rationals for the caller to compare.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    exp = _expand(t, h, budget, costs=True)
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
