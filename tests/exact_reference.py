"""Reference exact analysis in plain ``Fraction`` arithmetic.

The textbook forms of what ``stochenum.analysis`` computes on integers:
the depth-first outcome enumeration with its moments and per-depth alpha
maxima, each outcome's hypernode sequence in the same order, those alpha
values again in the probability-ratio form that
holds for any draw, and the variance and CV^2 hyperchild recursions.
Every value is a ``Fraction`` and every step is the formula as written,
with a memo keyed on the sorted member tuple; subtree costs come from a
plain recursion here, not from the oracle's memo.  Sums run over
successor positions, so a child that two members share counts twice.
Slow, and only for tests, which require the package's results to equal
these exactly.
"""

import itertools
from fractions import Fraction
from math import comb

from stochenum.sampling import NonpositiveWeight
from stochenum.tree import hypernode_successors


def reference_subtree_cost(t):
    """Exact subtree cost by plain recursion, memoized per call."""
    memo = {}

    def subcost(node):
        if node not in memo:
            memo[node] = Fraction(t.cost(node)) + sum(subcost(c) for c in t.successors(node))
        return memo[node]

    return subcost


def _weights(weight, succ) -> dict:
    out = {}
    for x in succ:
        w = Fraction(weight(x))
        if not w > 0:
            raise NonpositiveWeight(x, w)
        out[x] = w
    return out


def reference_enumeration(t, budget, dist, weight=None):
    """Outcomes as (probability, estimate, alpha) in depth-first order,
    then mean, variance, total probability and the per-depth alpha maxima.

    A zero-cost successor forest under a weight raises ZeroDivisionError.
    """
    subcost = reference_subtree_cost(t)
    root = t.root_hypernode
    size0 = len(root)
    outcomes = []
    level_max = []

    def rec(nodes, depth, prob, d_product, total, alpha):
        succ = hypernode_successors(nodes, t)
        if not succ:
            outcomes.append((prob, size0 * total, alpha))
            return
        binom = comb(len(succ) - 1, min(budget, len(succ)) - 1)
        if weight is not None:
            w_of = _weights(weight, succ)
            r_all = sum(w_of[x] for x in succ)
            c_all = sum(subcost(x) for x in succ)
        for wnodes, p in dist.support(succ, budget):
            p = Fraction(p)
            d_product2 = d_product * Fraction(len(wnodes)) / (len(nodes) * binom * p)
            lvl = sum(Fraction(t.cost(x)) for x in wnodes) / len(wnodes)
            factor = Fraction(1)
            if weight is not None:
                factor = (r_all / sum(w_of[x] for x in wnodes)) * (sum(subcost(x) for x in wnodes) / c_all)
                if depth == len(level_max):
                    level_max.append(factor)
                else:
                    level_max[depth] = max(level_max[depth], factor)
            rec(wnodes, depth + 1, prob * p, d_product2, total + lvl * d_product2, alpha * factor)

    lvl0 = sum(Fraction(t.cost(v)) for v in root.nodes) / size0
    rec(root.nodes, 0, Fraction(1), Fraction(1), lvl0, Fraction(1))
    total_p = sum(p for p, _, _ in outcomes)
    mean = sum(p * e for p, e, _ in outcomes)
    variance = sum(p * (e - mean) ** 2 for p, e, _ in outcomes)
    return outcomes, mean, variance, total_p, level_max


def reference_sequences(t, budget, dist):
    """Each outcome's hypernode sequence, as sorted member tuples from the
    root's on, in the depth-first order of ``reference_enumeration``."""
    sequences = []

    def rec(seq):
        succ = hypernode_successors(seq[-1], t)
        if not succ:
            sequences.append(seq)
            return
        for wnodes, _ in dist.support(succ, budget):
            rec(seq + (wnodes,))

    rec((t.root_hypernode.nodes,))
    return sequences


def reference_alpha(t, budget, dist):
    """Each outcome's alpha in depth-first order, then the per-depth maxima,
    with the step to candidate w of probability P(w) written as the
    zero-variance draw's probability of w over P(w):
    c(w) / (c(S) * C(|S|-1, |w|-1) * P(w)).

    A zero-cost successor forest raises ZeroDivisionError.
    """
    subcost = reference_subtree_cost(t)
    alphas = []
    level_max = []

    def rec(nodes, depth, alpha):
        succ = hypernode_successors(nodes, t)
        if not succ:
            alphas.append(alpha)
            return
        binom = comb(len(succ) - 1, min(budget, len(succ)) - 1)
        c_all = sum(subcost(x) for x in succ)
        for wnodes, p in dist.support(succ, budget):
            factor = sum(subcost(x) for x in wnodes) / (c_all * binom * Fraction(p))
            if depth == len(level_max):
                level_max.append(factor)
            else:
                level_max[depth] = max(level_max[depth], factor)
            rec(wnodes, depth + 1, alpha * factor)

    rec(t.root_hypernode.nodes, 0, Fraction(1))
    return alphas, level_max


def _recursion(t, budget, weight, step):
    memo = {}

    def value_of(nodes):
        if nodes not in memo:
            succ = hypernode_successors(nodes, t)
            w_of = _weights(weight, succ)
            memo[nodes] = step(nodes, succ, w_of, value_of)
        return memo[nodes]

    return value_of(t.root_hypernode.nodes)


def _candidates(succ, budget):
    take = min(budget, len(succ))
    return itertools.combinations(succ, take), comb(len(succ) - 1, take - 1)


def reference_variance(t, budget, weight) -> Fraction:
    """Var(v) = sum_w (r(S)/r(w)) (Var(w) + Cost(T_w)^2) / C(|S|-1, |w|-1) - Cost(T_S)^2."""
    subcost = reference_subtree_cost(t)

    def step(nodes, succ, w_of, var_of):
        if not succ:
            return Fraction(0)
        r_all = sum(w_of[x] for x in succ)
        acc = Fraction(0)
        subs, binom = _candidates(succ, budget)
        for sub in subs:
            c_sel = sum(subcost(x) for x in sub)
            acc += (r_all / sum(w_of[x] for x in sub)) * (var_of(tuple(sorted(sub))) + c_sel * c_sel) / binom
        return acc - sum(subcost(x) for x in succ) ** 2

    return _recursion(t, budget, weight, step)


def reference_cv2(t, budget, weight) -> Fraction:
    """The same recursion normalized by Cost(T_v) level by level; a
    zero-cost forest raises ValueError."""
    subcost = reference_subtree_cost(t)

    def step(nodes, succ, w_of, cv2_of):
        cost_v = sum(subcost(x) for x in nodes)
        if cost_v == 0:
            raise ValueError(f"forest at {nodes!r} has zero total cost")
        if not succ:
            return Fraction(0)
        r_all = sum(w_of[x] for x in succ)
        acc = Fraction(0)
        subs, binom = _candidates(succ, budget)
        for sub in subs:
            ratio = sum(subcost(x) for x in sub) / cost_v
            acc += (r_all / sum(w_of[x] for x in sub)) * ratio * ratio * (cv2_of(tuple(sorted(sub))) + 1) / binom
        return acc - (sum(subcost(x) for x in succ) / cost_v) ** 2

    return _recursion(t, budget, weight, step)
