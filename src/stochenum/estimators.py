"""Tree-cost estimators: single path, budgeted multi-path, and importance-weighted.

All three are one walk, ``sep_estimate``.  Starting from the root
hypernode, each level draws the next hypernode among the candidates,
multiplies a per-level correction factor D_k into a running product D
(an estimate of the node count of the current level), and accumulates
average-node-cost times D.
The walk returns |root| times the accumulated total, an unbiased
estimator of the forest cost for any valid candidate distribution.

The budget-1 case degenerates to the classic single-path estimator; the
importance-weighted variant is the same walk under the distribution the
two-phase weighted draw induces.
"""

from __future__ import annotations

import itertools
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .errors import EstimateOverflow
from .sampling import (
    RUN_GROUP,
    ChoiceSource,
    NonpositiveWeight,
    RandomChoice,
    RandomSource,
    WeightFunction,
    _draw_two_phase,
    derive_seed,
)
from .tree import TreeOracle, hypernode_successors


class Draw(NamedTuple):
    """One distribution draw: selected nodes plus the walk's level factor.

    ``d_multiplier`` is 1 / (C(|S|-1, m-1) * P(w)) in whatever simplified
    form the distribution can compute it exactly (|S|/m for the uniform
    case, r(S)/r(w) for the weighted case).
    """

    nodes: tuple
    d_multiplier: float


def integer_scale(values) -> tuple[list[int], int]:
    """Exact numbers as integer numerators over one common denominator.

    Each value (int, float or Fraction) is read as the rational it denotes
    through ``as_integer_ratio``; floats, and exact sums of floats, have
    power-of-two denominators, so their common denominator is the largest.
    Returns (numerators, denominator).
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


class HypernodeDistribution:
    """How the next hypernode is chosen among the candidates.

    ``draw`` samples; ``support(succ, budget)`` enumerates every
    candidate with its exact probability (exponential, for the exact
    analysis).
    """

    def draw(self, succ: tuple, budget: int, choice: ChoiceSource) -> Draw:
        raise NotImplementedError


class UniformHyperchild(HypernodeDistribution):
    """Every size-min(budget, |S|) subset of the successors equally likely."""

    def draw(self, succ, budget, choice):
        n = len(succ)
        m = min(budget, n)
        picked = choice.pick_subset(n, m, labels=succ)
        return Draw(tuple(succ[i] for i in picked), n / m)

    def support(self, succ, budget):
        take = min(budget, len(succ))
        p = Fraction(1, comb(len(succ), take))
        for sub in itertools.combinations(succ, take):
            yield tuple(sorted(sub)), p


class ImportanceInduced(HypernodeDistribution):
    """Two-phase weighted draw: P(w) proportional to the weight sum r(w).

    One node is picked with probability r(x)/r(S), the rest uniformly
    without replacement, giving P(w) = (r(w)/r(S)) / C(|S|-1, |w|-1).
    The exact-probability path reads each weight (int, float or
    Fraction) as the rational it denotes, so exact weights keep their
    exact probabilities: ``ImportanceInduced(t.subtree_cost)`` is the
    zero-variance draw on any oracle, whatever its costs.
    """

    def __init__(self, weight: WeightFunction):
        self.weight = weight

    def draw(self, succ, budget, choice):
        weight = self.weight
        weights = [weight(x) for x in succ]
        r_all = 0
        for i, w in enumerate(weights):
            if not w > 0:
                raise NonpositiveWeight(succ[i], w)
            r_all += w
        sel = _draw_two_phase(succ, weights, min(budget, len(succ)), choice)
        r_sel = 0
        for i in sel:
            r_sel += weights[i]
        return Draw(tuple(succ[i] for i in sel), r_all / r_sel)

    def support(self, succ, budget):
        # checked as in draw; the common integer scale cancels in every
        # ratio of weight sums, so the probabilities are exact
        values = []
        for x in succ:
            w = self.weight(x)
            if not w > 0:
                raise NonpositiveWeight(x, w)
            values.append(w)
        weights = integer_scale(values)[0]
        take = min(budget, len(succ))
        denom = sum(weights) * comb(len(succ) - 1, take - 1)
        for idxs in itertools.combinations(range(len(succ)), take):
            nodes = tuple(sorted(succ[i] for i in idxs))
            yield nodes, Fraction(sum(weights[i] for i in idxs), denom)


@dataclass(frozen=True)
class Trajectory:
    """One estimator run: its estimate and its per-level factors.

    ``estimate`` is |root| times the accumulated cost total;
    ``d_factors`` are the level factors D_k in level order, and
    ``d_products`` their running products D, the same floats the walk
    multiplies.
    """

    estimate: float
    d_factors: tuple

    @property
    def d_products(self) -> tuple:
        return tuple(itertools.accumulate(self.d_factors, operator.mul))


def _walk(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    choice: ChoiceSource,
) -> Trajectory:
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    cost = t.cost
    nodes = t.root_hypernode.nodes
    size0 = len(nodes)
    csum = 0.0
    for v in nodes:
        csum += cost(v)
    total = csum / size0
    d_product = 1.0
    d_factors = []
    while True:
        succ = hypernode_successors(nodes, t)
        if not succ:
            break
        draw = dist.draw(succ, budget, choice)
        if not draw.d_multiplier > 0:
            raise ValueError(f"distribution returned level factor {draw.d_multiplier!r}")
        wnodes = draw.nodes
        m = len(wnodes)
        d_k = (m / len(nodes)) * draw.d_multiplier
        product = d_product * d_k
        if not math.isfinite(product):
            # log of the product, from the last finite one
            raise EstimateOverflow(math.log(d_product) + math.log(d_k))
        d_product = product
        csum = 0.0
        for w in wnodes:
            csum += cost(w)
        total += (csum / m) * d_product
        d_factors.append(d_k)
        nodes = wnodes
    return Trajectory(size0 * total, tuple(d_factors))


def sep_estimate(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    choice: ChoiceSource,
) -> Trajectory:
    """One estimator run from the root under a hypernode distribution.

    Budget 1 is the classic single-path estimator; ``ImportanceInduced``
    gives the importance-weighted variant, whose level factor simplifies
    to (|w|/|x|) * r(S)/r(w).
    """
    return _walk(t, budget, dist, choice)


@dataclass(frozen=True)
class RunSummary:
    """Aggregate of repeated independent runs.

    ``variance`` is the unbiased sample variance and is None for a single
    run; outside the double range it reads inf or 0.  ``rel_variance``
    (identically CV squared) is variance over the squared mean, None for
    a single run or a zero mean.
    """

    runs: int
    mean: float
    variance: float | None
    stderr: float | None
    rel_variance: float | None

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "mean": self.mean,
            "variance": self.variance,
            "stderr": self.stderr,
            "rel_variance": self.rel_variance,
        }


def summarize(estimates: Sequence[float]) -> RunSummary:
    """Order-insensitive summary; exact-summation keeps it deterministic.

    When the largest magnitude lies outside [2^-400, 2^400), the
    arithmetic runs on the estimates scaled by the power of two that
    brings it into [0.5, 1).  The scaling is exact, and it keeps squares
    and sums within the double range: the mean, standard error and
    relative variance of finite estimates stay finite, and only
    ``variance`` itself may leave the range.  Inside that window nothing
    is scaled, and nothing is copied.
    """
    n = len(estimates)
    if n == 0:
        raise ValueError("no estimates to summarize")
    shift = math.frexp(max(map(abs, estimates)))[1]
    if -400 < shift <= 400:
        shift = 0
    scaled = [math.ldexp(x, -shift) for x in estimates] if shift else estimates
    mean = math.fsum(scaled) / n
    if n < 2:
        return RunSummary(runs=n, mean=math.ldexp(mean, shift), variance=None, stderr=None, rel_variance=None)
    var = math.fsum((x - mean) ** 2 for x in scaled) / (n - 1)
    try:
        variance = math.ldexp(var, 2 * shift)
    except OverflowError:
        variance = math.inf
    return RunSummary(
        runs=n,
        mean=math.ldexp(mean, shift),
        variance=variance,
        stderr=math.ldexp(math.sqrt(var / n), shift),
        rel_variance=var / (mean * mean) if mean else None,
    )


def _run_block(t, budget, dist, seed, start, stop) -> list[float]:
    """Estimates for run indices [start, stop) under stream contract v2.

    Decision trees under the uniform draw or a weight with
    ``child_values`` take the tree's mask-only walk; everything else takes
    the generic walk.  ``EstimateOverflow`` passes through
    unwrapped so callers can report it as such.
    """
    fast = getattr(t, "fast_run_block", None)
    weight = None
    if type(dist) is ImportanceInduced and hasattr(dist.weight, "child_values"):
        weight = dist.weight
    elif type(dist) is not UniformHyperchild:
        fast = None
    if fast is not None:
        try:
            return fast(budget, weight, seed, start, stop)
        except EstimateOverflow:
            raise
        except Exception as exc:
            raise RuntimeError(f"estimator block [{start}, {stop}) (seed {seed}) failed: {exc}") from exc
    out = []
    # A block starting mid-group replays the group's earlier runs.
    group_start = start - start % RUN_GROUP
    for i in range(group_start, stop):
        if i % RUN_GROUP == 0:
            choice = RandomChoice(RandomSource(derive_seed(seed, i // RUN_GROUP)))
        try:
            out.append(_walk(t, budget, dist, choice).estimate)
        except EstimateOverflow:
            raise
        except Exception as exc:
            raise RuntimeError(f"estimator run {i} (seed {seed}) failed: {exc}") from exc
    return out[start - group_start:]


def run_many(
    t: TreeOracle,
    budget: int,
    dist: HypernodeDistribution,
    runs: int,
    seed: int,
    threads: int = 1,
) -> RunSummary:
    """R independent runs under stream contract v2 (see ``sampling``).

    The estimate list depends only on the seed, never on the worker
    count, so summaries are reproducible under any parallelism.  Runs
    that fit in one chunk run in this process; otherwise one worker per
    chunk starts, at most ``threads``.
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    # About four chunks per worker, each a whole number of run groups so
    # that no block replays another's runs.
    chunk = RUN_GROUP * -(-runs // (RUN_GROUP * 4 * threads)) if threads > 1 else runs
    if chunk >= runs:
        estimates = _run_block(t, budget, dist, seed, 0, runs)
    else:
        bounds = [(s, min(s + chunk, runs)) for s in range(0, runs, chunk)]
        with ProcessPoolExecutor(max_workers=min(threads, len(bounds))) as pool:
            blocks = list(
                pool.map(_run_block_star, [(t, budget, dist, seed, a, b) for a, b in bounds])
            )
        estimates = [x for block in blocks for x in block]
    return summarize(estimates)


def _run_block_star(args) -> list[float]:
    return _run_block(*args)
