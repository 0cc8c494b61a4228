"""Selection primitives: weighted picks, uniform subsets, the two-phase draw."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from stochenum.estimators import ImportanceInduced, UniformHyperchild, _run_block
from stochenum.sampling import (
    RUN_GROUP,
    NonpositiveWeight,
    RandomChoice,
    RandomSource,
    ScriptedChoice,
    ScriptError,
    derive_seed,
)
from stochenum.tree import ExplicitTree


def two_phase_exact_marginals(weights, budget):
    """Independent oracle: enumerate every (first pick, rest subset) path
    of the two-phase procedure with exact probabilities."""
    n = len(weights)
    take = min(budget, n)
    total = sum(Fraction(w) for w in weights)
    out = Counter()
    for first in range(n):
        p_first = Fraction(weights[first]) / total
        rest = [i for i in range(n) if i != first]
        n_subsets = math.comb(len(rest), take - 1)
        for sub in itertools.combinations(rest, take - 1):
            key = tuple(sorted((first,) + sub))
            out[key] += p_first / n_subsets
    return out


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2) != derive_seed(2, 1)


def test_run_stream_contract_pinned():
    # Stream contract v2: run i of seed s is run i mod RUN_GROUP of group
    # i // RUN_GROUP, and each group draws from MT19937 seeded with
    # derive_seed(s, group); estimates for a seed stay reproducible only
    # while this holds.
    assert RUN_GROUP == 64
    group0, group1 = derive_seed(42, 0), derive_seed(42, 1)
    assert group0 == 112253681344900233918653361185627361969
    assert group1 == 5140218053876174411153749337935443801
    first0 = [0.8715119825736003, 0.4485541135917114, 0.6289987111350034]
    first1 = [0.8205361739064723, 0.22867384686340797, 0.17397329561519315]
    src = RandomSource(group0)
    assert [src.random() for _ in range(3)] == first0
    src = RandomSource(group1)
    assert [src.random() for _ in range(3)] == first1
    # Reseeding a used generator, as the mask-only walk does per group,
    # restarts exactly this stream.
    rng = random.Random(7)
    rng.random()
    rng.seed(group1)
    assert [rng.random() for _ in range(3)] == first1
    # The runs of a group take its draws in order.  At budget 1 under a
    # zero-cost root with ten leaves costing 0..9, a run makes one draw u
    # and estimates 10 * int(10 u).
    tree = ExplicitTree({"r": tuple(range(10))}, roots=("r",), costs={"r": 0, **{i: i for i in range(10)}})
    estimates = _run_block(tree, 1, UniformHyperchild(), 42, 0, 67)
    assert estimates[:3] == [10.0 * int(10 * u) for u in first0]
    assert estimates[64:] == [10.0 * int(10 * u) for u in first1]


def test_random_source_determinism():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert RandomSource(derive_seed(42, 3)).random() == RandomSource(derive_seed(42, 3)).random()
    assert RandomSource(derive_seed(42, 3)).random() != RandomSource(derive_seed(42, 4)).random()


def test_weighted_pick_errors():
    # The walk's weighted draw rejects a nonpositive weight and names the node.
    c = RandomChoice(1)
    for bad in (0.0, -2.0):
        weights = {"a": 1.0, "b": bad}
        with pytest.raises(NonpositiveWeight) as err:
            ImportanceInduced(weights.__getitem__).draw(("a", "b"), 1, c)
        assert err.value.node == "b" and err.value.value == bad


def test_weighted_pick_singleton():
    c = RandomChoice(5)
    assert all(c.pick_weighted([3.0]) == 0 for _ in range(20))


def test_weighted_pick_frequencies():
    # weights (2, 3): second index should land near 3/5 of the time
    c = RandomChoice(123)
    n = 100_000
    hits = sum(c.pick_weighted([2.0, 3.0]) for _ in range(n))
    assert abs(hits / n - 0.6) < 3 * math.sqrt(0.6 * 0.4 / n)
    # weights (2, 2, 1): middle index near 2/5
    c = RandomChoice(321)
    mid = sum(1 for _ in range(n) if c.pick_weighted([2.0, 2.0, 1.0]) == 1)
    assert abs(mid / n - 0.4) < 3 * math.sqrt(0.4 * 0.6 / n)


def test_uniform_subset_edges():
    c = RandomChoice(7)
    assert c.pick_subset(1, 1) == (0,)
    assert c.pick_subset(2, 0) == ()
    assert sorted(c.pick_subset(3, 3)) == [0, 1, 2]


def test_uniform_subset_two_pool_split():
    c = RandomChoice(99)
    n = 100_000
    g = sum(1 for _ in range(n) if c.pick_subset(2, 1) == (0,))
    assert abs(g / n - 0.5) < 3 * math.sqrt(0.25 / n)


def test_uniform_subset_uniform_over_pairs():
    c = RandomChoice(4242)
    n = 60_000
    counts = Counter(frozenset(c.pick_subset(4, 2)) for _ in range(n))
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / n - 1 / 6) < 4 * math.sqrt((1 / 6) * (5 / 6) / n)


def test_select_hypernode_probability_formula():
    # weights (2,1,1), budget 2: frozen from the exact two-phase oracle
    marg = two_phase_exact_marginals([2.0, 1.0, 1.0], 2)
    assert marg[(1, 2)] == Fraction(1, 4)
    assert marg[(0, 1)] == Fraction(3, 8)
    weights = {"g": 2.0, "h": 1.0, "i": 1.0}
    dist = ImportanceInduced(weights.__getitem__)
    succ = ("g", "h", "i")
    c = RandomChoice(11)
    seen = set()
    support = dict(dist.support(succ, 2))
    for _ in range(200):
        draw = dist.draw(succ, 2, c)
        nodes = tuple(sorted(draw.nodes))
        p = support[nodes]
        r_w = sum(Fraction(weights[x]) for x in draw.nodes)
        assert p == r_w / Fraction(4) / 2
        assert draw.d_multiplier == float(1 / (2 * p))
        if nodes == ("h", "i"):
            assert p == Fraction(1, 4)
        seen.add(nodes)
    assert seen == {("g", "h"), ("g", "i"), ("h", "i")}


def test_select_hypernode_singleton_and_uniform():
    c = RandomChoice(3)
    dist = ImportanceInduced(lambda x: 1.0)
    draw = dist.draw(("m",), 2, c)
    assert draw.nodes == ("m",) and dict(dist.support(("m",), 2))[draw.nodes] == 1
    support = dict(dist.support(("d", "e", "f"), 2))
    for _ in range(50):
        draw = dist.draw(("d", "e", "f"), 2, c)
        assert support[tuple(sorted(draw.nodes))] == Fraction(1, 3)


def test_select_hypernode_rejects_nonpositive():
    c = RandomChoice(3)
    dist = ImportanceInduced(lambda x: 0.0 if x == "b" else 1.0)
    with pytest.raises(NonpositiveWeight) as err:
        dist.draw(("a", "b"), 2, c)
    assert err.value.node == "b"
    with pytest.raises(NonpositiveWeight):
        dict(dist.support(("a", "b"), 2))


def test_two_phase_marginals_match_closed_form():
    # exact procedure enumeration == r(w)/r(S) / C(|S|-1, |w|-1), and sums to 1
    rng = RandomSource(17)
    for trial in range(14):
        n = 2 + rng.randrange(7)  # candidate sets up to 8 wide
        budget = 1 + rng.randrange(4)
        weights = [1 + rng.randrange(9) for _ in range(n)]
        marg = two_phase_exact_marginals(weights, budget)
        take = min(budget, n)
        total = sum(Fraction(w) for w in weights)
        binom = math.comb(n - 1, take - 1)
        assert sum(marg.values()) == 1
        for sub in itertools.combinations(range(n), take):
            expected = sum(Fraction(weights[i]) for i in sub) / total / binom
            assert marg[sub] == expected


def test_scripted_choice_replay_and_errors():
    s = ScriptedChoice([("weighted", "c"), ("subset", ("b",))])
    assert s.pick_weighted([2.0, 3.0], labels=("b", "c")) == 1
    assert s.pick_subset(1, 1, labels=("b",)) == (0,)
    assert s.exhausted()
    with pytest.raises(ScriptError):
        s.pick_weighted([1.0], labels=("x",))

    s = ScriptedChoice([("weighted", "z")])
    with pytest.raises(ScriptError):
        s.pick_weighted([1.0, 1.0], labels=("a", "b"))

    s = ScriptedChoice([("subset", ("a", "b"))])
    with pytest.raises(ScriptError):
        s.pick_subset(3, 1, labels=("a", "b", "c"))

    s = ScriptedChoice([("weighted", "a")])
    with pytest.raises(NonpositiveWeight):
        s.pick_weighted([0.0, 1.0], labels=("a", "b"))


def test_scripted_subset_skips_entry_when_empty():
    s = ScriptedChoice([("weighted", "a")])
    assert s.pick_subset(4, 0, labels=("a", "b", "c", "d")) == ()
    assert not s.exhausted()


def test_same_seed_identical_draw_sequence():
    def draws(seed):
        c = RandomChoice(RandomSource(seed))
        out = []
        for _ in range(50):
            out.append(c.pick_weighted([1.0, 2.0, 3.0]))
            out.append(c.pick_subset(6, 3))
        return out

    assert draws(2024) == draws(2024)
    assert draws(2024) != draws(2025)
