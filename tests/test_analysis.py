"""Exact oracles: outcome enumeration, variance recursions, alpha diagnostics."""

import gc
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from exact_reference import (
    reference_alpha,
    reference_cv2,
    reference_enumeration,
    reference_sequences,
    reference_subtree_cost,
    reference_variance,
)
from explicit_distribution import ExplicitDistribution
from hypothesis import given, settings
from hypothesis import strategies as st

from stochenum import analysis
from stochenum.analysis import (
    AlphaUndefined,
    alpha_stats,
    cost_split_identity,
    count_sequences,
    enumerate_distribution,
    recursive_cv2,
    recursive_variance,
)
from stochenum.errors import CapExceeded
from stochenum.estimators import ImportanceInduced, UniformHyperchild
from stochenum.posets import LEDecisionTree, count_linear_extensions, importance_function, random_poset
from stochenum.sampling import NonpositiveWeight
from stochenum.tree import (
    ExplicitTree,
    exact_forest_cost,
    fixture_example_importance,
    fixture_example_tree,
    hypernode_successors,
)
from stochenum.verify import DEFAULT_SEED, enumerable_posets, random_tree

UNIFORM = lambda node: 1.0


def test_enumeration_uniform_budget2_fixture():
    t = fixture_example_tree()
    od = enumerate_distribution(t, 2, UniformHyperchild())
    assert len(od.outcomes) == 11
    assert od.total_probability == 1
    assert od.mean == 14
    # the worked uniform trajectory: {a},{b,c},{d,e},{h,i},{m} has
    # probability (1)(1/3)(1/3)(1) and lands on 51/4; the reference lists
    # sequences in the enumeration's depth-first order
    target = (("a",), ("b", "c"), ("d", "e"), ("h", "i"), ("m",))
    sequences = reference_sequences(t, 2, UniformHyperchild())
    assert len(sequences) == len(od.outcomes)
    hits = [o for o, seq in zip(od.outcomes, sequences) if seq == target]
    assert hits == [(Fraction(1, 9), Fraction(51, 4))]


def test_enumeration_budget_exceeding_width():
    t = fixture_example_tree()
    od = enumerate_distribution(t, 14, UniformHyperchild())
    assert od.outcomes == ((1, 14),)
    assert od.variance == 0


def test_enumeration_weighted_budget2_fixture():
    t = fixture_example_tree()
    w = fixture_example_importance()
    od = enumerate_distribution(t, 2, ImportanceInduced(w))
    assert od.total_probability == 1
    assert od.mean == 14


def test_enumeration_caps():
    t = fixture_example_tree()
    with pytest.raises(CapExceeded):
        enumerate_distribution(t, 2, UniformHyperchild(), max_sequences=5)
    assert count_sequences(t, 2) == 11
    with pytest.raises(CapExceeded):
        count_sequences(t, 2, max_sequences=5)


def test_variance_recursion_matches_enumeration_fixture():
    t = fixture_example_tree()
    w = fixture_example_importance()
    od = enumerate_distribution(t, 2, ImportanceInduced(w))
    assert recursive_variance(t, 2, ImportanceInduced(w)) == od.variance
    assert od.variance == Fraction(31, 24)
    od_u = enumerate_distribution(t, 2, ImportanceInduced(UNIFORM))
    assert recursive_variance(t, 2, ImportanceInduced(UNIFORM)) == od_u.variance


def test_variance_zero_cases():
    leaf = ExplicitTree({}, roots=("v",), costs={"v": 4.0})
    assert recursive_variance(leaf, 2, ImportanceInduced(UNIFORM)) == 0
    assert recursive_cv2(leaf, 2, ImportanceInduced(UNIFORM)) == 0
    t = fixture_example_tree()
    assert recursive_variance(t, 2, ImportanceInduced(t.subtree_cost)) == 0
    assert recursive_cv2(t, 2, ImportanceInduced(t.subtree_cost)) == 0


def test_cv2_is_variance_over_squared_cost():
    t = fixture_example_tree()
    w = fixture_example_importance()
    var = recursive_variance(t, 2, ImportanceInduced(w))
    cv2 = recursive_cv2(t, 2, ImportanceInduced(w))
    assert cv2 == var / Fraction(196)
    assert cv2 == Fraction(31, 4704)


def test_cv2_rejects_zero_cost_forest():
    t = ExplicitTree({"a": ("b",)}, roots=("a",), costs={"a": 0.0, "b": 0.0})
    with pytest.raises(ValueError):
        recursive_cv2(t, 1, ImportanceInduced(UNIFORM))


def test_cv2_rejects_nonpositive_weight():
    # The same check as recursive_variance and alpha_stats, for -1 everywhere
    # and for one zero weight.
    t = fixture_example_tree()
    for bad in (lambda node: -1.0, lambda node: 0.0 if node == "m" else 1.0):
        for fn in (recursive_cv2, recursive_variance, alpha_stats):
            with pytest.raises(NonpositiveWeight):
                fn(t, 2, ImportanceInduced(bad))


@pytest.mark.parametrize("budget", (0, -1))
@pytest.mark.parametrize("call", [
    pytest.param(lambda t, b: count_sequences(t, b), id="count_sequences"),
    pytest.param(lambda t, b: recursive_variance(t, b, UniformHyperchild()), id="recursive_variance"),
    pytest.param(lambda t, b: recursive_cv2(t, b, UniformHyperchild()), id="recursive_cv2"),
    pytest.param(lambda t, b: cost_split_identity(t, t.root_hypernode, b), id="cost_split_identity"),
    pytest.param(lambda t, b: alpha_stats(t, b, UniformHyperchild()), id="alpha_stats"),
])
def test_budget_below_one_is_rejected(call, budget):
    with pytest.raises(ValueError, match=f"^budget must be >= 1, got {budget}$"):
        call(fixture_example_tree(), budget)


def test_alpha_base_cases():
    # A one-node forest has one outcome, with the empty product 1.
    leaf = ExplicitTree({}, roots=("v",))
    assert reference_alpha(leaf, 2, ImportanceInduced(UNIFORM)) == ([1], [])
    st = alpha_stats(leaf, 2, ImportanceInduced(UNIFORM))
    assert (st.mean, st.variance, st.max_value, st.level_max_product) == (1, 0, 1, 1)
    t = fixture_example_tree()
    ideal = ImportanceInduced(t.subtree_cost)
    alphas, _ = reference_alpha(t, 2, ideal)
    assert len(alphas) == 11 and all(a == 1 for a in alphas)
    assert alpha_stats(t, 2, ideal).max_value == 1


def test_alpha_on_worked_weighted_trajectory():
    # per-level factors: 1, (5/4)(8/11), 2*(3/6), 1  ->  10/11
    t = fixture_example_tree()
    w = fixture_example_importance()
    seq = (("a",), ("b", "c"), ("d", "e"), ("h", "i"), ("m",))
    # the reference lists alphas and sequences in the enumeration's
    # depth-first order
    od = enumerate_distribution(t, 2, ImportanceInduced(w))
    alphas, _ = reference_alpha(t, 2, ImportanceInduced(w))
    sequences = reference_sequences(t, 2, ImportanceInduced(w))
    assert len(alphas) == len(sequences) == len(od.outcomes)
    assert [a for s, a in zip(sequences, alphas) if s == seq] == [Fraction(10, 11)]


def test_alpha_rejects_nonpositive_weight():
    t = fixture_example_tree()
    bad = lambda node: -1.0 if node == "c" else 1.0
    with pytest.raises(NonpositiveWeight) as err:
        alpha_stats(t, 2, ImportanceInduced(bad))
    assert err.value.node == "c"


def test_alpha_stats_expectation_is_one():
    t = fixture_example_tree()
    for w in (UNIFORM, fixture_example_importance()):
        for budget in (1, 2, 3):
            st = alpha_stats(t, budget, ImportanceInduced(w))
            assert st.mean == 1


def test_alpha_stats_ideal_weight():
    t = fixture_example_tree()
    st = alpha_stats(t, 2, ImportanceInduced(t.subtree_cost))
    assert st.variance == 0
    assert st.max_value == 1
    assert st.level_max_product == 1


def test_alpha_bound_chain_fixture():
    t = fixture_example_tree()
    w = fixture_example_importance()
    for budget in (1, 2, 3):
        st = alpha_stats(t, budget, ImportanceInduced(w))
        cv2 = recursive_cv2(t, budget, ImportanceInduced(w))
        assert cv2 <= st.variance
        assert cv2 <= st.max_value - 1
        assert cv2 <= st.level_max_product - 1
        assert st.variance + st.mean ** 2 <= st.max_value * st.mean


def test_alpha_stats_beyond_enumeration():
    # 46 million hypernode sequences, far past verify's enumeration cap;
    # the recursion visits each state once.
    tree = LEDecisionTree(random_poset(8, 0.2, 2))
    dist = ImportanceInduced(importance_function(tree, "f3"))
    with pytest.raises(CapExceeded):
        count_sequences(tree, 2, max_sequences=20_000)
    st = alpha_stats(tree, 2, dist)
    assert st.mean == 1
    assert recursive_cv2(tree, 2, dist) <= st.variance <= st.max_value - 1 <= st.level_max_product - 1
    with pytest.raises(CapExceeded, match="more than 50 hypernode states"):
        alpha_stats(tree, 2, dist, max_states=50)


def reference_level_max_product(t, budget, weight):
    """The per-level alpha bound by a breadth-first pass over every
    reachable hypernode: each depth's largest single-step factor
    (r(S)/r(w)) * (c(w)/c(S)), multiplied over the depths."""
    wvalue = lambda x: Fraction(weight(x))
    subcost = reference_subtree_cost(t)
    product = Fraction(1)
    level = {t.root_hypernode}
    while level:
        nxt = set()
        level_max = None
        for nodes in level:
            succ = hypernode_successors(nodes, t)
            if not succ:
                continue
            r_all = sum(wvalue(x) for x in succ)
            c_all = sum(subcost(x) for x in succ)
            for sub in itertools.combinations(succ, min(budget, len(succ))):
                factor = (r_all / sum(wvalue(x) for x in sub)) * (sum(subcost(x) for x in sub) / c_all)
                if level_max is None or factor > level_max:
                    level_max = factor
                nxt.add(tuple(sorted(sub)))
        if level_max is not None:
            product *= level_max
        level = nxt
    return product


def test_level_max_product_matches_breadth_first_reference():
    cells = [(fixture_example_tree(), w) for w in (UNIFORM, fixture_example_importance())]
    for seed in range(12):
        t = random_tree(seed, max_depth=3, max_children=3)
        cells += [(t, UNIFORM), (t, lambda node: 1.0 + node % 3)]
    checked = 0
    for t, w in cells:
        for budget in (1, 2, 3):
            try:
                stats = alpha_stats(t, budget, ImportanceInduced(w))
            except ValueError:  # a zero-cost successor forest leaves alpha undefined
                continue
            assert stats.level_max_product == reference_level_max_product(t, budget, w)
            checked += 1
    assert checked >= 60


@st.composite
def weighted_forests(draw):
    """A random forest of up to 9 nodes with mixed costs and positive weights."""
    n = draw(st.integers(1, 9))
    children: dict = {}
    roots = [0]
    for i in range(1, n):
        parent = draw(st.integers(-1, i - 1))  # -1: one more root
        if parent < 0:
            roots.append(i)
        else:
            children.setdefault(parent, []).append(i)
    costs = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0)), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from((0.1, 0.5, 1.0, 3.0, 7.0)), min_size=n, max_size=n))
    return ExplicitTree(children, roots, dict(enumerate(costs))), weights.__getitem__


@settings(max_examples=150, deadline=None)
@given(forest=weighted_forests(), budget=st.integers(1, 3))
def test_enumeration_is_unbiased_on_random_forests(forest, budget):
    t, weight = forest
    cost = exact_forest_cost(t)  # dyadic costs: the float sum is exact
    for dist in (UniformHyperchild(), ImportanceInduced(weight)):
        od = enumerate_distribution(t, budget, dist)
        assert od.total_probability == 1
        assert od.mean == cost


def test_unbiasedness_on_random_explicit_trees():
    # narrow random trees keep the outcome space enumerable
    for i in range(6):
        t = random_tree(i, max_depth=3, max_children=3)
        cost = sum(map(t.subtree_cost, t.root_hypernode))
        for budget in (1, 2, 3):
            od = enumerate_distribution(t, budget, UniformHyperchild(), max_sequences=300_000)
            assert od.mean == cost


def test_unbiasedness_and_variance_on_small_posets():
    for seed in range(6):
        p = random_poset(5, 0.2, seed)
        tree = LEDecisionTree(p)
        exact = count_linear_extensions(p)
        for kind in ("uniform", "f1", "f2", "f3"):
            w = importance_function(tree, kind)
            for budget in (1, 2):
                od = enumerate_distribution(tree, budget, ImportanceInduced(w), max_sequences=300_000)
                assert od.mean == exact
                assert recursive_variance(tree, budget, ImportanceInduced(w), max_states=300_000) == od.variance


def test_ideal_distribution_enumerates_to_zero_variance():
    p = random_poset(6, 0.3, 3)
    tree = LEDecisionTree(p)
    od = enumerate_distribution(tree, 2, ImportanceInduced(importance_function(tree, "ideal")), max_sequences=300_000)
    assert od.mean == count_linear_extensions(p)
    assert od.variance == 0


def test_cost_split_identity_with_thirds():
    # a four-child node makes the divisor 3, exercising non-dyadic rationals
    t = ExplicitTree({"r": ("a", "b", "c", "d")}, roots=("r",),
                     costs={"r": 1.0, "a": 1.0, "b": 2.0, "c": 0.5, "d": 3.0})
    lhs, rhs = cost_split_identity(t, ("r",), 2)
    assert lhs == rhs == Fraction(13, 2)


def test_state_memo_equals_member_memo():
    # Nodes are states: a successor multiset can hold one state twice, and
    # hypernodes reached by different deletion orders share a memo entry.
    # On these posets both happen at budget 2, and the recursions still
    # equal enumeration, which has no value memo, and the reference.
    shared = 0
    for poset in (random_poset(4, 0.0, 0), random_poset(5, 0.15, 1)):
        tree = LEDecisionTree(poset)
        cost = count_linear_extensions(poset)
        sequences = reference_sequences(tree, 2, UniformHyperchild())
        od = enumerate_distribution(tree, 2, UniformHyperchild())
        assert count_sequences(tree, 2) == len(od.outcomes) == len(sequences)
        shared += any(len(set(h)) < len(h) for seq in sequences for h in seq)
        for kind in ("uniform", "f1", "f2", "f3", "ideal"):
            weight = importance_function(tree, kind)
            dist = ImportanceInduced(weight)
            _assert_enumeration_matches_reference(tree, 2, dist)
            _assert_recursions_match_reference(tree, 2, weight)
            variance = enumerate_distribution(tree, 2, dist).variance
            assert recursive_variance(tree, 2, dist) == variance
            assert recursive_cv2(tree, 2, dist) == variance / (cost * cost)
    assert shared == 2


def test_count_sequences_matches_enumeration_on_posets():
    checked = 0
    for seed in range(12):
        tree = LEDecisionTree(random_poset(5, 0.3, seed))
        for budget in (1, 2, 3):
            try:
                count = count_sequences(tree, budget, max_sequences=5000)
            except CapExceeded:
                continue
            assert len(enumerate_distribution(tree, budget, UniformHyperchild()).outcomes) == count
            with pytest.raises(CapExceeded, match=f"more than {count - 1} hypernode"):
                count_sequences(tree, budget, max_sequences=count - 1)
            checked += 1
    assert checked >= 20


def test_exact_computations_leave_no_cyclic_garbage():
    # A recursive closure that refers to itself keeps its memo alive until
    # the cycle collector runs; with the collector paused, each exact
    # computation must free everything it built on return.
    big = random_poset(22, 0.08, 1)
    tree = LEDecisionTree(random_poset(5, 0.2, 1))
    weight = importance_function(tree, "f2")
    calls = [
        lambda: count_linear_extensions(big),
        lambda: enumerate_distribution(tree, 2, ImportanceInduced(weight), max_sequences=200_000),
        lambda: recursive_variance(tree, 2, ImportanceInduced(weight)),
        lambda: recursive_cv2(tree, 2, ImportanceInduced(weight)),
        lambda: count_sequences(tree, 2),
        lambda: alpha_stats(tree, 2, ImportanceInduced(weight)),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_expands_each_hypernode_once(monkeypatch):
    calls = Counter()
    expand = analysis._expand

    def spy(t, nodes, *args):
        calls[nodes] += 1
        return expand(t, nodes, *args)

    monkeypatch.setattr(analysis, "_expand", spy)
    tree = LEDecisionTree(random_poset(5, 0.2, 1))
    dist = ImportanceInduced(importance_function(tree, "f2"))
    enumerate_distribution(tree, 2, dist)
    visits = [h for seq in reference_sequences(tree, 2, dist) for h in seq]
    assert set(calls) == set(visits) and len(visits) > len(calls)
    assert set(calls.values()) == {1}


def _assert_enumeration_matches_reference(t, budget, dist):
    """Outcomes in order and moments equal the Fraction reference exactly,
    and so do alpha's moments, maximum and level product (see
    ``_assert_alpha_matches_reference``)."""
    outcomes, mean, variance, total_p, _ = reference_enumeration(t, budget, dist)
    od = enumerate_distribution(t, budget, dist)
    assert list(od.outcomes) == [(p, e) for p, e, _ in outcomes]
    assert (od.mean, od.variance, od.total_probability) == (mean, variance, total_p)
    assert all(type(x) is Fraction for o in od.outcomes for x in o)
    _assert_alpha_matches_reference(t, budget, dist, [p for p, _, _ in outcomes])


def _assert_alpha_matches_reference(t, budget, dist, probabilities):
    """``alpha_stats`` equals the moments, maximum and level product of the
    reference's per-outcome alphas (probability-ratio form) exactly; a
    zero-cost successor forest fails in both.  Under ``ImportanceInduced``
    the reference's r-ratio form gives the same alphas and level maxima."""
    try:
        alphas, level_max = reference_alpha(t, budget, dist)
    except ZeroDivisionError:
        with pytest.raises(AlphaUndefined):
            alpha_stats(t, budget, dist)
        return
    if type(dist) is ImportanceInduced:
        outcomes, *_, r_level_max = reference_enumeration(t, budget, dist, dist.weight)
        assert ([a for _, _, a in outcomes], r_level_max) == (alphas, level_max)
    mean = sum(p * a for p, a in zip(probabilities, alphas))
    variance = sum(p * (a - mean) ** 2 for p, a in zip(probabilities, alphas))
    stats = alpha_stats(t, budget, dist)
    assert (stats.mean, stats.variance, stats.max_value, stats.level_max_product) == (
        mean, variance, max(alphas), math.prod(level_max, start=Fraction(1)),
    )
    assert all(type(x) is Fraction for x in (stats.mean, stats.variance, stats.max_value, stats.level_max_product))


def _assert_recursions_match_reference(t, budget, weight):
    dist = ImportanceInduced(weight)
    assert recursive_variance(t, budget, dist) == reference_variance(t, budget, weight)
    try:
        expected = reference_cv2(t, budget, weight)
    except ValueError:  # a zero-cost forest
        with pytest.raises(ValueError):
            recursive_cv2(t, budget, dist)
    else:
        assert recursive_cv2(t, budget, dist) == expected


@st.composite
def scaled_forests(draw):
    """A random forest of up to 9 nodes with dyadic costs (zero included)
    and weights that are not dyadic (0.1, 1/3) or far apart in scale."""
    n = draw(st.integers(1, 9))
    children: dict = {}
    roots = [0]
    for i in range(1, n):
        parent = draw(st.integers(-1, i - 1))  # -1: one more root
        if parent < 0:
            roots.append(i)
        else:
            children.setdefault(parent, []).append(i)
    costs = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0, 2.0**-40)), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from((0.1, 1 / 3, 0.5, 1.0, 7.0, 1e-300, 1e300)), min_size=n, max_size=n))
    return ExplicitTree(children, roots, dict(enumerate(costs))), weights.__getitem__


@settings(max_examples=150, deadline=None)
@given(forest=scaled_forests(), budget=st.integers(1, 3))
def test_exact_analysis_matches_fraction_reference_on_random_forests(forest, budget):
    t, weight = forest
    _assert_enumeration_matches_reference(t, budget, UniformHyperchild())
    _assert_enumeration_matches_reference(t, budget, ImportanceInduced(weight))
    _assert_recursions_match_reference(t, budget, weight)


def test_exact_analysis_matches_fraction_reference_on_verify_posets():
    # the instance set of `verify --max-n 5 --posets 16 --max-sequences 200`
    cells = 0
    for poset in enumerable_posets(16, DEFAULT_SEED, 5, (1, 2, 3), 200):
        tree = LEDecisionTree(poset)
        for kind in ("uniform", "f1", "f2", "f3", "ideal"):
            weight = importance_function(tree, kind)
            for budget in (1, 2, 3):
                _assert_enumeration_matches_reference(tree, budget, ImportanceInduced(weight))
                _assert_recursions_match_reference(tree, budget, weight)
                cells += 1
        for budget in (1, 2, 3):
            _assert_enumeration_matches_reference(tree, budget, UniformHyperchild())
    assert cells == 16 * 5 * 3


def test_exact_analysis_matches_fraction_reference_on_thirds():
    # Probabilities 1/3 and 2/3 make every D factor and total non-dyadic.
    t = fixture_example_tree()
    dist = ExplicitDistribution({
        ("b", "c"): [(("b",), "1/3"), (("c",), "2/3")],
        ("d",): [(("d",), 1)],
        ("e", "f"): [(("e",), "2/3"), (("f",), "1/3")],
        ("g",): [(("g",), 1)],
        ("h", "i"): [(("h",), "1/3"), (("i",), "2/3")],
        ("j",): [(("j",), 1)],
        ("k", "l"): [(("k",), "2/3"), (("l",), "1/3")],
        ("m",): [(("m",), 1)],
        ("n",): [(("n",), 1)],
    })
    od = enumerate_distribution(t, 1, dist)
    assert od.total_probability == 1 and od.mean == 14
    assert {p.denominator for p, _ in od.outcomes} == {9, 27}
    _assert_enumeration_matches_reference(t, 1, dist)


def _assert_uniform_draw_analysis(t, budget) -> bool:
    """Under the uniform draw both recursions equal the enumeration's
    variance and variance / cost^2, and E[alpha] is 1, exactly.  False
    when a zero-cost forest leaves CV^2 undefined."""
    dist = UniformHyperchild()
    od = enumerate_distribution(t, budget, dist)
    assert recursive_variance(t, budget, dist) == od.variance
    try:
        cv2 = recursive_cv2(t, budget, dist)
    except ValueError:  # a reachable forest of zero cost
        cv2 = None
    else:
        assert cv2 == od.variance / (od.mean * od.mean)
    try:
        stats = alpha_stats(t, budget, dist)
    except AlphaUndefined:  # its zero-cost successor forest is a reachable candidate
        assert cv2 is None
    else:
        assert stats.mean == 1
    return cv2 is not None


@settings(max_examples=150, deadline=None)
@given(forest=scaled_forests(), budget=st.integers(1, 3))
def test_uniform_draw_recursions_and_alpha_on_random_forests(forest, budget):
    _assert_uniform_draw_analysis(forest[0], budget)


def test_uniform_draw_recursions_and_alpha_on_verify_posets():
    # the instance set of `verify --max-n 5 --posets 16 --max-sequences 200`
    cells = 0
    for poset in enumerable_posets(16, DEFAULT_SEED, 5, (1, 2, 3), 200):
        tree = LEDecisionTree(poset)
        for budget in (1, 2, 3):
            cells += _assert_uniform_draw_analysis(tree, budget)
    assert cells == 16 * 3
