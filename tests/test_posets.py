"""Posets, decision trees, importance functions, exact counters, file format."""

import hashlib
import math
import os
import random
import tempfile
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochenum import posets
from stochenum.analysis import enumerate_distribution
from stochenum.errors import CapExceeded
from stochenum.estimators import ImportanceInduced, UniformHyperchild
from stochenum.posets import (
    IMPORTANCE_KINDS,
    LEDecisionTree,
    Poset,
    PosetFormatError,
    count_linear_extensions,
    fixture_poset,
    importance_function,
    load_poset,
    random_poset,
    save_poset,
)
from stochenum.sampling import derive_seed
from stochenum.tree import exact_forest_cost

GOLDEN_N40_SEED7_SHA256 = "6eec7ea24ef25f890aa65a83227e9175dfe58b83d46d34a214d9fc68094e4dfa"
GOLDEN_N40_SEED7_RELATIONS = 569


def all_extensions(tree):
    """Every root-to-leaf deletion order, by explicit traversal; a node
    holds only its last element, so the traversal carries the path."""
    out = []
    stack = [((), ((), 0))]
    while stack:
        path, node = stack.pop()
        kids = tree.successors(node)
        if not kids:
            out.append(path)
        else:
            stack.extend((path + kid[0], kid) for kid in kids)
    return out


def test_from_relations_closure():
    p = Poset.from_relations(3, [(0, 1), (1, 2)])
    assert p.greater(0, 2)
    assert p.relation_pairs() == [(0, 1), (0, 2), (1, 2)]
    assert p.cover_pairs() == [(0, 1), (1, 2)]


def test_cycle_detection():
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_relations(2, [(0, 1), (1, 0)])


def test_constructor_validation():
    with pytest.raises(ValueError, match="irreflexive"):
        Poset(2, [0b01, 0b00])
    with pytest.raises(ValueError, match="transitively"):
        Poset(3, [0b010, 0b100, 0b000])


def test_random_poset_extremes():
    anti = random_poset(5, 0.0, 1)
    assert anti.relation_pairs() == []
    chain = random_poset(5, 1.0, 1)
    assert all(chain.greater(i, j) for i in range(5) for j in range(i + 1, 5))
    assert count_linear_extensions(anti) == math.factorial(5)
    assert count_linear_extensions(chain) == 1


def test_random_poset_golden_file(tmp_path):
    p = random_poset(40, 0.2, 7)
    assert len(p.relation_pairs()) == GOLDEN_N40_SEED7_RELATIONS
    path = tmp_path / "p40.poset"
    save_poset(p, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_N40_SEED7_SHA256
    assert random_poset(40, 0.2, 7) == p


def test_fixture_poset_counts():
    p = fixture_poset()
    assert count_linear_extensions(p) == 7
    assert exact_forest_cost(LEDecisionTree(p)) == 7.0


def test_dp_matches_tree_traversal_on_many_posets():
    for i in range(200):
        n = 2 + i % 8  # 2..9
        p = random_poset(n, 0.2, derive_seed(1234, i))
        tree = LEDecisionTree(p)
        assert count_linear_extensions(p) == int(exact_forest_cost(tree))


def test_dp_cap():
    with pytest.raises(CapExceeded):
        count_linear_extensions(random_poset(25, 0.5, 1))
    # The cap is on the whole poset, however cheap its components are.
    with pytest.raises(CapExceeded):
        count_linear_extensions(Poset(25, [0] * 25))


def disjoint_union(parts, relabel_seed):
    """The parts side by side, elements shuffled by a seeded permutation."""
    n = sum(part.n for part in parts)
    label = list(range(n))
    random.Random(relabel_seed).shuffle(label)
    pairs = []
    offset = 0
    for part in parts:
        pairs += [(label[offset + i], label[offset + j]) for i, j in part.relation_pairs()]
        offset += part.n
    return Poset.from_relations(n, pairs)


@settings(max_examples=100, deadline=None)
@given(
    parts=st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from((0.0, 0.2, 0.5, 1.0)), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=4,
    ).filter(lambda parts: sum(size for size, _, _ in parts) <= 9),
    relabel_seed=st.integers(0, 2**32 - 1),
)
def test_dp_matches_tree_traversal_on_disjoint_unions(parts, relabel_seed):
    poset = disjoint_union([random_poset(*part) for part in parts], relabel_seed)
    assert count_linear_extensions(poset) == int(exact_forest_cost(LEDecisionTree(poset)))


def test_dp_closed_forms_on_split_posets():
    start = time.perf_counter()
    assert count_linear_extensions(Poset(24, [0] * 24)) == math.factorial(24)
    assert time.perf_counter() - start < 0.5
    sizes = (3, 5, 7, 2, 1)
    chains = [random_poset(size, 1.0, 0) for size in sizes]
    expected = math.factorial(sum(sizes))
    for size in sizes:
        expected //= math.factorial(size)
    assert count_linear_extensions(disjoint_union(chains, 11)) == expected


@pytest.mark.parametrize("n, p, seed, count", [
    (24, 0.05, 1, 4916368352854506240),
    (24, 0.05, 2, 39420146041436160000),
    (24, 0.05, 3, 2196010846495065600),
    (22, 0.1, 1, 2134272879372480),
    (22, 0.1, 2, 53574911264160),
    (22, 0.1, 3, 3995920872959400),
])
def test_dp_golden_counts_on_sparse_posets(n, p, seed, count):
    # Recorded from the whole-poset deleted-set DP before the per-component split.
    assert count_linear_extensions(random_poset(n, p, seed)) == count


def test_decision_tree_structure():
    p = fixture_poset()
    tree = LEDecisionTree(p)
    root = ((), 0)
    kids = tree.successors(root)
    # two maximal elements at the top
    assert [k[0][-1] for k in kids] == [0, 1]
    assert tree.cost(root) == 0.0
    assert tree.subtree_cost(root) == 7


def test_decision_tree_paths_are_valid_extensions():
    for seed in (0, 1, 2):
        p = random_poset(5, 0.3, seed)
        tree = LEDecisionTree(p)
        exts = all_extensions(tree)
        assert len(exts) == count_linear_extensions(p)
        assert len(set(exts)) == len(exts)
        for order in exts:
            assert sorted(order) == list(range(5))
            pos = {e: i for i, e in enumerate(order)}
            for i in range(5):
                for j in range(5):
                    if p.greater(i, j):
                        assert pos[i] < pos[j]


def test_features_match_structure():
    # The f-weights of the root's children read (siblings, descendants, height).
    p = fixture_poset()
    tree = LEDecisionTree(p)
    kids = tree.maximal_after(0)
    sib, height, desc = len(kids), p.n - 1, p.descendant_counts()
    assert sib == len(tree.successors(((), 0)))
    assert all(1 <= desc[e] <= height + 1 for e in kids)
    values = {kind: importance_function(tree, kind).child_values(0, kids) for kind in ("f1", "f2", "f3")}
    assert values["f1"] == [float(sib ** 3)] * sib
    assert values["f2"] == [float(sib ** 3 * desc[e]) for e in kids]
    assert values["f3"] == [sib ** 3 * (height + desc[e]) / max(1, height - desc[e]) for e in kids]


def test_height_ratio_weight_spot_value():
    # sib^3 * (height + desc) / (height - desc) at sib 3, desc 2, height 5:
    # after deleting 2, the maximal elements are 0, 3 and 5, each above
    # one element, and a child sits at depth 2 of 7.
    p = Poset.from_relations(7, [(0, 1), (3, 4), (5, 6)])
    tree = LEDecisionTree(p)
    w = importance_function(tree, "f3")
    mask = 1 << 2
    kids = tree.maximal_after(mask)
    assert kids == (0, 3, 5)
    assert w.child_values(mask, kids) == [63.0, 63.0, 63.0]
    assert w.guard_hits == 0 and w.evaluations == 3
    assert w(((0,), mask | 1)) == 63.0
    assert w.guard_hits == 0 and w.evaluations == 4


def test_height_ratio_guard_on_chain():
    # chain poset: the first deletion has desc = n > height, hitting the guard
    p = random_poset(3, 1.0, 1)
    tree = LEDecisionTree(p)
    w = importance_function(tree, "f3")
    node = ((0,), 1)
    value = w(node)
    assert value == 1.0 * (2 + 3) / 1
    assert w.guard_hits == 1 and w.evaluations == 1


def naive_maximal_after(poset, deleted):
    remaining = ((1 << poset.n) - 1) & ~deleted
    return tuple(
        e for e in range(poset.n)
        if remaining >> e & 1 and poset.above[e] & remaining == 0
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from((1, 7, 8, 9, 17, 40, 64, 65, 70)),
    p=st.sampled_from((0.0, 0.05, 0.2, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(0, 2**70 - 1),
)
def test_maximal_after_matches_naive_definition(n, p, seed, bits):
    poset = random_poset(n, p, seed)
    tree = LEDecisionTree(poset)
    picked = bits & ((1 << n) - 1)
    upset = picked
    for e in range(n):
        if picked >> e & 1:
            upset |= poset.above[e]
    # Deleted sets in a walk are up-sets; the tables hold for any set.
    for deleted in (upset, picked, 0, (1 << n) - 1):
        assert tree.maximal_after(deleted) == naive_maximal_after(poset, deleted)


def test_child_values_match_node_weights():
    poset = random_poset(9, 0.2, 4)
    tree = LEDecisionTree(poset)
    level = [((), 0)]
    nodes = []
    while level:
        level = [c for v in level for c in tree.successors(v)][:60]
        nodes += level
    for kind in ("uniform", "f1", "f2", "f3", "ideal"):
        w_batch = importance_function(tree, kind)
        w_node = importance_function(tree, kind)
        for _, mask in [((), 0)] + nodes:
            kids = tree.maximal_after(mask)
            children = [((e,), mask | (1 << e)) for e in kids]
            assert w_batch.child_values(mask, kids) == [w_node(c) for c in children]
        if kind == "f3":
            assert w_batch.evaluations == w_node.evaluations > 0
            assert w_batch.guard_hits == w_node.guard_hits


def _tree_nodes(tree, limit=400):
    """The first ``limit`` nodes of a decision tree, breadth first."""
    nodes = [((), 0)]
    for node in nodes:
        if len(nodes) >= limit:
            break
        nodes += tree.successors(node)
    return nodes[:limit]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 9),
    p=st.sampled_from((0.05, 0.2, 0.4)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_weights_do_not_depend_on_evaluation_order(n, p, seed, data):
    # Weights are pure functions of the node: a tree and weight that have
    # already evaluated other masks, in shuffled order, give every value a
    # fresh pair gives.  The mask walk's expansion cache and the
    # hypernode memo of the exact recursions both rely on this.
    poset = random_poset(n, p, seed)
    nodes = _tree_nodes(LEDecisionTree(poset))
    warm_order = data.draw(st.permutations(nodes), label="warm-up order")
    targets = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=8), label="targets")
    for kind in ("f1", "f2", "f3", "ideal"):
        warm_tree = LEDecisionTree(poset)
        warm = importance_function(warm_tree, kind)
        for tail, mask in warm_order:
            warm.child_values(mask, warm_tree.maximal_after(mask))
            if tail:
                warm((tail, mask))
        for tail, mask in targets:
            fresh_tree = LEDecisionTree(poset)
            fresh = importance_function(fresh_tree, kind)
            kids = fresh_tree.maximal_after(mask)
            assert warm.child_values(mask, kids) == fresh.child_values(mask, kids), (kind, mask)
            if tail:
                fresh = importance_function(LEDecisionTree(poset), kind)
                assert warm((tail, mask)) == fresh((tail, mask)), (kind, tail, mask)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    p=st.sampled_from((0.05, 0.2, 0.4)),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(IMPORTANCE_KINDS),
    budget=st.integers(1, 5),
)
def test_expansion_cap_changes_no_output(n, p, seed, kind, budget):
    # A cache entry is a pure function of its mask, so clearing the cache
    # changes no estimate and no f3 counter.  Each run misses at least
    # twice (its root and a leaf), so at cap 1 every run clears the cache:
    # in the uniform branch (weight None) and in the weighted one.
    poset = random_poset(n, p, seed)
    results = []
    for cap in (1, 3, posets.EXPANSION_CAP):
        with mock.patch.object(posets, "EXPANSION_CAP", cap):
            tree = LEDecisionTree(poset)
            weight = None if kind == "uniform" else importance_function(tree, kind)
            estimates = tree.fast_run_block(budget, weight, seed, 0, 70)
        counters = (weight.evaluations, weight.guard_hits) if kind == "f3" else None
        results.append(([x.hex() for x in estimates], counters))
    assert results[0] == results[1] == results[2]


def test_walk_memory_is_bounded_per_block():
    # Once a block passes the cap, more runs add no cache memory: the
    # tracemalloc peak of 4R runs stays near that of R runs (an unbounded
    # cache grows about 4x).  A lowered cap keeps the test short; 16 runs
    # visit about 2,800 distinct masks here.
    poset = random_poset(40, 0.05, 1)

    def peak(runs):
        tree = LEDecisionTree(poset)
        weight = importance_function(tree, "f3")
        tracemalloc.start()
        try:
            tree.fast_run_block(5, weight, 1, 0, runs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with mock.patch.object(posets, "EXPANSION_CAP", 2048):
        assert peak(64) <= 1.25 * peak(16)


def test_importance_kind_aliases_and_unknown():
    p = fixture_poset()
    tree = LEDecisionTree(p)
    node = tree.successors(((), 0))[0]
    assert importance_function(tree, "1")(node) == importance_function(tree, "f1")(node)
    assert importance_function(tree, "uniform")(node) == 1.0
    with pytest.raises(ValueError):
        importance_function(tree, "f9")


def test_sibling_cubed_equals_uniform_at_budget_one():
    # one choice point per step means the sibling count cancels
    for seed in (1, 4):
        p = random_poset(5, 0.25, seed)
        tree = LEDecisionTree(p)
        f1 = importance_function(tree, "f1")
        od_f1 = enumerate_distribution(tree, 1, ImportanceInduced(f1), max_sequences=200_000)
        od_u = enumerate_distribution(tree, 1, UniformHyperchild(), max_sequences=200_000)
        probs_f1 = {o.sequence: o.probability for o in
                    enumerate_distribution(tree, 1, ImportanceInduced(f1), keep_sequences=True,
                                           max_sequences=200_000).outcomes}
        probs_u = {o.sequence: o.probability for o in
                   enumerate_distribution(tree, 1, UniformHyperchild(), keep_sequences=True,
                                          max_sequences=200_000).outcomes}
        assert probs_f1 == probs_u
        assert od_f1.mean == od_u.mean
        assert od_f1.variance == od_u.variance


def test_ideal_weight_is_subtree_count():
    p = fixture_poset()
    tree = LEDecisionTree(p)
    w = importance_function(tree, "ideal")
    assert w(((), 0)) == 7.0
    for child in tree.successors(((), 0)):
        assert w(child) == tree.completions(child[1])


def leaf_count(tree, node):
    """Leaves of the subtree under ``node``, by plain traversal."""
    kids = tree.successors(node)
    return sum(leaf_count(tree, kid) for kid in kids) if kids else 1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    p=st.sampled_from((0.0, 0.15, 0.3, 0.6)),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 7), max_size=8),
)
def test_completions_match_leaf_count(n, p, seed, picks):
    tree = LEDecisionTree(random_poset(n, p, seed))
    node = ((), 0)
    path = [node]
    for pick in picks:
        kids = tree.successors(node)
        if not kids:
            break
        node = kids[pick % len(kids)]
        path.append(node)
    # deepest first, so no answer comes from a memo the root filled
    for node in reversed(path):
        assert tree.completions(node[1]) == leaf_count(tree, node)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), p=st.sampled_from((0.0, 0.05, 0.2, 0.3, 0.5, 1.0)), seed=st.integers(0, 2**32 - 1))
@example(n=9, p=0.3, seed=12)
def test_poset_file_round_trip(n, p, seed):
    poset = random_poset(n, p, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.poset")
        save_poset(poset, path)
        assert load_poset(path) == poset


def test_poset_file_closure_and_comments(tmp_path):
    path = tmp_path / "chain.poset"
    path.write_text("# chain on three elements\n3\n0 1\n\n1 2  # covers only\n")
    p = load_poset(path)
    assert p.greater(0, 2)
    assert p == Poset.from_relations(3, [(0, 1), (1, 2)])


def test_poset_file_antichain(tmp_path):
    path = tmp_path / "anti.poset"
    path.write_text("4\n")
    p = load_poset(path)
    assert p.relation_pairs() == []
    assert count_linear_extensions(p) == 24


def test_poset_file_errors(tmp_path):
    cases = [
        ("3\n0 1\n1 0\n", "cycle"),
        ("3\n0\n", "expected"),
        ("3\n0 x\n", "non-integer"),
        ("3\n0 7\n", "outside"),
        ("x\n", "not an integer"),
        ("", "no element count"),
    ]
    for i, (text, match) in enumerate(cases):
        path = tmp_path / f"bad{i}.poset"
        path.write_text(text)
        with pytest.raises(PosetFormatError, match=match):
            load_poset(path)


def test_poset_file_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.poset"
    path.write_text("# header\n3\n0 1\nnope nope\n")
    with pytest.raises(PosetFormatError) as err:
        load_poset(path)
    assert err.value.line_no == 4


def test_writer_emits_transitive_reduction(tmp_path):
    p = Poset.from_relations(3, [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "r.poset"
    save_poset(p, path)
    body = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    assert body == ["3", "0 1", "1 2"]
