"""Forest oracle basics: hypernodes, costs, traversal, candidate sets."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from explicit_distribution import RecordingDistribution

from stochenum.analysis import alpha_stats, cost_split_identity, recursive_cv2, recursive_variance
from stochenum.errors import CapExceeded
from stochenum.estimators import ImportanceInduced, UniformHyperchild, sep_estimate
from stochenum.sampling import ScriptedChoice
from stochenum.tree import (
    EXAMPLE_IMPORTANCE_LABELS,
    ExplicitTree,
    TreeOracle,
    exact_forest_cost,
    fixture_example_importance,
    fixture_example_tree,
    hypernode_successors,
)
from stochenum.verify import random_tree


def bfs_level_cost(t):
    """Independent traversal order: sum costs level by level."""
    total = 0.0
    level = list(t.root_hypernode)
    while level:
        total += sum(t.cost(v) for v in level)
        level = [w for v in level for w in t.successors(v)]
    return total


def all_nodes(t):
    out = []
    stack = list(t.root_hypernode)
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(t.successors(node))
    return out


def test_root_hypernode_is_the_sorted_root_tuple():
    t = ExplicitTree({"a": ("x",)}, roots=("c", "a", "b"))
    assert t.root_hypernode == ("a", "b", "c")
    assert fixture_example_tree().root_hypernode == ("a",)
    # the exact traversal and the walk both start from the sorted roots
    assert exact_forest_cost(t) == 4.0
    traj = sep_estimate(t, 3, UniformHyperchild(), ScriptedChoice([("subset", ("x",))]))
    assert traj.estimate == 4.0


def test_fixture_tree_shape():
    t = fixture_example_tree()
    assert sorted(all_nodes(t)) == sorted(EXAMPLE_IMPORTANCE_LABELS)
    assert t.successors("a") == ("b", "c")
    assert t.successors("h") == ()
    assert exact_forest_cost(t) == 14.0


def test_hypernode_cost_examples():
    # The walk charges each level the mean member cost of its hypernode,
    # times the running product D.
    t = fixture_example_tree()
    script = ScriptedChoice([
        ("subset", ("b", "c")), ("subset", ("d", "e")), ("subset", ("h", "i")), ("subset", ("m",)),
    ])
    dist = RecordingDistribution(UniformHyperchild())
    traj = sep_estimate(t, 2, dist, script)
    assert [len(chosen) for _, chosen in dist.draws] == [2, 2, 2, 1]
    assert traj.estimate == 1.0 + sum(traj.d_products)
    synth = ExplicitTree({"r": ("d", "e")}, roots=("r",), costs={"d": 2.5, "e": 0.0, "r": 1.0})
    dist = RecordingDistribution(UniformHyperchild())
    traj = sep_estimate(synth, 2, dist, ScriptedChoice([("subset", ("d", "e"))]))
    assert sorted(dist.draws[0][1]) == ["d", "e"]
    assert traj.d_products == (2.0,)
    assert traj.estimate == 1.0 + 1.25 * 2.0


def test_hypernode_successors_examples():
    t = fixture_example_tree()
    assert hypernode_successors(("b", "c"), t) == ("d", "e", "f")
    assert hypernode_successors(("d", "e"), t) == ("g", "h", "i")
    leaves = ("k", "l", "m", "n")
    assert hypernode_successors(leaves, t) == ()


class _SharedChild(TreeOracle):
    """Two roots that reach one state "z", as two deletion orders of a
    decision tree reach one node."""

    _children = {"x": ("z", "w"), "y": ("z",)}

    @property
    def root_hypernode(self):
        return ("x", "y")

    def successors(self, node):
        return self._children.get(node, ())

    def cost(self, node):
        return 2.0 if node == "z" else 1.0


def test_hypernode_successors_keep_a_shared_child():
    t = _SharedChild()
    assert hypernode_successors(t.root_hypernode, t) == ("z", "w", "z")
    assert hyperchildren(t.root_hypernode, t, 2) == [("w", "z"), ("z", "z"), ("w", "z")]
    # the shared child is two candidates, so the forest below the root costs 5
    assert cost_split_identity(t, t.root_hypernode, 2) == (5, 5)


def test_successors_deterministic():
    t = fixture_example_tree()
    h = ("b", "c")
    assert hypernode_successors(h, t) == hypernode_successors(h, t)
    assert t.successors("e") == t.successors("e")


def hyperchildren(h, t, budget):
    """Every candidate next hypernode, as the exact analysis enumerates them."""
    return [nodes for nodes, _ in UniformHyperchild().support(hypernode_successors(h, t), budget)]


def test_hyperchildren_examples():
    t = fixture_example_tree()
    assert hyperchildren(("b", "c"), t, 2) == [("d", "e"), ("d", "f"), ("e", "f")]
    assert hyperchildren(("a",), t, 2) == [("b", "c")]
    assert hypernode_successors(("k",), t) == ()


def test_hyperchildren_sizes_and_counts():
    t = fixture_example_tree()
    for nodes in (("a",), ("b", "c"), ("d", "e"), ("e", "f")):
        succ = hypernode_successors(nodes, t)
        for budget in (1, 2, 3):
            support = list(UniformHyperchild().support(succ, budget))
            take = min(budget, len(succ))
            assert len(support) == math.comb(len(succ), take)
            assert all(len(w) == take for w, _ in support)
            assert sum(p for _, p in support) == 1


def test_exact_forest_cost_traversal_orders_agree():
    t = fixture_example_tree()
    assert exact_forest_cost(t) == bfs_level_cost(t)
    for i in range(8):
        rt = random_tree(i)
        assert exact_forest_cost(rt) == pytest.approx(bfs_level_cost(rt), rel=1e-12)


def test_exact_forest_cost_height_zero():
    t = ExplicitTree({}, roots=("v",), costs={"v": 3.25})
    assert exact_forest_cost(t) == 3.25


def test_exact_forest_cost_node_cap():
    t = fixture_example_tree()
    with pytest.raises(CapExceeded):
        exact_forest_cost(t, max_nodes=5)


def test_explicit_tree_rejects_shared_children():
    with pytest.raises(ValueError):
        ExplicitTree({"a": ("c",), "b": ("c",)}, roots=("a", "b"))


@pytest.mark.parametrize("roots", [(), []])
def test_explicit_tree_rejects_an_empty_root_set(roots):
    # No roots would be a forest whose estimates divide by zero while its
    # recursions read variance 0 and one sequence.
    with pytest.raises(ValueError, match="^a forest needs at least one root$"):
        ExplicitTree({}, roots=roots)
    with pytest.raises(ValueError, match="at least one root"):
        ExplicitTree({"a": ("b",)}, roots=roots, costs={"a": 1.0})


def test_subtree_cost_matches_manual():
    t = fixture_example_tree()
    assert t.subtree_cost("a") == 14
    assert t.subtree_cost("c") == 8
    assert t.subtree_cost("h") == 1
    assert t.subtree_cost("e") == 4
    assert type(t.subtree_cost("a")) is int
    # exact where the float sum rounds
    t = ExplicitTree({"r": ("a",)}, roots=("r",), costs={"r": 0.1, "a": 0.2})
    assert t.subtree_cost("r") == Fraction(0.1) + Fraction(0.2) != 0.1 + 0.2
    assert type(t.subtree_cost("r")) is Fraction


class _CountingTree(ExplicitTree):
    """The example tree, counting ``successors`` calls per node."""

    def __init__(self):
        fixture = fixture_example_tree()
        super().__init__({v: fixture.successors(v) for v in "abcdefghijklmn"}, roots=("a",))
        self.calls = Counter()

    def successors(self, node):
        self.calls[node] += 1
        return super().successors(node)


def test_analyses_share_one_subtree_cost_pass():
    # The variance, CV^2 and alpha recursions on one oracle read its one
    # memo: against an oracle whose memo is already full, they expand each
    # node exactly once more, in the single post-order pass.
    def analyses(t):
        dist = ImportanceInduced(fixture_example_importance())
        recursive_variance(t, 2, dist)
        recursive_cv2(t, 2, dist)
        alpha_stats(t, 2, dist)

    cold, warm = _CountingTree(), _CountingTree()
    warm.subtree_cost("a")
    warm.calls.clear()
    analyses(cold)
    analyses(warm)
    assert cold.calls == warm.calls + Counter("abcdefghijklmn")


def test_fixture_importance_labels_are_leaf_counts():
    t = fixture_example_tree()
    w = fixture_example_importance()

    def leaves_below(node):
        kids = t.successors(node)
        if not kids:
            return 1
        return sum(leaves_below(k) for k in kids)

    for node in all_nodes(t):
        assert w(node) == leaves_below(node)
    assert EXAMPLE_IMPORTANCE_LABELS["a"] == 5
    assert EXAMPLE_IMPORTANCE_LABELS["h"] == 1


def test_cost_split_identity_on_fixture_and_random_trees():
    t = fixture_example_tree()
    for nodes in (("a",), ("b", "c"), ("d", "e"), ("e", "f"), ("d", "f")):
        for budget in (1, 2, 3):
            lhs, rhs = cost_split_identity(t, nodes, budget)
            assert lhs == rhs
    # random trees with mixed costs, including zero-cost nodes
    for i in range(10):
        rt = random_tree(i)
        for node in all_nodes(rt):
            lhs, rhs = cost_split_identity(rt, (node,), 2)
            assert lhs == rhs
            assert isinstance(lhs, Fraction)
