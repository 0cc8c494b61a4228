"""Implicit rooted forests: node costs, hypernodes, and exact traversal.

A forest is given by an oracle: a set of root nodes, a successor function,
and a per-node cost.  Estimators and analysis code only ever see this
interface, so the same machinery runs on explicit in-memory trees and on
combinatorial decision trees that are never materialized.

Node references are opaque to this module.  They must be hashable and
totally ordered within one oracle.  A reference is a node's state, not
its path: two nodes reached by different paths may share one reference,
and equal references must have equal costs, equal subtrees (successor
references, in order) and equal weights under every weight function
used with the oracle.  A hypernode is therefore a multiset of
references, held as their sorted tuple, and the exact analysis memoizes
on that tuple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Sequence

from .errors import CapExceeded

NodeRef = Hashable

DEFAULT_NODE_CAP = 10_000_000


class TreeOracle:
    """Read-only description of a finite rooted forest.

    Subclasses implement ``successors`` and ``cost``.  Both must be
    deterministic pure functions of the node reference; estimator workers
    share one oracle instance across threads and processes.
    """

    @property
    def root_hypernode(self) -> tuple:
        """The root references as one hypernode: a sorted tuple."""
        raise NotImplementedError

    def successors(self, node) -> Sequence:
        """Children of ``node`` in a fixed oracle-defined order."""
        raise NotImplementedError

    def cost(self, node) -> float:
        raise NotImplementedError

    def subtree_cost(self, node) -> int | Fraction:
        """Exact cost of the full subtree under ``node``, each float cost
        read as the rational it denotes: an int when whole, else a
        Fraction.

        Memoized on the oracle, so every caller shares one entry per
        node; an iterative post-order pass fills it, so deep trees cannot
        blow the interpreter recursion limit.  Subclasses with an exact
        counter of their own (decision trees) override it.  As a bound
        method it pickles with the oracle and its memo, so it can serve
        as a weight in worker processes.
        """
        memo = vars(self).setdefault("_subtree_costs", {})
        v = memo.get(node)
        if v is not None:
            return v
        stack = [(node, None)]
        while stack:
            cur, children = stack.pop()
            if children is not None:
                v = sum((memo[c] for c in children), Fraction(self.cost(cur)))
                # whole costs as ints, which the walk's draw sums fast
                memo[cur] = v.numerator if v.denominator == 1 else v
            elif cur not in memo:
                children = self.successors(cur)
                stack.append((cur, children))
                stack.extend((c, None) for c in children if c not in memo)
        return memo[node]


def hypernode_successors(h: Sequence, t: TreeOracle) -> tuple:
    """Successor multiset of a hypernode's members, member order then
    child order; a child two members share appears twice."""
    out = []
    for v in h:
        out += t.successors(v)
    return tuple(out)


def exact_forest_cost(t: TreeOracle, max_nodes: int = DEFAULT_NODE_CAP) -> float:
    """Sum of node costs over the whole forest.

    Deterministic depth-first traversal with an explicit stack, so deep
    decision trees cannot blow the interpreter recursion limit.  Raises
    CapExceeded after ``max_nodes`` visits.
    """
    total = 0.0
    seen = 0
    stack = list(reversed(t.root_hypernode))
    while stack:
        node = stack.pop()
        seen += 1
        if seen > max_nodes:
            raise CapExceeded(f"forest traversal exceeded {max_nodes} nodes")
        total += t.cost(node)
        stack.extend(reversed(t.successors(node)))
    return total


class ExplicitTree(TreeOracle):
    """Forest held fully in memory as a child map, for fixtures and tests.

    Nodes missing from ``costs`` cost 1.
    """

    def __init__(
        self,
        children: dict,
        roots: Sequence,
        costs: dict | None = None,
    ):
        self._children = {k: tuple(v) for k, v in children.items()}
        self._roots = tuple(sorted(roots))
        if not self._roots:
            raise ValueError("a forest needs at least one root")
        self._costs = dict(costs) if costs else {}
        seen = set()
        frontier = list(self._roots)
        while frontier:
            node = frontier.pop()
            if node in seen:
                raise ValueError(f"node {node!r} has two parents or is a root twice")
            seen.add(node)
            frontier.extend(self._children.get(node, ()))

    @property
    def root_hypernode(self) -> tuple:
        return self._roots

    def successors(self, node) -> tuple:
        return self._children.get(node, ())

    def cost(self, node) -> float:
        return self._costs.get(node, 1.0)


# 14-node worked-example tree used throughout the tests: unit costs, five
# leaves (h, k, l, m, n), height 4.
_EXAMPLE_CHILDREN = {
    "a": ("b", "c"),
    "b": ("d",),
    "c": ("e", "f"),
    "d": ("g",),
    "e": ("h", "i"),
    "f": ("j",),
    "g": ("k", "l"),
    "i": ("m",),
    "j": ("n",),
}

# Leaf-count labels for the same tree: each node's weight is the number of
# leaves in its subtree (itself if it is a leaf).
EXAMPLE_IMPORTANCE_LABELS = {
    "a": 5, "b": 2, "c": 3, "d": 2, "e": 2, "f": 1, "g": 2,
    "h": 1, "i": 1, "j": 1, "k": 1, "l": 1, "m": 1, "n": 1,
}


def fixture_example_tree() -> ExplicitTree:
    """The 14-node unit-cost example tree."""
    return ExplicitTree(_EXAMPLE_CHILDREN, roots=("a",))


def fixture_example_importance() -> Callable:
    """Leaf-count importance on the example tree, as a (picklable) weight
    function."""
    return dict(EXAMPLE_IMPORTANCE_LABELS).__getitem__
