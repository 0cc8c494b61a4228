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
used with the oracle.  A hypernode is therefore a sorted multiset of
references, and the exact analysis memoizes on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Sequence

from .errors import CapExceeded

NodeRef = Hashable

DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class Hypernode:
    """A multiset of same-level nodes, stored in canonical sorted order.

    Canonical ordering makes structural equality coincide with multiset
    equality, so hypernodes can be dict keys and compared across
    independently produced traversals.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator:
        return iter(self.nodes)

    def __repr__(self) -> str:
        return f"Hypernode({list(self.nodes)!r})"


class TreeOracle:
    """Read-only description of a finite rooted forest.

    Subclasses implement ``successors`` and ``cost``.  Both must be
    deterministic pure functions of the node reference; estimator workers
    share one oracle instance across threads and processes.
    """

    @property
    def root_hypernode(self) -> Hypernode:
        raise NotImplementedError

    def successors(self, node) -> Sequence:
        """Children of ``node`` in a fixed oracle-defined order."""
        raise NotImplementedError

    def cost(self, node) -> float:
        raise NotImplementedError

    # Optional fast path; ``subtree_cost_function`` falls back to traversal.
    subtree_cost: Callable | None = None


def hypernode_successors(h: Hypernode | Sequence, t: TreeOracle) -> tuple:
    """Successor multiset of a hypernode (or its member tuple), member
    order then child order; a child two members share appears twice."""
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
    stack = list(reversed(t.root_hypernode.nodes))
    while stack:
        node = stack.pop()
        seen += 1
        if seen > max_nodes:
            raise CapExceeded(f"forest traversal exceeded {max_nodes} nodes")
        total += t.cost(node)
        stack.extend(reversed(t.successors(node)))
    return total


def subtree_cost_function(t: TreeOracle, conv: Callable = float) -> Callable:
    """Exact cost of the full subtree under each node, memoized per node.

    ``conv`` maps a cost into the numeric domain of the result (``float``,
    or ``Fraction`` for exact analysis).  Uses the oracle's own
    ``subtree_cost`` when it provides one (decision trees back it by
    dynamic programming); otherwise computes costs by an iterative
    post-order pass.  The result pickles, so it can serve as a weight in
    worker processes.
    """
    return _SubtreeCost(t, conv)


class _SubtreeCost:
    def __init__(self, t: TreeOracle, conv: Callable):
        self._t = t
        self._conv = conv
        self._memo: dict = {}

    def __call__(self, node):
        memo = self._memo
        v = memo.get(node)
        if v is not None:
            return v
        t, conv = self._t, self._conv
        if t.subtree_cost is not None:
            v = memo[node] = conv(t.subtree_cost(node))
            return v
        stack = [(node, False)]
        while stack:
            cur, expanded = stack.pop()
            if cur in memo:
                continue
            children = t.successors(cur)
            if expanded or not children:
                memo[cur] = conv(t.cost(cur)) + sum(memo[c] for c in children)
            else:
                stack.append((cur, True))
                stack.extend((c, False) for c in children if c not in memo)
        return memo[node]


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
        self._roots = tuple(roots)
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
    def root_hypernode(self) -> Hypernode:
        return Hypernode(self._roots)

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
