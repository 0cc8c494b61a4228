"""Partial orders and their linear-extension decision trees.

A poset on elements 0..n-1 is stored as bitmask rows of its transitively
closed strict order.  Its decision tree branches on the choice of a
maximal element to delete next; every root-to-leaf path is one linear
extension (listed greatest first), so counting leaves counts extensions.
The tree is exposed through the generic forest oracle so the estimators
can walk it, and an independent dynamic program over deleted-sets gives
exact counts to check the estimators against.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Iterable

from .errors import CapExceeded, EstimateOverflow
from .sampling import RUN_GROUP, RandomSource, derive_seed
from .tree import Hypernode, TreeOracle

MAX_DP_ELEMENTS = 24  # the deleted-set table is exponential in n
EXPANSION_CAP = 8192  # masks in the mask walk's expansion cache, cleared when full

IMPORTANCE_KINDS = ("uniform", "f1", "f2", "f3", "ideal")


class PosetFormatError(ValueError):
    """A poset file could not be parsed; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Poset:
    """Transitively closed strict partial order on range(n).

    ``gt[i]`` is the bitmask of elements j with v_i > v_j.  The relation
    must be irreflexive and transitively closed; use ``from_relations``
    to build one from arbitrary generating pairs.
    """

    __slots__ = ("n", "gt", "above")

    def __init__(self, n: int, gt: Iterable[int]):
        self.n = n
        self.gt = tuple(gt)
        if n < 1:
            raise ValueError("poset needs at least one element")
        if len(self.gt) != n:
            raise ValueError(f"expected {n} relation rows, got {len(self.gt)}")
        mask_all = (1 << n) - 1
        for i, row in enumerate(self.gt):
            if row & ~mask_all:
                raise ValueError(f"row {i} references elements outside range({n})")
            if row >> i & 1:
                raise ValueError(f"relation is not irreflexive at element {i}")
        for i in range(n):
            closed = self.gt[i]
            row = self.gt[i]
            for k in range(n):
                if row >> k & 1:
                    closed |= self.gt[k]
            if closed != row:
                raise ValueError(f"relation is not transitively closed at element {i}")
        above = [0] * n
        for i in range(n):
            row = self.gt[i]
            for j in range(n):
                if row >> j & 1:
                    if self.gt[j] >> i & 1:
                        raise ValueError(f"antisymmetry violated between {i} and {j}")
                    above[j] |= 1 << i
        self.above = tuple(above)

    @classmethod
    def from_relations(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build from generating pairs (i, j) meaning v_i > v_j, with closure.

        Raises ValueError when the closure produces a cycle.
        """
        gt = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) outside range({n})")
            gt[i] |= 1 << j
        for k in range(n):
            for i in range(n):
                if gt[i] >> k & 1:
                    gt[i] |= gt[k]
        for i in range(n):
            if gt[i] >> i & 1:
                raise ValueError(f"relation cycle through element {i}")
        return cls(n, gt)

    def relation_pairs(self) -> list[tuple[int, int]]:
        """All closed pairs (i, j) with v_i > v_j, sorted."""
        return [(i, j) for i in range(self.n) for j in range(self.n) if self.gt[i] >> j & 1]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction: pairs with nothing strictly between."""
        out = []
        for i, j in self.relation_pairs():
            if not (self.gt[i] & self.above[j]):
                out.append((i, j))
        return out

    def descendant_counts(self) -> tuple[int, ...]:
        """Per element: number of elements below it, itself included."""
        return tuple(1 + row.bit_count() for row in self.gt)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and self.n == other.n and self.gt == other.gt

    def __hash__(self):
        return hash((self.n, self.gt))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, pairs={self.cover_pairs()!r})"


def random_poset(n: int, p: float, seed: int) -> Poset:
    """Independent pair relations with probability p, then closure.

    For i < j the candidate relation is v_i > v_j, so every generated
    relation points from lower to higher index and no cycle can arise.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    src = RandomSource(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if src.random() < p]
    return Poset.from_relations(n, pairs)


def count_linear_extensions(poset: Poset) -> int:
    """Exact extension count by dynamic programming over deleted-sets.

    The extensions of a disjoint union interleave freely, so
    e(P + Q) = C(|P| + |Q|, |P|) e(P) e(Q): the count is the product of
    the per-component counts of the comparability graph times a running
    multinomial.  Within a component a deletable set is always upward
    closed, so the state space is that component's up-sets and the cost
    follows the largest component's up-set count, not the whole poset's.
    The cap still applies to the whole poset (n <= MAX_DP_ELEMENTS).
    Exact integer arithmetic throughout.
    """
    n = poset.n
    if n > MAX_DP_ELEMENTS:
        raise CapExceeded(f"deleted-set table needs 2^{n} entries; cap is n <= {MAX_DP_ELEMENTS}")
    comparable = [row | up for row, up in zip(poset.gt, poset.above)]
    total = 1
    placed = 0
    unseen = (1 << n) - 1
    while unseen:
        component = frontier = unseen & -unseen
        while frontier:
            e = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = comparable[e] & ~component
            component |= new
            frontier |= new
        unseen &= ~component
        size = component.bit_count()
        placed += size
        total *= math.comb(placed, size) * _completions(poset.above, {0: 1}, component)
    return total


def _completions(above: tuple[int, ...], memo: dict[int, int], remaining: int) -> int:
    """Deletion orders of the elements in ``remaining``, a down-set.

    An element can go next when nothing remaining lies above it.  ``memo``
    is keyed by the remaining set and must map 0 to 1.
    """
    known = memo.get(remaining)
    if known is not None:
        return known
    total = 0
    m = remaining
    while m:
        low = m & -m
        m ^= low
        if above[low.bit_length() - 1] & remaining == 0:
            total += _completions(above, memo, remaining ^ low)
    memo[remaining] = total
    return total


class LEDecisionTree(TreeOracle):
    """Decision tree of one poset, as a forest oracle.

    A node is the pair (tail, deleted mask): the tail is () at the root
    and (e,) after deleting e, the mask holds the deleted elements as
    bits.  That is the node's state: the mask fixes its depth (the mask's
    popcount), cost and subtree, and with the last element it fixes every
    weight in this module, so two deletion orders that reach one state
    are one reference.  Cost is 1 on depth-n leaves and 0 elsewhere, so
    forest cost equals the extension count.

    The ``maximal_after`` and ``completions`` memos only grow;
    ``fast_run_block`` fills only the latter, under the ``ideal`` weight.
    Their entries are pure functions of the key, so concurrent readers at
    worst recompute an entry; worker processes each fork their own copy.
    """

    def __init__(self, poset: Poset):
        self.poset = poset
        self.n = poset.n
        self._full = (1 << poset.n) - 1
        self._desc = poset.descendant_counts()
        self._max_memo: dict[int, tuple[int, ...]] = {}
        self._count_memo: dict[int, int] = {0: 1}
        self._chunks: tuple | None = None

    def _build_chunks(self) -> tuple:
        """Per 8-element chunk: (shift, below, elems), each table indexed by a byte.

        ``below[b]`` is the union of the ``gt`` rows of the chunk members
        in byte b, ``elems[b]`` those members ascending.
        """
        gt = self.poset.gt
        chunks = []
        for shift in range(0, self.n, 8):
            width = min(8, self.n - shift)
            below = [0] * (1 << width)
            elems = [()] * (1 << width)
            for b in range(1, 1 << width):
                low = b & -b
                i = low.bit_length() - 1
                below[b] = below[b ^ low] | gt[shift + i]
                elems[b] = (shift + i,) + elems[b ^ low]
            chunks.append((shift, below, elems))
        return tuple(chunks)

    @property
    def root_hypernode(self) -> Hypernode:
        return Hypernode((((), 0),))

    def maximal_after(self, deleted: int) -> tuple[int, ...]:
        """Maximal elements of the remaining poset, ascending (memoized)."""
        out = self._max_memo.get(deleted)
        if out is None:
            out = self._max_memo[deleted] = self._maximal(deleted)
        return out

    def _maximal(self, deleted: int) -> tuple[int, ...]:
        """``maximal_after`` without the memo."""
        # An element is maximal unless some remaining element is above
        # it, i.e. unless it lies in the union of the remaining rows.
        chunks = self._chunks
        if chunks is None:
            chunks = self._chunks = self._build_chunks()
        remaining = self._full & ~deleted
        covered = 0
        for shift, below, _ in chunks:
            covered |= below[remaining >> shift & 255]
        top = remaining & ~covered
        out = ()
        for shift, _, elems in chunks:
            out += elems[top >> shift & 255]
        return out

    def successors(self, node) -> list:
        deleted = node[1]
        return [((e,), deleted | (1 << e)) for e in self.maximal_after(deleted)]

    def cost(self, node) -> float:
        return 1.0 if node[1] == self._full else 0.0

    def subtree_cost(self, node) -> int:
        return self.completions(node[1])

    def completions(self, deleted: int) -> int:
        """Number of ways to finish deleting; the node's exact subtree cost."""
        return _completions(self.poset.above, self._count_memo, self._full & ~deleted)

    def fast_run_block(self, budget: int, weight, seed: int, start: int, stop: int) -> list[float]:
        """Estimates from the root for run indices [start, stop).

        Runs draw under stream contract v2 (see ``sampling``).  ``weight``
        (a weight with ``child_values``) selects the induced two-phase
        draw; None selects the uniform draw of ``UniformHyperchild``.
        Draw-for-draw and float-for-float identical to the generic walk
        under the matching distribution (the equivalence is pinned by
        tests), but tracks hypernode members as deleted-set masks only:
        a mask's children and their weights follow from the mask, so the
        last element a node reference adds is not needed.
        Its expansion cache, cleared when it holds ``EXPANSION_CAP`` masks
        (read per call), bounds a block's memory whatever its run count.
        """
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        n = self.n
        maximal = self._maximal
        cap = EXPANSION_CAP
        uniform = weight is None
        if not uniform:
            child_values = weight.child_values
            counted = hasattr(weight, "evaluations")
        # Whole expansions keyed by deleted-set mask: the mask fixes the
        # depth (its popcount), so children and weights are mask-pure and
        # clearing the cache changes no estimate.
        expansion: dict = {}
        # One generator reseeded per run group yields the same stream as a
        # fresh Random(derive_seed(seed, group)) without constructing one.
        rng = random.Random()
        rand = rng.random
        out = []
        # A block starting mid-group replays the group's earlier runs.
        group_start = start - start % RUN_GROUP
        for run in range(group_start, stop):
            if run % RUN_GROUP == 0:
                rng.seed(derive_seed(seed, run // RUN_GROUP))
            members = (0,)
            size = 1
            depth = 0
            d_product = 1.0
            total = 0.0
            while True:
                if uniform:
                    succ = []
                    for mask in members:
                        kids = expansion.get(mask)
                        if kids is None:
                            if len(expansion) >= cap:
                                expansion.clear()
                            kids = expansion[mask] = [mask | (1 << e) for e in maximal(mask)]
                        succ += kids
                    count = len(succ)
                    if not count:
                        break
                    m = budget if budget < count else count
                    # Partial Fisher-Yates, as RandomChoice.pick_subset.
                    if m == 1:
                        chosen = (int(rand() * count),)
                    else:
                        chosen = list(range(count))
                        for i in range(m):
                            j = i + int(rand() * (count - i))
                            chosen[i], chosen[j] = chosen[j], chosen[i]
                        del chosen[m:]
                    d_k = (m / size) * (count / m)
                else:
                    succ = []
                    weights = []
                    for mask in members:
                        entry = expansion.get(mask)
                        if entry is None:
                            if len(expansion) >= cap:
                                expansion.clear()
                            kids = maximal(mask)
                            g0 = weight.guard_hits if counted else 0
                            ws = child_values(mask, kids)
                            entry = (
                                [mask | (1 << e) for e in kids], ws,
                                (weight.guard_hits - g0) if counted else 0,
                            )
                            expansion[mask] = entry
                        elif counted:
                            weight.evaluations += len(entry[1])
                            weight.guard_hits += entry[2]
                        succ.extend(entry[0])
                        weights.extend(entry[1])
                    count = len(succ)
                    if not count:
                        break
                    m = budget if budget < count else count
                    # The generic draw's left-to-right sums, so r_all and the
                    # pick keep their bits (sum() compensates from Python
                    # 3.12): the first pick is the first prefix sum above u.
                    cum = list(accumulate(weights))
                    r_all = cum[-1]
                    u = rand() * r_all
                    first = bisect_right(cum, u)
                    if first == count:
                        first = count - 1
                    r_sel = weights[first]
                    if m == 1:
                        chosen = (first,)
                    else:
                        rest = count - 1
                        idx = list(range(rest))
                        for i in range(m - 1):
                            j = i + int(rand() * (rest - i))
                            idx[i], idx[j] = idx[j], idx[i]
                        chosen = [first]
                        for i in range(m - 1):
                            k = idx[i]
                            orig = k if k < first else k + 1
                            chosen.append(orig)
                            r_sel += weights[orig]
                    d_k = (m / size) * (r_all / r_sel)
                product = d_product * d_k
                if not math.isfinite(product):
                    # as the generic walk: log of the product, from the last finite one
                    raise EstimateOverflow(math.log(d_product) + math.log(d_k))
                d_product = product
                depth += 1
                if depth == n:
                    total += d_product
                members = [succ[i] for i in chosen] if m > 1 else (succ[chosen[0]],)
                size = m
            out.append(total)
        return out[start - group_start:]


class _TreeWeight:
    """Shared plumbing for the decision-tree weight functions.

    A child's weight depends on its sibling count, its depth and its
    element.  ``_values`` holds each kind's formula for a run of siblings;
    ``child_values`` is the estimator fast path, one call per expansion,
    and ``__call__`` serves the generic walk and the analysis.
    """

    def __init__(self, tree: LEDecisionTree):
        self.tree = tree

    def _values(self, sib: int, depth: int, elems) -> list[float]:
        raise NotImplementedError

    def __call__(self, node) -> float:
        (elem,), mask = node
        sib = len(self.tree.maximal_after(mask & ~(1 << elem)))
        return self._values(sib, mask.bit_count(), (elem,))[0]

    def child_values(self, mask: int, kids) -> list[float]:
        """Weights of the children ``mask | 1 << e`` for e in ``kids``, the
        maximal elements after ``mask``."""
        return self._values(len(kids), mask.bit_count() + 1, kids)


class _UniformWeight:
    def __call__(self, node) -> float:
        return 1.0

    def child_values(self, mask, kids) -> list[float]:
        return [1.0] * len(kids)


class _SiblingCubed(_TreeWeight):
    """Weight sib(x)^3: favors nodes from wide choice points."""

    def _values(self, sib, depth, elems):
        return [float(sib * sib * sib)] * len(elems)


class _SiblingCubedDescendants(_TreeWeight):
    """Weight sib(x)^3 * desc(x): wide choice points, heavy elements."""

    def _values(self, sib, depth, elems):
        s3 = sib * sib * sib
        desc = self.tree._desc
        return [float(s3 * desc[e]) for e in elems]


class _SiblingCubedHeightRatio(_TreeWeight):
    """Weight sib(x)^3 * (height+desc)/(height-desc), denominator guarded.

    height - desc can reach 0 or -1 (an element dominating everything that
    remains); the denominator is clamped to 1 there, degrading the ratio
    factor to height + desc.  Every weight looked up is counted, so the
    reported guard-hit fraction covers all estimator lookups.
    """

    def __init__(self, tree: LEDecisionTree):
        super().__init__(tree)
        self.evaluations = 0
        self.guard_hits = 0

    def _values(self, sib, depth, elems):
        s3 = sib * sib * sib
        height = self.tree.n - depth
        desc = self.tree._desc
        out = []
        for e in elems:
            d = desc[e]
            denom = height - d
            if denom < 1:
                denom = 1
                self.guard_hits += 1
            out.append(s3 * (height + d) / denom)
        self.evaluations += len(out)
        return out


class _IdealWeight:
    """Exact subtree cost as the weight; induces the zero-variance draw."""

    def __init__(self, tree: LEDecisionTree):
        if tree.n > MAX_DP_ELEMENTS:
            raise CapExceeded(
                f"exact-cost weights need the deleted-set table; cap is n <= {MAX_DP_ELEMENTS}"
            )
        self.tree = tree

    def __call__(self, node) -> float:
        return float(self.tree.subtree_cost(node))

    def child_values(self, mask, kids) -> list[float]:
        completions = self.tree.completions
        return [float(completions(mask | (1 << e))) for e in kids]


def importance_function(tree: LEDecisionTree, kind: str) -> Callable:
    """Weight function for a decision tree, by name.

    Kinds: uniform, f1 (sib^3), f2 (sib^3 * desc), f3 (sib^3 with the
    guarded height ratio), ideal (exact subtree cost).  Bare digits are
    accepted as aliases for f1..f3.
    """
    key = str(kind).lower()
    if key in ("1", "2", "3"):
        key = "f" + key
    if key == "uniform":
        return _UniformWeight()
    if key == "f1":
        return _SiblingCubed(tree)
    if key == "f2":
        return _SiblingCubedDescendants(tree)
    if key == "f3":
        return _SiblingCubedHeightRatio(tree)
    if key == "ideal":
        return _IdealWeight(tree)
    raise ValueError(f"unknown importance kind {kind!r}; expected one of {IMPORTANCE_KINDS}")


def fixture_poset() -> Poset:
    """Five-element fixture with two maximal elements and 7 extensions."""
    return Poset.from_relations(5, [(0, 2), (1, 2), (1, 3), (2, 4)])


def load_poset(path) -> Poset:
    """Read the text format: comment lines '#', then n, then 'i j' pairs.

    The generating pairs are transitively closed on load; cycles are
    rejected.
    """
    pairs = []
    n = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if n is None:
                if len(fields) != 1:
                    raise PosetFormatError(line_no, f"expected the element count, got {raw.strip()!r}")
                try:
                    n = int(fields[0])
                except ValueError:
                    raise PosetFormatError(line_no, f"element count {fields[0]!r} is not an integer") from None
                if n < 1:
                    raise PosetFormatError(line_no, f"element count must be positive, got {n}")
                continue
            if len(fields) != 2:
                raise PosetFormatError(line_no, f"expected 'i j', got {raw.strip()!r}")
            try:
                i, j = int(fields[0]), int(fields[1])
            except ValueError:
                raise PosetFormatError(line_no, f"non-integer pair {raw.strip()!r}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise PosetFormatError(line_no, f"pair ({i}, {j}) outside range({n})")
            pairs.append((line_no, i, j))
    if n is None:
        raise PosetFormatError(0, "file contains no element count")
    try:
        return Poset.from_relations(n, [(i, j) for _, i, j in pairs])
    except ValueError as exc:
        raise PosetFormatError(pairs[-1][0] if pairs else 0, str(exc)) from exc


def save_poset(poset: Poset, path) -> None:
    """Write the transitive reduction in the text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{poset.n}\n")
        for i, j in poset.cover_pairs():
            fh.write(f"{i} {j}\n")
