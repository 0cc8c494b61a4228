"""Randomness contract and the selection primitives used by estimators.

Two kinds of choice source expose one interface: a seeded pseudo-random
source for production runs, and a scripted source that replays a fixed
list of (phase, label) selections so known trajectories can be driven
through the estimators verbatim.

The PRNG is the stdlib Mersenne Twister (MT19937, 19937-bit state).
Substreams are derived by hashing a (seed, index, ...) path through
SHA-256, which is stable across platforms and Python versions.

Stream contract v2 fixes which stream each estimator run draws from.
The runs of a seed s split into groups of ``RUN_GROUP``: run i is run
i mod RUN_GROUP of group i // RUN_GROUP.  Each group draws from one
MT19937 stream seeded with ``derive_seed(s, i // RUN_GROUP)``, and the
runs of a group consume it in order.  Any split of the run indices
into blocks therefore concatenates to the same estimates: a block that
starts mid-group replays the group's earlier runs and discards them.
Groups share a stream because hashing a seed and initialising MT19937
cost about a third of a budget-1 run.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence

# Consecutive estimator runs that share one stream (contract v2).
RUN_GROUP = 64

# A weight function maps node references to strictly positive numbers
# (int, float or Fraction all work; analysis code reads each value as the
# exact rational it denotes).
WeightFunction = Callable


class ScriptError(RuntimeError):
    """A scripted choice source was driven off its script."""


class NonpositiveWeight(ValueError):
    """An importance evaluation returned a weight <= 0."""

    def __init__(self, node, value):
        super().__init__(f"importance weight {value!r} at node {node!r} is not positive")
        self.node = node
        self.value = value


def derive_seed(*parts) -> int:
    """Collapse a (seed, index, ...) path into one 128-bit stream seed."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "big")


class RandomSource:
    """Seedable uniform stream: reals in [0,1) and integers in [0,k)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        # Bound method, not a wrapper: random() is the innermost hot call.
        self.random = self._rng.random

    def randrange(self, k: int) -> int:
        return self._rng.randrange(k)


class ChoiceSource:
    """Interface shared by random and scripted selection."""

    def pick_weighted(self, weights: Sequence, labels: Sequence | None = None) -> int:
        """Index i with probability weights[i] / sum(weights)."""
        raise NotImplementedError

    def pick_subset(self, n: int, k: int, labels: Sequence | None = None) -> tuple:
        """k distinct indices from range(n), each k-subset equally likely."""
        raise NotImplementedError


class RandomChoice(ChoiceSource):
    def __init__(self, source: RandomSource | int):
        self.source = source if isinstance(source, RandomSource) else RandomSource(source)

    def pick_weighted(self, weights, labels=None) -> int:
        total = 0.0
        for w in weights:
            total += w
        u = self.source.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def pick_subset(self, n, k, labels=None) -> tuple:
        # Partial Fisher-Yates: first k slots of a shuffle are a uniform
        # k-permutation, hence a uniform k-subset.  Index draws go through
        # random() directly; the 2^-53 scaling bias is far below anything
        # the statistical checks can see and it is several times faster
        # than randrange on this hot path.
        idx = list(range(n))
        rand = self.source.random
        for i in range(k):
            j = i + int(rand() * (n - i))
            idx[i], idx[j] = idx[j], idx[i]
        return tuple(idx[:k])


class ScriptedChoice(ChoiceSource):
    """Replays pre-recorded selections, identified by node label.

    Entries are ("weighted", label) for a single weighted pick and
    ("subset", (label, ...)) for a uniform subset draw.  The script must
    be consumed exactly; running past the end raises ScriptError.
    """

    def __init__(self, entries: Sequence[tuple]):
        self._entries = list(entries)
        self._pos = 0

    def _next(self, phase: str):
        if self._pos >= len(self._entries):
            raise ScriptError(f"script exhausted; needed a {phase!r} entry")
        entry = self._entries[self._pos]
        self._pos += 1
        if entry[0] != phase:
            raise ScriptError(f"script entry {entry!r} does not match phase {phase!r}")
        return entry[1]

    def pick_weighted(self, weights, labels=None) -> int:
        label = self._next("weighted")
        i = self._resolve(label, labels, len(weights))
        if weights[i] <= 0:
            raise NonpositiveWeight(label, weights[i])
        return i

    def pick_subset(self, n, k, labels=None) -> tuple:
        if k == 0:
            return ()
        chosen = self._next("subset")
        if len(chosen) != k:
            raise ScriptError(f"scripted subset {chosen!r} has size {len(chosen)}, expected {k}")
        return tuple(self._resolve(label, labels, n) for label in chosen)

    def exhausted(self) -> bool:
        return self._pos == len(self._entries)

    @staticmethod
    def _resolve(label, labels, n) -> int:
        if labels is None:
            if isinstance(label, int) and 0 <= label < n:
                return label
            raise ScriptError(f"cannot resolve scripted label {label!r} without candidate labels")
        try:
            return list(labels).index(label)
        except ValueError:
            raise ScriptError(f"scripted label {label!r} not among candidates {list(labels)!r}") from None


def _draw_two_phase(succ: Sequence, weights: Sequence[float], take: int, choice: ChoiceSource) -> tuple:
    """One weighted pick, then take-1 more uniformly from the rest.

    Returns the selected indices into ``succ`` in draw order.  Weight
    validation is the caller's job; the scripted source still rejects a
    scripted pick that lands on a nonpositive weight.
    """
    first = choice.pick_weighted(weights, labels=succ)
    if take == 1:
        return (first,)
    rest_pool = list(succ)
    del rest_pool[first]
    picked = choice.pick_subset(len(rest_pool), take - 1, labels=rest_pool)
    return (first,) + tuple(j if j < first else j + 1 for j in picked)
