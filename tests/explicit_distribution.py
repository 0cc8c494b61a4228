"""Hypernode distributions for tests and worked examples: one given as a
table, and one that records the draws of another."""

from fractions import Fraction
from math import comb

from stochenum.estimators import Draw, HypernodeDistribution


class ExplicitDistribution(HypernodeDistribution):
    """``table`` maps a successor tuple (exactly as produced by the walk) to
    a sequence of (nodes, probability) pairs covering all candidates.
    """

    def __init__(self, table: dict):
        self._table = {
            tuple(succ): [(tuple(sorted(nodes)), Fraction(p)) for nodes, p in options]
            for succ, options in table.items()
        }
        for succ, options in self._table.items():
            for nodes, p in options:
                if not p > 0:
                    raise ValueError(f"candidate {nodes!r} under {succ!r} has probability {p}")

    def _options(self, succ):
        try:
            return self._table[tuple(succ)]
        except KeyError:
            raise KeyError(f"no distribution entry for successor set {succ!r}") from None

    def draw(self, succ, budget, choice):
        options = self._options(succ)
        idx = choice.pick_weighted(
            [float(p) for _, p in options], labels=[nodes for nodes, _ in options]
        )
        nodes, p = options[idx]
        return Draw(nodes, float(1 / (comb(len(succ) - 1, len(nodes) - 1) * p)))

    def support(self, succ, budget):
        yield from self._options(succ)


class RecordingDistribution(HypernodeDistribution):
    """Draws as ``dist`` does and appends each draw's successor tuple and
    drawn nodes to ``draws``, so a walk's path can be read back."""

    def __init__(self, dist: HypernodeDistribution):
        self.dist = dist
        self.draws = []

    def draw(self, succ, budget, choice):
        d = self.dist.draw(succ, budget, choice)
        self.draws.append((succ, d.nodes))
        return d
