"""Deterministic draw streams backed by a named, splittable generator.

Every random decision in the generator goes through a :class:`PcgStream`
so that (a) a corpus is a pure function of its seed, and (b) each instance
gets its own sub-stream derived from ``(corpus_seed, index)``, making batch
generation order-independent.

Each stage of a pair takes its draws in one call: all prices, then all
extra-node parents, all edge coefficients, the condition-order
permutation, the item picks and all phrasing coins.  Batching keeps the
consumption order of one draw per decision, so the values are the same
as drawing them one at a time.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from numpy.random import PCG64, Generator, SeedSequence

T = TypeVar("T")


class PcgStream:
    """Uniform draw helpers over one PCG64 stream."""

    def __init__(self, seed_seq: SeedSequence):
        self._gen = Generator(PCG64(seed_seq))

    @classmethod
    def from_seed(cls, seed: int) -> "PcgStream":
        return cls(SeedSequence(seed))

    def pick_each(self, choices: Sequence[Sequence[T]]) -> list[T]:
        """One uniform element of each non-empty sequence, from one draw call.

        numpy's bounded int64 draw keeps no buffer between elements, so the
        indices are exactly those of one ``integers(len(seq))`` call per
        sequence, made in order.
        """
        if not choices:  # an empty call draws nothing but costs as much as a short one
            return []
        indices = self._gen.integers([len(seq) for seq in choices]).tolist()
        return [seq[i] for seq, i in zip(choices, indices)]

    def permutation(self, n: int) -> list[int]:
        """Uniform permutation of range(n)."""
        return self._gen.permutation(n).tolist()

    def distinct_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices drawn uniformly from range(n), in draw order."""
        return self._gen.choice(n, size=k, replace=False).tolist()


def substream(corpus_seed: int, index: int) -> PcgStream:
    """The sub-stream owned by instance pair `index` of a corpus.

    Built directly from ``SeedSequence(corpus_seed, spawn_key=(index,))`` so
    pairs can be generated in any order, or concurrently, with identical
    results.
    """
    return PcgStream(SeedSequence(entropy=corpus_seed, spawn_key=(index,)))
