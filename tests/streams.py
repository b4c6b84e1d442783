"""A scripted stand-in for PcgStream that replays pinned draws.

Each entry in the script is the value the corresponding draw must produce;
every call validates the value against the draw's constraints so a stale
script fails loudly instead of producing nonsense.
"""

from __future__ import annotations


class ScriptedStream:
    def __init__(self, draws):
        self._draws = list(draws)
        self._pos = 0

    def _next(self, kind: str):
        if self._pos >= len(self._draws):
            raise AssertionError(f"draw script exhausted at {kind} draw #{self._pos}")
        value = self._draws[self._pos]
        self._pos += 1
        return value

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._draws)

    def pick_each(self, choices) -> list:
        """One script entry per sequence, each of which must be an element of it."""
        values = [self._next("pick_each") for _ in choices]
        for value, seq in zip(values, choices):
            assert value in seq, (value, seq)
        return values

    def permutation(self, n: int) -> list[int]:
        value = self._next("permutation")
        assert sorted(value) == list(range(n)), (value, n)
        return list(value)

    def distinct_indices(self, n: int, k: int) -> list[int]:
        value = self._next("distinct_indices")
        assert len(value) == k == len(set(value)), (value, n, k)
        assert all(0 <= i < n for i in value), (value, n)
        return list(value)
