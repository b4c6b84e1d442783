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

The stream of index ``i`` under seed ``s`` is
``Generator(PCG64(SeedSequence(s, spawn_key=(i,))))``; :func:`substream`
builds it so.  PCG64 reads only the four ``uint64`` words of that
SeedSequence's ``generate_state``, and the SeedSequence hash mixes with
constants that do not depend on the data (NumPy NEP 19).  So
:func:`substreams` computes numpy's own SeedSequence words for every index
in one pass of ``uint32`` array arithmetic, and seeds each PCG64 from its
row.  Nothing compares them with numpy at run time: the byte contract
rests on the test that they give numpy's PCG64 states for drawn seeds and
counts (``tests/test_rng.py``).
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence, TypeVar, Union

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

T = TypeVar("T")

# numpy's SeedSequence: a pool of 4 uint32 words, hashed with these constants
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

Word = Union[int, np.ndarray]  # one uint32 word, or a uint32 array of one word per index


class PcgStream:
    """Uniform draw helpers over one PCG64 stream."""

    def __init__(self, seed_seq: ISeedSequence):
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


class SeedWords(ISeedSequence):
    """Hands PCG64 the four uint64 seeding words precomputed for one index."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:  # a numpy that seeds PCG64 otherwise
            raise RuntimeError(f"seed words are 4 uint64, asked for {n_words} {np.dtype(dtype)}")
        return self._words


def _uint32_words(n: int) -> list[int]:
    """The little-endian uint32 words of a non-negative int, as SeedSequence splits it."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, calls: int) -> list[int]:
    """The constants of `calls` hashmix calls: call k xors with entry k and multiplies by entry k + 1."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


_OUT_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]  # generate_state's 8 calls


def _hashmix(value: Word, xor: Word, mult: Word) -> Word:
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: Word, y: Word) -> Word:
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _seed_words(seed: int, count: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64)`` for each i < count.

    Returns one row of 4 uint64 words per index.
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))  # a spawned SeedSequence pads its seed to the pool size
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * (len(entropy) + 1))
    pool = [_hashmix(word, consts[k], consts[k + 1]) for k, word in enumerate(entropy[:_POOL_SIZE])]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k], consts[k + 1]))
                k += 1
    # Each later word is hashed into the four pool words independently, so the pool
    # becomes a (4, n) array, one column per index, and takes a word in 4 calls at once.
    column = np.array(consts, dtype=np.uint32)[:, None]
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for word in [*entropy[_POOL_SIZE:], np.arange(count, dtype=np.uint32)]:  # the last is the spawn key
        pool = _mix(pool, _hashmix(word, column[k : k + _POOL_SIZE], column[k + 1 : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_CONSTS[:-1], _OUT_CONSTS[1:])  # 8 words per index
    rows = np.ascontiguousarray(state.T, dtype="<u4")  # numpy's word order on any host
    return rows.view("<u8").astype(np.uint64)


def substream(corpus_seed: int, index: int) -> PcgStream:
    """The sub-stream owned by instance pair `index` of a corpus.

    Built directly from ``SeedSequence(corpus_seed, spawn_key=(index,))`` so
    pairs can be generated in any order, or concurrently, with identical
    results.
    """
    return PcgStream(SeedSequence(entropy=corpus_seed, spawn_key=(index,)))


def substreams(seed: int, count: int) -> Iterator[PcgStream]:
    """``substream(seed, i)`` for each i < count, in order.

    The seeding words of every index are computed here, in one pass at 32
    bytes per index; each stream's generator is built only when it is taken.
    """
    if not 0 <= count <= 2**32:  # each index is one uint32 spawn word
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    return (PcgStream(SeedWords(words)) for words in _seed_words(seed, count))
