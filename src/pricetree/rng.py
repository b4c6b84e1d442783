"""Deterministic draw streams backed by a named, splittable generator.

Every random decision in the generator goes through a :class:`PcgStream`
so that (a) a corpus is a pure function of its seed, and (b) each instance
gets its own sub-stream derived from ``(corpus_seed, index)``, making batch
generation order-independent.

The bytes rest on three things: numpy's SeedSequence, PCG64's raw 64-bit
outputs, and the draw rules written here.  The stream of index ``i`` under
seed ``s`` is ``PCG64(SeedSequence(s, spawn_key=(i,)))``; :func:`substream`
builds it so.  PCG64 reads only the four ``uint64`` words of that
SeedSequence's ``generate_state``, and the SeedSequence hash mixes with
constants that do not depend on the data (NumPy NEP 19).  So
:func:`substreams` lets numpy mix the seed once, into ``SeedSequence(seed)``'s
pool, then hashes only the spawn word, for every index in one pass of
``uint32`` array arithmetic, and seeds each PCG64 from its row.

:class:`PcgStream` draws from PCG64's raw words in plain Python, by the
rules numpy's ``Generator`` uses for ``integers``, ``permutation`` and
``choice(replace=False)``.  Its words come from ``random_raw`` batches,
low half first.  One ``struct`` call unpacks the first batch, which every
stream mostly draws, into Python ints; later batches are read a word at a
time, so past the first 32 words no word becomes an int unless it is
drawn.  Each stage of a pair takes all of its draws in one call: all
prices, then all extra-node parents, all edge coefficients, the
condition-order permutation, the item picks and all phrasing coins.

A few-shot record's exemplars are two ``distinct_indices`` calls and one
``permutation`` on its stream.  :func:`exemplar_orders` draws them for
1,024 records at a time: each record's first 32 words go into one row of a
matrix, and each draw runs down all rows at once in numpy, by the same
rules; a row that needs more words is drawn again by the stream's own
calls.  Nothing compares the streams with numpy at run time: the byte
contract rests on the tests that the seeding words give numpy's PCG64
states, that every draw equals ``Generator``'s, call by call, and that
each exemplar order equals both (``tests/test_rng.py``).
"""

from __future__ import annotations

import operator
import struct
from itertools import chain, repeat
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.random import PCG64, SeedSequence
from numpy.random.bit_generator import ISeedSequence

T = TypeVar("T")

# numpy's SeedSequence: a pool of 4 uint32 words, hashed with these constants
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64 outputs per random_raw batch, two words each.  The first batch holds
# a 4-variable pair and is unpacked into ints at once; a later one, which a
# 10-variable pair (about 70 words) barely starts and a 45-variable pair
# (about 340) mostly uses, makes each word an int only when it is drawn.
_FIRST_BATCH, _BATCH = 16, 256
_UNPACK_FIRST = struct.Struct(f"<{2 * _FIRST_BATCH}I").unpack  # little-endian words
_TAIL_SHUFFLE_MIN_N = 10_000  # numpy's choice shuffles the tail of range(n) above this n ...
_TAIL_SHUFFLE_CUTOFF = 50  # ... when k > n // 50
EXEMPLARS_PER_VARIANT = 3  # answerable, and as many unanswerable, in a few-shot record's exemplars
# exemplar_orders: records drawn at once, and the PCG64 outputs taken for each, two words apiece.
# A record takes 15 words and rejects a few more, so few rows ever run out of 32.
_ORDER_CHUNK, _ORDER_OUTPUTS = 1024, 16


class PcgStream:
    """Uniform draws over one PCG64 stream, equal to numpy ``Generator``'s.

    The stream serves 32-bit words in the order of PCG64's ``next_uint32``:
    the low half, then the high half, of each 64-bit output.  They come from
    ``random_raw`` batches taken as they are needed.  A stream belongs to
    one pair, or to one few-shot record whose row of :func:`exemplar_orders`
    ran out of words; its word buffer is not shared between threads.
    """

    def __init__(self, seed_seq: ISeedSequence):
        bitgen = self._bitgen = PCG64(seed_seq)
        # each batch, the first too, is taken by the first draw that needs it
        batches = chain(map(_first_words, (bitgen,)), map(_later_words, repeat(bitgen)))
        self._words = chain.from_iterable(batches)  # endless, so a zip with it never stops early

    def pick_each(self, choices: Sequence[Sequence[T]]) -> list[T]:
        """One uniform element of each non-empty sequence, in order.

        Each index is numpy's bounded draw from ``[0, len(seq))``, Lemire's
        method: a word times the bound, whose high word is the draw unless its
        low word falls below ``2**32 % bound``; then a new word is drawn.  A
        sequence of one element draws nothing.  So the picks equal one
        ``Generator.integers(len(seq))`` call per sequence, made in order.
        """
        if min(map(len, choices), default=2) < 2:
            bounds = [len(seq) for seq in choices]
            if min(bounds) < 1:
                raise ValueError("cannot pick from an empty sequence")
            one = bounds.index(1)
            return [*self.pick_each(choices[:one]), choices[one][0], *self.pick_each(choices[one + 1 :])]
        word = self._words.__next__
        return [
            seq[(m if (m := w * (b := len(seq))) & _MASK32 >= b else _redraw(word, m, b)) >> 32]
            for seq, w in zip(choices, self._words)
        ]

    def permutation(self, n: int) -> list[int]:
        """Uniform permutation of range(n), equal to ``Generator.permutation(n)``.

        Fisher-Yates from the top: position i swaps with a draw from [0, i],
        one word masked to the bits of i and redrawn while above i.
        """
        _check_size(n)
        word = self._words.__next__
        perm = list(range(n))
        mask = (1 << (n - 1).bit_length()) - 1
        half = mask >> 1
        for i, w in zip(range(n - 1, 0, -1), self._words):
            if i == half:  # i has one bit fewer from here down
                mask, half = half, half >> 1
            j = w & mask
            while j > i:
                j = word() & mask
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def distinct_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices drawn uniformly from range(n), in draw order.

        Equal to ``Generator.choice(n, k, replace=False)``: Floyd's algorithm,
        then a Fisher-Yates shuffle of the k picks.  For n above 10,000 and k
        above n // 50, numpy instead shuffles range(n) from position n - 1
        down to max(n - k, 1) and takes its last k entries.  Every step is
        the bounded draw of :meth:`pick_each`.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot take {k} distinct indices from range({n})")
        _check_size(n)
        word = self._words.__next__
        stop = 1  # the shuffle's last position
        if n > _TAIL_SHUFFLE_MIN_N and k > n // _TAIL_SHUFFLE_CUTOFF:
            picks = list(range(n))
            stop = max(n - k, 1)
        elif k == n:  # Floyd's step j finds 0 .. j - 1 taken, so it takes j: only its draw is needed
            for b, w in zip(range(2, n + 1), self._words):  # a draw from [0, 0] takes no word
                if (m := w * b) & _MASK32 < b:
                    _redraw(word, m, b)
            picks = list(range(n))
        else:  # Floyd: step j, for j = n - k .. n - 1, draws from [0, j] and takes j if the draw is taken
            picks, seen = [], set()
            for b, w in zip(range(n - k + 1, n + 1), self._words):
                if (m := w * b) & _MASK32 < b:
                    m = _redraw(word, m, b)
                pick = m >> 32
                if pick in seen:
                    pick = b - 1
                seen.add(pick)
                picks.append(pick)
        # the shuffle: each position i, from the last down to `stop`, swaps with a draw from [0, i]
        for b, w in zip(range(len(picks), stop, -1), self._words):
            if (m := w * b) & _MASK32 < b:
                m = _redraw(word, m, b)
            j = m >> 32
            picks[b - 1], picks[j] = picks[j], picks[b - 1]
        del picks[: len(picks) - k]  # the tail shuffle keeps its last k entries
        return picks


def _first_words(bitgen: PCG64) -> tuple[int, ...]:
    """The first _FIRST_BATCH PCG64 outputs as 32-bit words, low half first, on any host."""
    return _UNPACK_FIRST(np.asarray(bitgen.random_raw(_FIRST_BATCH), "<u8").tobytes())


def _later_words(bitgen: PCG64) -> memoryview:
    """The next _BATCH outputs as :func:`_first_words` orders them, each made an int only when it is drawn."""
    return memoryview(np.asarray(bitgen.random_raw(_BATCH), "<u8").view("<u4").astype("=u4"))


def _redraw(word: Callable[[], int], m: int, bound: int) -> int:
    """Finish a bounded draw whose product `m` has a low word below `bound`.

    The draw is redrawn while the low word is below ``2**32 % bound``.
    """
    _check_size(bound)
    threshold = (1 << 32) % bound
    while m & _MASK32 < threshold:
        m = word() * bound
    return m


def _check_size(n: int) -> None:
    if n > 2**32:  # positions above 2**32 - 1 would need numpy's 64-bit draws
        raise ValueError(f"draw bounds above 2**32 are not supported, got {n}")


class SeedWords(ISeedSequence):
    """Hands PCG64 the four uint64 seeding words precomputed for one index."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks with np.uint64 itself, tested first; a request for other than 4 uint64
        # words means a numpy that seeds PCG64 otherwise
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise RuntimeError(f"seed words are 4 uint64, asked for {n_words} {np.dtype(dtype)}")
        return self._words


def _hash_consts(init: int, mult: int, calls: int) -> list[int]:
    """The constants of `calls` hashmix calls: call k xors with entry k and multiplies by entry k + 1."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


_OUT_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]  # generate_state's 8 calls


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64)`` for each start <= i < stop, a row each.

    numpy mixes the seed into ``SeedSequence(seed).pool`` as it does under a
    spawn key, zero padding included.  The spawn word, one more word hashed
    into each pool word, is hashed here for every index at once: the pool
    becomes a (4, count) array, one column per index.
    """
    pool = SeedSequence(seed).pool[:, None]
    # the seed took 4 hashmix calls per uint32 word, and a seed of up to 4 words counts as 4
    k = _POOL_SIZE * max(_POOL_SIZE, -(-operator.index(seed).bit_length() // 32))
    consts = np.array(_hash_consts(_INIT_A, _MULT_A, k + _POOL_SIZE), dtype=np.uint32)[k:, None]
    pool = _mix(pool, _hashmix(np.arange(start, stop, dtype=np.uint32), consts[:-1], consts[1:]))
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
    bytes per index; each stream's PCG64 is built only when it is taken.
    """
    _check_count(count)
    return (PcgStream(SeedWords(words)) for words in _seed_words(seed, 0, count))


def _check_count(count: int) -> None:
    if not 0 <= count <= 2**32:  # each index is one uint32 spawn word
        raise ValueError(f"count must be in [0, 2**32], got {count}")


def exemplar_orders(seed: int, count: int, split: int, total: int) -> Iterator[list[int]]:
    """The exemplar order of each record i < count, as ``substream(seed, i)`` draws it, in order.

    A record's order is what these calls on its stream give, with k =
    EXEMPLARS_PER_VARIANT: ``distinct_indices(split, k)``, then ``split +``
    each index of ``distinct_indices(total - split, k)``, then those 2k picks
    in the order of ``permutation(2 * k)``.  The orders are drawn
    _ORDER_CHUNK records at a time: each record's first _ORDER_OUTPUTS PCG64
    outputs go into one row of a word matrix, and every draw runs over all
    rows at once in numpy, by the rules of :class:`PcgStream`.  A record
    whose draws need more words than its row holds is drawn again in full by
    :func:`_stream_order`.  At k = 3 ``choice`` never takes numpy's tail
    shuffle (n above 10,000 and k above n // 50), so none is drawn here.
    """
    _check_count(count)
    for n in (split, total - split):
        if n < EXEMPLARS_PER_VARIANT:
            raise ValueError(f"cannot take {EXEMPLARS_PER_VARIANT} distinct indices from range({n})")
        _check_size(n)
    chunks = (_seed_words(seed, start, min(start + _ORDER_CHUNK, count)) for start in range(0, count, _ORDER_CHUNK))
    return chain.from_iterable(_chunk_orders(seeds, split, total) for seeds in chunks)


def _stream_order(stream: PcgStream, split: int, total: int) -> list[int]:
    """One record's exemplar order (:func:`exemplar_orders`) from its stream's own calls."""
    k = EXEMPLARS_PER_VARIANT
    picks = stream.distinct_indices(split, k)
    picks += [split + i for i in stream.distinct_indices(total - split, k)]
    return [picks[i] for i in stream.permutation(2 * k)]


def _chunk_orders(seeds: np.ndarray, split: int, total: int) -> list[list[int]]:
    """:func:`exemplar_orders` for the records whose seeding words are the rows of `seeds`."""
    rows, k = _WordRows(seeds), EXEMPLARS_PER_VARIANT
    picks = np.hstack([rows.distinct_indices(split, k), split + rows.distinct_indices(total - split, k)])
    orders = np.take_along_axis(picks, rows.permutation(2 * k), axis=1).tolist()
    for r in np.flatnonzero(rows.spent):
        orders[r] = _stream_order(PcgStream(SeedWords(seeds[r])), split, total)
    return orders


class _WordRows:
    """The draws of :class:`PcgStream` over many streams at once, one row of 32-bit words per stream.

    Each row has its own read position, since a rejected draw takes another
    word of its row only.  A row whose words run out reads 0 from a pad
    column from then on, which ends every rejection loop; it is marked
    :attr:`spent`, and its draws are to be discarded.
    """

    def __init__(self, seeds: np.ndarray):
        """The first _ORDER_OUTPUTS outputs of each row of seeding words' PCG64."""
        outputs = np.zeros((len(seeds), _ORDER_OUTPUTS + 1), np.uint64)  # the last output of each row is the pad
        for row, words in zip(outputs, seeds):
            row[:-1] = PCG64(SeedWords(words)).random_raw(_ORDER_OUTPUTS)
        # low half first on any host; held as uint64 so that a word times a bound is a uint64
        # product under every numpy's casting rules, not a uint32 one that wraps
        self._words = outputs.astype("<u8", copy=False).view("<u4").astype(np.uint64)
        self._width = 2 * _ORDER_OUTPUTS
        self._all = np.arange(len(seeds))
        self._pos = np.zeros(len(seeds), np.intp)

    @property
    def spent(self) -> np.ndarray:
        """Whether each row read past its last word."""
        return self._pos > self._width

    def _next(self, rows: np.ndarray) -> np.ndarray:
        pos = self._pos[rows]
        self._pos[rows] = pos + 1
        return self._words[rows, np.minimum(pos, self._width)]

    def _live(self, rows: np.ndarray) -> np.ndarray:
        return rows[self._pos[rows] <= self._width]

    def _bounded(self, bound: int) -> np.ndarray:
        """Each row's draw from [0, bound), Lemire's method as in :meth:`PcgStream.pick_each`."""
        if bound == 1:  # a draw from [0, 0] takes no word
            return np.zeros(len(self._all), np.int64)
        m = self._next(self._all) * np.uint64(bound)  # below 2**64: a word is below 2**32, the bound at most 2**32
        threshold = (1 << 32) % bound
        redo = self._live(np.flatnonzero(m & _MASK32 < threshold))
        while redo.size:
            m[redo] = self._next(redo) * np.uint64(bound)
            redo = self._live(redo[m[redo] & _MASK32 < threshold])
        return (m >> 32).astype(np.int64)

    def _swap(self, table: np.ndarray, i: int, j: np.ndarray) -> None:
        """Swap column i of each row with that row's column j."""
        column = table[:, i].copy()
        table[:, i] = table[self._all, j]
        table[self._all, j] = column

    def distinct_indices(self, n: int, k: int) -> np.ndarray:
        """Each row's :meth:`PcgStream.distinct_indices` picks, a row each; no tail shuffle.

        At k == n Floyd's step j finds 0 .. j - 1 taken, so it takes j.
        """
        picks = np.empty((len(self._all), k), np.int64)
        for t, bound in enumerate(range(n - k + 1, n + 1)):
            pick = self._bounded(bound)
            taken = (picks[:, :t] == pick[:, None]).any(axis=1)
            picks[:, t] = np.where(taken, bound - 1, pick)
        for bound in range(k, 1, -1):
            self._swap(picks, bound - 1, self._bounded(bound))
        return picks

    def permutation(self, n: int) -> np.ndarray:
        """Each row's :meth:`PcgStream.permutation` of range(n), a row each."""
        perm = np.tile(np.arange(n), (len(self._all), 1))
        mask = (1 << (n - 1).bit_length()) - 1
        half = mask >> 1
        for i in range(n - 1, 0, -1):
            if i == half:
                mask, half = half, half >> 1
            j = self._next(self._all) & np.uint64(mask)
            redo = self._live(np.flatnonzero(j > i))
            while redo.size:
                j[redo] = self._next(redo) & np.uint64(mask)
                redo = self._live(redo[j[redo] > i])
            self._swap(perm, i, j.astype(np.intp))
        return perm
