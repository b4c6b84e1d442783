"""Corpus bytes rest on two facts about the draw streams, tested here.

`substream` and `substreams` seed PCG64 exactly as numpy's
``SeedSequence(seed, spawn_key=(index,))`` does.  And every `PcgStream`
draw, computed in plain Python from PCG64's raw words, equals numpy's
``Generator`` on the same PCG64, call by call: `pick_each` as one
``integers(len(seq))`` call per sequence, `permutation` as
``permutation(n)`` and `distinct_indices` as ``choice(n, k, replace=False)``.
The few-shot exemplar orders, drawn for many records at once by
`exemplar_orders`, equal both those calls on each record's stream.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence

from pricetree import rng
from pricetree.formulas import COEFFICIENT_CHOICES
from pricetree.rng import PcgStream, SeedWords, exemplar_orders, substream, substreams
from pricetree.tree import PRICE_MAX, PRICE_MIN, PRICES


def stages(seed: int) -> list[list]:
    """The choice lists of one pair, in draw order; their lengths vary with the seed,
    so odd and even element counts both meet the generator's 32-bit halves."""
    num_vars = 2 + seed % 44
    ans_depth = 2 + seed % (num_vars - 1)
    relations = 1 + seed % num_vars
    return [
        [PRICES] * num_vars,
        [range(i) for i in range(ans_depth + 1, num_vars + 1)],
        [COEFFICIENT_CHOICES] * (2 * relations),
        [(False, True)] * (seed % 7),
    ]


def scalar_draws(gen: Generator, stage: int, choices: list) -> list:
    """What one scalar call per element gives, as the pipeline drew before batching."""
    if stage == 0:
        return [int(gen.integers(PRICE_MIN, PRICE_MAX + 1)) for _ in choices]
    return [seq[int(gen.integers(len(seq)))] for seq in choices]


def test_batches_equal_scalar_draws_for_seeds_0_to_199():
    for seed in range(200):
        batched = PcgStream(SeedSequence(seed))
        scalar = Generator(PCG64(SeedSequence(seed)))
        for stage, choices in enumerate(stages(seed)):
            assert batched.pick_each(choices) == scalar_draws(scalar, stage, choices), (seed, stage)
        # the streams are still in step for the draws that follow
        assert batched.permutation(9) == scalar.permutation(9).tolist(), seed


def test_indices_equal_single_integer_calls():
    bounds = [11] * 5 + [6] * 4 + [2] * 3 + list(range(1, 12))
    for seed in range(200):
        gen = Generator(PCG64(SeedSequence(seed)))
        singles = [int(gen.integers(b)) for b in bounds]
        assert PcgStream(SeedSequence(seed)).pick_each([range(b) for b in bounds]) == singles, seed


def test_empty_batch_draws_nothing():
    stream, fresh = PcgStream(SeedSequence(4)), PcgStream(SeedSequence(4))
    assert stream.pick_each([]) == []
    assert stream.pick_each([COEFFICIENT_CHOICES] * 3) == fresh.pick_each([COEFFICIENT_CHOICES] * 3)


def numpy_call(gen: Generator, name: str, arg):
    """What numpy's Generator gives for one PcgStream call."""
    if name == "pick_each":
        return [int(gen.integers(bound)) for bound in arg]
    if name == "permutation":
        return gen.permutation(arg).tolist()
    n, k = arg
    return gen.choice(n, size=k, replace=False).tolist()


def stream_call(stream: PcgStream, name: str, arg):
    if name == "pick_each":
        return stream.pick_each([range(bound) for bound in arg])
    if name == "permutation":
        return stream.permutation(arg)
    return stream.distinct_indices(*arg)


# a bound of 1 draws nothing and one of 2**32 returns the word; the rest take Lemire's step
_BOUNDS = st.sampled_from([1, 2, 6, 11, 2**31, 2**32 - 1, 2**32]) | st.integers(1, 2**32)
# choice(n, k) shuffles the tail of range(n) when n > 10000 and k > n // 50, and runs Floyd otherwise
_TAIL_EDGES = [(n, k) for n in (10_001, 20_000) for k in (n // 50, n // 50 + 1)]
# permutation's mask narrows by a bit as position i falls below each power of two
_MASK_EDGES = [2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]


@st.composite
def _choice_args(draw) -> tuple[int, int]:
    n = draw(st.sampled_from([0, 1, 6, 200, 10_000, 10_001, 20_000]) | st.integers(0, 300))
    k = draw(st.sampled_from([0, n, n // 50, n // 50 + 1, 3]) | st.integers(0, n))
    return n, min(k, n)


_CALLS = st.lists(
    st.tuples(st.just("pick_each"), st.lists(_BOUNDS, max_size=12))
    | st.tuples(st.just("permutation"), st.sampled_from([0, 1, 6, 45]) | st.integers(0, 80))
    | st.tuples(st.just("distinct_indices"), _choice_args()),
    max_size=6,
)


@given(seed=st.integers(0, 2**128), calls=_CALLS)
@example(seed=0, calls=[("pick_each", [1, 2, 6, 11, 2**31, 2**32 - 1, 2**32]), ("pick_each", [])])
@example(seed=1, calls=[("permutation", n) for n in (0, 1, 6, 45)])
@example(seed=2, calls=[("distinct_indices", nk) for nk in [(0, 0), (7, 0), (7, 7), (45, 45), (10_000, 10_000)]])
@example(seed=3, calls=[("distinct_indices", nk) for nk in [(20_000, 20_000), *_TAIL_EDGES]])
@example(seed=4, calls=[("pick_each", [2**32] * 3), ("permutation", 6), ("distinct_indices", (1, 1))])
@example(seed=5, calls=[("distinct_indices", (200, 3)), ("distinct_indices", (200, 3)), ("permutation", 6)])
@example(seed=6, calls=[("permutation", n) for n in _MASK_EDGES])
# the stream's first batch holds 32 words and the next 512: draws that end around its edges
@example(seed=7, calls=[("pick_each", [6] * 31), ("pick_each", [11] * 3)])
@example(seed=7, calls=[("pick_each", [6] * 32), ("pick_each", [11] * 3)])
@example(seed=7, calls=[("pick_each", [6] * 33), ("pick_each", [11] * 3)])
@example(seed=8, calls=[("pick_each", [6] * 700), ("permutation", 6)])
def test_stream_calls_equal_numpy_generator(seed, calls):
    stream = PcgStream(SeedSequence(seed))
    gen = Generator(PCG64(SeedSequence(seed)))
    for name, arg in calls:
        assert stream_call(stream, name, arg) == numpy_call(gen, name, arg), (name, arg)


@pytest.mark.parametrize("seed, n", [(0, 1), (0, 2), (0, 45), (0, 10_000), (29, 10_000)])
def test_taking_every_index_draws_each_floyd_step(seed, n):
    # at k == n Floyd's step j always takes j, yet each step's draw (seed 29 redraws at bound 6588) takes its words
    stream = PcgStream(SeedSequence(seed))
    gen = Generator(PCG64(SeedSequence(seed)))
    assert stream.distinct_indices(n, n) == gen.choice(n, n, replace=False).tolist()
    bounds = [2**31, 6, 2**32 - 1]  # the next draws start where numpy's do
    assert stream_call(stream, "pick_each", bounds) == numpy_call(gen, "pick_each", bounds)


@pytest.mark.parametrize("n, k", [(3, 4), (5, -1), (-1, 0)])
def test_distinct_indices_outside_range_raise_as_numpy_does(n, k):
    with pytest.raises(ValueError):
        Generator(PCG64(SeedSequence(0))).choice(n, size=k, replace=False)
    with pytest.raises(ValueError, match=rf"cannot take {k} distinct indices from range\({n}\)"):
        PcgStream(SeedSequence(0)).distinct_indices(n, k)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.pick_each([range(2**32 + 1)]),
        lambda s: s.pick_each([range(6), range(2**40)]),
        lambda s: s.permutation(2**32 + 1),
        lambda s: s.distinct_indices(2**32 + 1, 3),
    ],
)
def test_bounds_above_2_to_the_32_raise(call):
    # numpy would take its 64-bit draw path for them, which the stream does not implement
    with pytest.raises(ValueError, match=r"draw bounds above 2\*\*32 are not supported"):
        call(PcgStream(SeedSequence(0)))


def test_empty_sequence_raises():
    with pytest.raises(ValueError, match="cannot pick from an empty sequence"):
        PcgStream(SeedSequence(0)).pick_each([range(3), ()])


def numpy_state(seed: int, index: int) -> dict:
    return PCG64(SeedSequence(seed, spawn_key=(index,))).state


def stream_state(stream: PcgStream) -> dict:
    return stream._bitgen.state


_SEEDS = st.integers(0, 2**256)  # past the 4-word pool, later seed words are hashed one by one
# one spawn word, the last one, the first of two words and the first of three
_INDICES = st.sampled_from([0, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**70)


@given(seed=_SEEDS, index=_INDICES)
@example(seed=0, index=0)
@example(seed=2**128 - 1, index=2**32 - 1)
@example(seed=2**128, index=0)
def test_substream_seeds_pcg64_as_numpy_does(seed, index):
    assert stream_state(substream(seed, index)) == numpy_state(seed, index)


@given(seed=_SEEDS, count=st.integers(0, 40))
@example(seed=2**32, count=3)  # a seed of two words, padded to the pool size
@example(seed=2**128 - 1, count=3)  # four words, none past the pool
@example(seed=2**128, count=3)  # a seed of five words, one past the pool
@example(seed=2**160, count=3)  # six words
@example(seed=2**256, count=3)  # nine words, the most the strategy draws
@example(seed=np.int64(5), count=3)  # numpy integers, which have no bit_length
@example(seed=np.uint64(2**64 - 1), count=3)
def test_substreams_seed_pcg64_as_numpy_does(seed, count):
    states = [stream_state(stream) for stream in substreams(seed, count)]
    assert states == [numpy_state(seed, index) for index in range(count)]


# SeedSequence (NEP 19) and PCG64 (XSL-RR 128/64) in Python ints, from their published definitions,
# so that a numpy release that changed either would fail here by name, not only as a digest mismatch
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    return [value >> shift & _M32 for shift in range(0, max(value.bit_length(), 1), 32)]


def reference_seed_words(seed: int, index: int) -> list[int]:
    """``SeedSequence(seed, spawn_key=(index,)).generate_state(4, np.uint64)``."""
    entropy = _uint32_words(seed)
    entropy += [0] * (4 - len(entropy)) + _uint32_words(index)  # the seed padded to the pool when spawned
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (x * 0xCA01F9DD - y * 0x4973F715) & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, const = [], 0x8B51F9DD
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


def reference_raw(words: list[int], count: int) -> list[int]:
    """``PCG64`` seeded with `words` (state words 0-1, increment words 2-3): its first `count` outputs."""
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _M128  # srandom: step, add, step
    raw = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _M128
        xored, rotation = (state >> 64 ^ state) & _M64, state >> 122
        raw.append((xored >> rotation | xored << (-rotation & 63)) & _M64)
    return raw


@pytest.mark.parametrize("seed, index", [(0, 0), (3, 1), (2**32, 7), (2**128 - 1, 2**32 - 2), (2**160 + 9, 5)])
def test_seeding_and_pcg64_equal_a_reference_without_numpy(seed, index):
    words = reference_seed_words(seed, index)
    assert SeedSequence(seed, spawn_key=(index,)).generate_state(4, np.uint64).tolist() == words
    assert rng._seed_words(seed, index, index + 1).tolist() == [words]
    assert PCG64(SeedSequence(seed, spawn_key=(index,))).random_raw(40).tolist() == reference_raw(words, 40)


@pytest.mark.parametrize(
    "n_words, dtype", [(8, np.uint64), (4, np.uint32), pytest.param(4, "uint32", id="4-str-uint32"), (2, np.uint64)]
)
def test_seed_words_serve_only_what_pcg64_asks_for(n_words, dtype):
    words = SeedSequence(3).generate_state(4, np.uint64)
    assert SeedWords(words).generate_state(4, np.uint64) is words
    with pytest.raises(RuntimeError, match="seed words are 4 uint64"):
        SeedWords(words).generate_state(n_words, dtype)


@pytest.mark.parametrize("dtype", ["uint64", "u8", np.dtype(np.uint64)], ids=["str-uint64", "str-u8", "dtype-uint64"])
def test_seed_words_take_any_spelling_of_uint64(dtype):
    # PCG64 passes np.uint64 itself; the words are served for any other name of that dtype too
    words = SeedSequence(3).generate_state(4, np.uint64)
    assert SeedWords(words).generate_state(4, dtype) is words


def test_substreams_build_each_generator_when_it_is_taken(monkeypatch):
    built = []
    monkeypatch.setattr(rng, "PCG64", lambda seed_seq: built.append(seed_seq) or PCG64(seed_seq))
    streams = substreams(5, 3)
    assert isinstance(streams, Iterator) and not isinstance(streams, list)
    assert built == []
    next(streams)
    assert len(built) == 1
    assert len(list(streams)) == 2 and len(built) == 3


@pytest.mark.parametrize("call", [lambda: substream(-1, 0), lambda: substream(0, -1), lambda: substreams(-1, 2)])
def test_negative_seed_or_index_raises_as_seed_sequence_does(call):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        SeedSequence(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        call()


def test_count_above_2_to_the_32_raises():
    with pytest.raises(ValueError, match=r"count must be in \[0, 2\*\*32\], got 4294967297"):
        substreams(0, 2**32 + 1)


def numpy_order(seed: int, index: int, split: int, total: int) -> list[int]:
    """Record `index`'s exemplar order from numpy's Generator on its PCG64."""
    k = rng.EXEMPLARS_PER_VARIANT
    gen = Generator(PCG64(SeedSequence(seed, spawn_key=(index,))))
    picks = gen.choice(split, k, replace=False).tolist()
    picks += [split + i for i in gen.choice(total - split, k, replace=False).tolist()]
    return [picks[i] for i in gen.permutation(2 * k)]


def stream_order(stream: PcgStream, split: int, total: int) -> list[int]:
    """A record's exemplar order from its stream's scalar calls."""
    k = rng.EXEMPLARS_PER_VARIANT
    picks = stream.distinct_indices(split, k)
    picks += [split + i for i in stream.distinct_indices(total - split, k)]
    return [picks[i] for i in stream.permutation(2 * k)]


# (split, total): each pool's Floyd bounds run from its size - 2 to its size.  Splits 3 and
# total - split 3 take every index (k == n).  Bounds just above 2**31 reject about half their
# draws, so about 1 row in 80 of the last case needs more than its 32 words; 2**32, the largest
# bound, makes a word times the bound fill 64 bits.
_ORDER_CASES = [(3, 10), (4, 7), (200, 403), (10_001, 10_201), (2**31 + 1, 2**31 + 1 + 2**32), (2**31 + 3, 2**32 + 6)]


@pytest.mark.parametrize("split, total", _ORDER_CASES)
def test_exemplar_orders_equal_numpy_generator_and_stream_calls(split, total):
    count = 1025  # one row past a chunk
    orders = list(exemplar_orders(11, count, split, total))
    assert orders == [numpy_order(11, i, split, total) for i in range(count)]
    assert orders == [stream_order(stream, split, total) for stream in substreams(11, count)]


def test_exemplar_order_cases_include_rows_that_run_out_of_words():
    split, total = _ORDER_CASES[-1]
    streams = list(substreams(11, 1025))
    for stream in streams:
        stream_order(stream, split, total)
    # a stream that drew past its first 16 outputs took a second batch
    first_batch = [PCG64(SeedSequence(11, spawn_key=(i,))).advance(16).state for i in range(len(streams))]
    assert sum(stream_state(s) != state for s, state in zip(streams, first_batch)) > 0


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_exemplar_orders_across_chunk_edges(count):
    orders = exemplar_orders(5, count, 200, 403)
    assert isinstance(orders, Iterator)
    assert list(orders) == [stream_order(stream, 200, 403) for stream in substreams(5, count)]


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 3, 2, 10), r"cannot take 3 distinct indices from range\(2\)"),
        ((0, 3, 10, 12), r"cannot take 3 distinct indices from range\(2\)"),
        ((0, 3, 2**32 + 1, 2**32 + 4), r"draw bounds above 2\*\*32 are not supported"),
        ((0, 2**32 + 1, 3, 6), r"count must be in \[0, 2\*\*32\], got 4294967297"),
    ],
)
def test_exemplar_orders_reject_what_they_cannot_draw_before_drawing(args, message):
    with pytest.raises(ValueError, match=message):
        exemplar_orders(*args)


def test_exemplar_words_are_uint64_so_a_word_times_a_bound_cannot_wrap():
    # numpy 1's value-based casting keeps uint32 * np.uint64(small bound) in uint32
    rows = rng._WordRows(rng._seed_words(0, 0, 2))
    assert rows._next(rows._all).dtype == np.uint64
