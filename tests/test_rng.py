"""`PcgStream.pick_each` draws exactly what one scalar draw per element would.

Corpus bytes rest on this: each pipeline stage takes all of its draws in one
`Generator.integers(bounds)` call, and must give the values, in the same
order, of one `Generator.integers(bound)` call per decision.
"""

from __future__ import annotations

from numpy.random import PCG64, Generator, SeedSequence

from pricetree.formulas import COEFFICIENT_CHOICES
from pricetree.rng import PcgStream
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
        batched = PcgStream.from_seed(seed)
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
        assert PcgStream.from_seed(seed).pick_each([range(b) for b in bounds]) == singles, seed


def test_empty_batch_draws_nothing():
    stream, fresh = PcgStream.from_seed(4), PcgStream.from_seed(4)
    assert stream.pick_each([]) == []
    assert stream.pick_each([COEFFICIENT_CHOICES] * 3) == fresh.pick_each([COEFFICIENT_CHOICES] * 3)
