"""Seeded differential check of the labeled-product kernels.

CoeffSeq's product, logarithm and substitution and CoeffTable's product are
compared with the math.comb references in bruteforce.py on signed virtual
inputs, at the edge truncations 0, 1, 2 and well past the exhaustive range.
"""

import random

import pytest

from bruteforce import (
    labeled_compose,
    labeled_log,
    labeled_product,
    labeled_table_product,
)
from recdig.series import CoeffSeq
from recdig.tables import CoeffTable

SEEDS = (11, 12, 13)
SPAN = 10**6  # entries are drawn from [-SPAN, SPAN]


def _signed(rng, n, first=None):
    counts = [rng.randint(-SPAN, SPAN) for _ in range(n + 1)]
    if first is not None:
        counts[0] = first
    return CoeffSeq(tuple(counts), virtual=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_sequence_kernels_match_comb_reference(seed, n):
    rng = random.Random(seed * 1000 + n)
    for _ in range(3):
        a, b = _signed(rng, n), _signed(rng, n)
        assert list((a * b).counts) == labeled_product(a.counts, b.counts)
        unit = _signed(rng, n, first=1)
        assert list(unit.log().counts) == labeled_log(unit.counts)
        inner = _signed(rng, n, first=0)
        assert list(a.compose(inner).counts) == labeled_compose(
            a.counts, inner.counts
        )


def _signed_table(rng, n):
    rows = tuple(
        tuple(rng.randint(-SPAN, SPAN) for _ in range(n + 1 - i))
        for i in range(n + 1)
    )
    return CoeffTable(rows, virtual=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_table_product_matches_comb_reference(seed):
    rng = random.Random(seed)
    for n in range(11):
        tables = [
            _signed_table(rng, n),
            _signed_table(rng, n),
            CoeffTable.x_singleton(n),
            CoeffTable.y_singleton(n),
        ]
        for a in tables:
            for b in tables:
                expected = labeled_table_product(a.rows, b.rows)
                assert [list(r) for r in (a * b).rows] == expected, (n, a, b)
