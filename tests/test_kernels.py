"""Seeded differential check of the labeled-product kernels.

CoeffSeq's product, logarithm and substitution, CoeffTable's product and the
blocked sort merge are compared with the math.comb references in
bruteforce.py on signed virtual inputs, at the edge truncations 0, 1, 2 and
well past the exhaustive range.
"""

import random
from itertools import product

import pytest

from bruteforce import (
    identified_sorts,
    labeled_compose,
    labeled_log,
    labeled_product,
    labeled_table_product,
)
from recdig.digraphs import digraph_table
from recdig.series import CoeffSeq, ShapeError, atom
from recdig.tables import CoeffTable, _block_size, merge_sorts

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


def test_block_size_keeps_weights_in_one_digit():
    assert [_block_size(n) for n in (0, 1, 2, 120, 600, 1000, 2000)] == [
        1, 2, 3, 5, 4, 4, 3,
    ]
    for n in range(300):
        size = _block_size(n)
        assert 1 <= size <= n + 1
        assert (n + 1) ** (size - 1) < 2**30
        assert size == n + 1 or (n + 1) ** size >= 2**30


@pytest.mark.parametrize("seed", SEEDS)
def test_identify_merge_matches_comb_reference(seed):
    # Every nmax 0..40 ends in a short last block for some block size;
    # nmax 0 and 1 are the one-block tables.
    rng = random.Random(seed)
    for n in range(41):
        a = _signed_table(rng, n)
        assert list(a.identify_sorts().counts) == identified_sorts(a.rows), n
        assert list(a.concat_sorts().counts) == [
            sum(a.rows[i][m - i] for i in range(m + 1)) for m in range(n + 1)
        ], n


@pytest.mark.parametrize("identify", [True, False])
@pytest.mark.parametrize("nmax", [0, 1, 7, 40, 300])
def test_merge_pulls_at_most_one_block_ahead(identify, nmax):
    # Count n is yielded once the block that holds row n is read, so the
    # first k counts pull at most one block of rows beyond row k - 1.
    table = digraph_table(atom("S", nmax), nmax)
    expected = table.identify_sorts() if identify else table.concat_sorts()
    pulled = []

    def rows():
        for i, row in enumerate(table.rows):
            pulled.append(i)
            yield row

    size = _block_size(nmax) if identify else 1
    merged = merge_sorts(rows(), nmax, identify)
    for k in range(1, nmax + 2):
        assert next(merged) == expected.counts[k - 1]
        assert k <= len(pulled) <= k - 1 + size
    assert next(merged, None) is None


def test_merge_rejects_a_short_table():
    # At nmax 10 the identify blocks hold rows 0..8 and 9..10: ten rows
    # leave the last block one row short, five leave the first block short
    # and the last one missing.
    rows = digraph_table(atom("S", 10), 10).rows
    for short, identify in product((rows[:10], rows[:5]), (True, False)):
        with pytest.raises(ShapeError):
            list(merge_sorts(short, 10, identify))
    # The counts that the rows read make final still come out first.
    merged = merge_sorts([[1, 2, 3], [4, 5]], 2, identify=False)
    assert [next(merged), next(merged)] == [1, 6]
    with pytest.raises(ShapeError):
        next(merged)


def test_row_kernel_is_generic_in_its_number_type():
    # table psi seeds _rows with Decimal counts and prints the cells, so
    # every branch of the kernel must give the int values with exact
    # integer Decimals: a = 1 with nu = (1,) (L, digraph_rows' tail), a = 1
    # with nu[0] = 0 and e > 0 (L+), a = 0 with e = nmax (E, Bal), and a
    # nonzero a != 1 (2^m m!, whose tail is (2, (1,))).
    from decimal import (
        MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded,
        localcontext,
    )
    from math import factorial

    from recdig.digraphs import _branch_tail, _rows

    n = 40
    tails = [_branch_tail(atom(name, n).counts, n) for name in ("L", "L+", "E", "Bal")]
    tails.append(_branch_tail([2**m * factorial(m) for m in range(n + 1)], n))
    assert [(a, len(nu) - 1) for a, nu in tails] == [
        (1, 0), (1, 1), (0, n), (0, n), (2, 0)
    ]
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                    traps=[Inexact, Rounded])
    for rec in ("S", "Der", "X"):
        seeds = atom(rec, n).counts
        for a, nu in tails:
            expected = [[str(c) for c in row] for row in _rows(seeds, a, nu, n)]
            with localcontext(exact):
                rows = _rows([Decimal(c) for c in seeds], a, nu, n)
                assert [[str(c) for c in row] for row in rows] == expected, (rec, a, nu)
