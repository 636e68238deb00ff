"""r-Stirling numbers of the second kind and their consecutive-r differences.

Everything here is exact integer arithmetic.  The difference numbers
sdiff(n, m, r) count set partitions of [n] into m blocks where r is the
largest prefix length such that 1, ..., r land in pairwise distinct blocks.
Summed against a recurrent sequence they give the closed form, which
checks the counts that `digraphs.count_sequence` serves; only `table
sdiff` and `check identities` print values computed here.  Every reader
in the package takes columns from one iterative builder, sdiff_rows:
table sdiff, the closed form (`digraphs._closed_form`: every closed-form
count, the statistic totals and the identity suite), iter_sdiff_levels,
and r_stirling, which telescopes: S_r(n, m) = sum over q >= r of
sdiff(n, m, q).  The recursive, cached sdiff is the reference that the
tests check sdiff_rows against; no code in the package calls it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterator


def sdiff_rows(r: int, nmax: int) -> Iterator[list[int]]:
    """Yield row n = [sdiff(n, m, r) for m in 0..n] for n = 0..nmax.

    Row n is m * prev[m] + prev[m - 1], anchored at the all-singletons
    partition (sdiff(r, r, r) = 1), with one genuine exception: sdiff(r + 1,
    r + 1, r) = 0, since all singletons have maximal prefix r + 1, never r.
    Rows below r are zero and are yielded without arithmetic.  Each row is
    a new list and only the previous one is kept, so memory is O(nmax)
    integers.
    """
    row: list[int] = []
    for n in range(nmax + 1):
        if n < r:
            row = [0] * (n + 1)
        else:
            row = [m * a + b for m, a, b in zip(range(n + 1), row + [0], [0] + row)]
            if n <= r + 1:
                row[n] = int(n == r)  # the anchor and the exception
        yield row


def iter_sdiff_levels(nmax: int) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """Yield (n, level) for n = 0..nmax where level[m][r] = sdiff(n, m, r).

    Reads the columns r = 0..nmax of sdiff_rows side by side, so memory
    stays O(nmax^2).  No command sweeps levels; this stays because the
    benchmark's `stirling.levels_s` probe (bench/probes.py) times it.
    """
    columns = zip(*(sdiff_rows(r, nmax) for r in range(nmax + 1)))
    for n, rows in enumerate(columns):
        yield n, tuple(zip(*rows[: n + 1]))


def r_stirling(n: int, m: int, r: int) -> int:
    """Set partitions of [n] into m blocks with 1, ..., r in distinct blocks:
    the sum of sdiff(n, m, q) over q >= r, read from row n of each column
    q of sdiff_rows.  Out of range, it is 0."""
    if not (0 <= m <= n and r >= 0):
        return 0
    return sum(next(islice(sdiff_rows(q, n), n, None))[m] for q in range(r, n + 1))


@lru_cache(maxsize=None)
def sdiff(n: int, m: int, r: int) -> int:
    """Partitions of [n] into m blocks where r is maximal with 1..r separated.

    sdiff_rows's recurrence, recursive and cached: the tests' reference
    for sdiff_rows.  No code in the package calls it; it stays while the
    benchmark's probes read its cache.  Out of range, it is 0.
    """
    if not (0 <= r <= n and 0 <= m <= n):
        return 0
    if r == n or m == n == r + 1:
        return int(m == n == r)  # the anchor and the exception
    return m * sdiff(n - 1, m, r) + sdiff(n - 1, m - 1, r)
