"""r-Stirling numbers of the second kind and their consecutive-r differences.

Everything here is exact integer arithmetic.  The difference numbers
sdiff(n, m, r) count set partitions of [n] into m blocks where r is the
largest prefix length such that 1, ..., r land in pairwise distinct blocks.
Summed against a recurrent sequence they give the closed form, which
checks the counts that `digraphs.count_sequence` serves; only `table
sdiff` and `check identities` print values computed here.  Columns come
from one iterative builder, sdiff_rows (table sdiff, iter_sdiff_levels);
points from the cached sdiff (closed-form totals, identity suite); and
r_stirling telescopes: S_r(n, m) = sum over q >= r of sdiff(n, m, q).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator


def sdiff_rows(r: int, nmax: int) -> Iterator[list[int]]:
    """Yield row n = [sdiff(n, m, r) for m in 0..n] for n = 0..nmax.

    Row n is m * prev[m] + prev[m - 1], anchored at the all-singletons
    partition (sdiff(r, r, r) = 1), with one genuine exception: sdiff(r + 1,
    r + 1, r) = 0, since all singletons have maximal prefix r + 1, never r.
    Rows below r are zero.  Each row is a new list and only the previous
    one is kept, so memory is O(nmax) integers.
    """
    row: list[int] = []
    for n in range(nmax + 1):
        row = [m * a + b for m, a, b in zip(range(n + 1), row + [0], [0] + row)]
        if r <= n <= r + 1:
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
    the sum of sdiff(n, m, q) over q >= r.  Out of range, it is 0."""
    return sum(sdiff(n, m, q) for q in range(r, n + 1)) if r >= 0 else 0


@lru_cache(maxsize=None)
def sdiff(n: int, m: int, r: int) -> int:
    """Partitions of [n] into m blocks where r is maximal with 1..r separated.

    The point lookup for callers that read single cells of many columns:
    sdiff_rows's recurrence, recursive and cached.  Out of range, it is 0.
    """
    if not (0 <= r <= n and 0 <= m <= n):
        return 0
    if r == n or m == n == r + 1:
        return int(m == n == r)  # the anchor and the exception
    return m * sdiff(n - 1, m, r) + sdiff(n - 1, m - 1, r)
