"""r-Stirling numbers of the second kind and their consecutive-r differences.

Everything here is exact integer arithmetic.  The difference numbers
sdiff(n, m, r) count set partitions of [n] into m blocks where r is the
largest prefix length such that 1, ..., r land in pairwise distinct blocks.
Summed against a recurrent sequence they give the closed form, which
checks the counts that `digraphs.count_sequence` serves; only `table
sdiff` and `check identities` print values computed here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator


@lru_cache(maxsize=None)
def r_stirling(n: int, m: int, r: int) -> int:
    """Set partitions of [n] into m blocks with 1, ..., r in distinct blocks.

    Same recurrence as the classic Stirling numbers of the second kind,
    m*S(n-1, m) + S(n-1, m-1), valid for r < n, anchored at n = r where the
    only admissible partition is the all-singletons one (so S_n(n, m) is 1
    iff m = n).  Out-of-range arguments count nothing and return 0.
    """
    if n < 0 or m < 0 or r < 0:
        return 0
    if r > n or m > n:
        return 0
    if r == n:
        return 1 if m == n else 0
    return m * r_stirling(n - 1, m, r) + r_stirling(n - 1, m - 1, r)


@lru_cache(maxsize=None)
def sdiff(n: int, m: int, r: int) -> int:
    """Partitions of [n] into m blocks where r is maximal with 1..r separated.

    Equals r_stirling(n, m, r) - r_stirling(n, m, r + 1), but is computed by
    its own recurrence: the same two-term recurrence as r_stirling, with one
    genuine exception, sdiff(n, n, n-1) = 0.  (All-singleton partitions have
    maximal prefix n, never n-1; the unguarded recurrence would give 1 there
    and silently corrupt every later row.)
    """
    if n < 0 or m < 0 or r < 0:
        return 0
    if r > n or m > n:
        return 0
    if r == n:
        return 1 if m == n else 0
    if m == n and r == n - 1:
        return 0
    return m * sdiff(n - 1, m, r) + sdiff(n - 1, m - 1, r)


def iter_sdiff_levels(nmax: int) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """Yield (n, level) for n = 0..nmax where level[m][r] = sdiff(n, m, r).

    Builds each level from the previous one only, so memory stays O(n^2).
    No command sweeps levels any more; this stays because the benchmark's
    `stirling.levels_s` probe (bench/probes.py) times it.
    """
    prev: list[list[int]] | None = None
    for n in range(nmax + 1):
        level = [[0] * (n + 1) for _ in range(n + 1)]
        level[n][n] = 1
        for r in range(n):
            for m in range(n + 1):
                if m == n and r == n - 1:
                    continue  # the recurrence exception
                acc = 0
                if prev is not None:
                    if m <= n - 1:
                        acc = m * prev[m][r]
                    if 1 <= m:
                        acc += prev[m - 1][r]
                level[m][r] = acc
        yield n, tuple(tuple(row) for row in level)
        prev = level
