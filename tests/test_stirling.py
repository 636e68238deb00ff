import pytest

from bruteforce import r_stirling_brute, sdiff_histogram, set_partitions
from recdig.stirling import iter_sdiff_levels, r_stirling, sdiff, sdiff_rows

# The four printed golden triangles: TRIANGLES[r][n - 1][m - 1].
TRIANGLES = {
    1: [
        [1],
        [1, 0],
        [1, 1, 0],
        [1, 3, 1, 0],
        [1, 7, 6, 1, 0],
        [1, 15, 25, 10, 1, 0],
        [1, 31, 90, 65, 15, 1, 0],
        [1, 63, 301, 350, 140, 21, 1, 0],
    ],
    2: [
        [0],
        [0, 1],
        [0, 2, 0],
        [0, 4, 2, 0],
        [0, 8, 10, 2, 0],
        [0, 16, 38, 18, 2, 0],
        [0, 32, 130, 110, 28, 2, 0],
        [0, 64, 422, 570, 250, 40, 2, 0],
    ],
    3: [
        [0],
        [0, 0],
        [0, 0, 1],
        [0, 0, 3, 0],
        [0, 0, 9, 3, 0],
        [0, 0, 27, 21, 3, 0],
        [0, 0, 81, 111, 36, 3, 0],
        [0, 0, 243, 525, 291, 54, 3, 0],
    ],
    4: [
        [0],
        [0, 0],
        [0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 4, 0],
        [0, 0, 0, 16, 4, 0],
        [0, 0, 0, 64, 36, 4, 0],
        [0, 0, 0, 256, 244, 60, 4, 0],
    ],
}


@pytest.mark.parametrize("r", sorted(TRIANGLES))
def test_golden_triangles(r):
    for n in range(1, 9):
        for m in range(1, n + 1):
            assert sdiff(n, m, r) == TRIANGLES[r][n - 1][m - 1], (n, m, r)


def test_spot_values():
    assert sdiff(5, 2, 1) == 7
    assert sdiff(8, 4, 2) == 570
    assert sdiff(8, 3, 1) == 301
    assert sdiff(8, 4, 3) == 525
    assert sdiff(8, 4, 4) == 256


def test_initial_conditions():
    for n in range(8):
        for m in range(8):
            assert sdiff(n, m, n) == (1 if m == n else 0)
            assert r_stirling(n, m, n) == (1 if m == n else 0)
        assert sdiff(n, n, n - 1) == 0 or n == 0


def classic_stirling2(n):
    """Classic Stirling numbers S(n, m), m = 0..n, by counting partitions."""
    row = [0] * (n + 1)
    for blocks in set_partitions(n):
        row[len(blocks)] += 1
    return row


def test_r_stirling_matches_classic():
    # Distinctness of 1..r is vacuous for r <= 1.
    for n in range(1, 10):
        classic = classic_stirling2(n)
        for m in range(n + 1):
            assert r_stirling(n, m, 0) == r_stirling(n, m, 1) == classic[m]


def test_r_stirling_brute_force():
    for n in range(7):
        for m in range(n + 1):
            for r in range(n + 1):
                assert r_stirling(n, m, r) == r_stirling_brute(n, m, r), (n, m, r)
    assert r_stirling(4, 4, 4) == 1
    assert r_stirling(5, 3, 2) == r_stirling_brute(5, 3, 2)


def test_sdiff_is_consecutive_difference():
    for n in range(13):
        for m in range(13):
            for r in range(13):
                assert sdiff(n, m, r) == r_stirling(n, m, r) - r_stirling(
                    n, m, r + 1
                ), (n, m, r)


def test_sdiff_brute_force_histogram():
    # r is maximal with 1..r in distinct blocks; one sweep per n checks
    # every (m, r) cell at once.
    for n in range(9):
        hist = sdiff_histogram(n)
        for m in range(n + 1):
            for r in range(n + 1):
                assert sdiff(n, m, r) == hist.get((m, r), 0), (n, m, r)


def test_row_sums_telescope_to_stirling2():
    for n in range(11):
        classic = classic_stirling2(n)
        for m in range(n + 1):
            assert sum(sdiff(n, m, r) for r in range(n + 1)) == classic[m]


def test_zero_regions():
    for n in range(9):
        for m in range(9):
            for r in range(9):
                if r > n or m > n or m < r:
                    assert sdiff(n, m, r) == 0


def test_iter_levels_streams_the_same_values():
    for n, level in iter_sdiff_levels(9):
        for m in range(n + 1):
            for r in range(n + 1):
                assert level[m][r] == sdiff(n, m, r)


def test_rows_equal_the_point_lookup():
    # Every column r = 0..8 to n = 40, and columns past nmax (all zero).
    for r in range(9):
        for nmax in (0, 1, r - 1, r, 40):
            if nmax < 0:
                continue
            assert list(sdiff_rows(r, nmax)) == [
                [sdiff(n, m, r) for m in range(n + 1)] for n in range(nmax + 1)
            ], (r, nmax)
    assert list(sdiff_rows(-1, 3)) == [[0] * (n + 1) for n in range(4)]
    assert list(sdiff_rows(2, -1)) == []


def test_r_stirling_is_a_plain_sum():
    # The telescoping sum over sdiff: no cache and no recursion of its own.
    assert not hasattr(r_stirling, "cache_info")
    assert r_stirling(-1, 0, 0) == r_stirling(3, 2, -1) == r_stirling(3, 4, 0) == 0
    assert r_stirling(3, 2, 4) == 0
