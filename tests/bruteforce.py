"""Independent brute-force reference implementations for the tests.

Nothing here imports from recdig's counting code: these are the very dumb,
very trusted routes used to freeze expected values.
"""

from itertools import permutations, product
from math import comb, factorial


def set_partitions(n):
    """All set partitions of [n] as lists of sorted blocks (tuples)."""
    if n == 0:
        yield []
        return
    for rest in set_partitions(n - 1):
        yield rest + [(n,)]
        for b in range(len(rest)):
            yield rest[:b] + [rest[b] + (n,)] + rest[b + 1 :]


def separated_prefix(blocks):
    """Largest r such that 1, ..., r all lie in pairwise distinct blocks."""
    owner = {}
    for b, block in enumerate(blocks):
        for v in block:
            owner[v] = b
    n = len(owner)
    used = set()
    for v in range(1, n + 1):
        if owner[v] in used:
            return v - 1
        used.add(owner[v])
    return n


def sdiff_histogram(n):
    """dict[(m, r)] -> number of partitions of [n] with m blocks and
    maximal separated prefix r."""
    hist = {}
    for blocks in set_partitions(n):
        key = (len(blocks), separated_prefix(blocks))
        hist[key] = hist.get(key, 0) + 1
    return hist


def r_stirling_brute(n, m, r):
    total = 0
    for blocks in set_partitions(n):
        if len(blocks) != m:
            continue
        owners = set()
        ok = True
        for v in range(1, r + 1):
            b = next(i for i, blk in enumerate(blocks) if v in blk)
            if b in owners:
                ok = False
                break
            owners.add(b)
        total += ok
    return total


def ordered_set_partition_count(n):
    return sum(
        factorial(len(blocks)) for blocks in set_partitions(n)
    )


def derangement_count(n):
    return sum(
        1
        for p in permutations(range(1, n + 1))
        if all(p[i - 1] != i for i in range(1, n + 1))
    )


def cayley_by_rejection(n):
    """All Cayley permutations of [n], the slow way; returns a set."""
    out = set()
    for f in product(range(1, n + 1), repeat=n):
        image = set(f)
        if image == set(range(1, len(image) + 1)):
            out.add(f)
    if n == 0:
        out.add(())
    return out


def labeled_product(a, b):
    """Binomial convolution c[n] = sum_k C(n, k) a[k] b[n-k] of two equally
    long count lists, binomials from math.comb."""
    return [
        sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1))
        for n in range(len(a))
    ]


def _labeled_powers(u, mmax):
    """u^0, u^1, ..., u^mmax under the labeled product."""
    powers = [[1] + [0] * (len(u) - 1)]
    for _ in range(mmax):
        powers.append(labeled_product(powers[-1], u))
    return powers


def labeled_compose(f, g):
    """F(G) as the sum of divided powers sum_m f[m] (G^m)[n] / m!, for g[0]
    = 0 (then m! divides (G^m)[n], which counts ordered m-tuples of
    nonempty blocks)."""
    assert g[0] == 0
    out = [0] * len(f)
    for m, gm in enumerate(_labeled_powers(g, len(f) - 1)):
        for n, c in enumerate(gm):
            q, r = divmod(f[m] * c, factorial(m))
            assert r == 0
            out[n] += q
    return out


def labeled_log(a):
    """log(A) for a[0] = 1 from the series log(1 + U) = sum_{m>=1}
    (-1)^(m-1) U^m / m with U = A - 1."""
    assert a[0] == 1
    u = [0] + list(a[1:])
    out = [0] * len(a)
    for m, um in enumerate(_labeled_powers(u, len(a) - 1)[1:], 1):
        for n, c in enumerate(um):
            q, r = divmod(c, m)
            assert r == 0
            out[n] += (-1) ** (m - 1) * q
    return out


def labeled_table_product(a, b):
    """Two-sort binomial convolution of triangular tables a[i][j], i + j
    <= N: sum_{p,q} C(i, p) C(j, q) a[p][q] b[i-p][j-q]."""
    n = len(a) - 1
    return [
        [
            sum(
                comb(i, p) * comb(j, q) * a[p][q] * b[i - p][j - q]
                for p in range(i + 1)
                for q in range(j + 1)
            )
            for j in range(n + 1 - i)
        ]
        for i in range(n + 1)
    ]


def identified_sorts(a):
    """Antidiagonal sums sum_i C(n, i) a[i][n-i] of a triangular table,
    binomials from math.comb."""
    return [
        sum(comb(n, i) * a[i][n - i] for i in range(n + 1))
        for n in range(len(a))
    ]
