"""The benchmark's workloads, their operations and the output checkers.

Every operation runs in its own cold interpreter.  A ``cli`` operation is a
real ``python3 -m recdig.cli`` command; a ``lib`` operation is one call
into the public library, run by ``bench/op.py``, which prints its results
as one JSON object.  Each operation has a checker that compares the stdout
with values computed here, independently of the package, and, where the
output is deterministic, with the sha256 of the stdout the seed commit
printed (``golden.json``).

Why these workloads:

* ``counting``: the serving paths users run (``seq``, ``table``,
  ``report``).  The ``lru_cache``d closed form (``stirling`` plus
  ``digraphs``) does most of the work, so a new counting kernel should move
  this workload.
* ``trees``: library calls on two-sort tables.  ``tables`` and ``series``
  carry the work and ``stirling`` none, so a faster tree solver or sort
  merge moves this one and should leave ``counting`` unchanged.
* ``verify``: the oracle and the bijections, with ``digraphs`` and
  ``stirling`` called many times at small n: the same layers used the
  opposite way from ``counting``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb, exp, factorial, log
from typing import Callable

from op import seq_digest

WORKLOADS = ("counting", "trees", "verify")
OUT_DIR = ".bench_out"
INPUT_DIR = f"{OUT_DIR}/inputs"

# Sizes per scale, for the operations and for the probes of bench/probes.py,
# which time each layer at the size its workload runs it.  "full" is what the
# benchmark measures, sized so that a 40-second run samples every operation
# three or more times; "tiny" is what the self-tests run, in well under a
# second per operation.  The last three sizes are the probes' own: no
# operation calls those series operations directly.
SIZES = {
    "full": {
        "cayder": 130, "forest": 100, "connected": 100, "psi": 250,
        "sdiff": 100, "report": 120,
        "trees": 26, "arity": 24, "bal": 200, "par": 200, "merges": 600,
        "branches": 150,
        "verify_all": 8, "verify_der": 7, "verify_conn": 6, "count": 7,
        "identities": 30, "unisort": 6, "twosort": 6, "maps": 1000,
        "map_n": 200,
        "compose": 150, "mul": 300, "log": 300,
    },
    "tiny": {
        "cayder": 8, "forest": 7, "connected": 7, "psi": 6,
        "sdiff": 6, "report": 6,
        "trees": 6, "arity": 6, "bal": 10, "par": 10, "merges": 10,
        "branches": 8,
        "verify_all": 4, "verify_der": 4, "verify_conn": 4, "count": 4,
        "identities": 4, "unisort": 3, "twosort": 3, "maps": 20,
        "map_n": 12,
        "compose": 10, "mul": 20, "log": 20,
    },
}


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str  # "cli" or "lib"
    args: tuple[str, ...]
    check: Callable[[bytes], None]
    golden: bool = True  # False when the output depends on the seed
    inputs: Callable[[], object] | None = None  # JSON written to args[-1]

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.args)


def random_maps(seed: int, count: int, n: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [[rng.randint(1, n) for _ in range(n)] for _ in range(count)]


# -- independent closed forms --------------------------------------------------
#
# None of these calls the package.  Where the package counts by the sdiff
# closed form, these count by inclusion-exclusion over the image, by the
# explicit r-Stirling sum, or by a direct recursion on labelled trees.


def powers(nmax: int, shift: int = 0) -> list[int]:
    """n^(n - shift) for n = 0..nmax, with 0 where the power is undefined."""
    return [n ** (n - shift) if n >= shift else 0 for n in range(nmax + 1)]


def fubini(nmax: int) -> list[int]:
    """Ordered set partitions: a(n) = sum_k binom(n, k) a(n - k)."""
    a = [1]
    for n in range(1, nmax + 1):
        a.append(sum(comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return a


def bell(nmax: int) -> list[int]:
    """Set partitions by the Bell triangle."""
    out, row = [1], [1]
    for _ in range(nmax):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def derangements(nmax: int) -> list[int]:
    d = [1, 0]
    for n in range(2, nmax + 1):
        d.append((n - 1) * (d[-1] + d[-2]))
    return d[: nmax + 1]


def connected_maps(t: int) -> int:
    """Connected endofunctions of a t-set: sum_k (t-1)!/(t-k)! * t^(t-k)."""
    return sum(factorial(t - 1) // factorial(t - k) * t ** (t - k)
               for k in range(1, t + 1))


def connected_endofunctions(nmax: int) -> list[int]:
    return [connected_maps(n) for n in range(nmax + 1)]


def end_cycles(n: int) -> int:
    """Cycles summed over all endofunctions of [n]: a k-cycle is placed in
    binom(n, k) (k-1)! ways and the other n - k points map anywhere."""
    return sum(comb(n, k) * factorial(k - 1) * n ** (n - k) for k in range(1, n + 1))


# What a Cayley permutation of [n] (a map of [n] onto some [k]) may do on its
# image, as a(t) = the allowed self-maps of a t-set, or the (map, cycle) pairs
# among them.  Cycles and fixed points lie in the image, and a point outside
# it joins the component of its image point, so each class is decided there.
CAYLEY_CLASSES: dict[str, Callable[[int], int]] = {
    "all": lambda t: t ** t,
    "derangement": lambda t: (t - 1) ** t,
    "forest": lambda t: (t + 1) ** (t - 1) if t else 1,
    "connected": connected_maps,
    "cycles_all": lambda t: sum(comb(t, k) * factorial(k - 1) * t ** (t - k)
                                for k in range(1, t + 1)),
    "cycles_forest": lambda t: sum(r * comb(t - 1, r - 1) * t ** (t - r)
                                   for r in range(1, t + 1)),
    "cycles_derangement": lambda t: sum(
        comb(t, k) * factorial(k - 1) * (t - 1) ** (t - k) for k in range(2, t + 1)),
}


def cayley_sequence(klass: str, nmax: int) -> list[int]:
    """Cayley permutations of [n] in a class, for n = 0..nmax.

    The maps of [n] into a t-set T that act on T as a(t) allows number
    a(t) t^(n-t); inclusion-exclusion over the image then gives
    sum_{k <= n} sum_t (-1)^(k-t) binom(k, t) a(t) t^(n-t).  The inner sign
    sums h(n, t) = sum_{k=t..n} (-1)^(k-t) binom(k, t) are kept across n.
    """
    a = [CAYLEY_CLASSES[klass](t) for t in range(nmax + 1)]
    out: list[int] = []
    h: list[int] = []
    for n in range(nmax + 1):
        h = [h[t] + (-1) ** (n - t) * comb(n, t) for t in range(n)] + [1]
        out.append(sum(h[t] * a[t] * t ** (n - t) for t in range(n + 1)))
    return out


def cayley_forests_by_ijr(n: int) -> dict[tuple[int, int, int], int]:
    """Cayley forests of [n] with image [i] and r roots, as (i, n-i, r) -> count.

    A t-set carries binom(t-1, r-1) t^(t-r) rooted forests with r roots;
    inclusion-exclusion over the image as in cayley_sequence.
    """
    out = {}
    for i in range(1, n + 1):
        for r in range(1, i + 1):
            count = sum((-1) ** (i - t) * comb(i, t) * comb(t - 1, r - 1)
                        * t ** (n - r) for t in range(r, i + 1))
            if count:
                out[(i, n - i, r)] = count
    return out


def r_stirling(n: int, m: int, r: int) -> int:
    """Partitions of [n] into m blocks with 1..r apart, by the explicit sum
    sum_{j=r..m} (-1)^(m-j) binom(m-r, j-r) j^(n-r) / (m-r)!."""
    if r > m or m > n:
        return 0
    total = sum((-1) ** (m - j) * comb(m - r, j - r) * j ** (n - r)
                for j in range(r, m + 1))
    return total // factorial(m - r)


def two_sort_table(column: list[int]) -> list[list[int]]:
    """Two-sort digraphs whose recurrent parts are counted by column, by the
    append-a-leaf recursion c[i][j] = i (c[i][j-1] + c[i-1][j])."""
    nmax = len(column) - 1
    rows = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
    for i in range(nmax + 1):
        rows[i][0] = column[i]
    for i in range(1, nmax + 1):
        for j in range(1, nmax + 1 - i):
            rows[i][j] = i * (rows[i][j - 1] + rows[i - 1][j])
    return rows


def binary_trees(nmax: int) -> list[list[int]]:
    """Two-sort rooted trees in which a node has at most two children and
    every internal node but the root has one at least, counted directly:
    an internal root (i ways) over zero, one or an unordered pair of
    children, each a leaf or such a tree with at least one child."""
    rows = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]

    def child(a: int, b: int) -> int:
        if (a, b) == (0, 1):
            return 1
        return rows[a][b] if a and (a, b) != (1, 0) else 0

    for size in range(1, nmax + 1):
        for i in range(1, size + 1):
            a0, b0 = i - 1, size - i
            pairs = sum(comb(a0, a) * comb(b0, b) * child(a, b) * child(a0 - a, b0 - b)
                        for a in range(a0 + 1) for b in range(b0 + 1))
            rows[i][b0] = i * (((a0, b0) == (0, 0)) + child(a0, b0) + pairs // 2)
    return rows


def recurrent_profile(f) -> tuple[int, int, int]:
    """(recurrent points, cycles, image size), by walking each orbit."""
    n = len(f)
    state = [0] * (n + 1)  # 0 unseen, 1 on the current walk, 2 finished
    recurrent = cycles = 0
    for start in range(1, n + 1):
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = f[v - 1]
        if state[v] == 1:  # closed a new cycle at v
            cycles += 1
            recurrent += len(path) - path.index(v)
        for u in path:
            state[u] = 2
    return recurrent, cycles, len(set(f))


# -- output parsing ------------------------------------------------------------


def _csv(stdout: bytes, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(stdout.decode())))
    if not rows or rows[0] != header:
        raise CheckError(f"header {rows[:1]} != {header}")
    for row in rows:
        if len(row) != len(header):
            raise CheckError(f"row {row} does not match {header}")
    return rows[1:]


def _expect(label: str, got, want) -> None:
    if got == want:
        return
    if isinstance(got, list) and isinstance(want, list):  # show the first difference
        k = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
        label = f"{label} [{k}] ({len(got)} vs {len(want)} entries)"
        got, want = got[k:k + 1], want[k:k + 1]
    raise CheckError(f"{label}: got {str(got)[:80]}, expected {str(want)[:80]}")


def _json(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"not one JSON object: {exc}") from None


def _decimal(num: int, den: int) -> str:
    """num/den cut (not rounded) to ten decimals."""
    q = num * 10**10 // den
    return f"{q // 10**10}.{q % 10**10:010d}"


# -- checkers --------------------------------------------------------------------


def check_seq(expected: list[int]):
    def check(stdout: bytes) -> None:
        rows = _csv(stdout, ["n", "count"])
        _expect("rows", rows, [[str(n), str(c)] for n, c in enumerate(expected)])
    return check


def check_psi_der(nmax: int):
    def check(stdout: bytes) -> None:
        rows = _csv(stdout, ["i", "j", "value"])
        table = two_sort_table(derangements(nmax))
        _expect("cells", rows, [[str(i), str(j), str(c)]
                                for i, row in enumerate(table)
                                for j, c in enumerate(row)])
    return check


def check_sdiff(nmax: int, r: int):
    def check(stdout: bytes) -> None:
        rows = _csv(stdout, ["n", "m", "value"])
        _expect("cells", rows, [
            [str(n), str(m), str(r_stirling(n, m, r) - r_stirling(n, m, r + 1))]
            for n in range(1, nmax + 1) for m in range(1, n + 1)
        ])
    return check


EULER_GAMMA = 0.5772156649  # to the ten places the report uses


def report_rows(nmax: int) -> list[list[str]]:
    """The asymptotics report's rows.  The reference column is e^-1 for the
    derangement fraction and (ln 2n + gamma) / 2 for the mean cycle counts,
    both to ten places."""
    fub, der = cayley_sequence("all", nmax), cayley_sequence("derangement", nmax)
    forest = cayley_sequence("forest", nmax)
    conn = cayley_sequence("connected", nmax)
    stats = [
        ("cayley_derangement_fraction", der, fub),
        ("avg_cycles_endofunctions", [end_cycles(n) for n in range(nmax + 1)],
         powers(nmax)),
        ("avg_cycles_cayley_all", cayley_sequence("cycles_all", nmax), fub),
        ("avg_cycles_cayley_forest", cayley_sequence("cycles_forest", nmax), forest),
        ("avg_cycles_cayley_connected", conn, conn),
        ("avg_cycles_cayley_derangement",
         cayley_sequence("cycles_derangement", nmax), der),
    ]
    out = []
    for n in range(nmax + 1):
        for name, num, den in stats:
            if den[n] and (n or name == "cayley_derangement_fraction"):
                ref = (exp(-1) if name == "cayley_derangement_fraction"
                       else (log(2 * n) + EULER_GAMMA) / 2)
                out.append([name, str(n), str(num[n]), str(den[n]),
                            _decimal(num[n], den[n]), f"{ref:.10f}"])
    return out


def check_report(nmax: int):
    def check(stdout: bytes) -> None:
        rows = _csv(stdout, ["statistic", "n", "numerator", "denominator",
                             "ratio", "reference"])
        _expect("rows", rows, report_rows(nmax))
    return check


def check_verify(expected: list[int]):
    def check(stdout: bytes) -> None:
        rows = _csv(stdout, ["n", "model", "class", "formula", "oracle", "status"])
        _expect("n column", [r[0] for r in rows], [str(n) for n in range(len(expected))])
        for r in rows:
            _expect(f"n={r[0]} status", (r[5], r[3]), ("ok", r[4]))
        _expect("formula column", [int(r[3]) for r in rows], expected)
    return check


def check_count_forest_ijr(n: int):
    def check(stdout: bytes) -> None:
        rows = _csv(stdout, ["i", "j", "r", "count"])
        _expect("buckets", rows, [[str(i), str(j), str(r), str(c)] for (i, j, r), c
                                  in sorted(cayley_forests_by_ijr(n).items())])
    return check


def check_identities(stdout: bytes) -> None:
    """Every identity holds, and both recurrent classes check the same set."""
    rows = _csv(stdout, ["identity", "R", "index", "lhs", "rhs", "status"])
    if not rows:
        raise CheckError("no identities")
    for r in rows:
        _expect(f"{r[0]} {r[1]} {r[2]}", (r[5], r[3]), ("ok", r[4]))
    checked = {label: [(r[0], r[2]) for r in rows if r[1] == label]
               for label in ("S", "Der")}
    _expect("R column", len(checked["S"]) + len(checked["Der"]), len(rows))
    _expect("identities checked for Der", checked["Der"], checked["S"])


def check_lib(expected: Callable[[], dict]):
    def check(stdout: bytes) -> None:
        got = _json(stdout)
        _expect("keys", sorted(got), sorted(expected()))
        for key, want in expected().items():
            _expect(key, got.get(key), want)
    return check


# -- the workloads ---------------------------------------------------------------


def operations(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The workload's operations in their canonical order."""
    s = SIZES[scale]
    if workload == "counting":
        return [
            Op("cli", ("seq", "cayder", "--nmax", str(s["cayder"])),
               check_seq(cayley_sequence("derangement", s["cayder"]))),
            Op("cli", ("seq", "cay", "--class", "forest", "--nmax", str(s["forest"])),
               check_seq(cayley_sequence("forest", s["forest"]))),
            Op("cli", ("seq", "end", "--class", "connected",
                       "--nmax", str(s["connected"])),
               check_seq(connected_endofunctions(s["connected"]))),
            Op("cli", ("table", "psi", "--R", "Der", "--nmax", str(s["psi"])),
               check_psi_der(s["psi"])),
            Op("cli", ("table", "sdiff", "--r", "2", "--nmax", str(s["sdiff"])),
               check_sdiff(s["sdiff"], 2)),
            Op("cli", ("report", "asymptotics", "--nmax", str(s["report"])),
               check_report(s["report"])),
        ]
    if workload == "trees":
        n, m, b = s["trees"], s["merges"], s["branches"]
        return [
            Op("lib", ("trees_compose", str(n)), check_lib(lambda: {
                "trees_identify": seq_digest(powers(n, 1)),
                "identify": seq_digest(powers(n)),
                "concat": seq_digest(fubini(n)),
            })),
            Op("lib", ("bounded_arity", "2", str(s["arity"])), check_lib(lambda: {
                "rows": seq_digest(c for row in binary_trees(s["arity"]) for c in row),
            })),
            Op("lib", ("atom", "Bal", str(s["bal"])),
               check_lib(lambda: {"counts": seq_digest(fubini(s["bal"]))})),
            Op("lib", ("atom", "Par", str(s["par"])),
               check_lib(lambda: {"counts": seq_digest(bell(s["par"]))})),
            Op("lib", ("digraph_table_merges", str(m)), check_lib(lambda: {
                "identify": seq_digest(powers(m)),
                "concat": seq_digest(fubini(m)),
            })),
            Op("lib", ("branches", str(b)), check_lib(lambda: {
                "rows": seq_digest(c for row in two_sort_table(
                    [factorial(i) for i in range(b + 1)]) for c in row),
            })),
        ]
    if workload == "verify":
        count, n = s["maps"], s["map_n"]
        return [
            Op("cli", ("verify", "--nmax", str(s["verify_all"]), "--model", "cayley"),
               check_verify(fubini(s["verify_all"]))),
            Op("cli", ("verify", "--nmax", str(s["verify_der"]), "--model", "cayley",
                       "--class", "derangement"),
               check_verify(cayley_sequence("derangement", s["verify_der"]))),
            Op("cli", ("verify", "--nmax", str(s["verify_conn"]),
                       "--model", "endofunctions", "--class", "connected"),
               check_verify(connected_endofunctions(s["verify_conn"]))),
            Op("cli", ("count", "--n", str(s["count"]), "--model", "cayley",
                       "--class", "forest", "--by", "ijr"),
               check_count_forest_ijr(s["count"])),
            Op("cli", ("check", "identities", "--nmax", str(s["identities"])),
               check_identities),
            Op("lib", ("unisort_roundtrips", str(s["unisort"])), check_lib(lambda: {
                "maps": s["unisort"] ** s["unisort"],
                "roundtrips_ok": s["unisort"] ** s["unisort"],
                "distinct_trees": s["unisort"] ** s["unisort"],
            })),
            Op("lib", ("twosort_roundtrips", str(s["twosort"])),
               check_lib(lambda: _twosort_expected(s["twosort"]))),
            Op("lib", ("random_maps", f"{INPUT_DIR}/maps-{seed}-{count}-{n}.json"),
               check_lib(lambda: _random_expected(seed, count, n)),
               golden=False, inputs=lambda: random_maps(seed, count, n)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _twosort_expected(nmax: int) -> dict:
    table = two_sort_table([factorial(i) for i in range(nmax + 1)])
    counts = [table[i][k - i] for k in range(1, nmax + 1) for i in range(1, k + 1)]
    return {"trees": counts, "roundtrips_ok": counts}


def _random_expected(seed: int, count: int, n: int) -> dict:
    maps = random_maps(seed, count, n)
    return {
        "maps": count,
        "roundtrips_ok": count,
        "profiles": seq_digest(v for f in maps for v in recurrent_profile(f)),
    }


def check_result(op: Op, result, golden: dict) -> str | None:
    """None when the operation succeeded, else why it failed."""
    if result.timed_out:
        return "timed out"
    if result.exit_code != 0:
        return f"exit code {result.exit_code}"
    if op.golden:
        digest = hashlib.sha256(result.stdout).hexdigest()
        want = golden.get(op.key)
        if want is None:
            return "no recorded digest for this operation"
        if digest != want:
            return "stdout differs from the seed commit's"
    try:
        op.check(result.stdout)
    except CheckError as exc:
        return str(exc)
    return None
