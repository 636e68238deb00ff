"""Exact coefficient arithmetic for labeled counting sequences.

A CoeffSeq stores the number of labeled structures of each size 0..N for a
class of structures (sets, cycles, permutations, ballots, ...), always as
exact integers.  Operations mirror the corresponding constructions on
labeled classes: disjoint union is entrywise sum, labeled product is a
binomial convolution, substitution and logarithm are computed by
division-free recurrences so every intermediate stays an integer.  All
three are binomial convolutions, summed by _binomial_dot over pascal_rows.

A CoeffSeq takes its counts as any iterable (a tuple, a list, a range, a
map or a generator) and stores them as a tuple, so equal counts give equal
sequences with equal hashes however they were passed.  The counts are
exact numbers: ints everywhere in recdig, or Decimals where the CLI seeds
the digraph row kernel, which is generic in its number type.  Sequences
that can carry negative entries (logarithms, formal inverses, differences)
are first class but must be tagged ``virtual``.

Every size (n, i, j, r, k, d) of series, tables, digraphs and stats obeys
one rule, check_size, run before any work: an int, never a bool or float,
from the entry's least value (0 unless stated) to the truncation of the
counts it reads, or else a ShapeError naming the entry.  stirling (loaded
alone by table sdiff) and oracle (the independent route) keep their own.
"""

from __future__ import annotations

from itertools import accumulate, islice, repeat
from math import factorial, inf
from operator import add, mul, sub
from typing import Iterable, Iterator

from recdig._record import Record


class ShapeError(ValueError):
    """Incompatible truncations, a size out of range, or an empty result."""


class UnsupportedAtomError(ValueError):
    """Unknown atom name passed to atom()."""


class CompositionDomainError(ValueError):
    """Substitution needs an inner class with no structure on the empty set."""


class LogarithmDomainError(ValueError):
    """Logarithm needs exactly one structure on the empty set."""


def check_size(n: int, what: str, least: float = 0, most: int | None = None) -> None:
    """Raise ShapeError naming what unless n is an int, not a bool, in [least..most]."""
    if type(n) is not int or n < least or most is not None and n > most:
        span = f">= {least}" if most is None else f"in [{least}..{most}]"
        raise ShapeError(f"{what}: size {n!r} is not an int {span}")


def same_truncation(a, b, op: str) -> None:
    """Raise ShapeError unless coefficient containers a and b (sequences or
    tables) are truncated at the same size."""
    if a.truncation != b.truncation:
        raise ShapeError(
            f"{op}: truncations differ ({a.truncation} vs {b.truncation})"
        )


class CoeffSeq(Record, compare=("counts",)):
    """Labeled counts c[0..N] of a class of structures, truncated at N.

    Equality and hashing look at the counts only, not at ``virtual``.
    Concrete (non-virtual) sequences must be nonnegative.
    """

    __slots__ = ("counts", "virtual")

    def __init__(self, counts: Iterable[int], virtual: bool = False):
        counts = tuple(counts)
        if not counts:
            raise ShapeError("a sequence needs at least the size-0 count")
        if not virtual and min(counts) < 0:
            raise ValueError(f"negative count in concrete sequence: {counts}")
        self._store(counts, virtual)

    @property
    def truncation(self) -> int:
        return len(self.counts) - 1

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "CoeffSeq") -> "CoeffSeq":
        same_truncation(self, other, "sum")
        counts = map(add, self.counts, other.counts)
        return CoeffSeq(counts, virtual=self.virtual or other.virtual)

    def __sub__(self, other: "CoeffSeq") -> "CoeffSeq":
        same_truncation(self, other, "difference")
        return CoeffSeq(map(sub, self.counts, other.counts), virtual=True)

    def __mul__(self, other: "CoeffSeq") -> "CoeffSeq":
        """Labeled product: binomial convolution of the counts,
        c[n] = sum_k binom(n, k) * a[k] * b[n-k], row n of pascal_rows."""
        same_truncation(self, other, "product")
        a, b = self.counts, other.counts
        counts = (
            _binomial_dot(row, a, b, n)
            for n, row in enumerate(pascal_rows(len(a) - 1))
        )
        return CoeffSeq(counts, virtual=self.virtual or other.virtual)

    # -- reshaping -------------------------------------------------------

    def truncate(self, n: int) -> "CoeffSeq":
        check_size(n, "CoeffSeq.truncate", most=self.truncation)
        return CoeffSeq(self.counts[: n + 1], virtual=self.virtual)

    def restrict(self, n: int) -> "CoeffSeq":
        """Keep only the structures of size exactly n."""
        check_size(n, "CoeffSeq.restrict", most=self.truncation)
        counts = (c if k == n else 0 for k, c in enumerate(self.counts))
        return CoeffSeq(counts, virtual=self.virtual)

    def positive_part(self) -> "CoeffSeq":
        """Drop the structure on the empty set, keep everything else."""
        return CoeffSeq((0,) + self.counts[1:], virtual=self.virtual)

    # -- pointing and integral --------------------------------------------

    def pointing(self) -> "CoeffSeq":
        """Distinguish one element: c[n] becomes n*c[n]."""
        counts = (n * c for n, c in enumerate(self.counts))
        return CoeffSeq(counts, virtual=self.virtual)

    def integral(self) -> "CoeffSeq":
        """Shift up one size (structure on a total order minus its minimum).

        The truncation is unchanged, so the top input coefficient falls off.
        """
        return CoeffSeq((0,) + self.counts[:-1], virtual=self.virtual)

    # -- substitution and logarithm ---------------------------------------

    def compose(self, inner: "CoeffSeq") -> "CoeffSeq":
        """Labeled substitution F(G) of classes, division-free.

        Uses the derivative identity (F o G)' = G' * (F' o G): the arrays
        u_m = counts of F^(m) o G are built from m = N down to 0, each one
        from the previous as u_m[n+1] = (G' * u_{m+1})[n] over pascal_rows.
        Only integer multiplications and additions are performed.
        """
        same_truncation(self, inner, "composition")
        g = inner.counts
        if g[0] != 0:
            raise CompositionDomainError(
                "inner class has structures on the empty set"
            )
        f = self.counts
        big = len(f) - 1
        dg = g[1:]
        binom = list(pascal_rows(big - 1))
        u = [f[big]]
        for m in range(big - 1, -1, -1):
            u = [f[m]] + [
                _binomial_dot(row, dg, u, n)
                for n, row in enumerate(binom[: big - m])
            ]
        return CoeffSeq(u, virtual=self.virtual or inner.virtual)

    def log(self) -> "CoeffSeq":
        """The sequence g with E(g) equal to self; tagged virtual.

        Solved from the convolution a' = g' * a, i.e.
        g[n+1] = a[n+1] - sum_{k<n} binom(n,k) g[k+1] a[n-k] over pascal_rows.
        """
        a = self.counts
        if a[0] != 1:
            raise LogarithmDomainError("logarithm needs count 1 on the empty set")
        big = len(a) - 1
        dg = []
        for n, row in enumerate(pascal_rows(big - 1)):
            dg.append(a[n + 1] - _binomial_dot(row, dg, a, n))
        return CoeffSeq((0, *dg), virtual=True)


# -- the atom catalogue ----------------------------------------------------


def _derangement_counts(nmax: int) -> list[int]:
    d = [1, 0]
    while len(d) <= nmax:
        n = len(d)
        d.append((n - 1) * (d[-1] + d[-2]))
    return d[: nmax + 1]


def pascal_rows(nmax: int) -> Iterator[list[int]]:
    """The binomial rows binom(n, 0..n), n = 0..nmax, by Pascal's rule, as
    a lazy iterator; none when nmax < 0."""
    check_size(nmax, "pascal_rows", least=-inf)
    rows = accumulate(
        repeat(None, nmax), lambda row, _: [1, *map(add, row, row[1:]), 1], initial=[1]
    )
    return islice(rows, max(nmax + 1, 0))


def _binomial_dot(row: list[int], a, b, n: int) -> int:
    """sum_k row[k] * a[k] * b[n-k] over k <= n that row and a both reach;
    size n of the labeled product when row = binom(n, 0..n)."""
    return sum(map(mul, row, map(mul, a, b[n::-1])))


def _fubini_counts(nmax: int) -> list[int]:
    """Ballots by their first block: a(n) = sum_{k>=1} binom(n, k) * a(n-k)."""
    a = [1]
    for row in islice(pascal_rows(nmax), 1, None):
        a.append(sum(map(mul, row[1:], reversed(a))))
    return a


def _bell_counts(nmax: int) -> list[int]:
    """Set partitions by the Bell triangle: each row starts with the last
    entry of the previous one and adds that row's entries cumulatively; the
    first entry of row n is B(n)."""
    row = [1]
    counts = [1]
    for _ in range(nmax):
        row = list(accumulate(row, initial=row[-1]))
        counts.append(row[0])
    return counts


def _factorials(nmax: int) -> list[int]:
    f = [1]
    for n in range(1, nmax + 1):
        f.append(f[-1] * n)
    return f


# Every atom, declared once: name -> counts for sizes 0..nmax.
_SEQUENCES = {
    "1": lambda n: [1] + [0] * n,
    "X": lambda n: [int(k == 1) for k in range(n + 1)],
    "E": lambda n: [1] * (n + 1),
    "L": _factorials,
    "L+": lambda n: [0, *_factorials(n)[1:]],
    "S": _factorials,
    "S+": lambda n: [0, *_factorials(n)[1:]],
    "C": lambda n: [0, *_factorials(n)[:n]],
    "Der": _derangement_counts,
    "Bal": _fubini_counts,
    "Par": _bell_counts,
}
# The one-size atoms: param -> their count at size param, none elsewhere.
_ONE_SIZE = {"E_r": lambda r: 1, "S_r": factorial, "C_i": lambda i: factorial(i - 1)}

PARAMETRIC_ATOMS = tuple(_ONE_SIZE)
ATOM_NAMES = (*_SEQUENCES, *PARAMETRIC_ATOMS)


def atom(name: str, nmax: int, param: int | None = None) -> CoeffSeq:
    """Labeled counts of a basic class, truncated at nmax.

    Supported names: "1" (empty set only), "X" (singletons), "E" (sets),
    "L" (linear orders), "L+"/"S+" (nonempty), "S" (permutations),
    "C" (cycles), "Der" (fixed-point-free permutations), "Bal" (ballots,
    i.e. ordered set partitions), "Par" (set partitions), and the
    parametric size restrictions "E_r", "S_r", "C_i" taking ``param``, an
    int (not a bool) at least 0, or 1 for "C_i"; any other name or param
    raises UnsupportedAtomError.

    Every count comes from a direct recurrence.  Ballots (Fubini numbers)
    choose their first block, a(n) = sum_{k>=1} binom(n, k) * a(n-k), with
    binomials from Pascal rows; set partitions (Bell numbers) are read off
    the Bell triangle.  Both are O(nmax^2) additions and products of big
    integers.  They equal L o E+ and E o E+; CoeffSeq.compose, which is
    O(nmax^3), checks that in the tests.
    """
    check_size(nmax, "atom")
    if name in _ONE_SIZE:
        if type(param) is not int or param < 0:
            raise UnsupportedAtomError(f"atom {name} needs a nonnegative int parameter")
        if name == "C_i" and param == 0:
            raise UnsupportedAtomError("C_i needs a positive parameter")
        counts = [0] * (nmax + 1)
        if param <= nmax:
            counts[param] = _ONE_SIZE[name](param)
    elif param is not None:
        raise UnsupportedAtomError(f"atom {name} takes no parameter")
    elif name in _SEQUENCES:
        counts = _SEQUENCES[name](nmax)
    else:
        raise UnsupportedAtomError(f"unknown atom {name!r}")

    return CoeffSeq(counts)
