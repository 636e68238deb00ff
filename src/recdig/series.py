"""Exact coefficient arithmetic for labeled counting sequences.

A CoeffSeq stores the number of labeled structures of each size 0..N for a
class of structures (sets, cycles, permutations, ballots, ...), always as
exact integers.  Operations mirror the corresponding constructions on
labeled classes: disjoint union is entrywise sum, labeled product is a
binomial convolution, substitution and logarithm are computed by
division-free recurrences so every intermediate stays an integer.

Sequences that can carry negative entries (logarithms, formal inverses,
differences) are first class but must be tagged ``virtual``.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import comb
from operator import add, mul
from typing import Iterator

from recdig._record import Record


class ShapeError(ValueError):
    """Operands have incompatible truncations, or an empty result."""


class UnsupportedAtomError(ValueError):
    """Unknown atom name passed to atom()."""


class CompositionDomainError(ValueError):
    """Substitution needs an inner class with no structure on the empty set."""


class LogarithmDomainError(ValueError):
    """Logarithm needs exactly one structure on the empty set."""


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

    def __init__(self, counts: tuple[int, ...], virtual: bool = False):
        if not counts:
            raise ShapeError("a sequence needs at least the size-0 count")
        if not virtual and any(c < 0 for c in counts):
            raise ValueError(f"negative count in concrete sequence: {counts}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "virtual", virtual)

    @property
    def truncation(self) -> int:
        return len(self.counts) - 1

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "CoeffSeq") -> "CoeffSeq":
        same_truncation(self, other, "sum")
        return CoeffSeq(
            tuple(a + b for a, b in zip(self.counts, other.counts)),
            virtual=self.virtual or other.virtual,
        )

    def __sub__(self, other: "CoeffSeq") -> "CoeffSeq":
        same_truncation(self, other, "difference")
        return CoeffSeq(
            tuple(a - b for a, b in zip(self.counts, other.counts)), virtual=True
        )

    def __mul__(self, other: "CoeffSeq") -> "CoeffSeq":
        """Labeled product: binomial convolution of the counts."""
        same_truncation(self, other, "product")
        a, b = self.counts, other.counts
        counts = tuple(
            sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1))
            for n in range(len(a))
        )
        return CoeffSeq(counts, virtual=self.virtual or other.virtual)

    # -- reshaping -------------------------------------------------------

    def truncate(self, n: int) -> "CoeffSeq":
        if n < 0 or n > self.truncation:
            raise ShapeError(
                f"cannot truncate length-{len(self.counts)} sequence at {n}"
            )
        return CoeffSeq(self.counts[: n + 1], virtual=self.virtual)

    def restrict(self, n: int) -> "CoeffSeq":
        """Keep only the structures of size exactly n."""
        if n < 0:
            raise ShapeError("restriction size must be nonnegative")
        counts = tuple(
            c if k == n else 0 for k, c in enumerate(self.counts)
        )
        return CoeffSeq(counts, virtual=self.virtual)

    def positive_part(self) -> "CoeffSeq":
        """Drop the structure on the empty set, keep everything else."""
        return CoeffSeq((0,) + self.counts[1:], virtual=self.virtual)

    # -- pointing, derivative, integral -----------------------------------

    def pointing(self) -> "CoeffSeq":
        """Distinguish one element: c[n] becomes n*c[n]."""
        return CoeffSeq(
            tuple(n * c for n, c in enumerate(self.counts)), virtual=self.virtual
        )

    def derivative(self) -> "CoeffSeq":
        """Shift down one size; the truncation drops by one."""
        if self.truncation == 0:
            raise ShapeError("derivative of a truncation-0 sequence is empty")
        return CoeffSeq(self.counts[1:], virtual=self.virtual)

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
        degree by degree from the previous.  Only integer multiplications
        and additions are performed.
        """
        same_truncation(self, inner, "composition")
        g = inner.counts
        if g[0] != 0:
            raise CompositionDomainError(
                "inner class has structures on the empty set"
            )
        f = self.counts
        big = len(f) - 1
        u = [f[big]]
        for m in range(big - 1, -1, -1):
            prev = u
            size = big - m
            cur = [f[m]] + [0] * size
            for n in range(size):
                cur[n + 1] = sum(
                    comb(n, k) * g[k + 1] * prev[n - k] for k in range(n + 1)
                )
            u = cur
        return CoeffSeq(tuple(u), virtual=self.virtual or inner.virtual)

    def log(self) -> "CoeffSeq":
        """The sequence g with E(g) equal to self; tagged virtual.

        Solved from the convolution a' = g' * a, i.e.
        g[n+1] = a[n+1] - sum_{k<n} binom(n,k) g[k+1] a[n-k].
        """
        a = self.counts
        if a[0] != 1:
            raise LogarithmDomainError("logarithm needs count 1 on the empty set")
        g = [0] * len(a)
        for n in range(len(a) - 1):
            g[n + 1] = a[n + 1] - sum(
                comb(n, k) * g[k + 1] * a[n - k] for k in range(n)
            )
        return CoeffSeq(tuple(g), virtual=True)


# -- the atom catalogue ----------------------------------------------------


def _derangement_counts(nmax: int) -> list[int]:
    d = [1, 0]
    while len(d) <= nmax:
        n = len(d)
        d.append((n - 1) * (d[-1] + d[-2]))
    return d[: nmax + 1]


def pascal_rows(nmax: int) -> Iterator[list[int]]:
    """Yield the binomial rows binom(n, 0..n), n = 0..nmax, by Pascal's rule."""
    row = [1]
    yield row
    for _ in range(nmax):
        row = [1] + list(map(add, row, row[1:])) + [1]
        yield row


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


PARAMETRIC_ATOMS = ("E_r", "S_r", "C_i")

ATOM_NAMES = (
    "1",
    "X",
    "E",
    "L",
    "L+",
    "S",
    "S+",
    "C",
    "Der",
    "Bal",
    "Par",
) + PARAMETRIC_ATOMS


def atom(name: str, nmax: int, param: int | None = None) -> CoeffSeq:
    """Labeled counts of a basic class, truncated at nmax.

    Supported names: "1" (empty set only), "X" (singletons), "E" (sets),
    "L" (linear orders), "L+"/"S+" (nonempty), "S" (permutations),
    "C" (cycles), "Der" (fixed-point-free permutations), "Bal" (ballots,
    i.e. ordered set partitions), "Par" (set partitions), and the
    parametric size restrictions "E_r", "S_r", "C_i" taking ``param``.

    Every count comes from a direct recurrence.  Ballots (Fubini numbers)
    choose their first block, a(n) = sum_{k>=1} binom(n, k) * a(n-k), with
    binomials from Pascal rows; set partitions (Bell numbers) are read off
    the Bell triangle.  Both are O(nmax^2) additions and products of big
    integers.  They equal L o E+ and E o E+; CoeffSeq.compose, which is
    O(nmax^3), checks that in the tests.
    """
    if nmax < 0:
        raise ValueError("truncation must be nonnegative")
    if name in PARAMETRIC_ATOMS:
        if param is None or param < 0:
            raise UnsupportedAtomError(f"atom {name} needs a nonnegative parameter")
    elif param is not None:
        raise UnsupportedAtomError(f"atom {name} takes no parameter")

    size = nmax + 1
    if name == "1":
        counts = [1] + [0] * nmax
    elif name == "X":
        counts = [0] * size
        if nmax >= 1:
            counts[1] = 1
    elif name == "E":
        counts = [1] * size
    elif name in ("L", "S"):
        counts = _factorials(nmax)
    elif name in ("L+", "S+"):
        counts = _factorials(nmax)
        counts[0] = 0
    elif name == "C":
        counts = [0] + _factorials(nmax - 1) if nmax >= 1 else [0]
    elif name == "Der":
        counts = _derangement_counts(nmax)
    elif name == "Bal":
        counts = _fubini_counts(nmax)
    elif name == "Par":
        counts = _bell_counts(nmax)
    elif name == "E_r":
        counts = [0] * size
        if param <= nmax:
            counts[param] = 1
    elif name == "S_r":
        counts = [0] * size
        if param <= nmax:
            counts[param] = _factorials(param)[param]
    elif name == "C_i":
        if param == 0:
            raise UnsupportedAtomError("C_i needs a positive parameter")
        counts = [0] * size
        if param <= nmax:
            counts[param] = _factorials(param - 1)[param - 1]
    else:
        raise UnsupportedAtomError(f"unknown atom {name!r}")

    return CoeffSeq(tuple(counts))
