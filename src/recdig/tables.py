"""Two-sort coefficient tables: counts |F[i, j]| on the triangle i + j <= N.

Sort X holds internal nodes, sort Y holds leaves.  A CoeffTable is the
two-variable analogue of a CoeffSeq; the extra operations are partial
derivatives per sort, composition of a unisort class with a two-sort one,
the fixed-point solver for rooted-tree equations, and the two ways of
merging the sorts back into one label set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import comb
from operator import add, mul
from typing import Iterable, Sequence

from recdig.series import (
    CoeffSeq,
    CompositionDomainError,
    ShapeError,
    pascal_rows,
)


@dataclass(frozen=True)
class CoeffTable:
    """Triangular table rows[i][j] = |F[i, j]| for i + j <= N."""

    rows: tuple[tuple[int, ...], ...]
    label: str = field(default="", compare=False)
    virtual: bool = field(default=False, compare=False)

    def __post_init__(self):
        n = len(self.rows) - 1
        if n < 0:
            raise ShapeError("a table needs at least the (0, 0) cell")
        for i, row in enumerate(self.rows):
            if len(row) != n + 1 - i:
                raise ShapeError(
                    f"row {i} has {len(row)} entries, expected {n + 1 - i}"
                )
        if not self.virtual and any(c < 0 for row in self.rows for c in row):
            raise ValueError(f"negative count in concrete table {self.label!r}")

    @property
    def truncation(self) -> int:
        return len(self.rows) - 1

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.rows[i][j]

    def cells(self):
        """Iterate (i, j, count) over the triangle, row by row."""
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                yield i, j, c

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_seq_x(cls, seq: CoeffSeq) -> "CoeffTable":
        """Embed a unisort class: all labels of sort X, none of sort Y."""
        n = seq.truncation
        rows = tuple(
            tuple(seq.counts[i] if j == 0 else 0 for j in range(n + 1 - i))
            for i in range(n + 1)
        )
        return cls(rows, label=seq.label, virtual=seq.virtual)

    @classmethod
    def x_singleton(cls, nmax: int) -> "CoeffTable":
        t = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
        if nmax >= 1:
            t[1][0] = 1
        return cls(tuple(tuple(r) for r in t), label="X")

    @classmethod
    def y_singleton(cls, nmax: int) -> "CoeffTable":
        t = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
        if nmax >= 1:
            t[0][1] = 1
        return cls(tuple(tuple(r) for r in t), label="Y")

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other: "CoeffTable", op: str) -> None:
        if self.truncation != other.truncation:
            raise ShapeError(
                f"{op}: truncations differ "
                f"({self.truncation} vs {other.truncation})"
            )

    def __add__(self, other: "CoeffTable") -> "CoeffTable":
        self._same_shape(other, "sum")
        rows = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return CoeffTable(
            rows,
            label=f"({self.label}+{other.label})",
            virtual=self.virtual or other.virtual,
        )

    def __sub__(self, other: "CoeffTable") -> "CoeffTable":
        self._same_shape(other, "difference")
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return CoeffTable(
            rows, label=f"({self.label}-{other.label})", virtual=True
        )

    def __mul__(self, other: "CoeffTable") -> "CoeffTable":
        """Labeled product, a binomial convolution in both sorts."""
        self._same_shape(other, "product")
        n = self.truncation
        a, b = self.rows, other.rows
        rows = []
        for i in range(n + 1):
            row = []
            for j in range(n + 1 - i):
                s = 0
                for p in range(i + 1):
                    bi = comb(i, p)
                    for q in range(j + 1):
                        av = a[p][q]
                        if av:
                            s += bi * comb(j, q) * av * b[i - p][j - q]
                row.append(s)
            rows.append(tuple(row))
        return CoeffTable(
            tuple(rows),
            label=f"{self.label}*{other.label}",
            virtual=self.virtual or other.virtual,
        )

    # -- per-sort operators --------------------------------------------------

    def partial_x(self) -> "CoeffTable":
        """One extra X label: c[i][j] = a[i+1][j]; truncation drops by one."""
        n = self.truncation
        if n == 0:
            raise ShapeError("partial derivative of a truncation-0 table is empty")
        rows = tuple(
            tuple(self.rows[i + 1][j] for j in range(n - i))
            for i in range(n)
        )
        return CoeffTable(rows, label=f"dX({self.label})", virtual=self.virtual)

    def partial_y(self) -> "CoeffTable":
        """One extra Y label: c[i][j] = a[i][j+1]; truncation drops by one."""
        n = self.truncation
        if n == 0:
            raise ShapeError("partial derivative of a truncation-0 table is empty")
        rows = tuple(
            tuple(self.rows[i][j + 1] for j in range(n - i))
            for i in range(n)
        )
        return CoeffTable(rows, label=f"dY({self.label})", virtual=self.virtual)

    def pointing_x(self) -> "CoeffTable":
        """Distinguish an X label: c[i][j] = i * a[i][j]."""
        rows = tuple(
            tuple(i * c for c in row) for i, row in enumerate(self.rows)
        )
        return CoeffTable(rows, label=f"{self.label}^.X", virtual=self.virtual)

    def truncate(self, n: int) -> "CoeffTable":
        if n < 0 or n > self.truncation:
            raise ShapeError(f"cannot truncate table at {n}")
        rows = tuple(
            tuple(self.rows[i][j] for j in range(n + 1 - i)) for i in range(n + 1)
        )
        return CoeffTable(rows, label=self.label, virtual=self.virtual)

    # -- merging the two sorts back into one -----------------------------------

    def identify_sorts(self) -> CoeffSeq:
        """Counts after treating both sorts as one label set.

        The binomial factor chooses which of the n labels play sort X:
        c[n] = sum_i binom(n, i) * a[i][n-i].
        """
        counts = merge_sorts(self.rows, self.truncation, identify=True)
        return CoeffSeq(
            counts, label=f"{self.label}(X,X)", virtual=self.virtual
        )

    def concat_sorts(self) -> CoeffSeq:
        """Counts when sort X is forced onto the smallest labels.

        Plain antidiagonal sums: c[n] = sum_i a[i][n-i].  This is the
        Cayley-permutation style merge (internal nodes take 1..i).
        """
        counts = merge_sorts(self.rows, self.truncation, identify=False)
        return CoeffSeq(counts, label=f"{self.label}^", virtual=self.virtual)


def merge_sorts(
    rows: Iterable[Sequence[int]], nmax: int, identify: bool
) -> tuple[int, ...]:
    """Antidiagonal sums c[n] of a triangular table read row by row.

    Row i holds a[i][0..nmax-i].  Without ``identify`` each cell adds into
    c[i+j] as is (concat_sorts); with it the cell is first weighted by
    binom(i+j, i) (identify_sorts).  Those weights, for j = 0..nmax-i, are
    the prefix sums of the previous row's weights, so no binomial is
    computed per cell.  Rows are consumed one at a time and never stored,
    which lets a generator stream a table of any size through here.
    """
    totals = [0] * (nmax + 1)
    binoms = [1] * (nmax + 1)
    for i, row in enumerate(rows):
        if identify:
            if i:
                binoms = list(accumulate(binoms[: len(row)]))
            row = map(mul, binoms, row)
        totals[i:] = map(add, totals[i:], row)
    return tuple(totals)


def _compose_cell(g, prev, binom, i: int, j: int) -> int:
    """Cell (i, j), i + j >= 1, of u_m = F^(m) o G, from u_{m+1} = prev.

    dX(F o G) = dX(G) * (F' o G) gives the cells with i >= 1, and
    dY(F o G) = dY(G) * (F' o G) the i = 0 column.  The cell reads G up to
    degree i + j and u_{m+1} below it.
    """
    s = 0
    if i:
        bj = binom[j]
        for p, bp in enumerate(binom[i - 1]):
            gp, up = g[p + 1], prev[i - 1 - p]
            for q in range(j + 1):
                gv = gp[q]
                if gv:
                    s += bp * bj[q] * gv * up[j - q]
    else:
        g0, u0 = g[0], prev[0]
        for q, bq in enumerate(binom[j - 1]):
            gv = g0[q + 1]
            if gv:
                s += bq * gv * u0[j - 1 - q]
    return s


def _derivative_tables(f: Sequence[int]) -> list[list[list[int]]]:
    """Empty arrays u_0..u_N for F^(m) o G: u_m is a triangle of truncation
    N - m whose only known cell is u_m[0][0] = F[m]."""
    big = len(f) - 1
    us = []
    for m, fm in enumerate(f):
        size = big - m
        u = [[0] * (size + 1 - i) for i in range(size + 1)]
        u[0][0] = fm
        us.append(u)
    return us


def _fill_degree(us, g, binom, d: int) -> None:
    """Fill degree d of every u_m that reaches it (m <= N - d)."""
    for m in range(len(us) - d):
        cur, prev = us[m], us[m + 1]
        for i in range(d + 1):
            cur[i][d - i] = _compose_cell(g, prev, binom, i, d - i)


def compose_table(outer: CoeffSeq, inner: CoeffTable) -> CoeffTable:
    """Substitute a two-sort class into a unisort one, division-free.

    Works like CoeffSeq.compose but in two variables: with u_m the table of
    F^(m) composed with G, the partial derivative identities
    dX(F o G) = dX(G) * (F' o G) and dY(F o G) = dY(G) * (F' o G) fill
    every u_m degree by degree (entries with i >= 1 from the X identity,
    the remaining i = 0 column from the Y identity); u_0 is the result.
    """
    if outer.truncation != inner.truncation:
        raise ShapeError(
            f"composition: truncations differ "
            f"({outer.truncation} vs {inner.truncation})"
        )
    g = inner.rows
    if g[0][0] != 0:
        raise CompositionDomainError("inner class has structures on the empty set")
    big = outer.truncation
    binom = list(pascal_rows(big))
    us = _derivative_tables(outer.counts)
    for d in range(1, big + 1):
        _fill_degree(us, g, binom, d)

    return CoeffTable(
        tuple(tuple(row) for row in us[0]),
        label=f"{outer.label}({inner.label})",
        virtual=outer.virtual or inner.virtual,
    )


def solve_tree_equation(branching: CoeffSeq, nmax: int) -> CoeffTable:
    """Unique fixed point T = X * (branching o (T - X + Y)), in one pass.

    T counts rooted trees whose internal nodes are sort X and whose leaves
    are sort Y; ``branching`` dictates how the set of subtrees under a node
    may look (sets of any size for ordinary rooted trees, bounded sets for
    arity-limited trees).  The "- X + Y" swap accounts for a childless
    appended node turning into a leaf.

    The solve is online (relaxed), degree by degree, on the arrays
    u_m = B^(m) o G of compose_table with G = T - X + Y.  For d = 1..nmax,
    degree d of T is X times degree d - 1 of u_0, the shift
    T[i][j] = i * u_0[i-1][j]; that fixes degree d of G, and then degree d
    of every u_m, which reads G up to degree d and u_{m+1} below it.  The
    cost is that of one composition.  One exact residual check,
    X * B(T - X + Y) == T through compose_table, guards the result.
    """
    if branching.truncation < nmax:
        raise ShapeError("branching sequence shorter than requested truncation")
    b = branching.truncate(nmax)
    binom = list(pascal_rows(nmax))
    # T up to degree nmax reads u_0 below it, so u_m stops at nmax - 1 - m.
    us = _derivative_tables(b.counts[:nmax])
    t = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
    g = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
    for d in range(1, nmax + 1):
        for i in range(1, d + 1):
            t[i][d - i] = g[i][d - i] = i * us[0][i - 1][d - i]
        if d == 1:
            g[1][0] -= 1
            g[0][1] = 1
        if d < nmax:
            _fill_degree(us, g, binom, d)

    tree = CoeffTable(
        tuple(tuple(row) for row in t), label=f"tree[{branching.label}]"
    )
    x1 = CoeffTable.x_singleton(nmax)
    again = compose_table(b, tree - x1 + CoeffTable.y_singleton(nmax)).rows
    if any(
        c != i * again[i - 1][j]
        for i in range(1, nmax + 1)
        for j, c in enumerate(tree.rows[i])
    ):
        raise AssertionError("tree equation has a nonzero residual; this is a bug")
    return tree


def rooted_tree_table(nmax: int) -> CoeffTable:
    """Two-sort rooted trees: internal nodes of sort X, leaves of sort Y."""
    from recdig.series import atom

    return solve_tree_equation(atom("E", nmax), nmax)
