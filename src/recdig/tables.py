"""Two-sort coefficient tables: counts |F[i, j]| on the triangle i + j <= N.

Sort X holds internal nodes, sort Y holds leaves.  A CoeffTable is the
two-variable analogue of a CoeffSeq; the extra operations are partial
derivatives per sort, composition of a unisort class with a two-sort one,
the fixed-point solver for rooted-tree equations, and the two ways of
merging the sorts back into one label set.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, gcd
from operator import add, mul
from typing import Iterable, Sequence

from recdig._record import Record
from recdig.series import (
    CoeffSeq,
    CompositionDomainError,
    ShapeError,
    pascal_rows,
    same_truncation,
)


class CoeffTable(Record, compare=("rows",)):
    """Triangular table rows[i][j] = |F[i, j]| for i + j <= N.

    Equality and hashing look at the rows only, not at ``virtual``.
    """

    __slots__ = ("rows", "virtual")

    def __init__(self, rows: tuple[tuple[int, ...], ...], virtual: bool = False):
        n = len(rows) - 1
        if n < 0:
            raise ShapeError("a table needs at least the (0, 0) cell")
        for i, row in enumerate(rows):
            if len(row) != n + 1 - i:
                raise ShapeError(
                    f"row {i} has {len(row)} entries, expected {n + 1 - i}"
                )
        if not virtual and any(c < 0 for row in rows for c in row):
            raise ValueError("negative count in concrete table")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "virtual", virtual)

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
    def x_singleton(cls, nmax: int) -> "CoeffTable":
        t = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
        if nmax >= 1:
            t[1][0] = 1
        return cls(tuple(tuple(r) for r in t))

    @classmethod
    def y_singleton(cls, nmax: int) -> "CoeffTable":
        t = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
        if nmax >= 1:
            t[0][1] = 1
        return cls(tuple(tuple(r) for r in t))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "CoeffTable") -> "CoeffTable":
        same_truncation(self, other, "sum")
        rows = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return CoeffTable(rows, virtual=self.virtual or other.virtual)

    def __sub__(self, other: "CoeffTable") -> "CoeffTable":
        same_truncation(self, other, "difference")
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return CoeffTable(rows, virtual=True)

    def __mul__(self, other: "CoeffTable") -> "CoeffTable":
        """Labeled product, a binomial convolution in both sorts."""
        same_truncation(self, other, "product")
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
        return CoeffTable(tuple(rows), virtual=self.virtual or other.virtual)

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
        return CoeffTable(rows, virtual=self.virtual)

    def partial_y(self) -> "CoeffTable":
        """One extra Y label: c[i][j] = a[i][j+1]; truncation drops by one."""
        n = self.truncation
        if n == 0:
            raise ShapeError("partial derivative of a truncation-0 table is empty")
        rows = tuple(
            tuple(self.rows[i][j + 1] for j in range(n - i))
            for i in range(n)
        )
        return CoeffTable(rows, virtual=self.virtual)

    def pointing_x(self) -> "CoeffTable":
        """Distinguish an X label: c[i][j] = i * a[i][j]."""
        rows = tuple(
            tuple(i * c for c in row) for i, row in enumerate(self.rows)
        )
        return CoeffTable(rows, virtual=self.virtual)

    def truncate(self, n: int) -> "CoeffTable":
        if n < 0 or n > self.truncation:
            raise ShapeError(f"cannot truncate table at {n}")
        rows = tuple(
            tuple(self.rows[i][j] for j in range(n + 1 - i)) for i in range(n + 1)
        )
        return CoeffTable(rows, virtual=self.virtual)

    # -- merging the two sorts back into one -----------------------------------

    def identify_sorts(self) -> CoeffSeq:
        """Counts after treating both sorts as one label set.

        The binomial factor chooses which of the n labels play sort X:
        c[n] = sum_i binom(n, i) * a[i][n-i].
        """
        counts = merge_sorts(self.rows, self.truncation, identify=True)
        return CoeffSeq(counts, virtual=self.virtual)

    def concat_sorts(self) -> CoeffSeq:
        """Counts when sort X is forced onto the smallest labels.

        Plain antidiagonal sums: c[n] = sum_i a[i][n-i].  This is the
        Cayley-permutation style merge (internal nodes take 1..i).
        """
        counts = merge_sorts(self.rows, self.truncation, identify=False)
        return CoeffSeq(counts, virtual=self.virtual)


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


def _product_cell(g, z, binom, i: int, j: int) -> int:
    """Cell (i, j) of the labeled product G * Z, reading Z up to degree
    i + j, and below it when G[0][0] is 0."""
    s = 0
    bj = binom[j]
    for p, bp in enumerate(binom[i]):
        gp, zp = g[p], z[i - p]
        for q in range(j + 1):
            gv = gp[q]
            if gv:
                s += bp * bj[q] * gv * zp[j - q]
    return s


def _cancel(row: list[int], pivot: list[int], col: int) -> list[int]:
    """row with its column-col entry eliminated against pivot, in integers
    reduced by their common divisor."""
    if not row[col]:
        return row
    new = [pivot[col] * x - row[col] * y for x, y in zip(row, pivot)]
    g = gcd(*new)
    return [x // g for x in new] if g else new


def _first_order_tail(s: Sequence[int]) -> tuple[int, int, int] | None:
    """Integers (a, b, c) with s[k+1] = (a*k + b)*s[k] + c*k*s[k-1] for
    every k, that is (1 - a*x) * F' = (b + c*x) * F for the EGF F of s;
    None if there are none.

    Fraction-free Gauss-Jordan elimination over the equations, one per k;
    an unknown they leave free is taken as 0.
    """
    pivots: dict[int, list[int]] = {}
    for k in range(len(s) - 1):
        row = [k * s[k], s[k], k * s[k - 1] if k else 0, s[k + 1]]
        for col, pivot in pivots.items():
            row = _cancel(row, pivot, col)
        col = next((c for c in range(3) if row[c]), None)
        if col is None:
            if row[3]:
                return None
            continue
        for pc, pivot in pivots.items():
            pivots[pc] = _cancel(pivot, row, col)
        pivots[col] = row
    abc = [0, 0, 0]
    for col, row in pivots.items():
        abc[col], rem = divmod(row[3], row[col])
        if rem:
            return None
    return tuple(abc)


def _derivative_tables(f: Sequence[int]):
    """Empty arrays for F^(m) o G, m = 0..m0 + 1, and the tail (a, b, c, z).

    F^(m0) is the first derivative whose counts end the chain with a
    first-order equation (1 - a*x) * F^(m0+1) = (b + c*x) * F^(m0)
    (see _first_order_tail); every count sequence has one at the latest
    where it is too short to contradict one.  Array m has truncation
    N - m and its only known cell is [0][0] = F[m].  Composed with G the
    equation reads w = b*v + G * z with v = F^(m0) o G, w = F^(m0+1) o G
    and z = a*w + c*v, the last array kept beside the chain.
    """
    if not f:
        return [], None
    big = len(f) - 1
    m0 = 0
    while (abc := _first_order_tail(f[m0:])) is None:
        m0 += 1
    us = []
    for m in range(m0 + 2):
        size = big - m
        u = [[0] * (size + 1 - i) for i in range(size + 1)]
        if u:
            u[0][0] = f[m]
        us.append(u)
    a, b, c = abc
    z = [[0] * len(row) for row in us[-1]]
    if z:
        z[0][0] = a * f[m0 + 1] + c * f[m0]
    return us, (a, b, c, z)


def _fill_degree(us, tail, g, binom, d: int) -> None:
    """Fill degree d of every array that reaches it.

    Array m is filled from array m + 1 below degree d: the identity
    dX(F o G) = dX(G) * (F' o G) gives the cells with i >= 1 and
    dY(F o G) = dY(G) * (F' o G) the i = 0 column; dX(G) is g[1:] and the
    i = 0 row of dY(G) is g[0][1:], taken here because the solver fills g
    in place.  The last array, w, comes from the tail equation
    w = b*v + G * z, which reads v at degree d and z below it; so the
    chain goes first.
    """
    dx, dy = g[1:], [g[0][1:]]
    for cur, prev in zip(us, us[1:]):
        if len(cur) > d:
            cur[0][d] = _product_cell(dy, prev, binom, 0, d - 1)
            for i in range(1, d + 1):
                cur[i][d - i] = _product_cell(dx, prev, binom, i - 1, d - i)
    a, b, c, z = tail
    v, w = us[-2], us[-1]
    if len(w) > d:
        for i in range(d + 1):
            j = d - i
            cell = b * v[i][j]
            if a or c:
                cell += _product_cell(g, z, binom, i, j)
            w[i][j] = cell
            z[i][j] = a * cell + c * v[i][j]


def compose_table(outer: CoeffSeq, inner: CoeffTable) -> CoeffTable:
    """Substitute a two-sort class into a unisort one, division-free.

    Works like CoeffSeq.compose but in two variables: with u_m the table of
    F^(m) composed with G, the partial derivative identities
    dX(F o G) = dX(G) * (F' o G) and dY(F o G) = dY(G) * (F' o G) fill
    every u_m degree by degree from u_{m+1} (entries with i >= 1 from the X
    identity, the remaining i = 0 column from the Y identity); u_0 is the
    result.

    The chain stops at the first derivative F^(m0) with a first-order
    equation (1 - a*x) * F^(m0+1) = (b + c*x) * F^(m0), found from the
    counts: u_{m0+1} = b*u_{m0} + G * (a*u_{m0+1} + c*u_{m0}) then needs
    no further array.  E, S, L and Der have m0 = 0, C, S+ and L+ m0 = 1,
    and a polynomial at most its degree, so the cost is O((m0 + 2) * N^4)
    big-integer products.  Ballots and set partitions have no such
    equation and keep the whole chain, O(N^5).
    """
    same_truncation(outer, inner, "composition")
    g = inner.rows
    if g[0][0] != 0:
        raise CompositionDomainError("inner class has structures on the empty set")
    big = outer.truncation
    binom = list(pascal_rows(big))
    us, tail = _derivative_tables(outer.counts)
    for d in range(1, big + 1):
        _fill_degree(us, tail, g, binom, d)

    return CoeffTable(
        tuple(tuple(row) for row in us[0]), virtual=outer.virtual or inner.virtual
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
    chain ends in the first-order tail of compose_table, whose every cell
    also reads lower degrees only (G[0][0] is 0), so the solve stays online
    and costs one composition, O((m0 + 2) * nmax^4): m0 = 0 for the sets of
    rooted trees, k - 1 for trees of arity at most k.  One exact residual
    check, X * B(T - X + Y) == T through compose_table, guards the result.
    """
    if branching.truncation < nmax:
        raise ShapeError("branching sequence shorter than requested truncation")
    b = branching.truncate(nmax)
    binom = list(pascal_rows(nmax))
    # T up to degree nmax reads u_0 below it, so u_m stops at nmax - 1 - m.
    us, tail = _derivative_tables(b.counts[:nmax])
    t = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
    g = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
    for d in range(1, nmax + 1):
        for i in range(1, d + 1):
            t[i][d - i] = g[i][d - i] = i * us[0][i - 1][d - i]
        if d == 1:
            g[1][0] -= 1
            g[0][1] = 1
        if d < nmax:
            _fill_degree(us, tail, g, binom, d)

    tree = CoeffTable(tuple(tuple(row) for row in t))
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
