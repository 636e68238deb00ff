"""Two-sort coefficient tables: counts |F[i, j]| on the triangle i + j <= N.

Sort X holds internal nodes, sort Y holds leaves.  A CoeffTable is the
two-variable analogue of a CoeffSeq; the extra operations are partial
derivatives per sort, composition of a unisort class with a two-sort one,
the fixed-point solver for rooted-tree equations, and the two ways of
merging the sorts back into one label set.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat
from math import factorial, gcd, prod
from operator import add, floordiv, mul
from typing import Iterable, Iterator, Sequence

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

    Equality and hashing look at the rows only, not at ``virtual``.  The
    rows may come as any iterable of rows; they are stored as a tuple of
    tuples.
    """

    __slots__ = ("rows", "virtual")

    def __init__(self, rows: Iterable[Iterable[int]], virtual: bool = False):
        rows = tuple(map(tuple, rows))
        n = len(rows) - 1
        if n < 0:
            raise ShapeError("a table needs at least the (0, 0) cell")
        for i, row in enumerate(rows):
            if len(row) != n + 1 - i:
                raise ShapeError(
                    f"row {i} has {len(row)} entries, expected {n + 1 - i}"
                )
        if not virtual and min(map(min, rows)) < 0:
            raise ValueError("negative count in concrete table")
        self._store(rows, virtual)

    @property
    def truncation(self) -> int:
        return len(self.rows) - 1

    def __getitem__(self, key: tuple[int, int]) -> int:
        """Cell (i, j); IndexError unless i, j >= 0 and i + j <= N."""
        i, j = key
        n = len(self.rows) - 1
        if i < 0 or j < 0 or i + j > n:
            raise IndexError(f"cell ({i}, {j}) is outside the triangle i + j <= {n}")
        return self.rows[i][j]

    # -- constructors ------------------------------------------------------

    @classmethod
    def x_singleton(cls, nmax: int) -> "CoeffTable":
        """One X label: cell (1, 0) is 1, every other cell 0."""
        return _singleton(nmax, (1, 0))

    @classmethod
    def y_singleton(cls, nmax: int) -> "CoeffTable":
        """One Y label: cell (0, 1) is 1, every other cell 0."""
        return _singleton(nmax, (0, 1))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "CoeffTable") -> "CoeffTable":
        same_truncation(self, other, "sum")
        a, b = self.rows, other.rows
        virtual = self.virtual or other.virtual
        return _table(self.truncation, lambda i, j: a[i][j] + b[i][j], virtual)

    def __sub__(self, other: "CoeffTable") -> "CoeffTable":
        same_truncation(self, other, "difference")
        a, b = self.rows, other.rows
        return _table(self.truncation, lambda i, j: a[i][j] - b[i][j], True)

    def __mul__(self, other: "CoeffTable") -> "CoeffTable":
        """Labeled product, a binomial convolution in both sorts: each cell
        is _product_cell, with binomials from pascal_rows."""
        same_truncation(self, other, "product")
        n, a, b = self.truncation, self.rows, other.rows
        binom = list(pascal_rows(n))
        virtual = self.virtual or other.virtual
        return _table(n, lambda i, j: _product_cell(a, b, binom, i, j), virtual)

    # -- per-sort operators --------------------------------------------------

    def partial_x(self) -> "CoeffTable":
        """One extra X label: c[i][j] = a[i+1][j]; truncation drops by one."""
        return self._partial(1, 0)

    def partial_y(self) -> "CoeffTable":
        """One extra Y label: c[i][j] = a[i][j+1]; truncation drops by one."""
        return self._partial(0, 1)

    def _partial(self, di: int, dj: int) -> "CoeffTable":
        """c[i][j] = a[i+di][j+dj], the derivative in the sort of (di, dj)."""
        n = self.truncation
        if n == 0:
            raise ShapeError("partial derivative of a truncation-0 table is empty")
        a = self.rows
        return _table(n - 1, lambda i, j: a[i + di][j + dj], self.virtual)

    def pointing_x(self) -> "CoeffTable":
        """Distinguish an X label: c[i][j] = i * a[i][j]."""
        a = self.rows
        return _table(self.truncation, lambda i, j: i * a[i][j], self.virtual)

    def truncate(self, n: int) -> "CoeffTable":
        if n < 0 or n > self.truncation:
            raise ShapeError(f"cannot truncate table at {n}")
        a = self.rows
        return _table(n, lambda i, j: a[i][j], self.virtual)

    # -- merging the two sorts back into one -----------------------------------

    def identify_sorts(self) -> CoeffSeq:
        """Counts after treating both sorts as one label set.

        The binomial factor chooses which of the n labels play sort X:
        c[n] = sum_i binom(n, i) * a[i][n-i].  merge_sorts takes the rows
        in blocks and multiplies each block's antidiagonal by one binomial.
        """
        counts = merge_sorts(self.rows, self.truncation, identify=True)
        return CoeffSeq(tuple(counts), virtual=self.virtual)

    def concat_sorts(self) -> CoeffSeq:
        """Counts when sort X is forced onto the smallest labels.

        Plain antidiagonal sums: c[n] = sum_i a[i][n-i].  This is the
        Cayley-permutation style merge (internal nodes take 1..i).
        """
        counts = merge_sorts(self.rows, self.truncation, identify=False)
        return CoeffSeq(tuple(counts), virtual=self.virtual)


def merge_sorts(
    rows: Iterable[Sequence[int]], nmax: int, identify: bool
) -> Iterator[int]:
    """Yield the antidiagonal sums c[n], n = 0..nmax, of a triangular table
    read row by row, each as soon as it is final.

    Row i holds a[i][0..nmax-i] and adds into c[i..nmax] only.  Without
    ``identify`` each cell adds in as is (concat_sorts), so c[n] is final
    after row n.  With it, cell (i, j) is weighted by binom(i+j, i)
    (identify_sorts), and the rows are read in blocks lo..hi of
    _block_size(nmax) rows, through the identity

        sum_{i=lo..hi} binom(n, i) * a[i][n-i]
            = binom(n, lo) * sum_i w_i * a[i][n-i] / D

    with D = (lo+1)...hi and, for row lo+t and j = n-lo-t, the weight
    w = (j+1)...(j+t) * (lo+t+1)...hi.  Every w and D is a product of at
    most hi - lo factors up to nmax, one machine digit, so a block costs
    one big product and one exact small division per antidiagonal instead
    of one big product per cell.  binom(n, lo) is the Pascal column lo,
    kept by prefix sums.  c[n] is final after the block that holds row n.

    A block's sum is built lazily from iterators, and rows are consumed
    one block at a time and never stored beyond it, which lets a generator
    stream a table of any size through here.  A missing row raises
    ShapeError, after the counts that the rows before it make final.
    """
    rows = iter(rows)
    size = _block_size(nmax) if identify else 1
    totals = [0] * (nmax + 1)
    column: Iterable[int] = repeat(1)  # binom(lo + k, lo), k = 0..nmax-lo
    for lo in range(0, nmax + 1, size):
        block = list(islice(rows, size))
        if len(block) < min(size, nmax + 1 - lo):
            raise ShapeError(f"merge_sorts: {lo + len(block)} rows, need {nmax + 1}")
        part = block[0]
        if identify:
            column = list(islice(column, nmax + 1 - lo))
            part = _identify_block(block, lo, column)
            for _ in range(size):
                column = accumulate(column)
        totals[lo:] = map(add, totals[lo:], part)
        del block, part  # the block's rows go before the next block is read
        yield from totals[lo : lo + size]


def _block_size(nmax: int) -> int:
    """The largest B <= nmax + 1 with (nmax + 1)**(B - 1) < 2**30: then a
    block's weights and divisor, products of B - 1 factors up to nmax, are
    one machine digit each."""
    size = 1
    while size <= nmax and (nmax + 1) ** size < 1 << 30:
        size += 1
    return size


def _identify_block(
    block: list[Sequence[int]], lo: int, column: list[int]
) -> Iterator[int]:
    """binom(n, lo) * sum_t w_t * a[lo+t][n-lo-t] / D for n = lo..nmax, the
    block's share of the identify merge (see merge_sorts)."""
    hi = lo + len(block) - 1
    for t, row in enumerate(block):
        # (lo+t+1)...hi * (j+1)...(j+t) = (lo+t+1)...hi * t! * binom(j+t, t)
        # for j = 0, 1, ...: the t-fold prefix sums of a constant.
        w = repeat(prod(range(lo + t + 1, hi + 1)) * factorial(t))
        for _ in range(t):
            w = accumulate(w)
        term = chain(repeat(0, t), map(mul, row, w))
        weighted = map(add, weighted, term) if t else term
    divisor = prod(range(lo + 1, hi + 1))
    return map(floordiv, map(mul, column, weighted), repeat(divisor))


def _table(n: int, cell, virtual: bool = False) -> CoeffTable:
    """The table with cell(i, j) at each (i, j), i + j <= n: the one builder."""
    return CoeffTable(
        ((cell(i, j) for j in range(n + 1 - i)) for i in range(n + 1)), virtual
    )


def _singleton(nmax: int, at: tuple[int, int]) -> CoeffTable:
    """The table with a 1 at cell ``at`` (when it fits) and 0 elsewhere."""
    return _table(nmax, lambda i, j: int((i, j) == at))


def _zeros(n: int) -> list[list[int]]:
    """A mutable zero triangle of truncation n, a solver's working array."""
    return [[0] * (n + 1 - i) for i in range(n + 1)]


def _product_cell(g, z, binom, i: int, j: int) -> int:
    """Cell (i, j) of the labeled product G * Z with binomials from the Pascal
    rows ``binom``, skipping the zero cells of G.  It reads Z up to degree
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
    us = [_zeros(big - m) for m in range(m0 + 2)]
    for u, seed in zip(us, f):  # array m > big is empty and has no seed
        u[0][0] = seed
    a, b, c = abc
    z = _zeros(big - m0 - 1)
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

    return CoeffTable(us[0], virtual=outer.virtual or inner.virtual)


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
    t, g = _zeros(nmax), _zeros(nmax)
    for d in range(1, nmax + 1):
        for i in range(1, d + 1):
            t[i][d - i] = g[i][d - i] = i * us[0][i - 1][d - i]
        if d == 1:
            g[1][0] -= 1
            g[0][1] = 1
        if d < nmax:
            _fill_degree(us, tail, g, binom, d)

    tree = CoeffTable(t)
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
