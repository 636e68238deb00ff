"""Counting formulas for R-recurrent functional digraphs of two sorts.

A two-sort functional digraph with i internal nodes (sort X) and j leaves
(sort Y) decomposes into rooted trees whose roots carry a structure of some
class R (the recurrent part).  Merging the sorts one way counts
endofunctions, the other way Cayley permutations; choosing R tunes the
shape of the recurrent part (permutations, single root, sets, cycles,
fixed-point-free permutations, ...).

Three independent routes to the same numbers live here:

* a closed formula over Stirling difference numbers (digraph_count,
  cayley_count, endofunction_count, closed_form_sequence), all read by
  one function, _closed_form, with the weights of row n given per n,
* the two-sort coefficient recursion, one row kernel (digraph_rows,
  digraph_table, digraph_table_with_branches, count_sequence),
* composition of R with the rooted-tree table (via recdig.tables).

Every count takes R itself: a named class is
recurrent_structure_for_class(name, n), and the total of a statistic is
the count of its weighting class (rec.pointing() for recurrent points,
stats.component_weights(rec) for components).

The recursion serves: count_sequence streams the table through a sort
merge in O(N^2) time and O(N) memory, yields each count as soon as it is
final, and answers the CLI's seq, verify and report commands.  The closed
form is the independent check on it (check identities and the tests):
it reads each column of stirling.sdiff_rows it needs once, one row at a
time, so it caches nothing, never recurses, and holds O(N) integers.

The row kernel (_rows) only adds and multiplies, so it is generic in its
number type: seeded with decimal.Decimal counts under an exact context
it yields exact integer Decimals, which table psi prints in linear time.
recdig.tables (the sort merges, CoeffTable, the tree solver) and
recdig.stirling (sdiff_rows, read by _closed_form alone) are imported
inside the functions that use them, so digraph_rows alone loads no table
machinery and the serving route loads no Stirling numbers.

Every division in the closed formulas is exact; each one is asserted.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, islice, repeat
from math import factorial
from operator import add, mul
from typing import Iterator, Sequence

from recdig.series import CoeffSeq, ShapeError, atom, pascal_rows


def __getattr__(name: str):
    # digraphs.sdiff stays readable (the benchmark's tracer self-test reads
    # it), but recdig.stirling is loaded on first use, not with this module.
    if name == "sdiff":
        from recdig.stirling import sdiff

        return sdiff
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InexactDivisionError(ArithmeticError):
    """A formula division left a remainder; indicates a bug, never expected."""


def exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise InexactDivisionError(f"{num} not divisible by {den}")
    return q


def _need_truncation(r: CoeffSeq, n: int, what: str) -> None:
    if n < 0:
        raise ShapeError(f"{what}: size {n} is negative")
    if r.truncation < n:
        raise ShapeError(
            f"{what}: sequence truncated at {r.truncation}, need {n}"
        )


def digraph_count_by_recurrent(i: int, j: int, r: int, rec: CoeffSeq) -> int:
    """Digraphs on [i, j] whose recurrent part is an R-structure of size r.

    Closed formula i! * |R[r]| / r! * sdiff(i+j, i, r): digraph_count of R
    restricted to size r.  A negative index is a ShapeError.
    """
    _need_truncation(rec, r, "digraph_count_by_recurrent")
    return _cell(i, j, rec.restrict(r), "digraph_count_by_recurrent")


def digraph_count(i: int, j: int, rec: CoeffSeq) -> int:
    """Total R-recurrent digraphs on [i, j], summed over the recurrent size."""
    _need_truncation(rec, i, "digraph_count")
    return _cell(i, j, rec, "digraph_count")


def _cell(i: int, j: int, rec: CoeffSeq, what: str) -> int:
    """The closed form with the single weight i! at index i."""
    if i < 0 or j < 0:
        raise ShapeError(f"{what}: size ({i}, {j}) is negative")
    weight = [0] * i + [factorial(i)]
    return _closed_form(rec, lambda n: weight, i + j, i + j)[0]


def digraph_rows(rec: CoeffSeq, nmax: int) -> Iterator[list[int]]:
    """Yield the rows c[i][0..nmax-i], i = 0..nmax, of the digraph table.

    Appending the branch that carries a new leaf gives
    c[i][j] = i * (c[i][j-1] + c[i-1][j]) for i, j >= 1, with the j = 0
    column fixed by R and an empty i = 0 column: _rows with the tail
    (1, (1,)) of linear orders.  Each row comes from the previous one
    only, so a consumer that does not keep the rows holds O(nmax)
    integers.  The arguments are checked at the call, before any row.
    """
    _need_truncation(rec, nmax, "digraph_rows")
    return _rows(rec.counts, 1, (1,), nmax)


def _rows(r: Sequence[int], a: int, nu: Sequence[int], n: int) -> Iterator[list[int]]:
    """Yield the rows c[i][0..n-i] of the table with R's counts r and
    the branch tail (a, nu), e = len(nu) - 1, by the recurrence that
    digraph_table_with_branches derives.  a = 1 and nu[0] = 1 cost no
    product, so T = L costs one addition and one product per cell.  Rows
    i-e..i are kept, and Pascal rows are built only when e > 0.
    """
    e = len(nu) - 1
    last: deque[list[int]] = deque(maxlen=e)  # rows i-1, ..., i-e
    pascal = pascal_rows(n - 1)  # binom(i-1, .), drawn only if e > 0
    row = [r[0]] + [0] * n
    yield row
    for i in range(1, n + 1):
        # c[i-1][n-i+1], the last cell of the previous row, lies
        # outside row i's triangle.
        older = row[1:-1]
        if a != 1:
            older = map(mul, repeat(a), older)
        if e:
            last.appendleft(row)
            # Oldest rows first: their cells are the shortest.
            for b, v, prev in reversed([*zip(next(pascal)[1:], nu[1:], last)]):
                if v:
                    older = list(map(add, older, map(mul, repeat(b * v), prev)))
        cell = r[i]
        row = [cell]
        if nu[0] == 1:
            for x in older:
                cell = i * (cell + x)
                row.append(cell)
        else:
            for x in older:
                cell = i * (nu[0] * cell + x)
                row.append(cell)
        yield row


def digraph_table(rec: CoeffSeq, nmax: int) -> CoeffTable:
    """The full table on i + j <= nmax, stored row by row from digraph_rows."""
    from recdig.tables import CoeffTable

    return CoeffTable(digraph_rows(rec, nmax), virtual=rec.virtual)


def count_sequence(rec: CoeffSeq, nmax: int, model: str) -> Iterator[int]:
    """R-recurrent counts for n = 0..nmax, streamed: the serving kernel.

    Streams digraph_rows into merge_sorts without storing the table:
    model "cayley" merges the sorts by concatenation (Cayley
    permutations), "endofunctions" by identification (endofunctions).
    Count n is yielded as soon as it is final: after row n of the table
    for "cayley", after the block of rows that holds row n for
    "endofunctions".  The model and the truncation are checked when this
    is called, before any count is produced; a caller that needs a
    sequence wraps the iterator in tuple().  O(nmax^2) big-integer
    operations and O(nmax) integers of memory; closed_form_sequence is
    the closed-form check on it.
    """
    if model not in ("cayley", "endofunctions"):
        raise ValueError(f"unknown model {model!r}")
    from recdig.tables import merge_sorts

    return merge_sorts(
        digraph_rows(rec, nmax), nmax, identify=model == "endofunctions"
    )


def _closed_form(rec: CoeffSeq, weights, nmax: int, first: int) -> list[int]:
    """[sum_r |R[r]| / r! * sum_i w[i] * sdiff(n, i, r)], w = weights(n),
    for n = first..nmax.

    The weight picks which labels play the i internal nodes: any i of them
    in order (perm(n, i), endofunctions), 1..i (i!, Cayley permutations),
    or [i] on [i, j] (the single weight i! at i, n = i + j).  Column r of
    stirling.sdiff_rows is read once for each r with R[r] != 0, one row at
    a time, and r stops at the last weight of row nmax; sdiff(n, i, r) = 0
    for i < r, so each dot starts at i = r.  Rows below first only feed
    the recurrence, so a point call (first = nmax) forms one dot per
    column.  Nothing is cached and nothing recurses: O(nmax^3) big-integer
    operations and O(nmax) integers of memory.  Each term costs one exact
    division.
    """
    from recdig.stirling import sdiff_rows

    totals = [0] * (nmax + 1)
    for r, c in enumerate(rec.counts[: len(weights(nmax))]):
        if c:
            fr = factorial(r)
            for n, row in islice(enumerate(sdiff_rows(r, nmax)), max(r, first), None):
                dot = sum(map(mul, weights(n)[r:], row[r:]))
                totals[n] += exact_div(c * dot, fr)
    return totals[first:]


# Row n's weights per model, one product each: i! and perm(n, i), i = 0..n.
_WEIGHTS = {
    "cayley": lambda n: list(accumulate(range(1, n + 1), mul, initial=1)),
    "endofunctions": lambda n: list(accumulate(range(n, 0, -1), mul, initial=1)),
}


def closed_form_sequence(rec: CoeffSeq, nmax: int, model: str) -> list[int]:
    """R-recurrent counts for n = 0..nmax by the closed form, the check on
    count_sequence, which takes the same arguments and raises the same
    errors.  One sweep of every column: each count is final only at the
    end, so this returns a list."""
    if model not in _WEIGHTS:
        raise ValueError(f"unknown model {model!r}")
    _need_truncation(rec, nmax, "closed_form_sequence")
    return _closed_form(rec, _WEIGHTS[model], nmax, 0)


def endofunction_count(n: int, rec: CoeffSeq) -> int:
    """R-recurrent endofunctions of [n]: both sorts over the same labels."""
    _need_truncation(rec, n, "endofunction_count")
    return _closed_form(rec, _WEIGHTS["endofunctions"], n, n)[0]


def cayley_count(n: int, rec: CoeffSeq) -> int:
    """R-recurrent Cayley permutations of [n]: internal nodes take 1..i."""
    _need_truncation(rec, n, "cayley_count")
    return _closed_form(rec, _WEIGHTS["cayley"], n, n)[0]


# -- named structure classes -------------------------------------------------

CLASS_RECURRENT_ATOMS = {
    "all": "S",
    "tree": "X",
    "forest": "E",
    "connected": "C",
    "derangement": "Der",
}


def recurrent_structure_for_class(name: str, nmax: int) -> CoeffSeq:
    """The recurrent-part counts matching a named digraph class."""
    try:
        return atom(CLASS_RECURRENT_ATOMS[name], nmax)
    except KeyError:
        raise ValueError(f"unknown digraph class {name!r}") from None


# -- generalized branches ------------------------------------------------------


def _branch_tail(t: Sequence[int], nmax: int) -> tuple[int, tuple[int, ...]]:
    """The first-order tail (a, nu) of the branch counts t[0..nmax].

    nu[m] = t[m] - a * m * t[m-1] are the counts of (1 - a*x) * T, cut
    after their last nonzero entry, nu[0] kept.  a is t[N] / (N * t[N-1]),
    N = nmax, when that division is exact and nonzero and the cut nu is
    shorter than the cut t; otherwise a = 0 and nu is t cut.
    """

    def cut(counts: Sequence[int]) -> tuple[int, ...]:
        end = len(counts)
        while end > 1 and not counts[end - 1]:
            end -= 1
        return tuple(counts[:end])

    t = t[: nmax + 1]
    plain = cut(t)
    if nmax >= 1 and t[nmax - 1]:
        a, rem = divmod(t[nmax], nmax * t[nmax - 1])
        if a and not rem:
            nu = cut([t[0]] + [t[m] - a * m * t[m - 1] for m in range(1, nmax + 1)])
            if len(nu) < len(plain):
                return a, nu
    return 0, plain


def digraph_table_with_branches(
    rec: CoeffSeq, branch: CoeffSeq, nmax: int
) -> CoeffTable:
    """Digraph table when branches are shaped by an arbitrary class T.

    Structures grow by appending a branch (a T-shape of internal nodes
    ending in a new leaf) to a distinguished internal node.  At coefficient
    level, adding one leaf convolves T against the pointed table:

        c[i][j+1] = sum_m binom(i, m) * T[m] * (i - m) * c[i-m][j]

    with c[i][0] = R[i].  For T = linear orders this reproduces
    digraph_table exactly.

    In column generating functions this reads C_{j+1} = T * x * C_j'.
    Multiplying by (1 - a*x) and moving a*x*C_{j+1} to the right gives
    C_{j+1} = a*x*C_{j+1} + nu * x * C_j' with nu = (1 - a*x) * T, so,
    since binom(i, m) * (i - m) = i * binom(i-1, m),

        c[i][j+1] = i * (nu[0] * c[i][j] + a * c[i-1][j+1]
                         + sum_{1 <= m <= e} binom(i-1, m) * nu[m] * c[i-m][j])

    where nu[m] = T[m] - a * m * T[m-1] and e is the last m with
    nu[m] != 0.  It is an identity of power series, exact for every
    integer a; a = 0 is the plain convolution.  a is read off the branch
    counts (_branch_tail).  _rows fills the table in O((e + 1) * nmax^2)
    operations, keeping O((e + 1) * nmax) integers besides the rows it yields:

    * L and S (a = 1, nu = 1) and L+ and S+ (a = 1, nu = x): O(nmax^2);
    * bounded-size classes (1, X, E_r, S_r and their sums; a = 0): e is
      their largest size, so also O(nmax^2);
    * E, C, Der, Bal, Par and other classes with no such a (a = 0,
      e = nmax): the full convolution, O(nmax^3).
    """
    _need_truncation(rec, nmax, "digraph_table_with_branches")
    _need_truncation(branch, nmax, "digraph_table_with_branches")
    from recdig.tables import CoeffTable

    rows = _rows(rec.counts, *_branch_tail(branch.counts, nmax), nmax)
    return CoeffTable(rows, virtual=rec.virtual or branch.virtual)


def bounded_arity_tree_table(k: int, nmax: int) -> CoeffTable:
    """Two-sort rooted trees where every node has at most k children.

    Solves T = X * ((E_0 + E_1 + ... + E_k) o (T - X + Y)).  Composing the
    result with permutations yields digraphs where recurrent points have
    indegree at most k + 1 and nonrecurrent points at most k.
    """
    if k < 1:
        raise ValueError("arity bound must be at least 1")
    from recdig.tables import solve_tree_equation

    branching = atom("E_r", nmax, 0)
    for r in range(1, k + 1):
        branching = branching + atom("E_r", nmax, r)
    return solve_tree_equation(branching, nmax)


def divisors(n: int, most: int) -> list[int]:
    """The divisors of n up to most, in increasing order."""
    return [d for d in range(1, min(n, most) + 1) if n % d == 0]


def perms_with_cycle_lengths_dividing(d: int, nmax: int) -> CoeffSeq:
    """Permutations all of whose cycle lengths divide d: E o (sum C_i, i | d).

    With single-leaf branches these are the recurrent parts of the maps f
    whose (d+1)-fold iterate equals f; the oracle settles the off-by-one
    question between divisors of d and of d + 1 empirically.
    """
    if d < 1:
        raise ValueError("divisor parameter must be positive")
    inner = atom("C_i", nmax, 1)
    for i in divisors(d, nmax)[1:]:
        inner = inner + atom("C_i", nmax, i)
    return atom("E", nmax).compose(inner)
