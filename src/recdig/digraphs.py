"""Counting formulas for R-recurrent functional digraphs of two sorts.

A two-sort functional digraph with i internal nodes (sort X) and j leaves
(sort Y) decomposes into rooted trees whose roots carry a structure of some
class R (the recurrent part).  Merging the sorts one way counts
endofunctions, the other way Cayley permutations; choosing R tunes the
shape of the recurrent part (permutations, single root, sets, cycles,
fixed-point-free permutations, ...).

Three independent routes to the same numbers live here:

* a closed formula over Stirling difference numbers (digraph_count,
  cayley_count, endofunction_count),
* the two-sort coefficient recursion (digraph_rows, digraph_table,
  count_sequence),
* composition of R with the rooted-tree table (via recdig.tables).

The recursion serves: count_sequence streams the table through a sort
merge in O(N^2) time and O(N) memory, yields each count as soon as it is
final, and answers the CLI's seq, verify and report commands.  The closed
form is the independent check on it (the table sdiff and check identities
commands, and the tests).

Every division in the closed formulas is exact; each one is asserted.
"""

from __future__ import annotations

from math import factorial, perm
from operator import mul
from typing import Iterator, Sequence

from recdig.series import CoeffSeq, ShapeError, atom, pascal_rows
from recdig.stirling import sdiff
from recdig.tables import CoeffTable, merge_sorts, solve_tree_equation


class InexactDivisionError(ArithmeticError):
    """A formula division left a remainder; indicates a bug, never expected."""


def exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise InexactDivisionError(f"{num} not divisible by {den}")
    return q


def _need_truncation(r: CoeffSeq, n: int, what: str) -> None:
    if r.truncation < n:
        raise ShapeError(
            f"{what}: sequence truncated at {r.truncation}, need {n}"
        )


def digraph_count_by_recurrent(i: int, j: int, r: int, rec: CoeffSeq) -> int:
    """Digraphs on [i, j] whose recurrent part is an R-structure of size r.

    Closed formula i! * |R[r]| / r! * sdiff(i+j, i, r); the division by r!
    is performed last and checked exact.
    """
    if i < 0 or j < 0 or r < 0:
        raise ValueError("indices must be nonnegative")
    _need_truncation(rec, r, "digraph_count_by_recurrent")
    return exact_div(
        factorial(i) * rec.counts[r] * sdiff(i + j, i, r), factorial(r)
    )


def digraph_count(i: int, j: int, rec: CoeffSeq) -> int:
    """Total R-recurrent digraphs on [i, j], summed over the recurrent size."""
    _need_truncation(rec, i, "digraph_count")
    return sum(digraph_count_by_recurrent(i, j, r, rec) for r in range(i + 1))


def digraph_rows(rec: CoeffSeq, nmax: int) -> Iterator[list[int]]:
    """Yield the rows c[i][0..nmax-i], i = 0..nmax, of the digraph table.

    Appending the branch that carries a new leaf gives
    c[i][j] = i * (c[i][j-1] + c[i-1][j]) for i, j >= 1, with the j = 0
    column fixed by R and an empty i = 0 column.  Each row is built from
    the previous one only, so a consumer that does not keep the rows holds
    O(nmax) integers at a time.  The arguments are checked when this is
    called, before any row is built.
    """
    if nmax < 0:
        raise ShapeError("a table needs at least the (0, 0) cell")
    _need_truncation(rec, nmax, "digraph_rows")
    return _rows(rec.counts, nmax)


def _rows(r: Sequence[int], nmax: int) -> Iterator[list[int]]:
    row = [r[0]] + [0] * nmax
    yield row
    for i in range(1, nmax + 1):
        cell = r[i]
        new = [cell]
        # c[i-1][nmax-i+1], the last cell of the previous row, lies
        # outside row i's triangle.
        for up in row[1:-1]:
            cell = i * (cell + up)
            new.append(cell)
        row = new
        yield row


def digraph_table(rec: CoeffSeq, nmax: int) -> CoeffTable:
    """The full table on i + j <= nmax, stored row by row from digraph_rows."""
    return CoeffTable(
        tuple(tuple(row) for row in digraph_rows(rec, nmax)), virtual=rec.virtual
    )


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
    operations and O(nmax) integers of memory; cayley_count and
    endofunction_count are the closed-form check on it.
    """
    if model not in ("cayley", "endofunctions"):
        raise ValueError(f"unknown model {model!r}")
    return merge_sorts(
        digraph_rows(rec, nmax), nmax, identify=model == "endofunctions"
    )


def _closed_form_total(n: int, rec: CoeffSeq, weights: list[int]) -> int:
    """sum_r |R[r]| / r! * sum_i weights[i] * sdiff(n, i, r).

    The weight picks which labels play the i internal nodes: any i of them
    in order (perm(n, i), endofunctions), or 1..i (i!, Cayley
    permutations).
    """
    total = 0
    for r in range(n + 1):
        inner = sum(w * sdiff(n, i, r) for i, w in enumerate(weights))
        total += exact_div(rec.counts[r] * inner, factorial(r))
    return total


def endofunction_count(n: int, rec: CoeffSeq) -> int:
    """R-recurrent endofunctions of [n]: both sorts over the same labels."""
    _need_truncation(rec, n, "endofunction_count")
    return _closed_form_total(n, rec, [perm(n, i) for i in range(n + 1)])


def cayley_count(n: int, rec: CoeffSeq) -> int:
    """R-recurrent Cayley permutations of [n]: internal nodes take 1..i."""
    _need_truncation(rec, n, "cayley_count")
    return _closed_form_total(n, rec, [factorial(i) for i in range(n + 1)])


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


def cayley_derangement_count(n: int) -> int:
    """Fixed-point-free Cayley permutations of [n]."""
    return cayley_count(n, atom("Der", n))


def cayley_connected_count(n: int) -> int:
    """Cayley permutations of [n] with a connected functional digraph."""
    return cayley_count(n, atom("C", n))


def cayley_forest_count(n: int) -> int:
    """Cayley permutations of [n] whose functional digraph is a forest."""
    return cayley_count(n, atom("E", n))


def cayley_tree_count(n: int) -> int:
    """Cayley permutations of [n] whose functional digraph is a tree."""
    return cayley_count(n, atom("X", n))


# -- generalized branches ------------------------------------------------------


def _branch_tail(t: Sequence[int], nmax: int) -> tuple[int, tuple[int, ...]]:
    """The first-order tail (a, nu) of the branch counts t[0..nmax].

    nu[m] = t[m] - a * m * t[m-1] are the counts of (1 - a*x) * T, cut
    after their last nonzero entry.  a is t[N] / (N * t[N-1]), N = nmax,
    when that division is exact and nonzero and the cut nu is shorter than
    the cut t; otherwise a = 0 and nu is t cut.
    """

    def cut(counts: Sequence[int]) -> tuple[int, ...]:
        end = len(counts)
        while end and not counts[end - 1]:
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


def _branch_rows(
    r: Sequence[int], a: int, nu: tuple[int, ...], nmax: int
) -> tuple[tuple[int, ...], ...]:
    """Rows of the branch table from R's counts and the tail (a, nu).

    The table is kept as columns and filled row by row.  Row i prepares
    its weights binom(i, m) * nu[i-m] * m for the rows m = i-e..i (m >= 1)
    once from a Pascal row; then each c[i][j+1] is a * i * c[i-1][j+1],
    the last cell of column j+1, plus one dot product of the weights with
    the bottom e+1 cells of column j.
    """
    e = len(nu) - 1
    cols: list[list[int]] = [[] for _ in range(nmax + 1)]
    for i, binom in enumerate(pascal_rows(nmax)):
        low = max(1, i - e)
        weights = [binom[m] * nu[i - m] * m for m in range(low, i + 1)]
        ai = a * i
        cell = r[i]
        for col, nxt in zip(cols[: nmax - i], cols[1:]):
            col.append(cell)
            cell = sum(map(mul, weights, col[low:]))
            if ai:
                cell += ai * nxt[-1]
        cols[nmax - i].append(cell)
    return tuple(
        tuple(col[i] for col in cols[: nmax + 1 - i]) for i in range(nmax + 1)
    )


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
    C_{j+1} = a*x*C_{j+1} + nu * x * C_j' with nu = (1 - a*x) * T, so

        c[i][j+1] = a * i * c[i-1][j+1]
                    + sum_{m <= e} binom(i, m) * nu[m] * (i - m) * c[i-m][j]

    where nu[m] = T[m] - a * m * T[m-1] and e is the last m with
    nu[m] != 0.  It is an identity of power series, exact for every
    integer a; a = 0 is the plain convolution.  a is read off the branch
    counts (_branch_tail), so each cell costs e + 2 products and the table
    O((e + 1) * nmax^2):

    * L and S (a = 1, nu = 1) and L+ and S+ (a = 1, nu = x): O(nmax^2);
    * bounded-size classes (1, X, E_r, S_r and their sums; a = 0): e is
      their largest size, so also O(nmax^2);
    * E, C, Der, Bal, Par and other classes with no such a (a = 0,
      e = nmax): the full convolution, O(nmax^3).
    """
    _need_truncation(rec, nmax, "digraph_table_with_branches")
    _need_truncation(branch, nmax, "digraph_table_with_branches")
    rows = _branch_rows(rec.counts, *_branch_tail(branch.counts, nmax), nmax)
    return CoeffTable(rows, virtual=rec.virtual or branch.virtual)


def bounded_arity_tree_table(k: int, nmax: int) -> CoeffTable:
    """Two-sort rooted trees where every node has at most k children.

    Solves T = X * ((E_0 + E_1 + ... + E_k) o (T - X + Y)).  Composing the
    result with permutations yields digraphs where recurrent points have
    indegree at most k + 1 and nonrecurrent points at most k.
    """
    if k < 1:
        raise ValueError("arity bound must be at least 1")
    branching = atom("E_r", nmax, 0)
    for r in range(1, k + 1):
        branching = branching + atom("E_r", nmax, r)
    return solve_tree_equation(branching, nmax)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def perms_with_cycle_lengths_dividing(d: int, nmax: int) -> CoeffSeq:
    """Permutations all of whose cycle lengths divide d: E o (sum C_i, i | d).

    With single-leaf branches these are the recurrent parts of the maps f
    whose (d+1)-fold iterate equals f; the oracle settles the off-by-one
    question between divisors of d and of d + 1 empirically.
    """
    if d < 1:
        raise ValueError("divisor parameter must be positive")
    inner = atom("C_i", nmax, divisors(d)[0])
    for i in divisors(d)[1:]:
        inner = inner + atom("C_i", nmax, i)
    return atom("E", nmax).compose(inner)
