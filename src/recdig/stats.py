"""Statistics over recurrent digraphs and exact order-sum identities.

Totals of a statistic (recurrent points, connected components) over all
structures of a class are themselves counts of a modified class: weighting
by the number of recurrent points points at the recurrent structure, and
weighting by the number of components multiplies the recurrent counts by
their logarithm.  Everything stays in exact integers; harmonic numbers
only ever appear multiplied by factorials, and the asymptotics report is
the single place where decimal renderings (never floats in identities)
are produced.

The total_* helpers and the identity suite are counts of modified
classes under the closed forms of recdig.digraphs (digraph_count,
cayley_count, endofunction_count, closed_form_sequence), so this module
reads no Stirling number itself; the asymptotics report is served by the
table recursion (digraphs.count_sequence), so the two routes stay
independent.  The report is one table of (statistic, numerators,
denominators) and one row helper.  The identity suite builds every side
as a whole sequence and reads it off per n: the ballot products (two per
r), the two segment expansions (sums of ordinal products), and the
closed-form sides, one closed_form_sequence of R and one of S_r per
ballot r.  `identity_suite` builds the ballot side, which does not
depend on R, once for every R it checks.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import factorial, log
from operator import add, mul

from recdig._record import Record
from recdig.digraphs import (
    cayley_count,
    closed_form_sequence,
    count_sequence,
    digraph_count,
    endofunction_count,
)
from recdig.series import (
    CoeffSeq,
    LogarithmDomainError,
    ShapeError,
    atom,
    same_truncation,
)

EULER_GAMMA = 0.5772156649
INV_E = "0.3678794412"
BALLOT_RMAX = 6  # the ballot identities are checked for r = 1..BALLOT_RMAX
RATIO_DIGITS = 10  # fractional digits of every decimal rendering


def ordinal_product(a: CoeffSeq, b: CoeffSeq) -> CoeffSeq:
    """Structures on an initial and a terminal segment of a total order.

    Plain (non-binomial) convolution: the segment split leaves no label
    choices.  Only the nonzero counts of a are convolved: O(nmax) for R_r.
    """
    same_truncation(a, b, "ordinal product")
    counts = [0] * len(a.counts)
    for k, x in enumerate(a.counts):
        if x:  # row k of the product: x * b, shifted by k
            counts[k:] = map(add, counts[k:], map(mul, repeat(x), b.counts))
    return CoeffSeq(tuple(counts), virtual=a.virtual or b.virtual)


# -- statistic totals ---------------------------------------------------------


def total_recurrent_points(i: int, j: int, rec: CoeffSeq) -> int:
    """Sum of the number of recurrent points over all structures on [i, j].

    It is digraph_count of the pointed class, so a negative i or j, or an
    i past the truncation of rec, raises ShapeError.
    """
    return digraph_count(i, j, rec.pointing())


def component_weights(rec: CoeffSeq) -> CoeffSeq:
    """The class R * log R, whose counts weight each structure by its
    number of connected components."""
    if rec.counts[0] != 1:
        raise LogarithmDomainError(
            "component counting needs exactly one empty recurrent structure"
        )
    return rec * rec.log()


def total_components(i: int, j: int, rec: CoeffSeq) -> int:
    """Sum of the number of components over all structures on [i, j]."""
    return digraph_count(i, j, component_weights(rec))


def total_recurrent_cayley(n: int, rec: CoeffSeq) -> int:
    return cayley_count(n, rec.pointing())


def total_recurrent_end(n: int, rec: CoeffSeq) -> int:
    return endofunction_count(n, rec.pointing())


def total_components_cayley(n: int, rec: CoeffSeq) -> int:
    return cayley_count(n, component_weights(rec))


def total_components_end(n: int, rec: CoeffSeq) -> int:
    return endofunction_count(n, component_weights(rec))


def total_cycles_over_cayley(n: int) -> int:
    """Total number of cycles over all Cayley permutations of [n]."""
    return total_components_cayley(n, atom("S", n))


def total_cycles_over_end(n: int) -> int:
    """Total number of cycles over all endofunctions of [n]."""
    return total_components_end(n, atom("S", n))


# -- exact identity suite -------------------------------------------------------


class IdentityCheck(Record):
    __slots__ = ("identity", "index", "lhs", "rhs")

    def __init__(self, identity: str, index: tuple[int, ...], lhs: int, rhs: int):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def _ballot_powers(nmax: int, rmax: int):
    """(E^r * Bal^(r+1))[.] and (E^r * Bal^r)[.] for r = 0..rmax.

    Two products per r: mixed[r] = square[r] * Bal and
    square[r + 1] = mixed[r] * E.
    """
    e = atom("E", nmax)
    bal = atom("Bal", nmax)
    mixed = []
    square = [atom("1", nmax)]
    for r in range(rmax + 1):
        mixed.append(square[r] * bal)
        square.append(mixed[r] * e)
    return mixed, square[:-1]


def identity_checks(rec: CoeffSeq, nmax: int) -> list[IdentityCheck]:
    """Evaluate the order-sum identities as exact integer comparisons.

    Four families, all multiplied through so each side is an integer:

    * ballot_block_sum: sum_i i! sdiff(n+r+1, i, r) = r! r (E^r Bal^(r+1))[n],
      the left side read off the closed_form_sequence of S_r in the Cayley
      model, since S_r has r! structures of size r and none of any other
      size
    * ballot_integral_doubled: 2r (int E^r Bal^(r+1))[n] = (E^r Bal^r - 1)[n]
    * segment_expansion: Cay-count(n) = R[n]
          + sum_r (pointed R_r) (+) (int E^r Bal^(r+1)) at n
    * segment_expansion_halved: 2 Cay-count(n)
          = sum_r R_r (+) (1 + E^r Bal^r) at n

    Each segment expansion is one sequence: a sum of ordinal products
    (+) of the restrictions R_r of R truncated at nmax.
    """
    return identity_suite([rec], nmax)[0]


def identity_suite(recs: list[CoeffSeq], nmax: int) -> list[list[IdentityCheck]]:
    """identity_checks(rec, nmax) for each rec in recs, in order.

    The ballot products and the two ballot families do not depend on R, so
    they are built once and shared by every list; only the segment
    expansions are evaluated per R.
    """
    for rec in recs:
        if rec.truncation < nmax:
            raise ShapeError("recurrent sequence shorter than requested range")
    one = atom("1", nmax)
    mixed, square = _ballot_powers(nmax, max(BALLOT_RMAX, nmax))
    integrals = [m.integral() for m in mixed]
    ballot_rs = range(1, BALLOT_RMAX + 1)

    ballot = []
    for r in ballot_rs:
        top = nmax + r + 1
        blocks = closed_form_sequence(atom("S_r", top, r), top, "cayley")
        ballot.extend(
            IdentityCheck("ballot_block_sum", (r, n), blocks[n + r + 1],
                          factorial(r) * r * mixed[r].counts[n])
            for n in range(nmax + 1)
        )
    for r in ballot_rs:
        lhs, rhs = integrals[r], square[r] - one
        ballot.extend(
            IdentityCheck("ballot_integral_doubled", (r, n), 2 * r * a, b)
            for n, (a, b) in enumerate(zip(lhs.counts, rhs.counts))
        )
    lifted = [one + sq for sq in square[: nmax + 1]]
    return [ballot + _segment_checks(rec.truncate(nmax), integrals, lifted)
            for rec in recs]


def _segment_checks(
    rec: CoeffSeq, integrals: list[CoeffSeq], lifted: list[CoeffSeq]
) -> list[IdentityCheck]:
    """The two segment expansions of rec, given int E^r Bal^(r+1) and
    1 + E^r Bal^r for r = 0..nmax, where nmax is rec's truncation."""
    nmax = rec.truncation
    expansion = reduce(add, (
        ordinal_product(rec.restrict(r).pointing(), integrals[r])
        for r in range(1, nmax + 1)
    ), rec)
    halved = reduce(add, (
        ordinal_product(rec.restrict(r), lifted[r]) for r in range(nmax + 1)
    ))
    cayley = closed_form_sequence(rec, nmax, "cayley")
    return [
        IdentityCheck("segment_expansion", (n,), c, e)
        for n, (c, e) in enumerate(zip(cayley, expansion.counts))
    ] + [
        IdentityCheck("segment_expansion_halved", (n,), 2 * c, h)
        for n, (c, h) in enumerate(zip(cayley, halved.counts))
    ]


# -- asymptotics report ----------------------------------------------------------


class AsymptoticsRow(Record):
    """One exact ratio with a decimal rendering and a reference constant.

    Purely descriptive: nothing here asserts convergence.
    """

    __slots__ = (
        "statistic", "n", "numerator", "denominator", "ratio", "reference"
    )

    def __init__(
        self,
        statistic: str,
        n: int,
        numerator: int,
        denominator: int,
        ratio: str,
        reference: str,
    ):
        object.__setattr__(self, "statistic", statistic)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "reference", reference)


def decimal_string(num: int, den: int) -> str:
    """Decimal rendering of num/den, cut (not rounded) after RATIO_DIGITS
    fractional digits: one integer division of |num|·10^RATIO_DIGITS by
    |den|."""
    if den == 0:
        raise ZeroDivisionError("ratio with zero denominator")
    sign = "-" if (num < 0) != (den < 0) and num != 0 else ""
    whole, frac = divmod(abs(num) * 10**RATIO_DIGITS // abs(den), 10**RATIO_DIGITS)
    return f"{sign}{whole}.{frac:0{RATIO_DIGITS}d}"


def _cycle_reference(n: int) -> str:
    return f"{0.5 * (log(2 * n) + EULER_GAMMA):.10f}"


def _ratio_row(
    statistic: str, n: int, num: int, den: int, reference: str
) -> AsymptoticsRow:
    return AsymptoticsRow(
        statistic, n, num, den, decimal_string(num, den), reference
    )


def asymptotics_report(nmax: int) -> list[AsymptoticsRow]:
    """Exact ratio data for the open limit questions, n = 0..nmax.

    Emits the fixed-point-free fraction of Cayley permutations against 1/e,
    and average cycle counts (over endofunctions and over Cayley
    permutations of the classes all / forest / connected / derangement)
    against (log(2n) + gamma) / 2.  Every numerator and denominator comes
    from the table recursion (count_sequence), one call per recurrent
    class for all n at once: cycle totals count the class
    component_weights(R), forest cycles the pointed sets E^., and each
    connected structure has exactly one cycle.  The five cycle averages
    are one table of (statistic, numerators, denominators); an average has
    rows from n = 1, and none where its denominator is 0.  O(nmax^2)
    big-integer operations in all.
    """
    def cayley(rec: CoeffSeq) -> tuple[int, ...]:
        return tuple(count_sequence(rec, nmax, "cayley"))

    perms, der, sets = atom("S", nmax), atom("Der", nmax), atom("E", nmax)
    perm_cycles = component_weights(perms)
    fubini, cayder = cayley(perms), cayley(der)
    connected = cayley(atom("C", nmax))
    cycle_averages = (
        ("avg_cycles_endofunctions",
         tuple(count_sequence(perm_cycles, nmax, "endofunctions")),
         [n**n for n in range(nmax + 1)]),
        ("avg_cycles_cayley_all", cayley(perm_cycles), fubini),
        ("avg_cycles_cayley_forest", cayley(sets.pointing()), cayley(sets)),
        ("avg_cycles_cayley_connected", connected, connected),
        ("avg_cycles_cayley_derangement", cayley(component_weights(der)), cayder),
    )

    rows: list[AsymptoticsRow] = []
    for n in range(nmax + 1):
        rows.append(_ratio_row(
            "cayley_derangement_fraction", n, cayder[n], fubini[n], INV_E
        ))
        if n:
            ref = _cycle_reference(n)
            rows.extend(
                _ratio_row(statistic, n, nums[n], dens[n], ref)
                for statistic, nums, dens in cycle_averages
                if dens[n]
            )
    return rows
