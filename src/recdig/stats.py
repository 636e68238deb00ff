"""Statistics over recurrent digraphs and exact order-sum identities.

Totals of a statistic (recurrent points, connected components) over all
structures of a class are themselves counts of a modified class: weighting
by the number of recurrent points points at the recurrent structure, and
weighting by the number of components multiplies the recurrent counts by
their logarithm.  Everything stays in exact integers; harmonic numbers
only ever appear multiplied by factorials, and the asymptotics report is
the single place where decimal renderings (never floats in identities)
are produced.

The total_* helpers and the identity suite use the closed form over
Stirling differences; the asymptotics report is served by the table
recursion (digraphs.count_sequence), so the two routes stay independent.
"""

from __future__ import annotations

from math import factorial, log

from recdig._record import Record
from recdig.digraphs import (
    cayley_count,
    count_sequence,
    digraph_count,
    digraph_count_by_recurrent,
    endofunction_count,
)
from recdig.series import (
    CoeffSeq,
    LogarithmDomainError,
    ShapeError,
    atom,
    same_truncation,
)
from recdig.stirling import sdiff

EULER_GAMMA = 0.5772156649
INV_E = "0.3678794412"
BALLOT_RMAX = 6  # the ballot identities are checked for r = 1..BALLOT_RMAX
RATIO_DIGITS = 10  # fractional digits of every decimal rendering


def ordinal_product(a: CoeffSeq, b: CoeffSeq) -> CoeffSeq:
    """Structures on an initial and a terminal segment of a total order.

    Plain (non-binomial) convolution: the segment split leaves no label
    choices.
    """
    same_truncation(a, b, "ordinal product")
    counts = tuple(
        sum(a.counts[k] * b.counts[n - k] for k in range(n + 1))
        for n in range(len(a.counts))
    )
    return CoeffSeq(counts, virtual=a.virtual or b.virtual)


# -- statistic totals ---------------------------------------------------------


def total_recurrent_points(i: int, j: int, rec: CoeffSeq) -> int:
    """Sum of the number of recurrent points over all structures on [i, j]."""
    return sum(
        r * digraph_count_by_recurrent(i, j, r, rec) for r in range(i + 1)
    )


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
    """(E^r * Bal^(r+1))[.] and (E^r * Bal^r)[.] for r = 0..rmax."""
    e = atom("E", nmax)
    bal = atom("Bal", nmax)
    mixed = []
    square = []
    er = balr = atom("1", nmax)
    for r in range(rmax + 1):
        square.append(er * balr)
        balr = balr * bal
        mixed.append(er * balr)
        er = er * e
    return mixed, square


def identity_checks(rec: CoeffSeq, nmax: int) -> list[IdentityCheck]:
    """Evaluate the order-sum identities as exact integer comparisons.

    Four families, all multiplied through so no division ever happens:

    * ballot_block_sum: sum_i i! sdiff(n+r+1, i, r) = r! r (E^r Bal^(r+1))[n]
    * ballot_integral_doubled: 2r (int E^r Bal^(r+1))[n] = (E^r Bal^r - 1)[n]
    * segment_expansion: Cay-count(n) = R[n]
          + sum_r (pointed R_r) (+) (int E^r Bal^(r+1)) at n
    * segment_expansion_halved: 2 Cay-count(n)
          = sum_r R_r (+) (1 + E^r Bal^r) at n
    """
    if rec.truncation < nmax:
        raise ShapeError("recurrent sequence shorter than requested range")
    checks: list[IdentityCheck] = []
    big_r = max(BALLOT_RMAX, nmax)
    mixed, square = _ballot_powers(nmax, big_r)

    for r in range(1, BALLOT_RMAX + 1):
        for n in range(nmax + 1):
            lhs = sum(
                factorial(i) * sdiff(n + r + 1, i, r)
                for i in range(n + r + 2)
            )
            rhs = factorial(r) * r * mixed[r].counts[n]
            checks.append(IdentityCheck("ballot_block_sum", (r, n), lhs, rhs))

    one = atom("1", nmax)
    for r in range(1, BALLOT_RMAX + 1):
        lhs_seq = mixed[r].integral()
        rhs_seq = square[r] - one
        for n in range(nmax + 1):
            checks.append(
                IdentityCheck(
                    "ballot_integral_doubled",
                    (r, n),
                    2 * r * lhs_seq.counts[n],
                    rhs_seq.counts[n],
                )
            )

    cayley = [cayley_count(n, rec) for n in range(nmax + 1)]
    # Pointed-segment expansion, assembled with the actual sequence operations.
    total = rec.truncate(nmax)
    acc = [total.counts[n] for n in range(nmax + 1)]
    for r in range(1, nmax + 1):
        term = ordinal_product(
            rec.truncate(nmax).restrict(r).pointing(), mixed[r].integral()
        )
        for n in range(nmax + 1):
            acc[n] += term.counts[n]
    for n in range(nmax + 1):
        checks.append(
            IdentityCheck("segment_expansion", (n,), cayley[n], acc[n])
        )

    halved = [0] * (nmax + 1)
    for r in range(nmax + 1):
        term = ordinal_product(rec.truncate(nmax).restrict(r), one + square[r])
        for n in range(nmax + 1):
            halved[n] += term.counts[n]
    for n in range(nmax + 1):
        checks.append(
            IdentityCheck(
                "segment_expansion_halved",
                (n,),
                2 * cayley[n],
                halved[n],
            )
        )
    return checks


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


def asymptotics_report(nmax: int) -> list[AsymptoticsRow]:
    """Exact ratio data for the open limit questions, n = 0..nmax.

    Emits the fixed-point-free fraction of Cayley permutations against 1/e,
    and average cycle counts (over endofunctions and over Cayley
    permutations of the classes all / forest / connected / derangement)
    against (log(2n) + gamma) / 2.  Every numerator and denominator comes
    from the table recursion (count_sequence), one call per recurrent
    class for all n at once: cycle totals count the class
    component_weights(R), forest cycles the pointed sets E^., and each
    connected structure has exactly one cycle.  O(nmax^2) big-integer
    operations in all.
    """
    def cayley(rec: CoeffSeq) -> tuple[int, ...]:
        return tuple(count_sequence(rec, nmax, "cayley"))

    perms, der, sets = atom("S", nmax), atom("Der", nmax), atom("E", nmax)
    perm_cycles = component_weights(perms)
    fubini, cayder = cayley(perms), cayley(der)
    end_cycles = tuple(count_sequence(perm_cycles, nmax, "endofunctions"))
    connected = cayley(atom("C", nmax))
    cay_cycles = {
        "all": cayley(perm_cycles),
        "forest": cayley(sets.pointing()),
        "connected": connected,
        "derangement": cayley(component_weights(der)),
    }
    cay_total = {
        "all": fubini,
        "forest": cayley(sets),
        "connected": connected,
        "derangement": cayder,
    }

    rows: list[AsymptoticsRow] = []
    for n in range(nmax + 1):
        rows.append(
            AsymptoticsRow(
                "cayley_derangement_fraction",
                n,
                cayder[n],
                fubini[n],
                decimal_string(cayder[n], fubini[n]),
                INV_E,
            )
        )
        if n == 0:
            continue
        ref = _cycle_reference(n)
        rows.append(
            AsymptoticsRow(
                "avg_cycles_endofunctions",
                n,
                end_cycles[n],
                n**n,
                decimal_string(end_cycles[n], n**n),
                ref,
            )
        )
        for cname in ("all", "forest", "connected", "derangement"):
            num, den = cay_cycles[cname][n], cay_total[cname][n]
            if den == 0:
                continue
            rows.append(
                AsymptoticsRow(
                    f"avg_cycles_cayley_{cname}",
                    n,
                    num,
                    den,
                    decimal_string(num, den),
                    ref,
                )
            )
    return rows
