import random
from fractions import Fraction

import pytest

from recdig import oracle
from recdig.digraphs import (
    cayley_count,
    digraph_count,
    digraph_count_by_recurrent,
    endofunction_count,
    recurrent_structure_for_class,
)
from recdig.series import CoeffSeq, LogarithmDomainError, ShapeError, atom
from recdig.stats import (
    AsymptoticsRow,
    asymptotics_report,
    component_weights,
    RATIO_DIGITS,
    decimal_string,
    identity_checks,
    ordinal_product,
)
from recdig.stirling import sdiff

CYCLES_OVER_CAY = (0, 1, 4, 20, 126, 966, 8754, 91686, 1090578,
                   14528502, 214337874, 3469418646)


def test_ordinal_product():
    f = atom("Bal", 4)
    assert ordinal_product(f, atom("1", 4)).counts == f.counts
    x = atom("X", 3)
    assert ordinal_product(x, x).counts == (0, 0, 1, 0)
    assert (x * x).counts == (0, 0, 2, 0)
    s = atom("S", 5)
    assert ordinal_product(s.restrict(2), atom("Bal", 5)).counts == (0, 0, 2, 2, 6, 26)
    assert ordinal_product(s, s).counts == (1, 2, 5, 16, 64, 312)
    with pytest.raises(ShapeError):
        ordinal_product(x, atom("X", 5))


def test_total_recurrent_equals_pointed_route():
    # The count of the pointed class against the counts by recurrent size,
    # each weighted by its size.
    for label in ("S", "E", "C", "Der"):
        rec = atom(label, 6)
        for i in range(7):
            for j in range(7 - i):
                assert digraph_count(i, j, rec.pointing()) == sum(
                    r * digraph_count_by_recurrent(i, j, r, rec)
                    for r in range(i + 1)
                ), (label, i, j)


def test_total_recurrent_rejects_what_digraph_count_rejects():
    rec = atom("S", 3)
    for i in (-1, 4):
        with pytest.raises(ShapeError):
            digraph_count(i, 0, rec)
        with pytest.raises(ShapeError):
            digraph_count(i, 0, rec.pointing())


def test_totals_reject_every_negative_index():
    rec = atom("S", 3)
    for weighted in (rec.pointing(), component_weights(rec)):
        for i, j in ((-1, 1), (1, -1), (0, -1)):
            with pytest.raises(ShapeError):
                digraph_count(i, j, weighted)


def test_total_recurrent_all_points_when_no_leaves():
    s3 = atom("S_r", 5, 3)
    assert digraph_count(3, 0, s3.pointing()) == 3 * s3.counts[3]


def test_total_recurrent_against_oracle():
    want = sum(
        oracle.classify(f).recurrent_count
        for f in oracle.enumerate_cayley(3)
        if oracle.classify(f).internal_count == 2
    )
    assert digraph_count(2, 1, atom("S", 2).pointing()) == want


def test_recurrent_totals_over_connected_structures():
    # Over connected structures the recurrent-point total equals the number
    # of all structures of the same size (nonempty sizes; pointing leaves
    # nothing on the empty set).
    for n in range(1, 9):
        c = atom("C", n)
        assert cayley_count(n, c.pointing()) == cayley_count(n, atom("S", n))
        assert endofunction_count(n, c.pointing()) == n**n
    assert cayley_count(0, atom("C", 0).pointing()) == 0


def test_component_weights_and_harmonic_numbers():
    s = atom("S", 6)
    w = component_weights(s)
    from math import factorial

    for r in range(7):
        h = sum(Fraction(1, k) for k in range(1, r + 1))
        assert w.counts[r] == factorial(r) * h
    assert w.counts[3] == 11
    with pytest.raises(LogarithmDomainError):
        component_weights(atom("C", 4))


def test_total_components_formula_is_harmonic_weighted():
    s = atom("S", 8)
    for i in range(6):
        for j in range(6 - i):
            acc = Fraction(0)
            from math import factorial

            for r in range(i + 1):
                h = sum(Fraction(1, k) for k in range(1, r + 1))
                acc += h * factorial(i) * sdiff(i + j, i, r)
            assert acc.denominator == 1
            assert digraph_count(i, j, component_weights(s)) == acc


def _cycle_weights(n):
    # Cycles are the components of the class of all permutations.
    return component_weights(atom("S", n))


def test_cycle_totals_golden_sequence():
    got = [cayley_count(n, _cycle_weights(n)) for n in range(12)]
    assert got == list(CYCLES_OVER_CAY)


def test_cycle_totals_against_oracle():
    by_hand = sum(p.component_count for p in map(oracle.classify,
                                                 oracle.enumerate_cayley(2)))
    assert by_hand == 4 == cayley_count(2, _cycle_weights(2))
    for n in range(6):
        assert cayley_count(n, _cycle_weights(n)) == sum(
            oracle.classify(f).component_count for f in oracle.enumerate_cayley(n)
        )
        assert endofunction_count(n, _cycle_weights(n)) == sum(
            oracle.classify(f).component_count
            for f in oracle.enumerate_endofunctions(n)
        )


def test_forest_component_totals_against_oracle():
    e = atom("E", 5)
    forest = oracle.ClassPredicate("forest")
    for n in range(6):
        want = sum(
            oracle.classify(f).component_count
            for f in filter(forest.matches, oracle.enumerate_cayley(n))
        )
        assert cayley_count(n, component_weights(e.truncate(n))) == want


def test_statistic_totals_per_class_to_n7_single_pass():
    # Recurrent-point and component totals for every named class in one
    # enumeration sweep.  Connected-type classes (one component per
    # structure) have their component total equal to their count.
    classes = ("all", "tree", "forest", "connected", "derangement")
    preds = [(klass, oracle.ClassPredicate(klass)) for klass in classes]
    for n in range(8):
        rec_total = dict.fromkeys(classes, 0)
        comp_total = dict.fromkeys(classes, 0)
        struct_total = dict.fromkeys(classes, 0)
        for f in oracle.enumerate_cayley(n):
            p = oracle.classify(f)
            for klass, pred in preds:
                if pred.matches(f):
                    rec_total[klass] += p.recurrent_count
                    comp_total[klass] += p.component_count
                    struct_total[klass] += 1
        for klass in classes:
            rec = recurrent_structure_for_class(klass, n)
            assert struct_total[klass] == cayley_count(n, rec), (klass, n)
            assert rec_total[klass] == cayley_count(n, rec.pointing()), (klass, n)
            if klass in ("tree", "connected"):
                assert comp_total[klass] == struct_total[klass]
            else:
                assert comp_total[klass] == cayley_count(
                    n, component_weights(rec)
                ), (klass, n)


def test_identity_checks_all_pass():
    for label in ("S", "Der", "E"):
        checks = identity_checks(atom(label, 8), 8)
        assert checks and all(c.ok for c in checks), label


def test_doubled_integral_identity_to_n10():
    checks = identity_checks(atom("S", 10), 10)
    doubled = [c for c in checks if c.identity == "ballot_integral_doubled"]
    assert {c.index for c in doubled} == {
        (r, n) for r in range(1, 7) for n in range(11)
    }
    assert all(c.ok for c in doubled)


def test_identity_checks_smallest_cases():
    checks = identity_checks(atom("S", 4), 4)
    by_key = {(c.identity, c.index): c for c in checks}
    first = by_key[("ballot_block_sum", (1, 0))]
    assert first.lhs == first.rhs == 1
    # The doubled integral identity at r=1, n=0 compares 0 with 1 - 1.
    zero = by_key[("ballot_integral_doubled", (1, 0))]
    assert zero.lhs == zero.rhs == 0


def test_segment_expansion_reproduces_derangement_counts():
    checks = identity_checks(atom("Der", 9), 9)
    for c in checks:
        if c.identity == "segment_expansion":
            n = c.index[0]
            der = recurrent_structure_for_class("derangement", n)
            assert c.lhs == cayley_count(n, der)
            assert c.ok


def test_identity_checks_need_long_sequences():
    with pytest.raises(ShapeError):
        identity_checks(atom("S", 3), 6)


def test_identity_checks_hold_for_any_recurrent_sequence():
    # The four families are identities in R (linear in each R[r]), so even
    # an arbitrary sequence passes; mismatches could only come from bugs.
    arbitrary = CoeffSeq((1, 5, 0, 7))
    assert all(c.ok for c in identity_checks(arbitrary, 3))


def test_identity_failures_are_reported_not_raised():
    from recdig.stats import IdentityCheck

    bad = IdentityCheck("example", (0,), lhs=1, rhs=2)
    assert not bad.ok


def _decimal_string_by_long_division(num: int, den: int) -> str:
    """Reference: one long-division step per fractional digit."""
    sign = "-" if (num < 0) != (den < 0) and num != 0 else ""
    num, den = abs(num), abs(den)
    whole, rem = divmod(num, den)
    frac_digits = []
    for _ in range(RATIO_DIGITS):
        rem *= 10
        d, rem = divmod(rem, den)
        frac_digits.append(str(d))
    return f"{sign}{whole}." + "".join(frac_digits)


def test_decimal_string():
    assert decimal_string(1, 3) == "0.3333333333"
    assert decimal_string(22, 7) == "3.1428571428"
    assert decimal_string(-1, 2) == "-0.5000000000"
    assert decimal_string(0, 5) == "0.0000000000"
    with pytest.raises(ZeroDivisionError):
        decimal_string(1, 0)
    with pytest.raises(ZeroDivisionError):
        decimal_string(0, 0)


def test_decimal_string_equals_long_division():
    rng = random.Random(244)
    cases = [(0, 1), (0, -7), (-3, -4), (7, -2), (10**30, 3), (-(10**30), 10**29)]
    sizes = (1, 4, 25, 300)  # decimal digits
    for _ in range(4000):
        num = rng.choice((-1, 1)) * rng.randrange(10 ** rng.choice(sizes))
        den = rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.choice(sizes))
        cases.append((num, den))
    for num, den in cases:
        assert decimal_string(num, den) == _decimal_string_by_long_division(num, den)


def test_asymptotics_report_rows():
    rows = asymptotics_report(11)
    assert all(isinstance(r, AsymptoticsRow) for r in rows)
    cayder = {r.n: r for r in rows if r.statistic == "cayley_derangement_fraction"}
    assert cayder[0].numerator == 1 and cayder[0].denominator == 1
    assert cayder[1].numerator == 0
    assert cayder[11].numerator == 577560596
    assert cayder[11].denominator == 1622632573
    assert cayder[11].ratio.startswith("0.3559")
    assert cayder[11].reference == "0.3678794412"

    end4 = next(
        r for r in rows if r.statistic == "avg_cycles_endofunctions" and r.n == 4
    )
    brute = sum(
        oracle.classify(f).component_count
        for f in oracle.enumerate_endofunctions(4)
    )
    assert end4.numerator == brute and end4.denominator == 256

    cay = {r.n: r for r in rows if r.statistic == "avg_cycles_cayley_all"}
    assert cay[5].numerator == CYCLES_OVER_CAY[5]

    conn = [r for r in rows if r.statistic == "avg_cycles_cayley_connected"]
    assert all(r.numerator == r.denominator for r in conn)

    # Derangement rows skip sizes with no structures at all.
    der = {r.n for r in rows if r.statistic == "avg_cycles_cayley_derangement"}
    assert 1 not in der and 2 in der


def test_asymptotics_forest_rows_match_formulas():
    rows = asymptotics_report(8)
    forest = {r.n: r for r in rows if r.statistic == "avg_cycles_cayley_forest"}
    for n in range(1, 9):
        e = atom("E", n)
        assert forest[n].numerator == cayley_count(n, component_weights(e))
        assert forest[n].denominator == cayley_count(n, e)
