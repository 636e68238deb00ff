import io
from itertools import product

import pytest

from recdig import oracle
from recdig.cli import main
from recdig.digraphs import (
    CLASS_RECURRENT_ATOMS,
    InexactDivisionError,
    _branch_tail,
    _rows,
    bounded_arity_tree_table,
    cayley_connected_count,
    cayley_count,
    cayley_derangement_count,
    cayley_forest_count,
    cayley_tree_count,
    closed_form_sequence,
    count_sequence,
    digraph_count,
    digraph_count_by_recurrent,
    digraph_table,
    digraph_table_with_branches,
    divisors,
    endofunction_count,
    perms_with_cycle_lengths_dividing,
    recurrent_structure_for_class,
)
from recdig.series import ShapeError, atom
from recdig.tables import CoeffTable, compose_table, rooted_tree_table

FUBINI = (1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261)
CAYDER = (1, 0, 1, 4, 25, 184, 1617, 16492, 191721, 2503040, 36267393, 577560596)


def test_count_by_recurrent_small_cases():
    s = atom("S", 4)
    assert digraph_count_by_recurrent(2, 1, 1, s) == 2
    assert digraph_count_by_recurrent(3, 0, 3, s) == 6
    # r = 0 only leaves the empty structure.
    for i in range(4):
        for j in range(4 - i):
            expected = s.counts[0] if i == j == 0 else 0
            assert digraph_count_by_recurrent(i, j, 0, s) == expected


def test_count_by_recurrent_matches_oracle():
    s = atom("S", 5)
    for n in range(6):
        got = oracle.count_table(
            n, "cayley", oracle.ClassPredicate("all"), by="ijr"
        )
        for i in range(n + 1):
            for r in range(i + 1):
                assert digraph_count_by_recurrent(i, n - i, r, s) == got.get(
                    (i, n - i, r), 0
                ), (i, n - i, r)


def test_count_marginals():
    s = atom("S", 6)
    for i in range(7):
        assert digraph_count(i, 0, s) == s.counts[i]
    for j in range(1, 5):
        assert digraph_count(0, j, s) == 0
    assert digraph_count(2, 1, s) == 6


def test_truncation_guards():
    with pytest.raises(ShapeError):
        digraph_count(5, 0, atom("S", 3))
    with pytest.raises(ShapeError):
        digraph_count_by_recurrent(1, 1, 4, atom("S", 3))
    # A negative size is an error too, not an empty count.
    for count in (
        lambda: digraph_count(-1, 2, atom("S", 0)),
        lambda: cayley_count(-1, atom("S", 0)),
        lambda: endofunction_count(-1, atom("S", 0)),
    ):
        with pytest.raises(ShapeError):
            count()


def test_negative_indices_raise_shape_error():
    rec = atom("S", 4)
    for i, j, r in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        with pytest.raises(ShapeError):
            digraph_count_by_recurrent(i, j, r, rec)
    for i, j in ((-1, 1), (1, -1), (0, -1)):
        with pytest.raises(ShapeError):
            digraph_count(i, j, rec)


def test_recursion_table_matches_formula():
    for label in ("S", "X", "E", "C", "Der"):
        rec = atom(label, 12)
        table = digraph_table(rec, 12)
        for i in range(13):
            for j in range(13 - i):
                assert table[i, j] == digraph_count(i, j, rec), (label, i, j)


def test_recursion_unrolled_once():
    for label in ("S", "E", "Der"):
        rec = atom(label, 3)
        table = digraph_table(rec, 3)
        assert table[1, 1] == rec.counts[1]
    assert digraph_table(atom("S", 4), 4)[2, 2] == 14


def test_count_sequence_matches_closed_form():
    nmax = 120
    for (klass, label), model in product(
        CLASS_RECURRENT_ATOMS.items(), ("cayley", "endofunctions")
    ):
        rec = atom(label, nmax)
        assert tuple(count_sequence(rec, nmax, model)) == tuple(
            closed_form_sequence(rec, nmax, model)
        ), (klass, model)


def test_closed_form_point_calls_match_the_sequence():
    nmax = 12
    for label in CLASS_RECURRENT_ATOMS.values():
        rec = atom(label, nmax)
        assert closed_form_sequence(rec, nmax, "cayley") == [
            cayley_count(n, rec) for n in range(nmax + 1)
        ], label
        assert closed_form_sequence(rec, nmax, "endofunctions") == [
            endofunction_count(n, rec) for n in range(nmax + 1)
        ], label
    with pytest.raises(ValueError):
        closed_form_sequence(atom("S", 3), 3, "permutations")
    with pytest.raises(ShapeError):
        closed_form_sequence(atom("S", 3), 4, "cayley")
    assert closed_form_sequence(atom("S", 0), 0, "endofunctions") == [1]


def test_closed_form_needs_no_recursion_and_bounded_memory():
    # The cached recursion raised RecursionError here, and its cache took
    # 29 MB at n = 80; one column row at a time stays under 2 MB.
    import tracemalloc

    assert endofunction_count(1100, atom("X", 1100)) == 1100**1099
    der = atom("Der", 100)
    tracemalloc.start()
    try:
        cayley_count(100, der)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_closed_form_reads_no_point_lookup(monkeypatch):
    import recdig.stirling
    from recdig import stats

    def closed_forms():
        s, der = atom("S", 9), atom("Der", 9)
        out = io.StringIO()
        return (
            [digraph_count_by_recurrent(i, 7 - i, r, s)
             for i in range(8) for r in range(8)],
            [digraph_count(i, 7 - i, der) for i in range(8)],
            [cayley_count(n, der) for n in range(10)],
            [endofunction_count(n, der) for n in range(10)],
            closed_form_sequence(s, 9, "cayley"),
            closed_form_sequence(der, 9, "endofunctions"),
            [cayley_derangement_count(n) for n in range(10)],
            stats.total_recurrent_points(3, 4, der),
            stats.total_components(3, 4, s),
            stats.total_recurrent_cayley(8, der),
            stats.total_recurrent_end(8, der),
            stats.total_components_cayley(8, s),
            stats.total_components_end(8, der),
            [recdig.stirling.r_stirling(n, m, r)
             for n in range(8) for m in range(9) for r in range(9)],
            main(["check", "identities", "--nmax", "12"], out=out),
            out.getvalue(),
        )

    expected = closed_forms()

    def refuse(*args):
        raise AssertionError("the recursive point lookup was called")

    monkeypatch.setattr(recdig.stirling, "sdiff", refuse)
    assert closed_forms() == expected
    assert expected[2] == list(CAYDER[:10]) and expected[-2] == 0


def test_count_sequence_matches_stored_table_merges():
    # The streamed merge of generated rows against the merge of the stored
    # table, at one-block sizes and at both ends of a block.
    sizes = (0, 1, 2, 3, 4, 5, 299, 300)
    for nmax, label in product(sizes, CLASS_RECURRENT_ATOMS.values()):
        rec = atom(label, nmax)
        table = digraph_table(rec, nmax)
        assert tuple(count_sequence(rec, nmax, "cayley")) == (
            table.concat_sorts().counts
        )
        assert tuple(count_sequence(rec, nmax, "endofunctions")) == (
            table.identify_sorts().counts
        )


def test_count_sequence_input_errors():
    with pytest.raises(ValueError):
        count_sequence(atom("S", 3), 3, "permutations")
    with pytest.raises(ShapeError):
        count_sequence(atom("S", 3), 4, "cayley")
    with pytest.raises(ShapeError):
        digraph_table(atom("S", 3), -1)
    with pytest.raises(ShapeError):
        digraph_table_with_branches(atom("S", 0), atom("L", 0), -1)


def test_serving_commands_leave_the_closed_form_cold(monkeypatch):
    import recdig.stirling

    def refuse(*args):
        raise AssertionError("a serving command read a Stirling number")

    monkeypatch.setattr(recdig.stirling, "sdiff_rows", refuse)
    monkeypatch.setattr(recdig.stirling, "sdiff", refuse)
    for argv in (
        ["seq", "cayder", "--nmax", "20"],
        ["seq", "cay", "--class", "forest", "--nmax", "20"],
        ["seq", "end", "--class", "connected", "--nmax", "20"],
        ["verify", "--nmax", "4", "--model", "endofunctions"],
        ["report", "asymptotics", "--nmax", "20"],
    ):
        assert main(argv, out=io.StringIO()) == 0, argv


def test_table_2_2_against_oracle():
    got = oracle.count_table(4, "cayley", oracle.ClassPredicate("all"))
    assert got[(2, 2)] == 14


def test_formula_matches_composition_route():
    trees = rooted_tree_table(8)
    for label in ("S", "X", "E", "C", "Der"):
        rec = atom(label, 8)
        composed = compose_table(rec, trees)
        for i in range(9):
            for j in range(9 - i):
                assert composed[i, j] == digraph_count(i, j, rec), (label, i, j)


def test_composition_route_matches_recursion_to_60():
    n = 60
    trees = rooted_tree_table(n)
    for label in CLASS_RECURRENT_ATOMS.values():
        rec = atom(label, n)
        assert compose_table(rec, trees) == digraph_table(rec, n), label


def test_closed_forms():
    assert [endofunction_count(n, atom("S", n)) for n in range(10)] == [
        n**n for n in range(10)
    ]
    assert [endofunction_count(n, atom("X", n)) for n in range(1, 10)] == [
        n ** (n - 1) for n in range(1, 10)
    ]
    assert endofunction_count(0, atom("X", 0)) == 0
    assert [endofunction_count(n, atom("E", n)) for n in range(10)] == [
        (n + 1) ** (n - 1) for n in range(10)
    ]
    assert [endofunction_count(n, atom("Der", n)) for n in range(10)] == [
        (n - 1) ** n for n in range(10)
    ]


def test_cayley_counts():
    assert [cayley_count(n, atom("S", n)) for n in range(10)] == list(FUBINI)
    assert cayley_count(4, atom("X", 4)) == 13
    for n in range(1, 10):
        assert cayley_tree_count(n) == FUBINI[n - 1]


def test_cayley_derangements():
    assert [cayley_derangement_count(n) for n in range(12)] == list(CAYDER)


def test_connected_and_forest_against_oracle():
    assert cayley_connected_count(2) == 2
    for n in range(7):
        assert cayley_connected_count(n) == oracle.count(
            n, "cayley", oracle.ClassPredicate("connected")
        )
        assert cayley_forest_count(n) == oracle.count(
            n, "cayley", oracle.ClassPredicate("forest")
        )


def test_structure_sum_identities():
    # Putting an R-structure over a set of rooted trees: the counts break
    # up over the recurrent size r with E_r and S_r pieces.
    from math import factorial

    for label in ("S", "C", "Der"):
        rec = atom(label, 7)
        for n in range(8):
            by_forests = sum(
                rec.counts[r] * endofunction_count(n, atom("E_r", n, r))
                for r in range(n + 1)
            )
            assert endofunction_count(n, rec) == by_forests
            by_cay = sum(
                rec.counts[r] * cayley_count(n, atom("E_r", n, r))
                for r in range(n + 1)
            )
            assert cayley_count(n, rec) == by_cay
            by_perms = sum(
                rec.counts[r] * cayley_count(n, atom("S_r", n, r)) // factorial(r)
                for r in range(n + 1)
            )
            assert cayley_count(n, rec) == by_perms


def test_aggregation_identities():
    from math import comb

    for label in ("S", "E", "Der"):
        rec = atom(label, 8)
        for n in range(9):
            assert endofunction_count(n, rec) == sum(
                comb(n, i) * digraph_count(i, n - i, rec) for i in range(n + 1)
            )
            assert cayley_count(n, rec) == sum(
                digraph_count(i, n - i, rec) for i in range(n + 1)
            )


def test_class_atoms():
    assert recurrent_structure_for_class("all", 3).counts == atom("S", 3).counts
    assert recurrent_structure_for_class("tree", 3).counts == atom("X", 3).counts
    with pytest.raises(ValueError):
        recurrent_structure_for_class("nope", 3)


def test_branch_table_reproduces_linear_branches():
    for label in ("S", "E", "C", "Der"):
        rec = atom(label, 8)
        assert (
            digraph_table_with_branches(rec, atom("L", 8), 8).rows
            == digraph_table(rec, 8).rows
        )


def _branch_table_by_triple_loop(rec, branch, nmax):
    """c[i][j+1] = sum_k binom(i, k) * T[k] * (i - k) * c[i-k][j], one
    binomial per term, read across the rows."""
    from math import comb

    t = branch.counts
    rows = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]
    for i in range(nmax + 1):
        rows[i][0] = rec.counts[i]
    for j in range(nmax):
        for i in range(1, nmax + 1 - (j + 1)):
            rows[i][j + 1] = sum(
                comb(i, k) * t[k] * (i - k) * rows[i - k][j] for k in range(i)
            )
    return tuple(tuple(row) for row in rows)


def _branch_classes(n):
    """Every atom as a branch class, E_r and S_r for r = 0..3, and the sum
    E_0 + E_1 + E_2."""
    for label in ("1", "X", "E", "L", "L+", "S", "S+", "C", "Der", "Bal", "Par"):
        yield label, atom(label, n)
    for r in range(4):
        yield f"E_{r}", atom("E_r", n, r)
        yield f"S_{r}", atom("S_r", n, r)
    yield "E_0+E_1+E_2", (
        atom("E_r", n, 0) + atom("E_r", n, 1) + atom("E_r", n, 2)
    )


def test_branch_table_matches_triple_loop():
    for n in (0, 1, 2, 25):
        for rec_label in ("S", "Der", "E", "C", "X", "1"):
            rec = atom(rec_label, n)
            for label, branch in _branch_classes(n):
                assert digraph_table_with_branches(
                    rec, branch, n
                ).rows == _branch_table_by_triple_loop(rec, branch, n), (
                    n,
                    rec_label,
                    label,
                )


def test_branch_tail_choice():
    n = 12
    for label in ("L", "S"):
        assert _branch_tail(atom(label, n).counts, n) == (1, (1,))
    for label in ("L+", "S+"):
        assert _branch_tail(atom(label, n).counts, n) == (1, (0, 1))
    assert _branch_tail(atom("1", n).counts, n) == (0, (1,))
    assert _branch_tail(atom("S_r", n, 3).counts, n) == (0, (0, 0, 0, 6))
    for label in ("E", "Der"):
        counts = atom(label, n).counts
        assert _branch_tail(counts, n) == (0, counts)


def test_branch_fill_without_the_tail_gives_the_same_table():
    # The kernel with any integer a and the uncut nu = (1 - a*x) * T fills
    # the plain convolution's table; a = 0 is the convolution itself.
    for n in (0, 1, 2, 20):
        rec = atom("S", n)
        for label, branch in _branch_classes(n):
            t = branch.counts
            expected = _branch_table_by_triple_loop(rec, branch, n)
            for a in (-1, 0, 1, 2):
                nu = [t[0]] + [t[m] - a * m * t[m - 1] for m in range(1, n + 1)]
                got = tuple(map(tuple, _rows(rec.counts, a, nu, n)))
                assert got == expected, (n, label, a)


def test_linear_branch_tables_to_300():
    # Through the tail this is O(nmax^2) and takes about 0.1 s per class;
    # the plain convolution took about 5 s per class.
    for label in ("S", "Der"):
        rec = atom(label, 300)
        assert digraph_table_with_branches(rec, atom("L", 300), 300) == (
            digraph_table(rec, 300)
        ), label


def test_single_leaf_branches_are_idempotents():
    table = digraph_table_with_branches(atom("E", 6), atom("1", 6), 6)
    assert table.identify_sorts().counts == (1, 1, 3, 10, 41, 196, 1057)
    for n in range(5):
        brute = sum(
            1
            for f in oracle.enumerate_endofunctions(n)
            if oracle.compose_power(f, 2) == f
        )
        assert table.identify_sorts().counts[n] == brute


def test_single_leaf_branch_table_is_a_composition():
    # E(X * E(Y)): sets of internal nodes, each with a set of leaves.
    x = CoeffTable.x_singleton(6)
    leaves = compose_table(atom("E", 6), CoeffTable.y_singleton(6))
    assert compose_table(atom("E", 6), x * leaves).rows == (
        digraph_table_with_branches(atom("E", 6), atom("1", 6), 6).rows
    )


def test_bounded_arity_trees():
    assert (
        bounded_arity_tree_table(6, 6).rows == rooted_tree_table(6).rows
    )  # bound beyond truncation is vacuous
    b1 = bounded_arity_tree_table(1, 3)
    assert b1[2, 1] == 2  # two labelings of the unary chain x -> x -> leaf
    from recdig.bijections import two_sort_trees

    def chain_like(t):
        children = {}
        for x, p in enumerate(t.x_parent):
            if p is not None:
                children[p] = children.get(p, 0) + 1
        for y in t.y_parent:
            children[y] = children.get(y, 0) + 1
        return all(c <= 1 for c in children.values())

    assert sum(1 for t in two_sort_trees(2, 1) if chain_like(t)) == 2
    with pytest.raises(ValueError):
        bounded_arity_tree_table(0, 3)


def test_bounded_arity_digraphs_match_oracle():
    n = 6
    table = compose_table(atom("S", n), bounded_arity_tree_table(2, n))
    diag = table.identify_sorts()
    for size in range(n + 1):
        assert diag.counts[size] == oracle.count(
            size, "endofunctions", oracle.ClassPredicate("indegree_bounded", 2)
        )


def test_cycle_length_divisor_family():
    assert divisors(6, 6) == divisors(6, 10) == [1, 2, 3, 6]
    assert divisors(6, 4) == [1, 2, 3]
    inv = perms_with_cycle_lengths_dividing(2, 5)
    assert inv.counts == (1, 1, 2, 4, 10, 26)  # involutions
    # Only divisors up to nmax are looked for: 1, 2, 4 and 5 for both.
    assert perms_with_cycle_lengths_dividing(10**12, 6) == (
        perms_with_cycle_lengths_dividing(20, 6)
    )
    with pytest.raises(ValueError):
        perms_with_cycle_lengths_dividing(0, 4)


def testexact_division_guard():
    # The r! divisions are intrinsically exact for every integer recurrent
    # sequence (the inner sums are r!-multiples), so the guard can only be
    # exercised directly; it exists to catch formula transcription slips.
    from recdig.digraphs import exact_div

    assert exact_div(6, 3) == 2
    with pytest.raises(InexactDivisionError):
        exact_div(3, 2)
