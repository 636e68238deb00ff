import pytest

from bruteforce import derangement_count, ordered_set_partition_count, set_partitions
from recdig.digraphs import (
    bounded_arity_tree_table,
    cayley_count,
    closed_form_sequence,
    count_sequence,
    digraph_count,
    digraph_count_by_recurrent,
    digraph_rows,
    digraph_table,
    digraph_table_with_branches,
    endofunction_count,
    perms_with_cycle_lengths_dividing,
    recurrent_structure_for_class,
)
from recdig.series import (
    CoeffSeq,
    CompositionDomainError,
    LogarithmDomainError,
    ShapeError,
    UnsupportedAtomError,
    atom,
    check_size,
    pascal_rows,
)
from recdig.stats import asymptotics_report, identity_checks, identity_suite
from recdig.tables import (
    CoeffTable,
    merge_sorts,
    rooted_tree_table,
    solve_tree_equation,
)

FACT = [1, 1, 2, 6, 24, 120, 720, 5040]


def test_atom_sets_and_singletons():
    assert atom("E", 3).counts == (1, 1, 1, 1)
    assert atom("X", 4).counts == (0, 1, 0, 0, 0)
    assert atom("1", 2).counts == (1, 0, 0)
    assert atom("X", 0).counts == (0,)


def test_atom_orders_permutations_cycles():
    assert atom("L", 5).counts == tuple(FACT[:6])
    assert atom("S", 5).counts == tuple(FACT[:6])
    assert atom("L+", 4).counts == (0, 1, 2, 6, 24)
    assert atom("S+", 4).counts == (0, 1, 2, 6, 24)
    assert atom("C", 5).counts == (0, 1, 1, 2, 6, 24)


def test_atom_derangements_against_brute_force():
    got = atom("Der", 6).counts
    assert got == tuple(derangement_count(n) for n in range(7))
    assert got == (1, 0, 1, 2, 9, 44, 265)


def test_atom_ballots_against_brute_force():
    got = atom("Bal", 5).counts
    assert got == tuple(ordered_set_partition_count(n) for n in range(6))
    assert got == (1, 1, 3, 13, 75, 541)


def test_atom_partitions_against_brute_force():
    got = atom("Par", 5).counts
    assert got == tuple(sum(1 for _ in set_partitions(n)) for n in range(6))


def test_ballots_and_partitions_match_composition():
    n = 80
    e_plus = atom("E", n).positive_part()
    assert atom("Bal", n) == atom("L", n).compose(e_plus)
    assert atom("Par", n) == atom("E", n).compose(e_plus)
    for k in range(n):
        assert atom("Bal", k) == atom("Bal", n).truncate(k)
        assert atom("Par", k) == atom("Par", n).truncate(k)


def test_parametric_atoms():
    assert atom("E_r", 4, 2).counts == (0, 0, 1, 0, 0)
    assert atom("S_r", 4, 3).counts == (0, 0, 0, 6, 0)
    assert atom("C_i", 4, 3).counts == (0, 0, 0, 2, 0)
    assert atom("E_r", 2, 5).counts == (0, 0, 0)  # beyond truncation
    with pytest.raises(UnsupportedAtomError):
        atom("E_r", 4)
    with pytest.raises(UnsupportedAtomError):
        atom("E", 4, 2)
    with pytest.raises(UnsupportedAtomError):
        atom("Q", 4)
    # The parameter is an int: a bool or a float is none.
    for param in (True, 2.0):
        with pytest.raises(UnsupportedAtomError, match="nonnegative int parameter"):
            atom("E_r", 4, param)


def test_concrete_sequences_are_nonnegative():
    for name in ("1", "X", "E", "L", "L+", "S", "S+", "C", "Der", "Bal", "Par"):
        seq = atom(name, 8)
        assert not seq.virtual
        assert all(c >= 0 for c in seq.counts)
    with pytest.raises(ValueError):
        CoeffSeq((1, -1))  # negatives need the virtual tag
    CoeffSeq((1, -1), virtual=True)


def test_sum():
    a = CoeffSeq((1, 0, 1))
    b = CoeffSeq((0, 1, 0))
    assert (a + b).counts == (1, 1, 1)
    zero = CoeffSeq((0, 0, 0, 0, 0))
    x = atom("X", 4)
    assert (x + zero).counts == x.counts
    total = atom("E_r", 3, 0)
    for r in (1, 2, 3):
        total = total + atom("E_r", 3, r)
    assert total.counts == atom("E", 3).counts
    with pytest.raises(ShapeError):
        a + atom("E", 4)


def test_product():
    assert (atom("E", 4) * atom("Der", 4)).counts == atom("S", 4).counts
    f = atom("Bal", 5)
    assert (f * atom("1", 5)).counts == f.counts
    inverse = CoeffSeq((1, -1, 0, 0, 0, 0), virtual=True)
    assert (atom("L", 5) * inverse).counts == (1, 0, 0, 0, 0, 0)


def test_pointing():
    assert atom("E", 3).pointing().counts == (0, 1, 2, 3)
    assert atom("C", 4).pointing().counts == (0, 1, 2, 6, 24)
    assert atom("1", 3).pointing().counts == (0, 0, 0, 0)


def test_integral():
    assert atom("S", 4).integral().counts == (0, 1, 1, 2, 6)
    assert atom("E", 3).integral().counts == (0, 1, 1, 1)


def test_compose():
    trees = CoeffSeq((0, 1, 2, 9, 64))  # rooted trees, n^(n-1)
    assert atom("S", 4).compose(trees).counts == (1, 1, 4, 27, 256)
    f = atom("Bal", 5)
    assert f.compose(atom("X", 5)).counts == f.counts
    assert atom("E", 4).compose(atom("C", 4)).counts == atom("S", 4).counts
    with pytest.raises(CompositionDomainError):
        atom("E", 3).compose(atom("E", 3))
    with pytest.raises(ShapeError):
        atom("E", 3).compose(atom("X", 4))


def test_pascal_rows():
    assert list(pascal_rows(3)) == [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1]]
    assert list(pascal_rows(0)) == [[1]]
    assert list(pascal_rows(-1)) == list(pascal_rows(-5)) == []


def test_log():
    assert atom("S", 4).log().counts == (0, 1, 1, 2, 6)
    assert atom("E", 4).log().counts == (0, 1, 0, 0, 0)
    with pytest.raises(LogarithmDomainError):
        atom("C", 3).log()


def test_log_ballots_two_independent_routes():
    # Route 1: the generic convolution solve.  Route 2: the class of
    # ballots satisfies (log Bal)' = E * Bal, i.e. log Bal = int(E * Bal).
    bal = atom("Bal", 6)
    route1 = bal.log()
    route2 = (atom("E", 6) * bal).integral()
    assert route1.counts == route2.counts
    assert route1.counts[:5] == (0, 1, 2, 6, 26)


def test_log_recomposition_round_trip():
    arbitrary = [
        atom("S", 7),
        atom("E", 7),
        atom("Bal", 7),
        atom("Par", 7),
        CoeffSeq((1, 0, 5, 0, 3, 2, 0, 1)),
        CoeffSeq((1, 2, 0, -7, 1, 0, 4, -1), virtual=True),
    ]
    for a in arbitrary:
        again = atom("E", 7).compose(a.log())
        assert again.counts == a.counts


def test_virtual_inverse_of_sets():
    # sum_k (-1)^k (E+)^k, truncated: the formal inverse of the class of
    # sets.  Identities involving it hold up to the truncation.
    n = 6
    e_plus = atom("E", n).positive_part()
    term = atom("1", n)
    inv = atom("1", n)
    for k in range(1, n + 1):
        term = term * e_plus
        signed = CoeffSeq(
            tuple(-c if k % 2 else c for c in term.counts), virtual=True
        )
        inv = inv + signed
    assert inv.virtual
    assert (atom("E", n) * inv).counts == (1, 0, 0, 0, 0, 0, 0)


def test_restrict_truncate():
    s = atom("S", 5)
    assert s.restrict(3).counts == (0, 0, 0, 6, 0, 0)
    assert s.truncate(2).counts == (1, 1, 2)
    with pytest.raises(ShapeError):
        s.truncate(9)
    with pytest.raises(ShapeError):
        s.restrict(-1)


def test_equality_ignores_metadata():
    assert CoeffSeq((0, 1), virtual=True) == CoeffSeq((0, 1))
    # Counts may come as any iterable; they are stored as a tuple.
    for given, counts in (((x for x in (1, 2)), (1, 2)), (range(3), (0, 1, 2))):
        seq = CoeffSeq(given)
        assert type(seq.counts) is tuple
        assert seq == CoeffSeq(counts) and hash(seq) == hash(CoeffSeq(counts))


# Every public size argument of series, tables, digraphs and stats, as
# (entry, call with the size, least value, largest value or None).
S4 = atom("S", 4)
SIZE_ENTRIES = [
    ("atom", lambda n: atom("S", n), 0, None),
    ("CoeffSeq.truncate", S4.truncate, 0, 4),
    ("CoeffSeq.restrict", S4.restrict, 0, 4),
    ("pascal_rows", pascal_rows, float("-inf"), None),  # no rows below 0
    ("CoeffTable.x_singleton", CoeffTable.x_singleton, 0, None),
    ("CoeffTable.y_singleton", CoeffTable.y_singleton, 0, None),
    ("CoeffTable.truncate", lambda n: digraph_table(S4, 4).truncate(n), 0, 4),
    ("merge_sorts", lambda n: next(merge_sorts([[1]], n, False)), 0, None),
    ("merge_sorts", lambda n: next(merge_sorts([[1]], n, True)), 0, None),
    ("solve_tree_equation", lambda n: solve_tree_equation(atom("E", 4), n), 0, 4),
    ("rooted_tree_table", rooted_tree_table, 0, None),
    ("digraph_count_by_recurrent", lambda i: digraph_count_by_recurrent(i, 1, 1, S4),
     0, None),
    ("digraph_count_by_recurrent", lambda j: digraph_count_by_recurrent(1, j, 1, S4),
     0, None),
    ("digraph_count_by_recurrent", lambda r: digraph_count_by_recurrent(1, 1, r, S4),
     0, 4),
    ("digraph_count", lambda i: digraph_count(i, 1, S4), 0, 4),
    ("digraph_count", lambda j: digraph_count(1, j, S4), 0, None),
    ("digraph_rows", lambda n: digraph_rows(S4, n), 0, 4),
    ("digraph_table", lambda n: digraph_table(S4, n), 0, 4),
    ("count_sequence", lambda n: count_sequence(S4, n, "cayley"), 0, 4),
    ("count_sequence", lambda n: count_sequence(S4, n, "endofunctions"), 0, 4),
    ("closed_form_sequence", lambda n: closed_form_sequence(S4, n, "cayley"), 0, 4),
    ("endofunction_count", lambda n: endofunction_count(n, S4), 0, 4),
    ("cayley_count", lambda n: cayley_count(n, S4), 0, 4),
    ("recurrent_structure_for_class",
     lambda n: recurrent_structure_for_class("all", n), 0, None),
    ("digraph_table_with_branches",
     lambda n: digraph_table_with_branches(S4, atom("L", 3), n), 0, 3),
    ("bounded_arity_tree_table", lambda k: bounded_arity_tree_table(k, 3), 1, None),
    ("bounded_arity_tree_table", lambda n: bounded_arity_tree_table(2, n), 0, None),
    ("perms_with_cycle_lengths_dividing",
     lambda d: perms_with_cycle_lengths_dividing(d, 3), 1, None),
    ("perms_with_cycle_lengths_dividing",
     lambda n: perms_with_cycle_lengths_dividing(2, n), 0, None),
    ("identity_checks", lambda n: identity_checks(S4, n), 0, 4),
    ("identity_suite", lambda n: identity_suite([atom("E", 5), S4], n), 0, 4),
    ("asymptotics_report", asymptotics_report, 0, None),
]


def _bad_sizes(least, most):
    """A bool, a float, -1 and one below the least value where they are out
    of range, and one past the largest value where there is one."""
    below = sorted({-1, least - 1} - {float("-inf")})
    return [True, 2.0, *(n for n in below if n < least),
            *([most + 1] if most is not None else [])]


@pytest.mark.parametrize(
    "what, call, size",
    [
        pytest.param(what, call, size, id=f"{what}-{k}-{size!r}")
        for k, (what, call, least, most) in enumerate(SIZE_ENTRIES)
        for size in _bad_sizes(least, most)
    ],
)
def test_every_size_follows_check_size(what, call, size):
    # digraph_rows, count_sequence and pascal_rows return iterators and raise
    # at the call; merge_sorts, a generator, raises before its first count.
    with pytest.raises(ShapeError) as info:
        call(size)
    assert str(info.value).startswith(f"{what}: size {size!r} is not an int ")


def test_check_size_bounds():
    check_size(0, "entry")
    check_size(4, "entry", most=4)
    check_size(-3, "entry", least=-3, most=-3)
    for n, least, most, span in ((5, 0, 4, "in [0..4]"), (0, 1, None, ">= 1")):
        with pytest.raises(ShapeError) as info:
            check_size(n, "entry", least, most)
        assert str(info.value) == f"entry: size {n} is not an int {span}"
