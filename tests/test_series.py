import pytest

from bruteforce import derangement_count, ordered_set_partition_count, set_partitions
from recdig.series import (
    CoeffSeq,
    CompositionDomainError,
    LogarithmDomainError,
    ShapeError,
    UnsupportedAtomError,
    atom,
    pascal_rows,
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
