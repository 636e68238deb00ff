import operator
import random
from math import comb

import pytest

from recdig import oracle, tables
from recdig.digraphs import digraph_table
from recdig.series import (
    ATOM_NAMES,
    PARAMETRIC_ATOMS,
    CoeffSeq,
    CompositionDomainError,
    ShapeError,
    atom,
)
from recdig.stats import ordinal_product
from recdig.tables import (
    CoeffTable,
    compose_table,
    rooted_tree_table,
    solve_tree_equation,
)


def test_shape_validation():
    with pytest.raises(ShapeError):
        CoeffTable(((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        CoeffTable(((0, -1), (0,)))
    CoeffTable(((0, -1), (0,)), virtual=True)


def _x_only(seq):
    """A unisort class as a table whose labels are all of sort X."""
    n = seq.truncation
    return CoeffTable(
        tuple((c,) + (0,) * (n - i) for i, c in enumerate(seq.counts))
    )


def test_embeddings():
    s = atom("S", 3)
    tx = _x_only(s)
    assert [tx[i, 0] for i in range(4)] == [1, 1, 2, 6]
    assert tx[0, 2] == 0
    assert CoeffTable.x_singleton(3)[1, 0] == 1
    assert CoeffTable.y_singleton(3)[0, 1] == 1


def test_product_by_hand():
    x = CoeffTable.x_singleton(2)
    y = CoeffTable.y_singleton(2)
    xy = x * y
    assert xy[1, 1] == 1 and xy[2, 0] == 0 and xy[0, 2] == 0
    # Two singletons of the same sort: 2 ways to split the labels.
    assert (x * x)[2, 0] == 2


def test_pointing_x_is_x_times_partial_x():
    table = rooted_tree_table(5)
    left = table.pointing_x().truncate(4)
    right = CoeffTable.x_singleton(4) * table.partial_x()
    assert left.rows == right.rows


def test_partial_errors_at_truncation_zero():
    t = CoeffTable(((0,),))
    with pytest.raises(ShapeError):
        t.partial_x()
    with pytest.raises(ShapeError):
        t.partial_y()


def test_rooted_tree_table_basics():
    a = rooted_tree_table(6)
    assert a[1, 0] == 1
    assert all(a[0, j] == 0 for j in range(7))
    assert a[1, 2] == 1  # one root with two unordered leaves
    assert a.identify_sorts().counts == (0, 1, 2, 9, 64, 625, 7776)


def test_rooted_tree_table_matches_direct_enumeration():
    from recdig.bijections import two_sort_trees

    a = rooted_tree_table(5)
    for i in range(6):
        for j in range(6 - i):
            assert a[i, j] == sum(1 for _ in two_sort_trees(i, j)), (i, j)


def test_rooted_tree_table_is_cayley_to_40():
    n = 40
    assert rooted_tree_table(n).identify_sorts().counts == (0,) + tuple(
        k ** (k - 1) for k in range(1, n + 1)
    )


def _binary_tree_rows(nmax):
    """Two-sort trees in which every node has at most two children, counted
    directly.  The root takes one of its i labels; under it hang nothing
    (a lone root), one child, or an unordered pair of children on disjoint
    labels.  A child is a leaf or a tree with at least one child."""
    rows = [[0] * (nmax + 1 - i) for i in range(nmax + 1)]

    def child(i, j):
        if (i, j) == (0, 1):
            return 1
        return rows[i][j] if i and (i, j) != (1, 0) else 0

    for size in range(1, nmax + 1):
        for i in range(1, size + 1):
            a, b = i - 1, size - i
            ordered_pairs = sum(
                comb(a, a1) * comb(b, b1) * child(a1, b1) * child(a - a1, b - b1)
                for a1 in range(a + 1)
                for b1 in range(b + 1)
            )
            lone = 1 if (a, b) == (0, 0) else 0
            rows[i][b] = i * (lone + child(a, b) + ordered_pairs // 2)
    return rows


def test_binary_tree_table_matches_direct_count_to_20():
    from recdig.digraphs import bounded_arity_tree_table

    n = 20
    got = bounded_arity_tree_table(2, n).rows
    assert got == tuple(tuple(row) for row in _binary_tree_rows(n))


def test_tree_solver_residual_check_fires(monkeypatch):
    honest = tables.compose_table

    def perturbed(outer, inner):
        result = honest(outer, inner)
        rows = [list(row) for row in result.rows]
        rows[1][2] += 1
        return CoeffTable(tuple(tuple(row) for row in rows))

    monkeypatch.setattr(tables, "compose_table", perturbed)
    with pytest.raises(AssertionError):
        rooted_tree_table(5)


def test_tree_equation_needs_long_branching():
    with pytest.raises(ShapeError):
        solve_tree_equation(atom("E", 3), 5)


def test_partial_y_of_trees_is_nonempty_perms_of_trees():
    n = 7
    a = rooted_tree_table(n)
    left = a.partial_y()
    right = compose_table(atom("S+", n), a).truncate(n - 1)
    assert left.rows == right.rows


def test_compose_identity_and_domain():
    a = rooted_tree_table(4)
    assert compose_table(atom("X", 4), a).rows == a.rows
    bad = _x_only(atom("E", 3))
    with pytest.raises(CompositionDomainError):
        compose_table(atom("E", 3), bad)


def _compose_by_powers(outer, inner):
    """F o G as sum_k F[k] * P_k with P_0 = 1 and P_k = (P_{k-1} * G) / k,
    built from the table product alone; every division is checked exact."""
    n = inner.truncation
    zero = tuple((0,) * (n + 1 - i) for i in range(n + 1))
    power = CoeffTable(((1,) + zero[0][1:],) + zero[1:])
    total = [list(row) for row in zero]
    for k, fk in enumerate(outer.counts):
        if k:
            rows = []
            for row in (power * inner).rows:
                for c in row:
                    assert c % k == 0, (k, c)
                rows.append(tuple(c // k for c in row))
            power = CoeffTable(tuple(rows), virtual=True)
        for out, row in zip(total, power.rows):
            out[:] = [t + fk * c for t, c in zip(out, row)]
    return tuple(tuple(row) for row in total)


def _random_outers(rng, n):
    """Virtual outers of three shapes: first order from index m0 on (after
    a random prefix), a random polynomial, and random counts."""
    outers = []
    for _ in range(4):
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        s = [rng.randint(-5, 5) or 1]
        for k in range(n):
            s.append((a * k + b) * s[k] + c * k * (s[k - 1] if k else 0))
        prefix = [rng.randint(-9, 9) for _ in range(rng.randint(0, 2))]
        outers.append((prefix + s)[: n + 1])
        degree = rng.randint(0, n)
        outers.append(
            [rng.randint(-9, 9) if k <= degree else 0 for k in range(n + 1)]
        )
        outers.append([rng.randint(-(10**6), 10**6) for _ in range(n + 1)])
    return [CoeffSeq(tuple(f), virtual=True) for f in outers]


def _named_outers(n):
    outers = [
        atom(name, n) for name in ATOM_NAMES if name not in PARAMETRIC_ATOMS
    ]
    outers += [atom("E_r", n, r) for r in (0, 2, 5)]
    outers += [atom("S_r", n, r) for r in (0, 3)]
    outers += [atom("C_i", n, i) for i in (1, 4)]
    return outers


def test_compose_matches_sum_of_divided_powers():
    rng = random.Random(2024)
    for n in (3, 8):
        inner_random = CoeffTable(
            ((0,) + tuple(rng.randint(-50, 50) for _ in range(n)),)
            + tuple(
                tuple(rng.randint(-50, 50) for _ in range(n + 1 - i))
                for i in range(1, n + 1)
            ),
            virtual=True,
        )
        for inner in (rooted_tree_table(n), inner_random):
            for outer in _named_outers(n) + _random_outers(rng, n):
                assert compose_table(outer, inner).rows == _compose_by_powers(
                    outer, inner
                ), (n, outer.counts)


# (m0, (a, b, c)): F^(m0) is the first derivative with
# (1 - a*x) * F^(m0+1) = (b + c*x) * F^(m0).
FIRST_ORDER_TAILS = {
    "1": (0, (0, 0, 0)),
    "X": (1, (0, 0, 0)),
    "E": (0, (0, 1, 0)),
    "L": (0, (1, 1, 0)),
    "S": (0, (1, 1, 0)),
    "Der": (0, (1, 0, 1)),
    "C": (1, (1, 1, 0)),
    "S+": (1, (1, 2, 0)),
    "L+": (1, (1, 2, 0)),
}


def test_composition_chain_ends_in_first_order_tail():
    n = 30
    for name in ATOM_NAMES:
        if name in PARAMETRIC_ATOMS:
            continue
        us, tail = tables._derivative_tables(atom(name, n).counts)
        # Ballots and set partitions have no tail: the chain runs to F^(N).
        m0, abc = FIRST_ORDER_TAILS.get(name, (n, (0, 0, 0)))
        assert (len(us) - 2, tail[:3]) == (m0, abc), name
    for name, params in (("E_r", (0, 2, 5)), ("S_r", (0, 3)), ("C_i", (1, 4))):
        for r in params:
            us, tail = tables._derivative_tables(atom(name, n, r).counts)
            assert (len(us) - 2, tail[:3]) == (r, (0, 0, 0)), (name, r)


def test_compose_forests_diagonal():
    a = rooted_tree_table(6)
    forests = compose_table(atom("E", 6), a)
    assert forests.identify_sorts().counts == tuple(
        (n + 1) ** (n - 1) for n in range(7)
    )


def test_compose_matches_oracle_cayley_table():
    n = 6
    psi = compose_table(atom("S", n), rooted_tree_table(n))
    for size in range(n + 1):
        got = oracle.count_table(size, "cayley", oracle.ClassPredicate("all"))
        for i in range(size + 1):
            assert psi[i, size - i] == got.get((i, size - i), 0), (i, size)


def test_table_product_factorization():
    n = 7
    psi_s = digraph_table(atom("S", n), n)
    psi_e = digraph_table(atom("E", n), n)
    psi_der = digraph_table(atom("Der", n), n)
    assert (psi_e * psi_der).rows == psi_s.rows


def test_identify_and_concat_sorts():
    n = 5
    psi = compose_table(atom("S", n), rooted_tree_table(n))
    assert psi.identify_sorts().counts == tuple(k**k for k in range(n + 1))
    assert psi.concat_sorts().counts == (1, 1, 3, 13, 75, 541)
    s = atom("Bal", 4)
    assert _x_only(s).concat_sorts().counts == s.counts


def test_merges_match_per_cell_binomials():
    import random
    from math import comb

    rng = random.Random(7)
    n = 40
    rows = tuple(
        tuple(rng.randint(-(10**30), 10**30) for _ in range(n + 1 - i))
        for i in range(n + 1)
    )
    table = CoeffTable(rows, virtual=True)
    assert table.identify_sorts().counts == tuple(
        sum(comb(m, i) * rows[i][m - i] for i in range(m + 1))
        for m in range(n + 1)
    )
    assert table.concat_sorts().counts == tuple(
        sum(rows[i][m - i] for i in range(m + 1)) for m in range(n + 1)
    )


def test_merges_are_linear():
    a = rooted_tree_table(5)
    b = compose_table(atom("E", 5), a)
    lhs = (a + b).identify_sorts()
    rhs_counts = tuple(
        x + y for x, y in zip(a.identify_sorts().counts, b.identify_sorts().counts)
    )
    assert lhs.counts == rhs_counts


def test_end_table_is_binomial_multiple_of_cayley_table():
    from math import comb

    for n in range(6):
        end = oracle.count_table(n, "endofunctions", oracle.ClassPredicate("all"))
        cay = oracle.count_table(n, "cayley", oracle.ClassPredicate("all"))
        for i in range(n + 1):
            key = (i, n - i)
            assert end.get(key, 0) == comb(n, i) * cay.get(key, 0), key


def _seq(n):
    return atom("X", n)


@pytest.mark.parametrize(
    "op, left, right",
    [
        (operator.add, _seq, _seq),
        (operator.sub, _seq, _seq),
        (operator.mul, _seq, _seq),
        (CoeffSeq.compose, _seq, _seq),
        (operator.add, CoeffTable.x_singleton, CoeffTable.x_singleton),
        (operator.sub, CoeffTable.x_singleton, CoeffTable.x_singleton),
        (operator.mul, CoeffTable.x_singleton, CoeffTable.x_singleton),
        (compose_table, _seq, CoeffTable.x_singleton),
        (ordinal_product, _seq, _seq),
    ],
    ids=[
        "seq-add", "seq-sub", "seq-mul", "seq-compose",
        "table-add", "table-sub", "table-mul", "compose_table",
        "ordinal_product",
    ],
)
def test_binary_operations_reject_differing_truncations(op, left, right):
    op(left(3), right(3))  # equal truncations are accepted
    for m, n in ((3, 4), (4, 3)):
        with pytest.raises(ShapeError, match="truncations differ"):
            op(left(m), right(n))
