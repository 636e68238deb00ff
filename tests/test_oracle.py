import random
import time
from itertools import product

import pytest

from bruteforce import cayley_by_rejection
from recdig import oracle
from recdig.digraphs import cayley_count, digraph_count, endofunction_count
from recdig.series import atom

FUBINI = (1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261)


def test_enumerate_endofunctions():
    assert list(oracle.enumerate_endofunctions(0)) == [()]
    assert sum(1 for _ in oracle.enumerate_endofunctions(3)) == 27
    got = list(oracle.enumerate_endofunctions(2))
    assert got == sorted(got)  # lexicographic


def test_enumerate_cayley_small():
    assert set(oracle.enumerate_cayley(2)) == {(1, 1), (1, 2), (2, 1)}
    assert list(oracle.enumerate_cayley(0)) == [()]


def test_cayley_against_rejection():
    for n in range(6):
        assert set(oracle.enumerate_cayley(n)) == cayley_by_rejection(n), n


def test_cayley_order_is_documented():
    # Ascending image size, lexicographic within each image size.
    for n in (3, 4):
        got = list(oracle.enumerate_cayley(n))
        keyed = [(max(f), f) for f in got]
        assert keyed == sorted(keyed)
        assert len(got) == len(set(got))


def test_cayley_counts_are_fubini():
    for n in range(9):
        assert sum(1 for _ in oracle.enumerate_cayley(n)) == FUBINI[n], n


def test_cayley_count_n9_is_fubini():
    # The big one; a few seconds, still desk scale.
    assert sum(1 for _ in oracle.enumerate_cayley(9)) == FUBINI[9]


def test_budgets():
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_endofunctions(9)
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_cayley(10)
    # The override flag bypasses the check (exercised at a harmless size).
    assert sum(1 for _ in oracle.enumerate_endofunctions(2, override_budget=True)) == 4
    with pytest.raises(ValueError):
        list(oracle.enumerate_maps(2, "nonsense"))


def test_classify_figure_with_three_components():
    f = oracle.check_endofunction(int(c) for c in "985776326459548")
    p = oracle.classify(f)
    assert sorted(p.recurrent) == [2, 3, 5, 6, 7, 8]
    assert p.component_count == 3
    assert sorted(p.image) == list(range(2, 10))
    assert p.leaf_count == 7 and p.internal_count == 8
    assert p.cycle_lengths == (1, 2, 3)
    assert not p.is_cayley
    assert not p.is_derangement


def test_classify_single_loop_tree():
    f = oracle.check_endofunction(int(c) for c in "693163933")
    p = oracle.classify(f)
    assert p.is_connected and p.is_tree and p.is_forest
    assert sorted(p.recurrent) == [3]
    assert p.cycle_lengths == (1,)


def test_classify_identity_and_empty():
    for n in (0, 1, 4):
        p = oracle.classify(tuple(range(1, n + 1)))
        assert p.component_count == n
        assert p.recurrent_count == n
        assert p.is_forest
        assert p.is_derangement == (n == 0)
        assert p.is_cayley
    assert not oracle.classify(()).is_connected


def test_classify_depends_only_on_the_map():
    f = (2, 1, 3)
    assert oracle.classify(f) == oracle.classify(tuple(f))


def test_cayley_label_characterization():
    # Image = [k] exactly when the internal nodes take the smallest labels;
    # both directions against the constructive enumerator.
    for n in range(6):
        cay = set(oracle.enumerate_cayley(n))
        for f in oracle.enumerate_endofunctions(n):
            p = oracle.classify(f)
            expected = p.image == frozenset(range(1, p.internal_count + 1))
            assert p.is_cayley == expected
            assert (f in cay) == p.is_cayley


def test_check_endofunction_rejects_bad_values():
    with pytest.raises(ValueError):
        oracle.check_endofunction((1, 4, 2))


def test_count_simple_classes():
    assert oracle.count(4, "cayley", oracle.ClassPredicate("derangement")) == 25
    for n in range(6):
        assert oracle.count(n, "endofunctions", oracle.ClassPredicate("all")) == n**n
    assert oracle.count(5, "endofunctions", oracle.ClassPredicate("forest")) == 6**4


def test_count_table_matches_formulas():
    for n in range(6):
        table = oracle.count_table(n, "cayley", oracle.ClassPredicate("all"))
        s = atom("S", n)
        for i in range(n + 1):
            assert table.get((i, n - i), 0) == digraph_count(i, n - i, s)
    with pytest.raises(ValueError):
        oracle.count_table(3, "cayley", oracle.ClassPredicate("all"), by="bad")


def test_count_table_by_recurrent_size_matches_formulas():
    from recdig.digraphs import digraph_count_by_recurrent

    for n in range(8):
        table = oracle.count_table(
            n, "cayley", oracle.ClassPredicate("all"), by="ijr"
        )
        s = atom("S", n)
        for i in range(n + 1):
            for r in range(i + 1):
                assert table.get((i, n - i, r), 0) == digraph_count_by_recurrent(
                    i, n - i, r, s
                ), (i, n - i, r)


def test_counts_match_class_formulas():
    for klass in ("tree", "forest", "connected", "derangement"):
        rec_name = {"tree": "X", "forest": "E", "connected": "C",
                    "derangement": "Der"}[klass]
        for n in range(6):
            rec = atom(rec_name, n)
            assert oracle.count(
                n, "cayley", oracle.ClassPredicate(klass)
            ) == cayley_count(n, rec), (klass, n)
            assert oracle.count(
                n, "endofunctions", oracle.ClassPredicate(klass)
            ) == endofunction_count(n, rec), (klass, n)


def test_endofunction_class_counts_to_n7_single_pass():
    by_class = {"all": "S", "tree": "X", "forest": "E", "connected": "C",
                "derangement": "Der"}
    for n in range(8):
        totals = dict.fromkeys(by_class, 0)
        for f in oracle.enumerate_endofunctions(n):
            p = oracle.classify(f)
            totals["all"] += 1
            totals["tree"] += p.is_tree
            totals["forest"] += p.is_forest
            totals["connected"] += p.is_connected
            totals["derangement"] += p.is_derangement
        for klass, rec_name in by_class.items():
            assert totals[klass] == endofunction_count(n, atom(rec_name, n)), (
                klass,
                n,
            )


def test_compose_power_and_idempotency_order():
    # idempotent:k holds when the k-fold composite gives f back.
    def order(f, kmax):
        return next(
            (k for k in range(2, kmax + 1)
             if oracle.ClassPredicate("idempotent", k).matches(f, None)),
            None,
        )

    ident = (1, 2, 3)
    assert oracle.compose_power(ident, 5) == ident
    assert order(ident, 4) == 2
    swap = (2, 1)
    assert oracle.compose_power(swap, 2) == (1, 2)
    assert order(swap, 4) == 3
    const = (1, 1)
    assert order(const, 4) == 2
    three_cycle = (2, 3, 1)
    assert oracle.compose_power(three_cycle, 3) == ident
    assert order(three_cycle, 3) is None
    assert order(three_cycle, 4) == 4
    with pytest.raises(ValueError):
        oracle.compose_power(ident, 0)


def test_class_predicate_validation():
    with pytest.raises(ValueError):
        oracle.ClassPredicate("bogus")
    with pytest.raises(ValueError):
        oracle.ClassPredicate("idempotent")
    with pytest.raises(ValueError):
        oracle.ClassPredicate("indegree_bounded", 0)
    for text in ("forest:7", "all:-4", "cayley:0", "derangement:2"):
        with pytest.raises(ValueError, match="takes no parameter"):
            oracle.parse_class(text)
    with pytest.raises(ValueError):
        oracle.parse_class("forest:")  # an empty parameter is not "none"
    assert oracle.parse_class("idempotent:3").param == 3
    assert oracle.parse_class("forest").name == "forest"


def test_idempotent_class_counts(monkeypatch):
    # The class reads no profile, so counting it classifies no map.
    monkeypatch.setattr(oracle, "classify", None)
    pred = oracle.ClassPredicate("idempotent", 2)
    got = [oracle.count(n, "endofunctions", pred) for n in range(6)]
    assert got == [1, 1, 3, 10, 41, 196]


def test_indegree_bounded_class():
    pred = oracle.ClassPredicate("indegree_bounded", 2)
    # On [2] every map qualifies: indegrees cannot exceed 2.
    assert oracle.count(2, "endofunctions", pred) == 4
    f = (1, 1, 1, 1)  # recurrent node 1 has indegree 4, too many
    assert not pred.matches(f, oracle.classify(f))


def _reference_profile(f):
    """The profile by definition: the recurrent set is the stable set of the
    iterated image, and each cycle is walked from its least point."""
    n = len(f)
    recurrent = set(range(1, n + 1))
    while True:
        nxt = {f[u - 1] for u in recurrent}
        if nxt == recurrent:
            break
        recurrent = nxt
    lengths = []
    seen = set()
    for u in sorted(recurrent):
        if u not in seen:
            length, v = 0, u
            while v not in seen:
                seen.add(v)
                v = f[v - 1]
                length += 1
            lengths.append(length)
    indeg = [0] * (n + 1)
    for v in f:
        indeg[v] += 1
    image = frozenset(v for v in range(1, n + 1) if indeg[v])
    return oracle.DigraphProfile(
        n=n,
        image=image,
        recurrent=frozenset(recurrent),
        cycle_lengths=tuple(sorted(lengths)),
        max_indegree_recurrent=max((indeg[v] for v in recurrent), default=0),
        max_indegree_nonrecurrent=max(
            (indeg[v] for v in range(1, n + 1) if v not in recurrent), default=0
        ),
        is_cayley=image == frozenset(range(1, len(image) + 1)),
    )


def _chain(n):
    return (1,) + tuple(range(1, n))


def _star(n):
    return (1,) * n


def _single_cycle(n):
    return tuple(range(2, n + 1)) + (1,)


def test_classify_matches_reference_on_all_small_maps():
    for n in range(7):
        for f in oracle.enumerate_endofunctions(n):
            assert oracle.classify(f) == _reference_profile(f), f


def test_classify_matches_reference_on_random_maps():
    rng = random.Random(2025)
    for _ in range(200):
        n = rng.randint(1, 200)
        f = tuple(rng.randint(1, n) for _ in range(n))
        assert oracle.classify(f) == _reference_profile(f), f
        assert oracle.recurrent_points(f) == _reference_profile(f).recurrent


@pytest.mark.parametrize("shape", [_chain, _star, _single_cycle])
def test_classify_matches_reference_on_extreme_shapes(shape):
    for n in (1, 2, 3, 10, 100, 1000, 5000):
        f = shape(n)
        assert oracle.classify(f) == _reference_profile(f), (shape.__name__, n)


def test_classify_long_chain_is_linear():
    # The stable-image loop took time quadratic in the height of the tree:
    # a chain of this size cost it about 14 s.
    f = _chain(20000)
    start = time.perf_counter()
    profile = oracle.classify(f)
    recurrent = oracle.recurrent_points(f)
    assert time.perf_counter() - start < 1.0
    assert profile.recurrent == recurrent == {1}
    assert profile.cycle_lengths == (1,)


def _surjective(f):
    return set(f) == set(range(1, max(f, default=0) + 1))


def test_enumerate_cayley_is_the_sorted_filter():
    for n in range(7):
        want = sorted(
            filter(_surjective, product(range(1, n + 1), repeat=n)),
            key=lambda f: (max(f, default=0), f),
        )
        assert list(oracle.enumerate_cayley(n)) == want, n


def test_enumerate_cayley_checks_budget_at_call_time_and_is_lazy():
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_cayley(10)  # the call raises; nothing is iterated
    maps = oracle.enumerate_cayley(10, override_budget=True)
    assert next(maps) == (1,) * 10
    assert next(maps) == (1,) * 9 + (2,)


def test_count_unconstrained_all_does_not_call_matches(monkeypatch):
    def refuse(self, f, profile):
        raise AssertionError("matches called")

    monkeypatch.setattr(oracle.ClassPredicate, "matches", refuse)
    assert oracle.count(6, "cayley", oracle.ClassPredicate("all")) == FUBINI[6]
    assert oracle.count(4, "endofunctions", oracle.ClassPredicate("all")) == 4**4
