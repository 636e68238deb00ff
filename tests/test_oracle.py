import random
import time
from collections import Counter
from itertools import product

import pytest

from bruteforce import cayley_by_rejection
from recdig import oracle
from recdig.bijections import endofunction_to_tree
from recdig.digraphs import (
    CLASS_RECURRENT_ATOMS,
    cayley_count,
    digraph_count,
    endofunction_count,
)
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
    # Each model's one table entry gives its budget and its enumerator.
    assert list(oracle.MODELS) == ["endofunctions", "cayley"]
    for name, (budget, enumerate_) in oracle.MODELS.items():
        assert list(oracle.enumerate_maps(3, name)) == list(enumerate_(3))
        oracle.check_budget(budget, name, False)
        with pytest.raises(oracle.BudgetExceededError, match=f"budget of {budget};"):
            oracle.check_budget(budget + 1, name, False)
        with pytest.raises(oracle.BudgetExceededError):
            enumerate_(budget + 1)


@pytest.mark.parametrize("model", oracle.MODELS)
def test_negative_sizes_are_rejected(model):
    every = oracle.parse_class("all")
    calls = (
        lambda: oracle.check_budget(-1, model, override_budget=False),
        lambda: oracle.check_budget(-1, model, override_budget=True),
        lambda: oracle.enumerate_maps(-1, model),
        lambda: oracle.count(-1, model, every),
        lambda: oracle.count_table(-1, model, every),
        lambda: oracle.count_table(-2, model, every, by="ijr"),
        # A size is an int too: neither a bool nor a float is one.
        lambda: oracle.count(True, model, every),
        lambda: oracle.enumerate_maps(2.0, model),
        lambda: oracle.MODELS[model][1](2.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="size must be nonnegative"):
            call()


def test_unknown_model_is_rejected_at_every_entry_point():
    # Each call raises at once, before it enumerates a map; check_budget
    # raises too, whatever the size and the override.
    every = oracle.parse_class("all")
    tree = oracle.parse_class("tree")
    calls = (
        lambda: oracle.check_budget(3, "bogus", False),
        lambda: oracle.check_budget(20, "bogus", False),
        lambda: oracle.check_budget(-1, "bogus", True),
        lambda: oracle.enumerate_maps(3, "bogus"),
        lambda: oracle.count(3, "bogus", every),
        lambda: oracle.count(3, "bogus", tree),
        lambda: oracle.count_table(3, "bogus", tree),
        lambda: oracle.count_table(3, "bogus", every, by="ijr"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown model 'bogus'"):
            call()


def _member(name, f):
    return oracle.ClassPredicate(name).matches(f)


def test_classify_figure_with_three_components():
    f = oracle.check_endofunction(int(c) for c in "985776326459548")
    p = oracle.classify(f)
    assert sorted(p.recurrent) == [2, 3, 5, 6, 7, 8]
    assert p.component_count == 3
    assert sorted(p.image) == list(range(2, 10))
    assert p.leaf_count == 7 and p.internal_count == 8
    assert p.cycle_lengths == (1, 2, 3)
    # The profile holds structure only; matches alone decides membership.
    assert p._fields == ("n", "image", "recurrent", "cycle_lengths")
    assert not _member("cayley", f)
    assert not _member("derangement", f)


def test_classify_single_loop_tree():
    f = oracle.check_endofunction(int(c) for c in "693163933")
    p = oracle.classify(f)
    assert _member("connected", f) and _member("tree", f) and _member("forest", f)
    assert sorted(p.recurrent) == [3]
    assert p.cycle_lengths == (1,)


def test_classify_identity_and_empty():
    for n in (0, 1, 4):
        f = tuple(range(1, n + 1))
        p = oracle.classify(f)
        assert p.component_count == n
        assert p.recurrent_count == n
        assert _member("forest", f)
        assert _member("derangement", f) == (n == 0)
        assert _member("cayley", f)
    assert not _member("connected", ())


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
            assert _member("cayley", f) == expected
            assert (f in cay) == expected


def test_check_endofunction_rejects_bad_values():
    with pytest.raises(ValueError):
        oracle.check_endofunction((1, 4, 2))
    # A label is an int: a float or a bool is none, even where it equals one.
    # endofunction_to_tree checks its map here too.
    cases = [
        (lambda: oracle.check_endofunction((1.5, 2)), "value 1.5 outside [1..2]"),
        (lambda: oracle.check_endofunction((1.0, 2.0)), "value 1.0 outside [1..2]"),
        (lambda: oracle.check_endofunction((2, True)), "value True outside [1..2]"),
        (lambda: endofunction_to_tree((True,)), "value True outside [1..1]"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message


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
            # The recurrent-point total, the count of the pointed class,
            # against the oracle's buckets.
            assert digraph_count(i, n - i, s.pointing()) == sum(
                r * table.get((i, n - i, r), 0) for r in range(i + 1)
            ), (i, n - i)


def test_count_table_by_ijr_walks_each_map_at_most_once(monkeypatch):
    walked = []
    walk = oracle._cycles
    monkeypatch.setattr(
        oracle, "_cycles", lambda f, *stop: walked.append(f) or walk(f, *stop)
    )
    for text in ("tree", "forest", "connected", "indegree_bounded:2", "derangement"):
        walked.clear()
        table = oracle.count_table(6, "cayley", oracle.parse_class(text), by="ijr")
        assert len(walked) == len(set(walked)) >= sum(table.values()), text


_BY_CLASS = {"all": "S", "tree": "X", "forest": "E", "connected": "C",
             "derangement": "Der"}


def test_counts_match_class_formulas():
    # count() in both models: Cayley maps to n = 7, endofunctions to n = 5
    # (the n = 7 endofunctions are swept once in the test below).
    for klass, rec_name in _BY_CLASS.items():
        pred = oracle.ClassPredicate(klass)
        for n in range(8):
            rec = atom(rec_name, n)
            assert oracle.count(n, "cayley", pred) == cayley_count(n, rec), (
                klass,
                n,
            )
            if n < 6:
                assert oracle.count(
                    n, "endofunctions", pred
                ) == endofunction_count(n, rec), (klass, n)


def test_endofunction_class_counts_to_n7_single_pass():
    # One pass over the endofunctions of [n] to n = 7 (823543 maps at the
    # top), tallying every class through ClassPredicate.matches.
    preds = {klass: oracle.ClassPredicate(klass) for klass in _BY_CLASS}
    for n in range(8):
        totals = dict.fromkeys(_BY_CLASS, 0)
        for f in oracle.enumerate_endofunctions(n):
            for klass, pred in preds.items():
                totals[klass] += pred.matches(f)
        for klass, rec_name in _BY_CLASS.items():
            assert totals[klass] == endofunction_count(n, atom(rec_name, n)), (
                klass,
                n,
            )


def test_compose_power_and_idempotency_order():
    # idempotent:k holds when the k-fold composite gives f back.
    def order(f, kmax):
        return next(
            (k for k in range(2, kmax + 1)
             if oracle.ClassPredicate("idempotent", k).matches(f)),
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


def test_compose_power_matches_plain_loop():
    # Repeated squaring against k - 1 plain compositions, every map of [4].
    for f in product(range(1, 5), repeat=4):
        g = f
        for k in range(1, 13):
            assert oracle.compose_power(f, k) == g, (f, k)
            g = tuple(f[v - 1] for v in g)


def test_served_classes_are_parameterless_oracle_classes():
    # seq and verify serve the classes of digraphs.CLASS_RECURRENT_ATOMS;
    # the oracle's one table must decide each of them with no parameter.
    for name in CLASS_RECURRENT_ATOMS:
        assert name in oracle.CLASSES, name
        assert oracle.CLASSES[name][0] is None, name


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
    for text in ("bogus:x", "bogus:", "bogus:3"):
        with pytest.raises(ValueError, match="^unknown class 'bogus'$"):
            oracle.parse_class(text)
    assert oracle.parse_class("idempotent:3").param == 3
    assert oracle.parse_class("forest").name == "forest"


def test_class_parameters_must_be_ints():
    # A float, bool or string k used to build, then count raised TypeError
    # or (indegree_bounded:1.5) counted silently.
    for name in ("idempotent", "indegree_bounded"):
        least = oracle.CLASSES[name][0]
        for param in (2.5, 1.5, float(least), True, False, "3", None):
            with pytest.raises(ValueError) as info:
                oracle.ClassPredicate(name, param)
            assert str(info.value) == f"{name} class needs a parameter k >= {least}"
        assert oracle.ClassPredicate(name, least).param == least


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
    assert not pred.matches(f)


# Every class, with the parameters 2..4 of idempotent and 1..3 of
# indegree_bounded, in the order _members_by_profile lists them.
_EVERY_CLASS = [oracle.parse_class(text) for text in (
    "all", "cayley", "tree", "forest", "connected", "derangement",
    "idempotent:2", "idempotent:3", "idempotent:4",
    "indegree_bounded:1", "indegree_bounded:2", "indegree_bounded:3",
)]


def _members_by_profile(f, p):
    """Membership of f in each class of _EVERY_CLASS, read from the
    reference profile p = _reference_profile(f) and an indegree count of
    its own, by definitions that share no code with the oracle."""
    powers = [f]  # f^2, f^3, f^4 by plain composition
    for _ in range(3):
        powers.append(tuple(f[v - 1] for v in powers[-1]))
    lengths = p.cycle_lengths
    indeg = Counter(f)
    rec = max((indeg[v] for v in p.recurrent), default=0)
    nonrec = max(
        (indeg[v] for v in range(1, p.n + 1) if v not in p.recurrent), default=0
    )
    return [
        True,
        p.image == frozenset(range(1, len(p.image) + 1)),
        lengths == (1,),
        set(lengths) <= {1},
        len(lengths) == 1,
        1 not in lengths,
        *(g == f for g in powers[1:]),
        *(rec <= k + 1 and nonrec <= k for k in (1, 2, 3)),
    ]


def test_matches_and_counts_read_no_profile(monkeypatch):
    # matches(f), given no profile, against membership by definition, on
    # every map of [n]: endofunctions to n = 6 and the Cayley maps of [7]
    # (smaller Cayley maps are among the endofunctions).  count_table by
    # "ijr" below walks each map under its class's stop rule, which never
    # trips on a member, so a member's recurrent count is read from a full
    # walk.
    # The same sweep keeps reference tables by (i, j, r) to n = 6 for six
    # classes in both models; count_table and count must then give them
    # with classify refusing, the pattern of test_idempotent_class_counts.
    counted = [(_EVERY_CLASS.index(pred), pred) for pred in map(
        oracle.parse_class, ("cayley", "tree", "forest", "connected",
                             "derangement", "indegree_bounded:2"),
    )]
    want = {}
    for model, sizes in (("endofunctions", range(7)), ("cayley", (7,))):
        for n in sizes:
            for f in oracle.enumerate_maps(n, model):
                p = _reference_profile(f)
                members = _members_by_profile(f, p)
                assert [pred.matches(f) for pred in _EVERY_CLASS] == members, f
                if n == 7:
                    continue
                key = (p.internal_count, p.leaf_count, p.recurrent_count)
                for in_model in ("endofunctions", "cayley")[: 1 + members[1]]:
                    for slot, pred in counted:
                        if members[slot]:
                            table = want.setdefault((in_model, n, pred), {})
                            table[key] = table.get(key, 0) + 1
    # A profile passed in is never read, not even a wrong one; the
    # benchmark's probe still passes classify(f).
    wrong = oracle.classify((1, 1, 1))
    for f in oracle.enumerate_endofunctions(3):
        for pred in _EVERY_CLASS:
            assert pred.matches(f, wrong) == pred.matches(f), (pred, f)

    def refuse(f):
        raise AssertionError("classify called")

    monkeypatch.setattr(oracle, "classify", refuse)
    for model in oracle.MODELS:
        for n in range(7):
            for _, pred in counted:
                case = (model, n, pred)
                ijr = want.get(case, {})
                ij = {}
                for (i, j, _), c in ijr.items():
                    ij[i, j] = ij.get((i, j), 0) + c
                assert oracle.count_table(n, model, pred, by="ijr") == ijr, case
                assert oracle.count_table(n, model, pred, by="ij") == ij, case
                assert oracle.count(n, model, pred) == sum(ij.values()), case


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
    return oracle.DigraphProfile(
        n=n,
        image=frozenset(f),
        recurrent=frozenset(recurrent),
        cycle_lengths=tuple(sorted(lengths)),
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
        ref = _reference_profile(f)
        assert oracle.classify(f) == ref, f
        assert [p.matches(f) for p in _EVERY_CLASS] == _members_by_profile(f, ref)


@pytest.mark.parametrize("shape", [_chain, _star, _single_cycle])
def test_classify_matches_reference_on_extreme_shapes(shape):
    for n in (1, 2, 3, 10, 100, 1000, 5000):
        f = shape(n)
        ref = _reference_profile(f)
        assert oracle.classify(f) == ref, (shape.__name__, n)
        members = _members_by_profile(f, ref)
        assert [p.matches(f) for p in _EVERY_CLASS] == members, (shape.__name__, n)


def test_classify_long_chain_is_linear():
    # The stable-image loop took time quadratic in the height of the tree:
    # a chain of this size cost it about 14 s.
    f = _chain(20000)
    start = time.perf_counter()
    profile = oracle.classify(f)
    assert time.perf_counter() - start < 1.0
    assert profile.recurrent == {1}
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
    def refuse(*args, **kwargs):
        raise AssertionError("a membership rule was called")

    monkeypatch.setattr(oracle.ClassPredicate, "matches", refuse)
    monkeypatch.setitem(oracle.CLASSES, "all", (None, None, refuse))
    assert oracle.count(6, "cayley", oracle.ClassPredicate("all")) == FUBINI[6]
    assert oracle.count(4, "endofunctions", oracle.ClassPredicate("all")) == 4**4
