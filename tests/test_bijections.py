import random
import time

import pytest

from recdig import oracle
from recdig.bijections import (
    DoublyRootedTree,
    PermutedForest,
    PointedLeafTree,
    StructureError,
    TwoSortTree,
    doubly_rooted_tree_dot,
    doubly_rooted_trees,
    endofunction_dot,
    endofunction_to_tree,
    permuted_forest_to_pointed_tree,
    pointed_leaf_trees,
    pointed_tree_to_permuted_forest,
    rooted_parent_maps,
    tree_to_endofunction,
    two_sort_trees,
)
from recdig.digraphs import digraph_count
from recdig.series import atom

FIG1 = tuple(int(c) for c in "985776326459548")


def test_backward_on_the_worked_example():
    t = endofunction_to_tree(FIG1)
    assert t.tail == 8 and t.head == 2
    spine_edges = {(5, 8), (5, 7), (6, 7), (3, 6), (2, 3)}
    hanging = {(8, 15), (5, 11), (5, 13), (4, 7), (4, 10), (4, 14),
               (6, 9), (1, 9), (9, 12)}
    assert set(t.edges) == spine_edges | hanging
    assert tree_to_endofunction(t) == FIG1


def test_unisort_round_trip_exhaustive():
    for n in range(1, 6):
        seen = set()
        for f in oracle.enumerate_endofunctions(n):
            t = endofunction_to_tree(f)
            assert tree_to_endofunction(t) == f
            seen.add((t.edges, t.tail, t.head))
        assert len(seen) == n**n


def test_unisort_round_trip_n7():
    # The big exhaustive sweep; injectivity of the tree side follows from
    # the round trip, surjectivity from the 7^5 tree count checked below.
    for f in oracle.enumerate_endofunctions(7):
        if tree_to_endofunction(endofunction_to_tree(f)) != f:
            raise AssertionError(f)


def test_forward_of_every_tree():
    for n in range(1, 6):
        for t in doubly_rooted_trees(n):
            f = tree_to_endofunction(t)
            assert endofunction_to_tree(f) == t


def test_empty_map_has_no_tree():
    with pytest.raises(StructureError):
        endofunction_to_tree(())


def test_doubly_rooted_tree_counts():
    # n^n trees over Cayley's n^(n-2) distinct labeled edge sets.
    for n in range(1, 6):
        trees = set(doubly_rooted_trees(n))
        assert len(trees) == n**n
        assert len({t.edges for t in trees}) == max(1, n ** (n - 2))


def test_tree_validation():
    with pytest.raises(StructureError):
        DoublyRootedTree(parent=(None, None), tail=1)  # two heads
    with pytest.raises(StructureError):
        DoublyRootedTree(parent=(None, 3, 2), tail=1)  # a cycle
    with pytest.raises(StructureError):
        DoublyRootedTree(parent=(None, 3), tail=1)  # parent out of range
    with pytest.raises(StructureError):
        DoublyRootedTree(parent=(None, 1), tail=3)  # tail out of range
    with pytest.raises(StructureError):
        DoublyRootedTree(parent=(), tail=1)  # empty map
    DoublyRootedTree(parent=(None,), tail=1)


def test_rooted_parent_maps_count():
    for i in range(1, 7):
        assert len(set(rooted_parent_maps(i))) == i ** (i - 1)
    for i in (0, -1):
        assert list(rooted_parent_maps(i)) == []


def test_two_sort_tree_counts_match_formula():
    x = atom("X", 6)
    for i in range(7):
        for j in range(7 - i):
            assert sum(1 for _ in two_sort_trees(i, j)) == digraph_count(i, j, x), (
                i,
                j,
            )


def test_two_sort_tree_validation():
    TwoSortTree(x_parent=(None,), y_parent=())  # bare root
    TwoSortTree(x_parent=(None,), y_parent=(1, 1))
    with pytest.raises(StructureError):
        TwoSortTree(x_parent=(None, 1), y_parent=())  # childless internal node
    with pytest.raises(StructureError):
        TwoSortTree(x_parent=(None, None), y_parent=(1, 2))  # two roots
    with pytest.raises(StructureError):
        TwoSortTree(x_parent=(2, 1), y_parent=(1, 2))  # cycle, no root
    with pytest.raises(StructureError):
        TwoSortTree(x_parent=(), y_parent=())


def test_pointed_leaf_tree_validation():
    PointedLeafTree(x_parent=(None,), y_parent=(), star_parent=1)
    with pytest.raises(StructureError):
        PointedLeafTree(x_parent=(None,), y_parent=(), star_parent=2)
    # The extra leaf saves an otherwise childless node.
    PointedLeafTree(x_parent=(None, 1), y_parent=(), star_parent=2)
    with pytest.raises(StructureError):
        PointedLeafTree(x_parent=(None, 1), y_parent=(), star_parent=1)


def test_forest_cycle_is_rejected_beside_a_root():
    with pytest.raises(StructureError, match="parent map has a cycle"):
        TwoSortTree(x_parent=(None, 3, 2), y_parent=(1, 2, 3))
    # The climb from 2 reaches the root; the one from 3 loops through 4.
    with pytest.raises(StructureError, match="parent map has a cycle"):
        PointedLeafTree(x_parent=(None, 1, 4, 3), y_parent=(2, 3), star_parent=4)


def test_chain_pointed_leaf_tree_validates_in_linear_time():
    # Internal node t hangs from t - 1; the old check climbed from every
    # node to the root and took over a second at this size.
    i = 5000
    start = time.perf_counter()
    t = PointedLeafTree(
        x_parent=(None,) + tuple(range(1, i)), y_parent=(i,), star_parent=i
    )
    assert time.perf_counter() - start < 0.5
    back = permuted_forest_to_pointed_tree(pointed_tree_to_permuted_forest(t))
    assert back == t


def test_permuted_forest_validation():
    PermutedForest(x_image=(2, 1), y_parent=())  # two bare roots, swapped
    PermutedForest(x_image=(1, 1), y_parent=(2,))  # node 2 hangs from root 1
    with pytest.raises(StructureError, match="internal node 2 has no preimage"):
        PermutedForest(x_image=(1, 1), y_parent=())  # node 2 childless, not a root
    with pytest.raises(StructureError, match="node 2 image 3 outside"):
        PermutedForest(x_image=(1, 3), y_parent=())
    with pytest.raises(StructureError, match="node 1 image None outside"):
        PermutedForest(x_image=(None, 1), y_parent=(1,))  # a parent map
    with pytest.raises(StructureError, match="leaf 1 parent 3 outside"):
        PermutedForest(x_image=(2, 1), y_parent=(3,))


def test_forward_on_the_worked_two_sort_example():
    # Leaves a..e stored as 1..5; spine 5, 2, 4, 3 with root 3.
    t = PointedLeafTree(
        x_parent=(5, 4, None, 3, 2),
        y_parent=(1, 1, 4, 3, 4),
        star_parent=5,
    )
    p = pointed_tree_to_permuted_forest(t)
    # Node 1 keeps its parent 5; the roots 2..5 are permuted (2 5 3)(4).
    assert p.x_image == (5, 5, 2, 4, 3)
    assert oracle.classify(p.x_image).recurrent == {2, 3, 4, 5}
    assert p.y_parent == t.y_parent
    assert permuted_forest_to_pointed_tree(p) == t


def test_smallest_two_sort_case():
    t = PointedLeafTree(x_parent=(None,), y_parent=(), star_parent=1)
    p = pointed_tree_to_permuted_forest(t)
    assert p.x_image == (1,)
    assert permuted_forest_to_pointed_tree(p) == t


def test_two_sort_bijection_exhaustive_small():
    splus = atom("S+", 6)
    for i in range(1, 6):
        for j in range(6 - i):
            outputs = set()
            for t in pointed_leaf_trees(i, j):
                p = pointed_tree_to_permuted_forest(t)
                assert permuted_forest_to_pointed_tree(p) == t
                outputs.add(p)
            assert len(outputs) == digraph_count(i, j, splus), (i, j)


def test_two_sort_pair_is_the_unisort_spine_map_on_internal_nodes():
    # The two-sort pair reads the tree under its internal nodes as a
    # doubly-rooted tree with the extra leaf's parent as the tail; both
    # directions must agree with the unisort pair on it.
    for i in range(1, 7):
        for j in range(7 - i):
            for t in pointed_leaf_trees(i, j):
                p = pointed_tree_to_permuted_forest(t)
                d = DoublyRootedTree(t.x_parent, t.star_parent)
                assert p.x_image == tree_to_endofunction(d), t
                back = permuted_forest_to_pointed_tree(p)
                assert endofunction_to_tree(p.x_image) == DoublyRootedTree(
                    back.x_parent, back.star_parent
                ), t


def test_pointed_leaf_trees_are_two_sort_trees_with_a_last_leaf():
    for i in range(6):
        for j in range(7 - i):
            split = [
                PointedLeafTree(
                    x_parent=t.x_parent,
                    y_parent=t.y_parent[:-1],
                    star_parent=t.y_parent[-1],
                )
                for t in two_sort_trees(i, j + 1)
            ]
            assert list(pointed_leaf_trees(i, j)) == split, (i, j)


def test_negative_leaf_counts_yield_nothing():
    for i in range(4):
        for j in (-1, -2):
            assert list(two_sort_trees(i, j)) == [], (i, j)
            assert list(pointed_leaf_trees(i, j)) == [], (i, j)


def test_sort_preservation():
    for t in pointed_leaf_trees(3, 2):
        p = pointed_tree_to_permuted_forest(t)
        assert len(p.x_image) == len(t.x_parent)
        assert p.y_parent == t.y_parent  # leaves stay leaves, parents intact


def test_empty_forest_rejected():
    with pytest.raises(StructureError):
        PermutedForest(x_image=(), y_parent=())


def test_dot_exports():
    dot = endofunction_dot((2, 1, 1))
    assert dot.startswith("digraph")
    assert "1 -> 2;" in dot and "3 -> 1;" in dot
    assert "fillcolor=black" in dot and "fillcolor=white" in dot
    t = endofunction_to_tree((1, 1, 1))
    g = doubly_rooted_tree_dot(t, filled={1})
    assert g.startswith("graph")
    assert "peripheries=2" in g or "peripheries=4" in g
    with pytest.raises(ValueError):
        endofunction_dot((1, 5, 2))


# -- seeded property tests beyond the exhaustive range ------------------------


def _spine_nodes(t):
    # The tail-to-head path, found by its own breadth-first search.
    adj = {v: [] for v in range(1, t.n + 1)}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {t.tail: None}
    queue = [t.tail]
    for u in queue:
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    path = [t.head]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return set(path)


def test_unisort_round_trip_random_large():
    rng = random.Random(20250)
    for _ in range(150):
        n = rng.randint(1, 200)
        f = tuple(rng.randint(1, n) for _ in range(n))
        t = endofunction_to_tree(f)
        assert tree_to_endofunction(t) == f
        # The cycle set of f is the image of f^n.
        assert _spine_nodes(t) == set(oracle.compose_power(f, n))


def _random_pointed_leaf_tree(rng, i, extra_leaves):
    labels = list(range(1, i + 1))
    rng.shuffle(labels)
    x_parent = [None] * i
    for k in range(1, i):  # a random recursive tree on shuffled labels
        x_parent[labels[k] - 1] = labels[rng.randrange(k)]
    parents = set(x_parent)
    childless = [x for x in labels[1:] if x not in parents]
    # Every childless non-root node gets one leaf or the extra leaf.
    if childless and rng.random() < 0.5:
        star = childless.pop(rng.randrange(len(childless)))
    else:
        star = rng.randint(1, i)
    y_parent = childless + [rng.randint(1, i) for _ in range(extra_leaves)]
    rng.shuffle(y_parent)
    return PointedLeafTree(
        x_parent=tuple(x_parent), y_parent=tuple(y_parent), star_parent=star
    )


def test_two_sort_round_trip_random_large():
    rng = random.Random(40)
    for _ in range(300):
        t = _random_pointed_leaf_tree(
            rng, rng.randint(1, 40), rng.randint(0, 20)
        )
        p = pointed_tree_to_permuted_forest(t)
        spine = [t.star_parent]
        while t.x_parent[spine[-1] - 1] is not None:
            spine.append(t.x_parent[spine[-1] - 1])
        assert oracle.classify(p.x_image).recurrent == set(spine)
        assert p.y_parent == t.y_parent
        assert permuted_forest_to_pointed_tree(p) == t
