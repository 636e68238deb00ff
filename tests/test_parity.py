"""The one-pass validators, spine bijections and walks against definitions.

Every constructor of a tree structure is run over small exhaustive input
sets, valid and malformed, and each accept or reject (with its message) is
compared with a reference that checks the definition directly, in the
documented order of the checks.  The stop rule of the cycle walk is checked
against the full walk, and the enumeration order of the tree enumerators is
pinned by digests of their repr streams.
"""

import hashlib
from itertools import product
from sys import maxsize

import pytest

from recdig import oracle
from recdig.bijections import (
    DoublyRootedTree,
    PermutedForest,
    PointedLeafTree,
    StructureError,
    TwoSortTree,
    pointed_leaf_trees,
    rooted_parent_maps,
    two_sort_trees,
)


class Reject(Exception):
    pass


def _tree_root(parent):
    """The root of a tree given as a parent map, checked by definition."""
    n = len(parent)
    roots = [v for v, p in enumerate(parent, 1) if p is None]
    if not roots:
        raise Reject("no root")
    if len(roots) != 1:
        raise Reject("expected exactly one root")
    for p in parent:
        if p is not None and (type(p) is not int or not 1 <= p <= n):
            raise Reject(f"parent {p} outside [1..{n}]")
    for v in range(1, n + 1):  # a root is at most n - 1 steps up
        for _ in range(n):
            if parent[v - 1] is None:
                break
            v = parent[v - 1]
        else:
            raise Reject("parent map has a cycle")
    return roots[0]


def _leaf_parents(y_parent, i):
    for y, p in enumerate(y_parent, 1):
        if type(p) is not int or not 1 <= p <= i:
            raise Reject(f"leaf {y} parent {p} outside [1..{i}]")


def _two_sort_tree(x_parent, y_parent):
    root = _tree_root(x_parent)
    i = len(x_parent)
    _leaf_parents(y_parent, i)
    with_child = set(x_parent) | set(y_parent)
    bare = [v for v in range(1, i + 1) if v not in with_child and v != root]
    if bare:
        raise Reject(f"non-root internal node {bare[0]} has no children")


def _doubly_rooted(parent, tail):
    _tree_root(parent)
    if type(tail) is not int or not 1 <= tail <= len(parent):
        raise Reject("the tail must be a node of the tree")


def _two_sort(x_parent, y_parent):
    if not x_parent:
        raise Reject("a two-sort tree needs an internal root")
    _two_sort_tree(x_parent, y_parent)


def _pointed(x_parent, y_parent, star_parent):
    if type(star_parent) is not int or not 1 <= star_parent <= len(x_parent):
        raise Reject("the extra leaf must hang from an internal node")
    _two_sort_tree(x_parent, (*y_parent, star_parent))


def _permuted(x_image, y_parent):
    i = len(x_image)
    if not i:
        raise Reject("a permuted forest needs an internal node")
    for x, v in enumerate(x_image, 1):
        if type(v) is not int or not 1 <= v <= i:
            raise Reject(f"node {x} image {v} outside [1..{i}]")
    _leaf_parents(y_parent, i)
    for v in range(1, i + 1):
        if v not in x_image and v not in y_parent:
            raise Reject(f"internal node {v} has no preimage")


def _agree(cls, reference, *args):
    try:
        reference(*args)
        want = None
    except Reject as exc:
        want = str(exc)
    try:
        built = cls(*args)
    except StructureError as exc:
        assert str(exc) == want, (cls.__name__, args)
    else:
        assert want is None, (cls.__name__, args, want)
        assert tuple(getattr(built, name) for name in cls.__slots__) == args


# Entries that equal a label, or lie between two, yet are no label.
NON_LABELS = (True, 1.0, 1.5)


def _entries(n):
    """The entries tried on [n]: 0..n+1, and for n < 3 the NON_LABELS."""
    return (*range(n + 2), *(NON_LABELS if n < 3 else ()))


def _parent_maps(n):
    """Every parent tuple over None and _entries(n): roots, cycles, bad
    parents."""
    return product((None, *_entries(n)), repeat=n)


def test_doubly_rooted_tree_checks_match_the_definition():
    for n in range(5):
        for parent in _parent_maps(n):
            for tail in _entries(n):
                _agree(DoublyRootedTree, _doubly_rooted, parent, tail)


def test_two_sort_tree_checks_match_the_definition():
    for i in range(5):
        for x_parent in _parent_maps(i):
            for j in range(3 if i < 4 else 2):
                for y_parent in product(_entries(i), repeat=j):
                    _agree(TwoSortTree, _two_sort, x_parent, y_parent)


def test_pointed_leaf_tree_checks_match_the_definition():
    for i in range(5):
        for x_parent in _parent_maps(i):
            for j in range(2 if i < 4 else 1):
                for y_parent in product(_entries(i), repeat=j):
                    for star in _entries(i):
                        _agree(PointedLeafTree, _pointed, x_parent, y_parent, star)


def test_permuted_forest_checks_match_the_definition():
    # Images over None and _entries(i): parent maps (with None roots), bad
    # images, and every map on [i], with and without childless nodes.
    for i in range(5):
        for x_image in _parent_maps(i):
            for j in range(3 if i < 4 else 2):
                for y_parent in product(_entries(i), repeat=j):
                    _agree(PermutedForest, _permuted, x_image, y_parent)


@pytest.mark.parametrize("stop", [(1, 1), (maxsize, 1), (1, maxsize), (2, 2)])
def test_cycle_walk_stops_after_the_first_cycle_past_its_bound(stop):
    most, longest = stop
    for n in range(6):
        for f in oracle.enumerate_endofunctions(n):
            points, lengths = oracle._cycles(f)
            got_points, got_lengths = oracle._cycles(f, stop)
            end = next((k + 1 for k, length in enumerate(lengths)
                        if k + 1 > most or length > longest), len(lengths))
            assert got_lengths == lengths[:end], f
            assert got_points == points[:sum(got_lengths)], f


# sha256 of the repr streams, one item per line: any change of the order
# (or of the items) changes them.
_ORDER_DIGESTS = {
    "two_sort_trees": "013f4281ab290acae5a65d39f776c2a0ea5f7076970108b9498a7bb6d41ae713",
    "pointed_leaf_trees":
        "c6431e2d913fcf8b8e8da8367dd428264f1c81e47bf193f98d43c0fc02e28a2d",
    "rooted_parent_maps":
        "d9c6515ddbc4274642e61d1134f1109b2eadc71adc1e2bca8dfef188103d6c08",
}


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode() + b"\n")
    return h.hexdigest()


def test_enumeration_order_is_pinned():
    pairs = [(i, j) for i in range(7) for j in range(7 - i)]  # i + j <= 6
    got = {
        "two_sort_trees": _digest(t for i, j in pairs for t in two_sort_trees(i, j)),
        "pointed_leaf_trees":
            _digest(t for i, j in pairs for t in pointed_leaf_trees(i, j)),
        "rooted_parent_maps": _digest(p for i in range(7) for p in rooted_parent_maps(i)),
    }
    assert got == _ORDER_DIGESTS
