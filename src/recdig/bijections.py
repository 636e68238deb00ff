"""Executable spine bijections between trees and functional digraphs.

Every tree here is a parent map: entry v - 1 is the neighbor of v toward
the root, None at the root.  The unisort pair maps doubly-rooted labeled
trees (rooted at the head, with a distinguished tail) to endofunctions and
back: the path between the two distinguished nodes (the spine, read from
tail to head) is reinterpreted as a permutation of its own sorted label
set by the rank rule g(u_t) = w_t, where u_1 < ... < u_s are the spine
labels and w_1 ... w_s is the spine word; everything hanging off the spine
is left untouched.

The two-sort pair does the same between rooted trees carrying one extra
distinguished leaf and permutations of rooted trees: the spine runs from
the extra leaf (excluded) up to the root, and cutting it turns each spine
node into the root of its own tree.  Only the two-sort pair goes through
the shared spine cut and link (_spine, _link); the unisort pair inlines
both, for speed: through them its n = 6 round trips took 0.35-0.38 s, not
0.28-0.29 s (best of 5, interleaved; 2 vCPU Xeon, Python 3.11.7).  Forests
are checked by _roots: the oracle's _cycles took unisort from 0.31-0.34 s
to 0.37-0.38 s and two-sort from 0.094-0.10 s to 0.12 s.  Every map is one
pass over the structure up to sorting the spine: the unisort backward map
links the spine into a copy of f as it reads the sorted recurrent points,
and the forward map climbs once and writes once.  Each constructor
validates in one pass too (one climb per node, one childless set), and
the two-sort enumerators skip a Pruefer code with too many childless
nodes before decoding it.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Iterator, Sequence

from recdig._record import Record
from recdig.oracle import Endofunction, _cycles, check_endofunction


class StructureError(ValueError):
    """The input is not a well-formed tree structure."""


# -- unisort: doubly-rooted trees <-> endofunctions -------------------------


class DoublyRootedTree(Record):
    """A labeled tree on [n] with an ordered pair of distinguished nodes.

    parent[v - 1] is the neighbor of v toward the head, None at the head.
    """

    __slots__ = ("parent", "tail")

    def __init__(self, parent: tuple[int | None, ...], tail: int):
        _roots(parent, single_root=True)
        if not 1 <= tail <= len(parent):
            raise StructureError("the tail must be a node of the tree")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "tail", tail)

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def head(self) -> int:
        return self.parent.index(None) + 1

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The tree's edges as sorted (min, max) pairs."""
        return tuple(sorted(
            (min(v, p), max(v, p))
            for v, p in enumerate(self.parent, 1) if p is not None
        ))


def _roots(parent: tuple[int | None, ...], single_root: bool) -> list[int]:
    """Check that a parent map on [n] is a forest; return its roots in order.

    Climb from every node not yet stamped until a root or a node stamped by
    an earlier climb, which is known to reach a root; meeting the climb's
    own stamp means a cycle.  Each node is climbed through once.
    """
    n = len(parent)
    if single_root:
        count = parent.count(None)
        if not count:
            raise StructureError("no root")
        if count != 1:
            raise StructureError("expected exactly one root")
        roots = [parent.index(None) + 1]
    else:
        roots = [v for v, p in enumerate(parent, 1) if p is None]
        if not roots:
            raise StructureError("no root")
    for p in parent:
        if p is not None and not 1 <= p <= n:
            raise StructureError(f"parent {p} outside [1..{n}]")
    up = (None, *parent)  # up[v] is the parent of v
    stamp = [0] * (n + 1)
    for x in range(1, n + 1):
        if stamp[x]:
            continue
        v: int | None = x
        while v is not None and not stamp[v]:
            stamp[v] = x
            v = up[v]
        if v is not None and stamp[v] == x:
            raise StructureError("parent map has a cycle")
    return roots


def _climb(parent: Sequence[int | None], start: int) -> list[int]:
    """The path from start up to the root: the spine word, tail first."""
    spine = [start]
    while (p := parent[spine[-1] - 1]) is not None:
        spine.append(p)
    return spine


def _spine(parent: Sequence[int | None], start: int) -> tuple[list, list]:
    """Cut the path from start to the root open and read it as a permutation.

    Returns the parent map with every spine node made a root, and the
    pairs (u_t, w_t) of the sorted spine labels u with the spine word w.
    """
    spine = _climb(parent, start)
    cut = list(parent)
    for w in spine:
        cut[w - 1] = None
    return cut, list(zip(sorted(spine), spine))


def _link(parent: Sequence[int | None], spine: list[int]) -> tuple[int | None, ...]:
    """Chain the spine word w_1 -> ... -> w_s into a path; w_s is the root."""
    linked = list(parent)
    for w, nxt in zip(spine, spine[1:]):
        linked[w - 1] = nxt
    linked[spine[-1] - 1] = None
    return tuple(linked)


def endofunction_to_tree(f: Endofunction) -> DoublyRootedTree:
    """Cut the cycles of f open into a spine; trees hang where they were.

    The recurrent points u_1 < ... < u_s give the spine word
    w_t = f(u_t); the tail is w_1 and the head w_s.  The spine is linked
    into a copy of f as the word is read.
    """
    f = check_endofunction(f)
    if not f:
        raise StructureError("the empty endofunction has no tree counterpart")
    points = _cycles(f)[0]
    points.sort()
    parent: list[int | None] = list(f)
    tail = w = f[points[0] - 1]
    for u in points[1:]:
        nxt = f[u - 1]
        parent[w - 1] = nxt
        w = nxt
    parent[w - 1] = None
    return DoublyRootedTree(parent=tuple(parent), tail=tail)


def tree_to_endofunction(t: DoublyRootedTree) -> Endofunction:
    """Read the spine as a permutation of its sorted labels; hang the rest.

    A node off the spine maps to its parent, its neighbor toward the spine.
    One climb reads the spine, and one pass writes it over a copy of the
    parent map: every spine node is overwritten, the head included.
    """
    spine = _climb(t.parent, t.tail)
    f = list(t.parent)
    for u, w in zip(sorted(spine), spine):
        f[u - 1] = w
    return tuple(f)


# -- two-sort structures -----------------------------------------------------


def _check_forest(
    x_parent: tuple[int | None, ...],
    y_parent: tuple[int, ...],
    single_root: bool,
) -> list[int]:
    """Validate a forest of two-sort trees; return its roots in order.

    Every childless internal node must be a root: a node has a child when
    it is the parent of an internal node or a leaf.
    """
    roots = _roots(x_parent, single_root)
    i = len(x_parent)
    if y_parent and not (1 <= min(y_parent) and max(y_parent) <= i):
        for y, p in enumerate(y_parent, 1):  # name the first bad leaf
            if not 1 <= p <= i:
                raise StructureError(f"leaf {y} parent {p} outside [1..{i}]")
    bare = set(range(1, i + 1))
    bare.difference_update(x_parent, y_parent, roots)
    if bare:
        raise StructureError(
            f"non-root internal node {min(bare)} has no children"
        )
    return roots


class TwoSortTree(Record):
    """A rooted tree with internal nodes of sort X and leaves of sort Y.

    x_parent[t - 1] is the parent of internal node t (None at the root);
    y_parent[t - 1] is the parent of leaf t.  Every internal node other
    than a bare singleton root must have at least one child; leaves never
    have children by construction.
    """

    __slots__ = ("x_parent", "y_parent")

    def __init__(self, x_parent: tuple[int | None, ...], y_parent: tuple[int, ...]):
        if not x_parent:
            raise StructureError("a two-sort tree needs an internal root")
        # With one root and no cycle, the root is childless only when it
        # is bare (i = 1, j = 0), so the forest check covers every node.
        _check_forest(x_parent, y_parent, single_root=True)
        object.__setattr__(self, "x_parent", x_parent)
        object.__setattr__(self, "y_parent", y_parent)


class PointedLeafTree(Record):
    """A two-sort tree carrying one extra, distinguished leaf.

    The extra leaf is anonymous (it is the added element of a derivative in
    sort Y); only its attachment point matters.  It is validated as the last
    leaf of a two-sort tree, so it counts as a child and a bare root with
    just the extra leaf is valid.
    """

    __slots__ = ("x_parent", "y_parent", "star_parent")

    def __init__(
        self,
        x_parent: tuple[int | None, ...],
        y_parent: tuple[int, ...],
        star_parent: int,
    ):
        if not 1 <= star_parent <= len(x_parent):
            raise StructureError("the extra leaf must hang from an internal node")
        _check_forest(x_parent, (*y_parent, star_parent), single_root=True)
        object.__setattr__(self, "x_parent", x_parent)
        object.__setattr__(self, "y_parent", y_parent)
        object.__setattr__(self, "star_parent", star_parent)


class PermutedForest(Record):
    """A nonempty forest of two-sort trees plus a permutation of the roots.

    This is exactly a two-sort functional digraph whose recurrent part is a
    nonempty permutation: root_image lists (root, image) pairs sorted by
    root.  Roots may be bare (singleton trees); any other childless
    internal node is malformed.
    """

    __slots__ = ("x_parent", "y_parent", "root_image")

    def __init__(
        self,
        x_parent: tuple[int | None, ...],
        y_parent: tuple[int, ...],
        root_image: tuple[tuple[int, int], ...],
    ):
        roots = _check_forest(x_parent, y_parent, single_root=False)
        # Valid input is a tuple whose domain is the roots in ascending
        # order, so one comparison checks the domain and the order; a list
        # of pairs is unsorted, as it never equals the sorted tuple of them.
        dom = [r for r, _ in root_image]
        if sorted(v for _, v in root_image) != roots or (
            dom != roots and sorted(dom) != roots
        ):
            raise StructureError("root_image must permute the forest roots")
        if dom != roots or not isinstance(root_image, tuple):
            raise StructureError("root_image pairs must be sorted by root")
        object.__setattr__(self, "x_parent", x_parent)
        object.__setattr__(self, "y_parent", y_parent)
        object.__setattr__(self, "root_image", root_image)

    @property
    def roots(self) -> tuple[int, ...]:
        """The forest roots in ascending order: root_image's sorted domain."""
        return tuple(r for r, _ in self.root_image)


def pointed_tree_to_permuted_forest(t: PointedLeafTree) -> PermutedForest:
    """Cut the spine (extra leaf to root) and read it as a permutation."""
    x_parent, root_image = _spine(t.x_parent, t.star_parent)
    return PermutedForest(
        x_parent=tuple(x_parent), y_parent=t.y_parent, root_image=tuple(root_image)
    )


def permuted_forest_to_pointed_tree(p: PermutedForest) -> PointedLeafTree:
    """Inverse of the cut: rebuild the spine from the root permutation."""
    spine = [w for _, w in p.root_image]
    return PointedLeafTree(
        x_parent=_link(p.x_parent, spine), y_parent=p.y_parent, star_parent=spine[0]
    )


# -- exhaustive enumeration helpers ------------------------------------------


def doubly_rooted_trees(n: int) -> Iterator[DoublyRootedTree]:
    """All doubly-rooted trees on [n]; there are n^n of them."""
    for parent in rooted_parent_maps(n):
        for tail in range(1, n + 1):
            yield DoublyRootedTree(parent=parent, tail=tail)


def rooted_parent_maps(i: int) -> Iterator[tuple[int | None, ...]]:
    """All i^(i-1) rooted labeled trees on [i], as parent tuples.

    Each sequence in [i]^(i-1) is decoded as a rooted Pruefer code by
    _decode, in lexicographic order of the codes.
    """
    if i < 1:
        return
    for code in product(range(1, i + 1), repeat=i - 1):
        yield _decode(code, i)


def _decode(code: tuple[int, ...], i: int) -> tuple[int | None, ...]:
    """The rooted tree on [i] of a rooted Pruefer code of length i - 1.

    The smallest childless node other than the root is removed, and its
    parent is the next entry.  The last entry is the root.  The entries are
    the parents, so the nodes with children are exactly the distinct ones.
    """
    children = [0] * (i + 1)
    for v in code:
        children[v] += 1
    childless = [v for v in range(1, i + 1) if not children[v]]  # sorted: a heap
    parent: list[int | None] = [None] * (i + 1)
    for p in code:
        parent[heapq.heappop(childless)] = p
        children[p] -= 1
        if not children[p]:
            heapq.heappush(childless, p)
    return tuple(parent[1:])


def _two_sort_shapes(
    i: int, j: int
) -> Iterator[tuple[tuple[int | None, ...], tuple[int, ...]]]:
    """(skeleton, leaf parents) of every two-sort tree on [i], [j], in order.

    Skeletons come in rooted_parent_maps order and the leaf parents
    lexicographically within each.  Every childless internal node needs a
    leaf, save the root of a one-node skeleton, which may stay bare.  The
    childless nodes are read off the code, so a code with more than j of
    them is skipped before it is decoded.
    """
    if i < 1:
        return
    nodes = range(1, i + 1)
    for code in product(nodes, repeat=i - 1):
        bare = set(nodes).difference(code) if i > 1 else set()
        if len(bare) > j:
            continue
        skeleton = _decode(code, i)
        for attach in product(nodes, repeat=j):
            if bare.issubset(attach):
                yield skeleton, attach


def two_sort_trees(i: int, j: int) -> Iterator[TwoSortTree]:
    """All two-sort trees with internal nodes [i] and leaves [j]."""
    for skeleton, attach in _two_sort_shapes(i, j):
        yield TwoSortTree(x_parent=skeleton, y_parent=attach)


def pointed_leaf_trees(i: int, j: int) -> Iterator[PointedLeafTree]:
    """All derivative-in-Y structures: trees on [i], [j] plus the extra leaf.

    The extra leaf is the last leaf of a two-sort tree on [i], [j + 1].
    """
    for skeleton, attach in _two_sort_shapes(i, j + 1):
        yield PointedLeafTree(
            x_parent=skeleton, y_parent=attach[:-1], star_parent=attach[-1]
        )


# -- DOT export ----------------------------------------------------------------


def endofunction_dot(f: Endofunction) -> str:
    """The functional digraph in DOT: internal nodes filled, leaves white."""
    f = check_endofunction(f)
    n = len(f)
    image = set(f)
    lines = ["digraph endofunction {"]
    for v in range(1, n + 1):
        fill = "black" if v in image else "white"
        font = ", fontcolor=white" if v in image else ""
        lines.append(
            f'  {v} [shape=circle, style=filled, fillcolor={fill}{font}];'
        )
    for v in range(1, n + 1):
        lines.append(f"  {v} -> {f[v - 1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def doubly_rooted_tree_dot(t: DoublyRootedTree, filled: set[int]) -> str:
    """The doubly-rooted tree in DOT; tail and head get extra circles and
    the nodes in ``filled`` are drawn black."""
    head = t.head
    lines = ["graph spine_tree {"]
    for v in range(1, t.n + 1):
        fill = "black" if v in filled else "white"
        font = ", fontcolor=white" if v in filled else ""
        peripheries = 1 + (v == t.tail) + 2 * (v == head)
        lines.append(
            f'  {v} [shape=circle, style=filled, fillcolor={fill}'
            f", peripheries={peripheries}{font}];"
        )
    for a, b in t.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
