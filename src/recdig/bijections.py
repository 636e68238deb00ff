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
node into the root of its own tree.  Both pairs share one spine cut and
one spine link, so each round trip is linear up to sorting the spine.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Iterator, Sequence

from recdig._record import Record
from recdig.oracle import Endofunction, check_endofunction, recurrent_points


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

    Climb from every node until a root or a node stamped by an earlier
    climb, which is known to reach a root; meeting the climb's own stamp
    means a cycle.  Each node is climbed through once.
    """
    n = len(parent)
    roots = [v for v, p in enumerate(parent, 1) if p is None]
    if not roots:
        raise StructureError("no root")
    if single_root and len(roots) != 1:
        raise StructureError("expected exactly one root")
    for p in parent:
        if p is not None and not 1 <= p <= n:
            raise StructureError(f"parent {p} outside [1..{n}]")
    stamp = [0] * (n + 1)
    for x in range(1, n + 1):
        v: int | None = x
        while v is not None and not stamp[v]:
            stamp[v] = x
            v = parent[v - 1]
        if v is not None and stamp[v] == x:
            raise StructureError("parent map has a cycle")
    return roots


def _spine(parent: Sequence[int | None], start: int) -> tuple[list, list]:
    """Cut the path from start to the root open and read it as a permutation.

    Returns the parent map with every spine node made a root, and the
    pairs (u_t, w_t) of the sorted spine labels u with the spine word w.
    """
    spine = [start]
    while (p := parent[spine[-1] - 1]) is not None:
        spine.append(p)
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
    w_t = f(u_t); the tail is w_1 and the head w_s.
    """
    f = check_endofunction(f)
    if not f:
        raise StructureError("the empty endofunction has no tree counterpart")
    spine = [f[u - 1] for u in sorted(recurrent_points(f))]
    return DoublyRootedTree(parent=_link(f, spine), tail=spine[0])


def tree_to_endofunction(t: DoublyRootedTree) -> Endofunction:
    """Read the spine as a permutation of its sorted labels; hang the rest.

    A node off the spine maps to its parent, its neighbor toward the spine.
    """
    f, pairs = _spine(t.parent, t.tail)
    for u, w in pairs:
        f[u - 1] = w
    return tuple(f)


# -- two-sort structures -----------------------------------------------------


def _check_forest(
    x_parent: tuple[int | None, ...],
    y_parent: tuple[int, ...],
    extra_children: set[int],
    single_root: bool,
) -> list[int]:
    """Validate a forest of two-sort trees; return its roots in order.

    Every childless internal node must be a root: a node has a child when
    it is the parent of an internal node or a leaf, or is in extra_children.
    """
    roots = _roots(x_parent, single_root)
    i = len(x_parent)
    for y, p in enumerate(y_parent):
        if not 1 <= p <= i:
            raise StructureError(f"leaf {y + 1} parent {p} outside [1..{i}]")
    bare = _childless(x_parent).difference(y_parent, extra_children, roots)
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
        _check_forest(x_parent, y_parent, extra_children=set(), single_root=True)
        object.__setattr__(self, "x_parent", x_parent)
        object.__setattr__(self, "y_parent", y_parent)


class PointedLeafTree(Record):
    """A two-sort tree carrying one extra, distinguished leaf.

    The extra leaf is anonymous (it is the added element of a derivative in
    sort Y); only its attachment point matters.  It counts as a child, so a
    bare root with just the extra leaf is valid.
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
        _check_forest(x_parent, y_parent, {star_parent}, single_root=True)
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
        roots = _check_forest(
            x_parent, y_parent, extra_children=set(), single_root=False
        )
        dom = sorted(r for r, _ in root_image)
        img = sorted(v for _, v in root_image)
        if dom != roots or img != roots:
            raise StructureError("root_image must permute the forest roots")
        if root_image != tuple(sorted(root_image)):
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


def _pruefer_edges(seq: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = (x for x in range(1, n + 1) if degree[x] == 1)
    edges.append((u, v))
    return tuple(sorted(edges))


def labeled_trees(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All n^(n-2) labeled trees on [n] as sorted edge tuples."""
    if n < 1:
        return
    if n == 1:
        yield ()
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        yield _pruefer_edges(seq, n)


def doubly_rooted_trees(n: int) -> Iterator[DoublyRootedTree]:
    """All doubly-rooted trees on [n]; there are n^n of them."""
    for parent in rooted_parent_maps(n):
        for tail in range(1, n + 1):
            yield DoublyRootedTree(parent=parent, tail=tail)


def rooted_parent_maps(i: int) -> Iterator[tuple[int | None, ...]]:
    """All i^(i-1) rooted labeled trees on [i], as parent tuples."""
    for edges in labeled_trees(i):
        adj: list[list[int]] = [[] for _ in range(i + 1)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        for root in range(1, i + 1):
            yield _parents(adj, root)


def _parents(adj: list[list[int]], root: int) -> tuple[int | None, ...]:
    """Depth-first search from root over the adjacency lists of [n].

    Entry v - 1 is the node from which v was reached, None at the root.
    """
    parent: list[int | None] = [0] * len(adj)
    parent[root] = None
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if parent[v] == 0:
                parent[v] = u
                stack.append(v)
    return tuple(parent[1:])


def two_sort_trees(i: int, j: int) -> Iterator[TwoSortTree]:
    """All two-sort trees with internal nodes [i] and leaves [j]."""
    if i == 0:
        return
    for skeleton in rooted_parent_maps(i):
        bare = _childless(skeleton)
        if len(bare) > j and not (i == 1 and j == 0):
            continue
        for attach in product(range(1, i + 1), repeat=j):
            if bare <= set(attach) or (i == 1 and j == 0):
                yield TwoSortTree(x_parent=skeleton, y_parent=attach)


def pointed_leaf_trees(i: int, j: int) -> Iterator[PointedLeafTree]:
    """All derivative-in-Y structures: trees on [i], [j] plus the extra leaf."""
    if i == 0:
        return
    for skeleton in rooted_parent_maps(i):
        bare = _childless(skeleton)
        if len(bare) > j + 1:
            continue
        for attach in product(range(1, i + 1), repeat=j):
            uncovered = bare - set(attach)
            if len(uncovered) > 1:
                continue
            for star in range(1, i + 1):
                if uncovered <= {star}:
                    yield PointedLeafTree(
                        x_parent=skeleton, y_parent=attach, star_parent=star
                    )


def _childless(skeleton: tuple[int | None, ...]) -> set[int]:
    return set(range(1, len(skeleton) + 1)).difference(skeleton)


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
