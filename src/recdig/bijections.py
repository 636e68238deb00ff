"""Executable spine bijections between trees and functional digraphs.

Every tree here is a parent map: entry v - 1 is the neighbor of v toward
the root, None at the root.  One private pair does the work.  _tree_to_map
takes a rooted tree with a distinguished tail: the path from the tail up
to the root (the spine, read tail first) is reinterpreted as a permutation
of its own sorted label set by the rank rule g(u_t) = w_t, where
u_1 < ... < u_s are the spine labels and w_1 ... w_s is the spine word;
every node off the spine maps to its parent.  _map_to_tree inverts it: it
links the cycles of a map back into the spine as it reads the sorted
recurrent points u_t, whose images w_t spell the spine word.

The unisort pair is that pair between doubly-rooted labeled trees (rooted
at the head, with a distinguished tail) and endofunctions: Joyal's spine
map.  The two-sort pair runs it on the internal nodes of a rooted two-sort
tree with the parent of one extra, distinguished leaf as the tail, and
carries the other leaves along.  Its image is a two-sort functional
digraph whose recurrent part is a permutation: a permutation of rooted
two-sort trees, whose roots are the recurrent points.

Every map is one pass over the structure up to sorting the spine.  Trees
are checked by _root in one pass (one climb per node, one childless set):
the oracle's _cycles took the n = 6 unisort round trips from 0.31-0.34 s to
0.37-0.38 s and the two-sort ones from 0.094-0.10 s to 0.12 s (best of 5,
interleaved; 2 vCPU Xeon, Python 3.11.7).  A permuted forest needs no
climb, as the recurrent part of every map is a permutation.  The two-sort
enumerators skip a Pruefer code with too many childless nodes before
decoding it.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Iterator, Sequence

from recdig._record import Record
from recdig.oracle import Endofunction, _cycles, check_endofunction


class StructureError(ValueError):
    """The input is not a well-formed tree structure."""


# -- the spine map -------------------------------------------------------------


def _tree_to_map(parent: Sequence[int | None], tail: int) -> tuple[int, ...]:
    """Read the spine as a permutation of its sorted labels; hang the rest.

    One climb reads the spine, and one pass writes it over a copy of the
    parent map: every spine node is overwritten, the root included.
    """
    spine = [tail]
    while (p := parent[spine[-1] - 1]) is not None:
        spine.append(p)
    f = list(parent)
    for u, w in zip(sorted(spine), spine):
        f[u - 1] = w
    return tuple(f)


def _map_to_tree(f: Sequence[int]) -> tuple[tuple[int | None, ...], int]:
    """(parent, tail) of a nonempty map: its cycles cut open into a spine.

    The recurrent points u_1 < ... < u_s give the spine word w_t = f(u_t);
    the tail is w_1 and the root w_s.  The spine is linked into a copy of f
    as the word is read.
    """
    points = _cycles(f)[0]
    points.sort()
    parent: list[int | None] = list(f)
    tail = w = f[points[0] - 1]
    for u in points[1:]:
        nxt = f[u - 1]
        parent[w - 1] = nxt
        w = nxt
    parent[w - 1] = None
    return tuple(parent), tail


def _root(parent: tuple[int | None, ...]) -> int:
    """Check that a parent map on [n] is a tree; return its root.

    Climb from every node not yet stamped until the root or a node stamped
    by an earlier climb, which is known to reach the root; meeting the
    climb's own stamp means a cycle.  Each node is climbed through once.
    """
    count = parent.count(None)
    if not count:
        raise StructureError("no root")
    if count != 1:
        raise StructureError("expected exactly one root")
    n = len(parent)
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
    return parent.index(None) + 1


def _check_range(values: tuple, nodes: set[int], entry: str) -> None:
    """Raise for the first value outside nodes = [1..i]; entry.format(k)
    names entry k, as in "leaf {} parent"."""
    if not nodes.issuperset(values):
        k, v = next((k, v) for k, v in enumerate(values, 1) if v not in nodes)
        raise StructureError(f"{entry.format(k)} {v} outside [1..{len(nodes)}]")


# -- unisort: doubly-rooted trees <-> endofunctions -------------------------


class DoublyRootedTree(Record):
    """A labeled tree on [n] with an ordered pair of distinguished nodes.

    parent[v - 1] is the neighbor of v toward the head, None at the head.
    """

    __slots__ = ("parent", "tail")

    def __init__(self, parent: tuple[int | None, ...], tail: int):
        _root(parent)
        if not 1 <= tail <= len(parent):
            raise StructureError("the tail must be a node of the tree")
        self._store(parent, tail)

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


def endofunction_to_tree(f: Endofunction) -> DoublyRootedTree:
    """Cut the cycles of f open into a spine; trees hang where they were."""
    f = check_endofunction(f)
    if not f:
        raise StructureError("the empty endofunction has no tree counterpart")
    parent, tail = _map_to_tree(f)
    return DoublyRootedTree(parent=parent, tail=tail)


def tree_to_endofunction(t: DoublyRootedTree) -> Endofunction:
    """Read the tail-to-head spine as a permutation; hang the rest."""
    return _tree_to_map(t.parent, t.tail)


# -- two-sort: pointed leaf trees <-> permuted forests -----------------------


def _check_two_sort(
    x_parent: tuple[int | None, ...], y_parent: tuple[int, ...]
) -> None:
    """Validate a two-sort tree.

    Every childless internal node but the root is malformed: a node has a
    child when it is the parent of an internal node or a leaf.  With one
    root and no cycle, the root is childless only when it is bare (i = 1,
    j = 0), so the check covers every node.
    """
    root = _root(x_parent)
    bare = set(range(1, len(x_parent) + 1))
    _check_range(y_parent, bare, "leaf {} parent")
    bare.difference_update(x_parent, y_parent)
    bare.discard(root)
    if bare:
        raise StructureError(
            f"non-root internal node {min(bare)} has no children"
        )


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
        _check_two_sort(x_parent, y_parent)
        self._store(x_parent, y_parent)


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
        _check_two_sort(x_parent, (*y_parent, star_parent))
        self._store(x_parent, y_parent, star_parent)


class PermutedForest(Record):
    """A nonempty permutation of two-sort trees, stored as its two-sort
    functional digraph.

    x_image[v - 1] is the image of internal node v: its parent, or, for a
    root, its image under the root permutation; y_parent[t - 1] is the
    parent of leaf t.  The roots are the recurrent points of x_image.  In
    order, the checks are: at least one internal node, every image and
    every leaf parent in [1..i], and every internal node the image of an
    internal node or a leaf (a root is, through its cycle, so only roots
    may be bare).
    """

    __slots__ = ("x_image", "y_parent")

    def __init__(self, x_image: tuple[int, ...], y_parent: tuple[int, ...]):
        i = len(x_image)
        if not i:
            raise StructureError("a permuted forest needs an internal node")
        bare = set(range(1, i + 1))
        _check_range(x_image, bare, "node {} image")
        _check_range(y_parent, bare, "leaf {} parent")
        bare.difference_update(x_image, y_parent)
        if bare:
            raise StructureError(f"internal node {min(bare)} has no preimage")
        self._store(x_image, y_parent)


def pointed_tree_to_permuted_forest(t: PointedLeafTree) -> PermutedForest:
    """Read the spine (extra leaf to root) as a permutation of its nodes."""
    return PermutedForest(_tree_to_map(t.x_parent, t.star_parent), t.y_parent)


def permuted_forest_to_pointed_tree(p: PermutedForest) -> PointedLeafTree:
    """Cut the cycles open into the spine; the extra leaf hangs at its tail."""
    x_parent, star_parent = _map_to_tree(p.x_image)
    return PointedLeafTree(x_parent, p.y_parent, star_parent)


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
    if j < 0:
        return
    for skeleton, attach in _two_sort_shapes(i, j + 1):
        yield PointedLeafTree(
            x_parent=skeleton, y_parent=attach[:-1], star_parent=attach[-1]
        )


# -- DOT export ----------------------------------------------------------------


def _dot_node(v: int, filled: bool, extra: str = "") -> str:
    """One node line: filled nodes black with white labels, others white;
    extra attributes go between the fill and the label colour."""
    fill, font = ("black", ", fontcolor=white") if filled else ("white", "")
    return f"  {v} [shape=circle, style=filled, fillcolor={fill}{extra}{font}];"


def endofunction_dot(f: Endofunction) -> str:
    """The functional digraph in DOT: internal nodes filled, leaves white."""
    f = check_endofunction(f)
    image = set(f)
    lines = ["digraph endofunction {"]
    lines += (_dot_node(v, v in image) for v in range(1, len(f) + 1))
    lines += (f"  {v} -> {w};" for v, w in enumerate(f, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def doubly_rooted_tree_dot(t: DoublyRootedTree, filled: set[int]) -> str:
    """The doubly-rooted tree in DOT; tail and head get extra circles and
    the nodes in ``filled`` are drawn black."""
    head = t.head
    lines = ["graph spine_tree {"]
    for v in range(1, t.n + 1):
        peripheries = 1 + (v == t.tail) + 2 * (v == head)
        lines.append(_dot_node(v, v in filled, f", peripheries={peripheries}"))
    lines += (f"  {a} -- {b};" for a, b in t.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
