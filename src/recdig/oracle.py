"""Brute-force ground truth over endofunctions and Cayley permutations.

An endofunction of [n] is stored as a plain tuple f with 1-based values:
f[v - 1] is the image of v.  Enumeration order is documented and
deterministic, so streamed output is reproducible:

* endofunctions: lexicographic over all n^n value tuples;
* Cayley permutations: ascending image size k, lexicographic within each k,
  generated constructively (never by filtering all n^n maps).

Default size budgets keep runs at desk scale: n <= 8 for endofunctions
(8^8 is about 1.7e7) and n <= 9 for Cayley permutations (7,087,261 maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Iterator

Endofunction = tuple[int, ...]

BUDGET_ENDOFUNCTIONS = 8
BUDGET_CAYLEY = 9

MODELS = ("endofunctions", "cayley")


class BudgetExceededError(RuntimeError):
    """Requested size is beyond the configured enumeration budget."""


def check_endofunction(f: Iterable[int]) -> Endofunction:
    """Validate and normalize a value sequence into an endofunction tuple."""
    t = tuple(f)
    n = len(t)
    for v in t:
        if not 1 <= v <= n:
            raise ValueError(f"value {v} outside [1..{n}]")
    return t


def check_budget(n: int, model: str, override_budget: bool) -> None:
    """Raise BudgetExceededError if enumerating size n would pass the budget."""
    limit = BUDGET_ENDOFUNCTIONS if model == "endofunctions" else BUDGET_CAYLEY
    if n > limit and not override_budget:
        raise BudgetExceededError(
            f"n={n} exceeds the {model} budget of {limit}; "
            f"pass override_budget=True to force"
        )


def enumerate_endofunctions(
    n: int, override_budget: bool = False
) -> Iterator[Endofunction]:
    """All n^n maps of [n], lexicographically."""
    check_budget(n, "endofunctions", override_budget)
    return iter(product(range(1, n + 1), repeat=n))


def _surjections_lex(n: int, k: int) -> Iterator[Endofunction]:
    """All maps [n] -> [k] with full image [k], lexicographically.

    Depth-first over positions with two bulk cutoffs: once every value has
    appeared any completion works (a plain product), and once the remaining
    positions must each introduce a missing value the completions are the
    permutations of the missing set.  Both cutoffs emit in lexicographic
    order, so the whole stream stays sorted.
    """
    values = range(1, k + 1)
    buf = [0] * n

    def rec(pos: int, mask: int, missing: int) -> Iterator[Endofunction]:
        remaining = n - pos
        if missing > remaining:
            return
        head = tuple(buf[:pos])
        if missing == 0:
            if remaining == 0:
                yield head
            else:
                for tail in product(values, repeat=remaining):
                    yield head + tail
            return
        if missing == remaining:
            todo = [v for v in values if not (mask >> (v - 1)) & 1]
            for tail in permutations(todo):
                yield head + tail
            return
        for v in values:
            bit = 1 << (v - 1)
            buf[pos] = v
            if mask & bit:
                yield from rec(pos + 1, mask, missing)
            else:
                yield from rec(pos + 1, mask | bit, missing - 1)

    return rec(0, 0, k)


def enumerate_cayley(n: int, override_budget: bool = False) -> Iterator[Endofunction]:
    """All Cayley permutations of [n]: maps with image exactly [k], some k."""
    check_budget(n, "cayley", override_budget)

    def gen():
        if n == 0:
            yield ()
            return
        for k in range(1, n + 1):
            yield from _surjections_lex(n, k)

    return gen()


def enumerate_maps(
    n: int, model: str, override_budget: bool = False
) -> Iterator[Endofunction]:
    if model == "endofunctions":
        return enumerate_endofunctions(n, override_budget)
    if model == "cayley":
        return enumerate_cayley(n, override_budget)
    raise ValueError(f"unknown model {model!r}")


@dataclass(frozen=True)
class DigraphProfile:
    """Classification of one functional digraph.

    Internal nodes are exactly the image of f (positive indegree), leaves
    the rest.  Recurrent points are the nodes on cycles; each weakly
    connected component contains exactly one cycle.
    """

    n: int
    image: frozenset[int]
    recurrent: frozenset[int]
    cycle_lengths: tuple[int, ...]
    fixed_point_count: int
    max_indegree_recurrent: int
    max_indegree_nonrecurrent: int
    is_cayley: bool

    @property
    def image_size(self) -> int:
        return len(self.image)

    @property
    def internal_count(self) -> int:
        return len(self.image)

    @property
    def leaf_count(self) -> int:
        return self.n - len(self.image)

    @property
    def recurrent_count(self) -> int:
        return len(self.recurrent)

    @property
    def component_count(self) -> int:
        return len(self.cycle_lengths)

    @property
    def is_connected(self) -> bool:
        return len(self.cycle_lengths) == 1

    @property
    def is_forest(self) -> bool:
        return all(c == 1 for c in self.cycle_lengths)

    @property
    def is_tree(self) -> bool:
        return self.is_connected and self.is_forest

    @property
    def is_derangement(self) -> bool:
        return self.fixed_point_count == 0


def recurrent_points(f: Endofunction) -> frozenset[int]:
    """The nodes on the cycles of f: the stable set of the iterated image.

    `classify` and the spine bijections share this routine.  That keeps the
    routes independent: the oracle's counts are checked against the closed
    form and the table recursion, and the bijections by their own round
    trips and by the tree counts the closed form gives.
    """
    current = set(range(1, len(f) + 1))
    while True:
        nxt = {f[u - 1] for u in current}
        if nxt == current:
            return frozenset(current)
        current = nxt


def classify(f: Endofunction) -> DigraphProfile:
    """Classify a functional digraph; depends only on the value tuple."""
    n = len(f)
    indeg = [0] * (n + 1)
    for v in f:
        indeg[v] += 1
    image = frozenset(v for v in range(1, n + 1) if indeg[v])
    k = len(image)
    is_cayley = all(indeg[v] for v in range(1, k + 1))

    recurrent = recurrent_points(f)

    lengths = []
    seen: set[int] = set()
    for u in sorted(recurrent):
        if u in seen:
            continue
        length = 0
        v = u
        while v not in seen:
            seen.add(v)
            v = f[v - 1]
            length += 1
        lengths.append(length)
    lengths.sort()

    max_rec = max((indeg[v] for v in recurrent), default=0)
    max_non = max(
        (indeg[v] for v in range(1, n + 1) if v not in recurrent), default=0
    )
    return DigraphProfile(
        n=n,
        image=image,
        recurrent=recurrent,
        cycle_lengths=tuple(lengths),
        fixed_point_count=sum(1 for c in lengths if c == 1),
        max_indegree_recurrent=max_rec,
        max_indegree_nonrecurrent=max_non,
        is_cayley=is_cayley,
    )


def compose_power(f: Endofunction, k: int) -> Endofunction:
    """The k-fold composition of f with itself (k >= 1)."""
    if k < 1:
        raise ValueError("composition power must be at least 1")
    g = f
    for _ in range(k - 1):
        g = tuple(f[v - 1] for v in g)
    return g


def idempotency_order(f: Endofunction, kmax: int) -> int | None:
    """Least k in [2..kmax] with the k-fold composite equal to f, if any."""
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    g = f
    for k in range(2, kmax + 1):
        g = tuple(f[v - 1] for v in g)
        if g == f:
            return k
    return None


CLASS_NAMES = (
    "all",
    "cayley",
    "tree",
    "forest",
    "connected",
    "derangement",
    "idempotent",
    "indegree_bounded",
)


@dataclass(frozen=True)
class ClassPredicate:
    """A named digraph class, optionally pinned to exact (i, j, r) counts."""

    name: str
    param: int | None = None
    i: int | None = None
    j: int | None = None
    r: int | None = None

    def __post_init__(self):
        if self.name not in CLASS_NAMES:
            raise ValueError(f"unknown class {self.name!r}")
        if self.name == "idempotent" and (self.param is None or self.param < 2):
            raise ValueError("idempotent class needs a parameter k >= 2")
        if self.name == "indegree_bounded" and (
            self.param is None or self.param < 1
        ):
            raise ValueError("indegree_bounded class needs a parameter k >= 1")
        for v in (self.i, self.j, self.r):
            if v is not None and v < 0:
                raise ValueError("i/j/r constraints must be nonnegative")

    @property
    def needs_profile(self) -> bool:
        if self.name in ("all", "idempotent"):
            return not (self.i is None and self.j is None and self.r is None)
        return True

    def matches(self, f: Endofunction, profile: DigraphProfile | None) -> bool:
        if self.name == "idempotent":
            if compose_power(f, self.param) != f:
                return False
        if profile is None:
            if not self.needs_profile:
                return True  # only unconstrained all/idempotent get here
            profile = classify(f)
        if self.i is not None and profile.internal_count != self.i:
            return False
        if self.j is not None and profile.leaf_count != self.j:
            return False
        if self.r is not None and profile.recurrent_count != self.r:
            return False
        if self.name in ("all", "idempotent"):
            return True
        if self.name == "cayley":
            return profile.is_cayley
        if self.name == "tree":
            return profile.is_tree
        if self.name == "forest":
            return profile.is_forest
        if self.name == "connected":
            return profile.is_connected
        if self.name == "derangement":
            return profile.is_derangement
        if self.name == "indegree_bounded":
            return (
                profile.max_indegree_recurrent <= self.param + 1
                and profile.max_indegree_nonrecurrent <= self.param
            )
        raise AssertionError(self.name)


def parse_class(text: str) -> ClassPredicate:
    """Parse "forest", "idempotent:3", "indegree_bounded:2", ..."""
    name, _, param = text.partition(":")
    return ClassPredicate(name, int(param) if param else None)


def count(
    n: int,
    model: str,
    predicate: ClassPredicate,
    override_budget: bool = False,
) -> int:
    """Exact count of maps in the class, by exhaustive enumeration."""
    total = 0
    needs_profile = predicate.needs_profile
    for f in enumerate_maps(n, model, override_budget):
        profile = classify(f) if needs_profile else None
        if predicate.matches(f, profile):
            total += 1
    return total


def count_table(
    n: int,
    model: str,
    predicate: ClassPredicate,
    by: str = "ij",
    override_budget: bool = False,
) -> dict[tuple[int, ...], int]:
    """Counts bucketed by (internal, leaves) or (internal, leaves, recurrent).

    Only nonzero buckets appear in the result.  Over the cayley model with
    keys (i, j) this is the independent check of every digraph table.
    """
    if by not in ("ij", "ijr"):
        raise ValueError("by must be 'ij' or 'ijr'")
    table: dict[tuple[int, ...], int] = {}
    for f in enumerate_maps(n, model, override_budget):
        profile = classify(f)
        if not predicate.matches(f, profile):
            continue
        i = profile.internal_count
        key = (i, n - i) if by == "ij" else (i, n - i, profile.recurrent_count)
        table[key] = table.get(key, 0) + 1
    return table
