"""Brute-force ground truth over endofunctions and Cayley permutations.

An endofunction of [n] is stored as a plain tuple f with 1-based values:
f[v - 1] is the image of v.  Enumeration order is documented and
deterministic, so streamed output is reproducible:

* endofunctions: lexicographic over all n^n value tuples;
* Cayley permutations: ascending image size k, lexicographic within each k,
  generated constructively (never by filtering all n^n maps).

Default size budgets keep runs at desk scale: n <= 8 for endofunctions
(8^8 is about 1.7e7) and n <= 9 for Cayley permutations (7,087,261 maps).

Every map is visited and classified, and each costs little.
`classify` finds the cycles with one stamped walk per start node, which
gives the recurrent set and the cycle lengths in one linear pass.
`enumerate_cayley` walks an explicit stack of prefixes and emits the
completions of each prefix as one block: a product, the permutations of
the missing values, or a memoized list of short tails.
On a 2 vCPU Xeon under Python 3.11.7 that is 97k-117k classified maps/s
(Cayley maps of [7], with a class test) and 3.9M-4.3M enumerated Cayley
maps/s at n = 8, in two runs.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from typing import Iterable, Iterator, NamedTuple

from recdig._record import Record

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


def _surjection_blocks(n: int, k: int) -> Iterator[Iterator[Endofunction]]:
    """The surjections [n] -> [k] in lexicographic order, one block per prefix.

    An explicit stack of (head, mask) prefixes is walked depth first; mask
    has bit v - 1 set when v is in head.  A prefix emits all its completions
    at once when one rule gives them: a plain product once every value has
    appeared, the permutations of the missing values when each remaining
    position must introduce one, and for the last three positions or fewer
    a tail list memoized per (remaining, mask).  Each block is the sorted
    set of completions of its prefix, and prefixes pop in lexicographic
    order, so the whole stream stays sorted.
    """
    values = range(1, k + 1)
    short_tails: dict[tuple[int, int], list[Endofunction]] = {}
    stack: list[tuple[Endofunction, int]] = [((), 0)]
    while stack:
        head, mask = stack.pop()
        remaining = n - len(head)
        missing = k - mask.bit_count()
        if missing == 0:
            yield map(head.__add__, product(values, repeat=remaining))
        elif missing == remaining:
            todo = [v for v in values if not mask >> (v - 1) & 1]
            yield map(head.__add__, permutations(todo))
        elif remaining <= 3:
            tails = short_tails.get((remaining, mask))
            if tails is None:
                todo = {v for v in values if not mask >> (v - 1) & 1}
                tails = short_tails[remaining, mask] = [
                    t for t in product(values, repeat=remaining)
                    if todo.issubset(t)
                ]
            yield map(head.__add__, tails)
        else:
            # Pushed in descending order, so the smallest value pops first.
            for v in reversed(values):
                stack.append((head + (v,), mask | 1 << (v - 1)))


def enumerate_cayley(n: int, override_budget: bool = False) -> Iterator[Endofunction]:
    """All Cayley permutations of [n]: maps with image exactly [k], some k."""
    check_budget(n, "cayley", override_budget)
    # k = 0 gives the empty map when n = 0 and nothing otherwise.
    blocks = (block for k in range(n + 1) for block in _surjection_blocks(n, k))
    return chain.from_iterable(blocks)


def enumerate_maps(
    n: int, model: str, override_budget: bool = False
) -> Iterator[Endofunction]:
    if model == "endofunctions":
        return enumerate_endofunctions(n, override_budget)
    if model == "cayley":
        return enumerate_cayley(n, override_budget)
    raise ValueError(f"unknown model {model!r}")


class DigraphProfile(NamedTuple):
    """Classification of one functional digraph.

    Internal nodes are exactly the image of f (positive indegree), leaves
    the rest.  Recurrent points are the nodes on cycles; each weakly
    connected component contains exactly one cycle.  A NamedTuple because
    classify builds one per map and a tuple is the cheapest record to
    build: a slotted class storing seven fields one by one takes several
    times as long.  Unlike those classes it equals a plain tuple of the same
    values; nothing compares it with one.
    """

    n: int
    image: frozenset[int]
    recurrent: frozenset[int]
    cycle_lengths: tuple[int, ...]
    max_indegree_recurrent: int
    max_indegree_nonrecurrent: int
    is_cayley: bool

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
        return 1 not in self.cycle_lengths


def _cycles(f: Endofunction) -> tuple[list[int], list[int]]:
    """The recurrent points of f and its cycle lengths, in one linear pass.

    A walk starts at each node not yet stamped and stamps every node it
    meets with its start until it reaches a stamped node.  If that node
    carries the walk's own stamp, the walk has closed a new cycle through
    it, which is then read once more for its points and its length.
    """
    succ = (0, *f)
    stamp = [0] * len(succ)
    points: list[int] = []
    lengths: list[int] = []
    for start in range(1, len(succ)):
        if stamp[start]:
            continue
        v = start
        while not stamp[v]:
            stamp[v] = start
            v = succ[v]
        if stamp[v] == start:
            first = len(points)
            u = v
            while True:
                points.append(u)
                u = succ[u]
                if u == v:
                    break
            lengths.append(len(points) - first)
    return points, lengths


def recurrent_points(f: Endofunction) -> frozenset[int]:
    """The nodes on the cycles of f, from the stamped walk of `classify`.

    `classify` and the spine bijections share this routine.  That keeps the
    routes independent: the oracle's counts are checked against the closed
    form and the table recursion, and the bijections by their own round
    trips and by the tree counts the closed form gives.
    """
    return frozenset(_cycles(f)[0])


def classify(f: Endofunction) -> DigraphProfile:
    """Classify a functional digraph; depends only on the value tuple."""
    n = len(f)
    image = frozenset(f)
    points, lengths = _cycles(f)
    lengths.sort()
    indeg = [0] * (n + 1)
    for v in f:
        indeg[v] += 1
    max_rec = 0
    for u in points:
        if indeg[u] > max_rec:
            max_rec = indeg[u]
        indeg[u] = 0  # what is left are the nonrecurrent indegrees
    return DigraphProfile(
        n,
        image,
        frozenset(points),
        tuple(lengths),
        max_rec,
        max(indeg),
        max(f, default=0) == len(image),
    )


def compose_power(f: Endofunction, k: int) -> Endofunction:
    """The k-fold composition of f with itself (k >= 1)."""
    if k < 1:
        raise ValueError("composition power must be at least 1")
    g = f
    for _ in range(k - 1):
        g = tuple(f[v - 1] for v in g)
    return g


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
# The least parameter k of each class that takes one; the others take none.
CLASS_PARAM_MIN = {"idempotent": 2, "indegree_bounded": 1}


class ClassPredicate(Record):
    """A named digraph class, with the k of idempotent:k or indegree_bounded:k."""

    __slots__ = ("name", "param")

    def __init__(self, name: str, param: int | None = None):
        if name not in CLASS_NAMES:
            raise ValueError(f"unknown class {name!r}")
        least = CLASS_PARAM_MIN.get(name)
        if least is None:
            if param is not None:
                raise ValueError(f"class {name} takes no parameter")
        elif param is None or param < least:
            raise ValueError(f"{name} class needs a parameter k >= {least}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "param", param)

    def matches(self, f: Endofunction, profile: DigraphProfile | None) -> bool:
        """Whether f is in the class; profile is classify(f), or None for
        all and idempotent, which never read it."""
        if self.name == "all":
            return True
        if self.name == "idempotent":
            return compose_power(f, self.param) == f
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
    name, colon, param = text.partition(":")
    return ClassPredicate(name, int(param) if colon else None)


def count(
    n: int,
    model: str,
    predicate: ClassPredicate,
    override_budget: bool = False,
) -> int:
    """Exact count of maps in the class, by exhaustive enumeration."""
    maps = enumerate_maps(n, model, override_budget)
    if predicate.name == "all":
        return sum(1 for _ in maps)
    if predicate.name == "idempotent":
        return sum(predicate.matches(f, None) for f in maps)
    return sum(predicate.matches(f, classify(f)) for f in maps)


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
