"""Brute-force ground truth over endofunctions and Cayley permutations.

An endofunction of [n] is stored as a plain tuple f with 1-based values:
f[v - 1] is the image of v.  A label of [n] is an object of type int
from 1 to n; a bool or a float such as 1.0 is none, even where it compares
equal to one.  `_bad_label` is the one test of that rule:
`check_endofunction` and every tree and map of `recdig.bijections` ask it,
and it names the first entry that fails, with its position.  Sizes follow
the same rule: `check_budget` takes an int, never a bool or a float.
Enumeration order is documented and deterministic, so streamed output is
reproducible:

* endofunctions: lexicographic over all n^n value tuples;
* Cayley permutations: ascending image size k, lexicographic within each k,
  generated constructively (never by filtering all n^n maps).

`MODELS` declares each model once, with its enumerator and its budget, the
largest n enumerated without override_budget: 8 for endofunctions (8^8 is
about 1.7e7) and 9 for Cayley permutations (7,087,261 maps).

Every map is visited.  Each class is declared once, in `CLASSES`, by a
rule that reads only what it needs: one scan for a fixed point, the image
size, or the cycles; `count` and `count_table` look the rule up once per
call.  One stamped walk per start node finds the cycles, which gives the
recurrent set and the cycle lengths in one linear pass; tree and forest
stop it as soon as their answer is known.  `classify` describes the
structure of a map (image, recurrent points, cycle lengths) and decides no
class; no count needs it.  Summed over a class, its fields check the
statistic totals, which the formulas give as the counts of weighting
classes (pointed R for recurrent points, R log R for cycles).
`enumerate_cayley` walks an explicit stack of prefixes and emits the
completions of each prefix as one block: a product, the permutations of
the missing values, or a memoized list of short tails.
On a 2 vCPU Xeon under Python 3.11.7, over the Cayley maps of [7], a class
test runs at 0.23M-0.30M maps/s (indegree_bounded:2, the slowest) to
1.0M-1.2M maps/s (derangement), tree and forest at 0.40M-0.66M, and
`classify` at 155k-170k maps/s; Cayley maps are enumerated at 3.8M maps/s
at n = 8.  Each range is two runs, and the machine's speed drifts by tens
of per cent; interleaved over the same maps (Cayley maps of [7],
endofunctions of [6]), the early stop takes tree and forest 0.83-0.96 of
the time of a full walk; stopping connected took 0.96-1.05, so it reads
every cycle.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from operator import ne
from sys import maxsize
from typing import Iterable, Iterator, NamedTuple

from recdig._record import Record

Endofunction = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """Requested size is beyond the configured enumeration budget."""


def _bad_label(values, n):
    """The 1-based position and the value of the first entry of the sequence
    values that is not a label of [1..n], or None when every entry is one.

    The loop reads entries only; a failing entry is then found again by
    identity, which gives its position, as an earlier entry that is the
    same object would have failed first.  Counting positions in the loop
    with enumerate took a call on six labels from 292 ns to 378 ns (timeit,
    2 vCPU Xeon, Python 3.11.7).
    """
    for v in values:
        if type(v) is not int or not 0 < v <= n:
            return next((k, w) for k, w in enumerate(values, 1) if w is v)


def check_endofunction(f: Iterable[int]) -> Endofunction:
    """Validate and normalize a value sequence into an endofunction tuple;
    a value that is not a label of [1..n] raises ValueError."""
    t = tuple(f)
    if bad := _bad_label(t, len(t)):
        raise ValueError(f"value {bad[1]} outside [1..{len(t)}]")
    return t


def check_budget(n: int, model: str, override_budget: bool) -> None:
    """Raise ValueError for an unknown model or a size that is not a
    nonnegative int (a bool is not one), and BudgetExceededError if
    enumerating size n would pass the model's budget."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if type(n) is not int or n < 0:
        raise ValueError(f"size must be nonnegative and of type int, got {n!r}")
    if n > MODELS[model][0] and not override_budget:
        raise BudgetExceededError(
            f"n={n} exceeds the {model} budget of {MODELS[model][0]}; "
            f"pass override_budget=True to force"
        )


def enumerate_endofunctions(
    n: int, override_budget: bool = False
) -> Iterator[Endofunction]:
    """All n^n maps of [n], lexicographically."""
    check_budget(n, "endofunctions", override_budget)
    return product(range(1, n + 1), repeat=n)


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
    short_tails = {}
    stack = [((), 0)]
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


# Each model, declared once, as name: (budget, enumerator).
MODELS = dict(endofunctions=(8, enumerate_endofunctions), cayley=(9, enumerate_cayley))


def enumerate_maps(
    n: int, model: str, override_budget: bool = False
) -> Iterator[Endofunction]:
    check_budget(n, model, override_budget)
    return MODELS[model][1](n, override_budget)


class DigraphProfile(NamedTuple):
    """The structure of one functional digraph; it decides no class.

    Internal nodes are exactly the image of f (positive indegree), leaves
    the rest.  Recurrent points are the nodes on cycles; each weakly
    connected component contains exactly one cycle.  A NamedTuple because
    classify builds one per map and a tuple is the cheapest record to
    build: a slotted class storing its four fields one by one took about
    twice as long (1.4 us against 0.65-0.70 us under timeit, 2 vCPU Xeon,
    Python 3.11.7).  Unlike those classes it equals a plain tuple of the
    same values; nothing compares it with one.
    """

    n: int
    image: frozenset[int]
    recurrent: frozenset[int]
    cycle_lengths: tuple[int, ...]

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


def _cycles(f: Endofunction, stop=()):
    """The recurrent points of f and its cycle lengths, as two lists, in one
    linear pass.

    A walk starts at each node not yet stamped and stamps every node it
    meets with its start until it reaches a stamped node.  If that node
    carries the walk's own stamp, the walk has closed a new cycle through
    it, which is then read once more for its points and its length.

    Given stop = (most, longest), the pass ends after the first cycle that
    makes more than most cycles or is longer than longest: the class tests
    that read only those facts stop there.  An empty stop reads every cycle.
    """
    succ = (0, *f)
    stamp = [0] * len(succ)
    points = []
    lengths = []
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
            if stop and (len(lengths) > stop[0] or lengths[-1] > stop[1]):
                break
    return points, lengths


def classify(f: Endofunction) -> DigraphProfile:
    """The structure of a functional digraph; depends only on the value
    tuple.  Class membership is decided by ClassPredicate.matches alone."""
    points, lengths = _cycles(f)
    return DigraphProfile(
        len(f), frozenset(f), frozenset(points), tuple(sorted(lengths))
    )


def compose_power(f: Endofunction, k: int) -> Endofunction:
    """The k-fold composition of f with itself (k >= 1), by repeated
    squaring: O(n log k) steps."""
    if k < 1:
        raise ValueError("composition power must be at least 1")
    g = f
    for bit in bin(k)[3:]:  # the bits of k after the leading 1
        g = tuple(g[v - 1] for v in g)
        if bit == "1":
            g = tuple(f[v - 1] for v in g)
    return g


def _indegree_bounded(f, k, walk):
    # Every node has at most k children; a recurrent point's in-edge from
    # its cycle is not a child edge.
    indeg = [0] * (len(f) + 1)
    for v in f:
        indeg[v] += 1
    for u in walk[0]:
        indeg[u] -= 1
    return max(indeg) <= k


# Every digraph class, declared once, as name: (least, stop, rule).
# * least: the smallest k of a class that takes one (idempotent:k,
#   indegree_bounded:k); None for a class that takes no parameter.
# * stop: the stop rule (most, longest) of the `_cycles` walk the class
#   reads.  Tree and forest know their answer at the second cycle or at the
#   first cycle longer than 1; () reads every cycle; None marks a class
#   that reads no cycles.
# * rule(f, k, walk): the one rule of membership.  walk is the (points,
#   lengths) of that walk, or a false value for a class that reads none.
CLASSES = {
    "all": (None, None, lambda *_: True),
    # The image is exactly [k] for some k.
    "cayley": (None, None, lambda f, k, walk: max(f, default=0) == len(set(f))),
    "tree": (None, (1, 1), lambda f, k, walk: walk[1] == [1]),
    # As many recurrent points as cycles: every cycle is a fixed point.
    "forest": (None, (maxsize, 1), lambda f, k, walk: len(walk[0]) == len(walk[1])),
    "connected": (None, (), lambda f, k, walk: len(walk[1]) == 1),
    "derangement": (
        None, None, lambda f, k, walk: all(map(ne, f, range(1, len(f) + 1)))
    ),
    "idempotent": (2, None, lambda f, k, walk: compose_power(f, k) == f),
    "indegree_bounded": (1, (), _indegree_bounded),
}


class ClassPredicate(Record):
    """A named digraph class, with the k of idempotent:k or indegree_bounded:k.

    k must be an int (not a bool) at least the class's least parameter;
    anything else raises ValueError.
    """

    __slots__ = ("name", "param")

    def __init__(self, name: str, param: int | None = None):
        if name not in CLASSES:
            raise ValueError(f"unknown class {name!r}")
        least = CLASSES[name][0]
        if least is None:
            if param is not None:
                raise ValueError(f"class {name} takes no parameter")
        elif type(param) is not int or param < least:
            raise ValueError(f"{name} class needs a parameter k >= {least}")
        self._store(name, param)

    def matches(self, f: Endofunction, profile=None) -> bool:
        """Whether f is in the class, decided from f alone by the class's
        rule in CLASSES; a class that reads cycles walks f under its own
        stop rule.  profile is accepted for callers that pass classify(f)
        and never read.
        """
        _, stop, rule = CLASSES[self.name]
        return rule(f, self.param, stop is not None and _cycles(f, stop))


def parse_class(text: str) -> ClassPredicate:
    """Parse "forest", "idempotent:3", "indegree_bounded:2", ..."""
    name, colon, param = text.partition(":")
    try:
        # An unknown name is left to ClassPredicate, which names it.
        k = int(param) if colon and name in CLASSES else None
    except ValueError:
        raise ValueError(f"class {name}: {param!r} is not an integer") from None
    return ClassPredicate(name, k)


def count(
    n: int,
    model: str,
    predicate: ClassPredicate,
    override_budget: bool = False,
) -> int:
    """Exact count of maps in the class, by exhaustive enumeration.

    The class's rule in CLASSES, looked up once, decides each map from f
    and reads only what the class needs; no map is classified.
    """
    maps = enumerate_maps(n, model, override_budget)
    if predicate.name == "all":
        return sum(1 for _ in maps)
    _, stop, rule = CLASSES[predicate.name]
    k = predicate.param
    return sum(rule(f, k, stop is not None and _cycles(f, stop)) for f in maps)


def count_table(
    n: int,
    model: str,
    predicate: ClassPredicate,
    by: str = "ij",
    override_budget: bool = False,
) -> dict[tuple[int, ...], int]:
    """Counts bucketed by (internal, leaves) or (internal, leaves, recurrent).

    Only nonzero buckets appear in the result.  Over the cayley model with
    keys (i, j) this is the independent check of every digraph table.  As in
    `count`, the class's rule decides each map from f; a map in it is keyed
    by its image size and, for "ijr", by its number of recurrent points,
    never by a classify profile.  By "ijr" each map is walked at most once:
    a class that reads cycles walks under its own stop rule, which never
    trips on a member, so the walk also gives the recurrent count, and any
    other class has its members walked after the test.
    """
    ijr = by == "ijr"
    if not ijr and by != "ij":
        raise ValueError("by must be 'ij' or 'ijr'")
    _, stop, rule = CLASSES[predicate.name]
    k = predicate.param
    table = {}
    for f in enumerate_maps(n, model, override_budget):
        walk = stop is not None and _cycles(f, stop)
        if rule(f, k, walk):
            i = len(set(f))
            key = (i, n - i, len((walk or _cycles(f))[0])) if ijr else (i, n - i)
            table[key] = table.get(key, 0) + 1
    return table
