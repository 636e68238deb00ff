"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report with timings.
"""

import io
import time

from recdig import oracle, stats
from recdig.bijections import (
    endofunction_to_tree,
    permuted_forest_to_pointed_tree,
    pointed_leaf_trees,
    pointed_tree_to_permuted_forest,
    tree_to_endofunction,
)
from recdig.cli import main as cli_main
from recdig.digraphs import (
    bounded_arity_tree_table,
    cayley_count,
    digraph_count,
    digraph_table,
    digraph_table_with_branches,
    endofunction_count,
    perms_with_cycle_lengths_dividing,
    recurrent_structure_for_class,
)
from recdig.series import atom
from recdig.stirling import sdiff
from recdig.tables import compose_table, rooted_tree_table

SDIFF_TRIANGLES = {
    1: [
        [1],
        [1, 0],
        [1, 1, 0],
        [1, 3, 1, 0],
        [1, 7, 6, 1, 0],
        [1, 15, 25, 10, 1, 0],
        [1, 31, 90, 65, 15, 1, 0],
        [1, 63, 301, 350, 140, 21, 1, 0],
    ],
    2: [
        [0],
        [0, 1],
        [0, 2, 0],
        [0, 4, 2, 0],
        [0, 8, 10, 2, 0],
        [0, 16, 38, 18, 2, 0],
        [0, 32, 130, 110, 28, 2, 0],
        [0, 64, 422, 570, 250, 40, 2, 0],
    ],
    3: [
        [0],
        [0, 0],
        [0, 0, 1],
        [0, 0, 3, 0],
        [0, 0, 9, 3, 0],
        [0, 0, 27, 21, 3, 0],
        [0, 0, 81, 111, 36, 3, 0],
        [0, 0, 243, 525, 291, 54, 3, 0],
    ],
    4: [
        [0],
        [0, 0],
        [0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 4, 0],
        [0, 0, 0, 16, 4, 0],
        [0, 0, 0, 64, 36, 4, 0],
        [0, 0, 0, 256, 244, 60, 4, 0],
    ],
}

CAYLEY_DERANGEMENTS = [1, 0, 1, 4, 25, 184, 1617, 16492, 191721,
                       2503040, 36267393, 577560596]
CYCLES_OVER_CAYLEY = [0, 1, 4, 20, 126, 966, 8754, 91686, 1090578,
                      14528502, 214337874, 3469418646]
FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261]

REC_LABELS = ("S", "X", "E", "C", "Der")


def _report(criterion: int, started: float, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS ({time.time() - started:6.2f}s) {detail}")


def test_criterion_01_sdiff_triangles():
    t0 = time.time()
    for r, triangle in SDIFF_TRIANGLES.items():
        buf = io.StringIO()
        rc = cli_main(["table", "sdiff", "--r", str(r), "--nmax", "8"], out=buf)
        assert rc == 0
        cells = {}
        for line in buf.getvalue().strip().splitlines()[1:]:
            n, m, v = (int(x) for x in line.split(","))
            cells[(n, m)] = v
        for n in range(1, 9):
            for m in range(1, n + 1):
                assert cells[(n, m)] == triangle[n - 1][m - 1], (r, n, m)
                assert sdiff(n, m, r) == triangle[n - 1][m - 1], (r, n, m)
    assert time.time() - t0 < 1.0
    _report(1, t0, "all four printed sdiff triangles reproduced (r = 1..4, n <= 8)")


def test_criterion_02_cayley_derangement_sequence():
    t0 = time.time()
    got = [cayley_count(n, recurrent_structure_for_class("derangement", n))
           for n in range(12)]
    assert got == CAYLEY_DERANGEMENTS
    assert time.time() - t0 < 1.0
    _report(2, t0, f"fixed-point-free Cayley counts 0..11 = {got}")


def test_criterion_03_total_cycles_sequence():
    t0 = time.time()
    # A total of cycles is the count of the class S log S.
    got = [cayley_count(n, stats.component_weights(atom("S", n)))
           for n in range(12)]
    assert got == CYCLES_OVER_CAYLEY
    assert time.time() - t0 < 1.0
    _report(3, t0, "total cycles over Cayley permutations 0..11 exact")


def test_criterion_04_closed_forms():
    t0 = time.time()
    for n in range(11):
        assert endofunction_count(n, atom("S", n)) == n**n
        assert endofunction_count(n, atom("E", n)) == (n + 1) ** (n - 1)
        assert endofunction_count(n, atom("Der", n)) == (n - 1) ** n
        if n >= 1:
            assert endofunction_count(n, atom("X", n)) == n ** (n - 1)
    assert endofunction_count(0, atom("X", 0)) == 0
    assert time.time() - t0 < 1.0
    _report(4, t0, "n^n, n^(n-1), (n+1)^(n-1), (n-1)^n reproduced for n <= 10")


def _oracle_class_tables(n):
    class_names = ("all", "tree", "forest", "connected", "derangement")
    tables = {name: {} for name in class_names}
    preds = [(name, oracle.ClassPredicate(name)) for name in class_names]
    for f in oracle.enumerate_cayley(n):
        p = oracle.classify(f)
        key = (p.internal_count, p.leaf_count)
        for name, pred in preds:
            if pred.matches(f):
                tables[name][key] = tables[name].get(key, 0) + 1
    return tables


def test_criterion_05_triple_agreement():
    t0 = time.time()
    nmax = 7
    trees = rooted_tree_table(nmax)
    recs = {label: atom(label, nmax) for label in REC_LABELS}
    recursive = {label: digraph_table(recs[label], nmax) for label in REC_LABELS}
    composed = {label: compose_table(recs[label], trees) for label in REC_LABELS}
    by_class = {
        "S": "all", "X": "tree", "E": "forest", "C": "connected",
        "Der": "derangement",
    }
    for n in range(nmax + 1):
        oracle_tables = _oracle_class_tables(n)
        for label in REC_LABELS:
            brute = oracle_tables[by_class[label]]
            for i in range(n + 1):
                j = n - i
                formula = digraph_count(i, j, recs[label])
                assert recursive[label][i, j] == formula, (label, i, j)
                assert composed[label][i, j] == formula, (label, i, j)
                assert brute.get((i, j), 0) == formula, (label, i, j)
    _report(5, t0, "formula = recursion = composition = oracle for "
                   "R in {S, X, E, C, Der}, i + j <= 7")


def test_criterion_06_bijection_round_trips():
    t0 = time.time()
    for n in range(1, 7):
        distinct = set()
        for f in oracle.enumerate_endofunctions(n):
            t = endofunction_to_tree(f)
            assert tree_to_endofunction(t) == f
            distinct.add((t.edges, t.tail, t.head))
        assert len(distinct) == n**n
    splus = atom("S+", 7)
    for i in range(8):
        for j in range(8 - i):
            expected = digraph_count(i, j, splus)
            outputs = set()
            for t in pointed_leaf_trees(i, j):
                p = pointed_tree_to_permuted_forest(t)
                assert permuted_forest_to_pointed_tree(p) == t
                outputs.add(p)
            assert len(outputs) == expected, (i, j)
    assert time.time() - t0 < 120
    _report(6, t0, "spine bijections are exact inverses: all maps n <= 6, "
                   "all leaf-pointed trees i + j <= 7")


def test_criterion_07_order_sum_identities():
    t0 = time.time()
    for label in ("S", "Der"):
        checks = stats.identity_checks(atom(label, 9), 9)
        names = {c.identity for c in checks}
        assert names == {
            "ballot_block_sum",
            "ballot_integral_doubled",
            "segment_expansion",
            "segment_expansion_halved",
        }
        bad = [c for c in checks if not c.ok]
        assert not bad, bad[:5]
    assert time.time() - t0 < 10
    _report(7, t0, "ballot-sum, doubled-integral and both segment "
                   "expansions exact (r <= 6, n <= 9, R in {S, Der})")


def test_criterion_08_recurrent_totals_over_connected():
    t0 = time.time()
    # A total of recurrent points is the count of the pointed class.
    # Pointing kills the empty structure, so the identity is with nonempty
    # permutations: at n = 0 both totals are 0, from n = 1 on they agree
    # with the all-structure counts.
    assert cayley_count(0, atom("C", 0).pointing()) == 0
    assert endofunction_count(0, atom("C", 0).pointing()) == 0
    for n in range(1, 9):
        c = atom("C", n).pointing()
        assert cayley_count(n, c) == FUBINI[n]
        assert endofunction_count(n, c) == n**n
    _report(8, t0, "recurrent-point totals over connected structures equal "
                   "all-structure counts for 1 <= n <= 8")


def test_criterion_09_generalizations():
    t0 = time.time()
    nmax = 7

    # One oracle sweep per n: each map is tested for idempotent:2 and
    # indegree_bounded:2, and below nmax for f^3 = f and f^4 = f.
    idem_pred = oracle.ClassPredicate("idempotent", 2)
    indeg_pred = oracle.ClassPredicate("indegree_bounded", 2)
    brute_idem, brute_indeg, brute_power = [], [], {3: [], 4: []}
    for n in range(nmax + 1):
        idem = indeg = 0
        power = dict.fromkeys(brute_power, 0)
        for f in oracle.enumerate_endofunctions(n):
            idem += idem_pred.matches(f)
            indeg += indeg_pred.matches(f)
            if n < nmax:
                for k in power:
                    power[k] += oracle.compose_power(f, k) == f
        brute_idem.append(idem)
        brute_indeg.append(indeg)
        for k, c in power.items():
            brute_power[k].append(c)

    idem_diag = digraph_table_with_branches(
        atom("E", nmax), atom("1", nmax), nmax
    ).identify_sorts()
    bounded_diag = compose_table(
        atom("S", nmax), bounded_arity_tree_table(2, nmax)
    ).identify_sorts()
    for n in range(nmax + 1):
        assert idem_diag.counts[n] == brute_idem[n], n
        assert bounded_diag.counts[n] == brute_indeg[n], n

    # The iterate-period family: compare both divisor conventions with the
    # oracle.  Cycle lengths dividing k - 1 is the correct one; dividing k
    # disagrees already at n = 2.
    for k in (3, 4):
        winner_ok = True
        loser_breaks = False
        for n in range(nmax):
            counts = {}
            for d in (k, k - 1):
                rec = perms_with_cycle_lengths_dividing(d, n)
                table = digraph_table_with_branches(rec, atom("1", n), n)
                counts[d] = table.identify_sorts().counts[n]
            winner_ok &= counts[k - 1] == brute_power[k][n]
            loser_breaks |= counts[k] != brute_power[k][n]
        assert winner_ok, f"divisors of k-1 must match the oracle for k={k}"
        assert loser_breaks, f"divisors of k should disagree somewhere for k={k}"

    assert time.time() - t0 < 300
    _report(9, t0, "idempotents, arity-bounded digraphs and the "
                   "divisors-of-(k-1) convention all confirmed by the oracle")


def test_criterion_10_asymptotics_report():
    t0 = time.time()
    rows = stats.asymptotics_report(100)
    elapsed = time.time() - t0
    assert elapsed < 30
    cayder = {r.n: r for r in rows if r.statistic == "cayley_derangement_fraction"}
    assert set(cayder) == set(range(101))
    row11 = cayder[11]
    assert row11.numerator == 577560596 and row11.denominator == 1622632573
    ratio = row11.numerator / row11.denominator
    assert 0.35 < ratio < 0.36
    assert any(r.statistic == "avg_cycles_endofunctions" for r in rows)
    _report(10, t0, f"report to n = 100 in {elapsed:.2f}s; "
                    f"fixed-point-free fraction at n = 11 is {row11.ratio}")
