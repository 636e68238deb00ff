"""Direct per-layer probes, run in one cold interpreter.

    python3 bench/probes.py [full|tiny]

Prints one JSON object of per-layer metrics.  Times are direct
``perf_counter`` readings of one layer's public calls, with no wrappers
installed, at the sizes the workloads run them (``workloads.SIZES``); the
counts, and the metrics defined by span structure (``cli.self_s``,
``tables.solve_*``), come from short sections run under ``tracer.Tracer``.
Every count repeats exactly from run to run.
"""

from __future__ import annotations

import io
import sys
from time import perf_counter

import op
from tracer import Tracer
from workloads import SIZES


def timed(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def probe(scale: str) -> dict[str, float]:
    s = SIZES[scale]
    m: dict[str, float] = {}

    m["import.recdig_s"], _ = timed(lambda: __import__("recdig.cli"))
    from recdig import cli, digraphs, oracle, stats, stirling, tables
    from recdig.series import atom

    # stirling: a cold-cache sweep over every n of the longest seq command.
    stirling.sdiff.cache_clear()
    n = s["cayder"]
    m["stirling.sdiff_sweep_s"], _ = timed(lambda: [
        stirling.sdiff(k, i, r)
        for k in range(n + 1) for i in range(k + 1) for r in range(k + 1)
    ])
    info = stirling.sdiff.cache_info()
    m["stirling.sdiff_cache_entries"] = info.currsize
    m["stirling.sdiff_hit_ratio"] = info.hits / (info.hits + info.misses)
    m["stirling.levels_s"], _ = timed(
        lambda: sum(1 for _ in stirling.iter_sdiff_levels(s["report"]))
    )

    # digraphs: the closed-form totals over the now-warm sdiff cache.
    n = s["forest"]
    perms = atom("S", n)
    m["digraphs.cayley_count_s"], _ = timed(
        lambda: [digraphs.cayley_count(k, perms) for k in range(n + 1)]
    )
    n = s["connected"]
    perms = atom("S", n)
    m["digraphs.endofunction_count_s"], _ = timed(
        lambda: [digraphs.endofunction_count(k, perms) for k in range(n + 1)]
    )
    n = s["merges"]
    m["digraphs.digraph_table_s"], table = timed(
        lambda: digraphs.digraph_table(atom("S", n), n)
    )
    n = s["branches"]
    m["digraphs.branches_table_s"], _ = timed(
        lambda: digraphs.digraph_table_with_branches(atom("S", n), atom("L", n), n)
    )

    # series: substitution, product and logarithm of unisort sequences.
    n = s["compose"]
    lin, sets = atom("L", n), atom("E", n).positive_part()
    m["series.compose_s"], _ = timed(lambda: lin.compose(sets))
    perms = atom("S", s["mul"])
    m["series.mul_s"], _ = timed(lambda: perms * perms)
    perms = atom("S", s["log"])
    m["series.log_s"], _ = timed(perms.log)

    # tables: the tree solver (traced, for its structure), then one
    # composition, one product and the two sort merges.
    n = s["trees"]
    with Tracer() as tr:
        trees = tables.rooted_tree_table(n)
    solve = next(sp for sp in tr.spans if sp[1] == "tables.solve_tree_equation")
    m["tables.solve_tree_s"] = solve[3] - solve[2]
    m["tables.solve_rounds"] = sum(
        1 for sp in tr.spans if sp[4] == solve[0] and sp[1] == "tables.CoeffTable.__mul__"
    )
    m["tables.compose_table_calls"] = tr.calls("tables.compose_table")
    m["tables.compose_table_s"], _ = timed(
        lambda: tables.compose_table(atom("S", n), trees)
    )
    m["tables.mul_s"], _ = timed(lambda: trees * trees)
    m["tables.identify_sorts_s"], _ = timed(table.identify_sorts)
    m["tables.concat_sorts_s"], _ = timed(table.concat_sorts)

    # oracle: enumeration and classification rates, and the useful share.
    elapsed, visited = timed(
        lambda: sum(1 for _ in oracle.enumerate_cayley(s["verify_all"]))
    )
    m["oracle.enum_cayley_maps_per_s"] = visited / elapsed
    elapsed, n_end = timed(
        lambda: sum(1 for _ in oracle.enumerate_endofunctions(s["verify_conn"]))
    )
    m["oracle.enum_end_maps_per_s"] = n_end / elapsed
    maps = list(oracle.enumerate_cayley(s["verify_der"]))
    pred = oracle.parse_class("derangement")
    elapsed, matches = timed(
        lambda: sum(pred.matches(f, oracle.classify(f)) for f in maps)
    )
    m["oracle.classify_maps_per_s"] = len(maps) / elapsed
    m["oracle.maps_visited"] = visited + n_end + len(maps)
    m["oracle.match_ratio"] = matches / len(maps)

    # bijections: round trips per second, by the workload's own loops.
    elapsed, res = timed(lambda: op.unisort_roundtrips(s["unisort"]))
    if res["roundtrips_ok"] != res["maps"]:
        raise RuntimeError("unisort round trip failed")
    m["bijections.unisort_roundtrips_per_s"] = res["maps"] / elapsed
    elapsed, res = timed(lambda: op.twosort_roundtrips(s["twosort"]))
    if res["roundtrips_ok"] != res["trees"]:
        raise RuntimeError("two-sort round trip failed")
    m["bijections.twosort_roundtrips_per_s"] = sum(res["trees"]) / elapsed

    # stats: the report and the identity suite as library calls.
    m["stats.asymptotics_s"], _ = timed(lambda: stats.asymptotics_report(s["report"]))
    n = s["identities"]
    m["stats.identity_checks_s"], _ = timed(
        lambda: stats.identity_checks(atom("S", n), n)
    )

    # cli: the part of one command spent in the CLI module itself.
    out = io.StringIO()
    with Tracer() as tr:
        code = cli.main(["table", "psi", "--R", "Der", "--nmax", str(s["psi"])], out=out)
    if code != 0:
        raise RuntimeError(f"table psi exited {code}")
    main = next(sp for sp in tr.spans if sp[1] == "cli.main")
    m["cli.self_s"] = main[5]
    m["cli.out_bytes"] = len(out.getvalue().encode())
    return m


if __name__ == "__main__":
    import json

    print(json.dumps(probe(sys.argv[1] if len(sys.argv) > 1 else "full")))
