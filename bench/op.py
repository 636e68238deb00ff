"""Run one benchmark operation in this (cold) interpreter.

    python3 bench/op.py [--trace FILE] cli ARGS...        # recdig.cli.main(ARGS)
    python3 bench/op.py [--trace FILE] lib NAME ARGS...   # one library call

A library operation prints its results as one JSON object on stdout;
large integer sequences are printed as digests (``seq_digest``).
With ``--trace FILE`` the recdig modules are traced (``tracer.Tracer``)
and the spans are written to FILE when the operation ends.

Only what every operation needs is imported at the top, so that a CLI
operation run through this file starts up as ``python3 -m recdig.cli``
does, plus the cost of the tracer when it is asked for.
"""

from __future__ import annotations

import json
import sys
from itertools import product


def seq_digest(values) -> str:
    """Digest of an integer sequence, shared with bench/workloads.py."""
    import hashlib

    return hashlib.sha256(",".join(str(v) for v in values).encode()).hexdigest()


def trees_compose(n):
    from recdig.series import atom
    from recdig.tables import compose_table, rooted_tree_table

    trees = rooted_tree_table(n)
    digraphs = compose_table(atom("S", n), trees)
    return {
        "trees_identify": seq_digest(trees.identify_sorts().counts),
        "identify": seq_digest(digraphs.identify_sorts().counts),
        "concat": seq_digest(digraphs.concat_sorts().counts),
    }


def bounded_arity(k, n):
    from recdig.digraphs import bounded_arity_tree_table

    table = bounded_arity_tree_table(k, n)
    return {"rows": seq_digest(c for row in table.rows for c in row)}


def atom_counts(name, n):
    from recdig.series import atom

    return {"counts": seq_digest(atom(name, n).counts)}


def digraph_table_merges(n):
    from recdig.digraphs import digraph_table
    from recdig.series import atom

    table = digraph_table(atom("S", n), n)
    return {
        "identify": seq_digest(table.identify_sorts().counts),
        "concat": seq_digest(table.concat_sorts().counts),
    }


def branches(n):
    from recdig.digraphs import digraph_table_with_branches
    from recdig.series import atom

    table = digraph_table_with_branches(atom("S", n), atom("L", n), n)
    return {"rows": seq_digest(c for row in table.rows for c in row)}


def unisort_roundtrips(n):
    from recdig.bijections import endofunction_to_tree, tree_to_endofunction

    maps = ok = 0
    trees = set()
    for f in product(range(1, n + 1), repeat=n):
        tree = endofunction_to_tree(f)
        trees.add(tree)
        ok += tree_to_endofunction(tree) == f
        maps += 1
    return {"maps": maps, "roundtrips_ok": ok, "distinct_trees": len(trees)}


def twosort_roundtrips(nmax):
    from recdig.bijections import (
        permuted_forest_to_pointed_tree,
        pointed_leaf_trees,
        pointed_tree_to_permuted_forest,
    )

    counts, oks = [], []
    for k in range(1, nmax + 1):
        for i in range(1, k + 1):
            total = ok = 0
            for t in pointed_leaf_trees(i, k - i):
                back = permuted_forest_to_pointed_tree(
                    pointed_tree_to_permuted_forest(t)
                )
                ok += back == t
                total += 1
            counts.append(total)
            oks.append(ok)
    return {"trees": counts, "roundtrips_ok": oks}


def random_maps(path):
    from recdig.bijections import endofunction_to_tree, tree_to_endofunction
    from recdig.oracle import classify

    with open(path) as fh:
        maps = [tuple(f) for f in json.load(fh)]
    ok = 0
    profile = []
    for f in maps:
        ok += tree_to_endofunction(endofunction_to_tree(f)) == f
        p = classify(f)
        profile += [p.recurrent_count, len(p.cycle_lengths), p.internal_count]
    return {"maps": len(maps), "roundtrips_ok": ok, "profiles": seq_digest(profile)}


LIB = {
    "trees_compose": lambda n: trees_compose(int(n)),
    "bounded_arity": lambda k, n: bounded_arity(int(k), int(n)),
    "atom": lambda name, n: atom_counts(name, int(n)),
    "digraph_table_merges": lambda n: digraph_table_merges(int(n)),
    "branches": lambda n: branches(int(n)),
    "unisort_roundtrips": lambda n: unisort_roundtrips(int(n)),
    "twosort_roundtrips": lambda n: twosort_roundtrips(int(n)),
    "random_maps": random_maps,
}


def run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        from recdig import cli

        return cli.main(args)
    name, *rest = args
    print(json.dumps(LIB[name](*rest), sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] != "--trace":
        return run(argv[0], argv[1:])
    from tracer import Tracer

    path, kind, args = argv[1], argv[2], argv[3:]
    with Tracer() as tracer:
        code = run(kind, args)
    sys.stdout.flush()
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
