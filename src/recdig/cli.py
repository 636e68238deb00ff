"""Command-line interface.

Every data cell is printed as a decimal string, CSV is header-first and
newline-terminated, JSON output is one object per line; identical argv
always produces byte-identical output.  Exit codes: 0 success, 1
verification or identity mismatch (one stderr line names the failing
n, or the first failing identity, R and index), 2 usage error (including a negative
size and a flag that the chosen form would ignore), 3 enumeration budget
exceeded, 4 internal error (any other exception, such as a RecursionError
or a failed exactness or residual check: a bug, reported as one
``internal error:`` line and the traceback on stderr), 141 stdout closed
before the output was written, as by ``recdig seq ... | head`` (the code
a shell reports for a process killed by SIGPIPE; nothing is printed).

Routes: seq, the formula column of verify, and report asymptotics are
served by the two-sort table recursion (digraphs.count_sequence), which
streams: seq writes count n as soon as the sort merge has made it final,
so ``recdig seq end --nmax 2000 | head`` gets its first lines at once, and
verify writes row n as soon as the oracle has counted n.
table sdiff streams one column of the Stirling differences
(stirling.sdiff_rows) in O(nmax) memory, one row n at a time; check
identities uses the closed form over them; count and the oracle column
of verify enumerate.  table psi streams the rows of the same row kernel
(digraphs.digraph_rows) seeded with R's counts as decimal.Decimal: every
cell is an exact integer Decimal, whose str() is linear in its digits
where int's is quadratic before CPython 3.12, and the context it runs in
raises on any rounding (exit 4).  table sdiff stays on ints: its cells
are short at the sizes it is run at, where Decimal arithmetic cost more
than the printing saved.

Each command imports the modules it runs inside its handler, and the
parser reads its class, R and model names from their modules only when it
checks or lists them, so a cold start loads no route a command does not
run.  main lifts the int -> str digit limit (Python 3.11+) for the
command only, and an in-process caller gets its own limit and decimal
context back.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Iterable, Sequence

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports it


class _Names:
    """argparse choices: the names in a module attribute (the keys of a dict,
    or what view picks from it), imported only when the parser checks a value
    against them or lists them in a message.  They are set on the action that
    add_argument returns, because add_argument itself lists the choices it is
    given."""

    def __init__(self, module: str, attr: str, view=iter):
        self.module, self.attr, self.view = module, attr, view

    def __iter__(self):
        return iter(self.view(getattr(import_module(self.module), self.attr)))


SEQ_CLASSES = _Names("recdig.digraphs", "CLASS_RECURRENT_ATOMS")
ATOMS = _Names("recdig.digraphs", "CLASS_RECURRENT_ATOMS", dict.values)
MODELS = _Names("recdig.oracle", "MODELS")


def _emit(
    headers: Sequence[str], blocks: Iterable[Iterable[tuple]], fmt: str, out
) -> None:
    """Write the header (CSV only), then each block of rows with one
    ``out.write``.

    A block is an iterable of tuple rows, at most one table row or one n
    of the report, so memory stays one block of text and a command that
    yields its blocks as it computes them streams.  Under
    ``PYTHONUNBUFFERED`` stdout is write-through and each ``out.write``
    is one write(2): one call per line made 31,627 of them for ``table psi
    --R Der --nmax 250``, one per block makes 252 (the header and 251
    table rows).  CSV formats each row
    with one ``%s`` template, which calls ``str()`` on every cell, so the
    bytes are the cells' decimal strings joined by commas; JSON prints one
    object per row.  This is the only writer of CSV and JSON rows.

    A cell is an int or an integer ``decimal.Decimal`` (``table psi``);
    both print the same digits.  For big cells the ``str()`` calls are
    most of the work: an int's is quadratic in its digits before CPython
    3.12, a Decimal's is linear, and ``table psi --R Der --nmax 600``
    spends under 0.3 s of its run in the kernel.
    """
    if fmt == "csv":
        out.write(",".join(headers) + "\n")
        line = ",".join(["%s"] * len(headers)) + "\n"
        for block in blocks:
            out.write("".join([line % row for row in block]))
    else:
        import json  # only for --format json, to keep start-up imports lean

        for block in blocks:
            out.write("".join([
                json.dumps({h: str(c) for h, c in zip(headers, row)}, sort_keys=True)
                + "\n"
                for row in block
            ]))


def nonnegative_int(text: str) -> int:
    """argparse type for every size argument (--nmax, --n, --r)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recdig",
        description="exact counts of recurrent functional digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="emit a counting sequence")
    p_seq.add_argument("family", choices=("cay", "end", "cayder"))
    # seq's --class and table's --r and --R default to None, so a flag
    # that the chosen form would ignore is seen and rejected (exit 2).
    p_seq.add_argument("--class", dest="klass").choices = SEQ_CLASSES
    p_seq.add_argument("--nmax", type=nonnegative_int, required=True)

    p_table = sub.add_parser("table", help="emit a coefficient table")
    p_table.add_argument("kind", choices=("sdiff", "psi"))
    p_table.add_argument(
        "--r", type=nonnegative_int, help="prefix size (sdiff)"
    )
    p_table.add_argument(
        "--R", dest="rec", help="recurrent structure (psi)"
    ).choices = ATOMS
    p_table.add_argument("--nmax", type=nonnegative_int, required=True)

    p_count = sub.add_parser("count", help="brute-force counts")
    p_count.add_argument("--n", type=nonnegative_int, required=True)
    p_count.add_argument("--model", default="cayley").choices = MODELS
    p_count.add_argument("--class", dest="klass", default="all")
    p_count.add_argument("--by", choices=("ij", "ijr"), default="ij")
    p_count.add_argument("--override-budget", action="store_true")

    p_verify = sub.add_parser("verify", help="formulas against the oracle")
    p_verify.add_argument("--nmax", type=nonnegative_int, required=True)
    p_verify.add_argument("--model", default="cayley").choices = MODELS
    p_verify.add_argument("--class", dest="klass", default="all").choices = SEQ_CLASSES
    p_verify.add_argument("--override-budget", action="store_true")

    p_joyal = sub.add_parser(
        "joyal", help="spine bijection demo for one endofunction"
    )
    p_joyal.add_argument("--n", type=nonnegative_int, required=True)
    p_joyal.add_argument(
        "--input",
        required=True,
        help="value word, digits or comma-separated (e.g. 985776326459548)",
    )
    p_joyal.add_argument("--export", choices=("dot",), default=None)

    p_check = sub.add_parser("check", help="exact identity suite")
    p_check.add_argument("what", choices=("identities",))
    p_check.add_argument("--nmax", type=nonnegative_int, required=True)

    p_report = sub.add_parser("report", help="descriptive ratio reports")
    p_report.add_argument("what", choices=("asymptotics",))
    p_report.add_argument("--nmax", type=nonnegative_int, required=True)

    # Every command but joyal prints rows; --format is the last option of each.
    for p in (p_seq, p_table, p_count, p_verify, p_check, p_report):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _cmd_seq(args, out) -> int:
    from recdig import digraphs

    klass = args.klass or "all"
    if args.family == "cayder":
        if args.klass not in (None, "derangement"):
            raise ValueError(f"--class {klass} does not apply to seq cayder")
        klass = "derangement"
    model = "endofunctions" if args.family == "end" else "cayley"
    rec = digraphs.recurrent_structure_for_class(klass, args.nmax)
    counts = digraphs.count_sequence(rec, args.nmax, model)
    _emit(["n", "count"], ((row,) for row in enumerate(counts)), args.format, out)
    return EXIT_OK


def _cmd_table(args, out) -> int:
    from itertools import count, islice, repeat

    flag, value = ("--R", args.rec) if args.kind == "sdiff" else ("--r", args.r)
    if value is not None:  # the other form's flag
        raise ValueError(f"{flag} {value} does not apply to table {args.kind}")
    if args.kind == "sdiff":
        from recdig.stirling import sdiff_rows

        # Rows and columns from 1: the n = 0 row and the m = 0 cells are left out.
        rows = enumerate(sdiff_rows(1 if args.r is None else args.r, args.nmax))
        next(rows)
        blocks = (zip(repeat(n), count(1), islice(row, 1, None)) for n, row in rows)
        _emit(["n", "m", "value"], blocks, args.format, out)
    else:
        from decimal import (
            MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded,
            localcontext,
        )

        from recdig.digraphs import CLASS_RECURRENT_ATOMS, digraph_rows
        from recdig.series import CoeffSeq, atom

        # Decimal seeds give Decimal cells (see the module docstring); the
        # context keeps every digit, and a rounding would raise.
        rec = atom(args.rec or CLASS_RECURRENT_ATOMS["all"], args.nmax)
        seeds = CoeffSeq(tuple(map(Decimal, rec.counts)))
        exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                        traps=[Inexact, Rounded])
        with localcontext(exact):
            table = digraph_rows(seeds, args.nmax)
            blocks = (zip(repeat(i), count(), row) for i, row in enumerate(table))
            _emit(["i", "j", "value"], blocks, args.format, out)
    return EXIT_OK


def _cmd_count(args, out) -> int:
    from recdig import oracle

    pred = oracle.parse_class(args.klass)
    table = oracle.count_table(
        args.n, args.model, pred, by=args.by, override_budget=args.override_budget
    )
    headers = ["i", "j", "count"] if args.by == "ij" else ["i", "j", "r", "count"]
    rows = (((*key, table[key]),) for key in sorted(table))
    _emit(headers, rows, args.format, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from recdig import digraphs, oracle

    pred = oracle.parse_class(args.klass)
    oracle.check_budget(args.nmax, args.model, args.override_budget)
    rec = digraphs.recurrent_structure_for_class(args.klass, args.nmax)
    formulas = digraphs.count_sequence(rec, args.nmax, args.model)
    failing = []

    def rows():  # one-row blocks: row n is written before n + 1 is counted
        for n, formula in enumerate(formulas):
            brute = oracle.count(
                n, args.model, pred, override_budget=args.override_budget
            )
            ok = formula == brute
            if not ok:
                failing.append(n)
            yield ((n, args.model, args.klass, formula, brute,
                    "ok" if ok else "MISMATCH"),)

    _emit(["n", "model", "class", "formula", "oracle", "status"],
          rows(), args.format, out)
    if failing:
        print(
            f"verification failed at n = {failing[:10]}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def _parse_word(word: str, n: int) -> tuple[int, ...]:
    from recdig import oracle

    if "," in word:
        values = tuple(int(p) for p in word.split(","))
    else:
        values = tuple(int(ch) for ch in word)
    if len(values) != n:
        raise ValueError(f"word has {len(values)} values, expected {n}")
    return oracle.check_endofunction(values)


def _cmd_joyal(args, out) -> int:
    from recdig import oracle
    from recdig.bijections import (
        doubly_rooted_tree_dot,
        endofunction_dot,
        endofunction_to_tree,
    )

    f = _parse_word(args.input, args.n)
    tree = endofunction_to_tree(f)
    if args.export == "dot":
        out.write(endofunction_dot(f))
        out.write(doubly_rooted_tree_dot(tree, filled=set(f)))
        return EXIT_OK
    profile = oracle.classify(f)
    spine = [f[u - 1] for u in sorted(profile.recurrent)]
    out.write(f"endofunction: {','.join(str(v) for v in f)}\n")
    out.write(f"internal: {sorted(profile.image)}\n")
    out.write(f"recurrent: {sorted(profile.recurrent)}\n")
    out.write(f"spine: {','.join(str(w) for w in spine)}\n")
    out.write(f"tail: {tree.tail}\nhead: {tree.head}\n")
    out.write(
        "tree edges: "
        + " ".join(f"{a}-{b}" for a, b in tree.edges)
        + "\n"
    )
    return EXIT_OK


def _cmd_check(args, out) -> int:
    from recdig import stats
    from recdig.series import atom

    labels = ("S", "Der")
    recs = [atom(label, args.nmax) for label in labels]
    suite = stats.identity_suite(recs, args.nmax)
    rows = []
    for label, checks in zip(labels, suite):
        for check in checks:
            status = "ok" if check.ok else "FAIL"
            rows.append((
                check.identity,
                label,
                ";".join(str(v) for v in check.index),
                check.lhs,
                check.rhs,
                status,
            ))
    _emit(["identity", "R", "index", "lhs", "rhs", "status"],
          ((row,) for row in rows), args.format, out)
    for row in rows:
        if row[-1] == "FAIL":
            print("identity check failed at {}, R = {}, index = {}".format(*row),
                  file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_report(args, out) -> int:
    from itertools import groupby
    from operator import attrgetter

    from recdig import stats

    headers = stats.AsymptoticsRow.__slots__
    cells = attrgetter(*headers)
    blocks = (  # one block per n
        map(cells, group)
        for _, group in groupby(stats.asymptotics_report(args.nmax), attrgetter("n"))
    )
    _emit(headers, blocks, args.format, out)
    return EXIT_OK


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.11: no limit
        return _run(argv, out)
    # Counts pass the default 4300-digit limit on int -> str near n = 1490.
    # The limit is lifted for the command only: an in-process caller gets
    # its own back.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv, out)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None, out) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    handlers = {
        "seq": _cmd_seq,
        "table": _cmd_table,
        "count": _cmd_count,
        "verify": _cmd_verify,
        "joyal": _cmd_joyal,
        "check": _cmd_check,
        "report": _cmd_report,
    }
    try:
        code = handlers[args.command](args, out)
        out.flush()  # a closed stdout pipe fails here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        if isinstance(exc, BrokenPipeError) and out is sys.stdout:
            # The reader has gone.  Point fd 1 at devnull so that the
            # interpreter's final flush of what is still buffered is quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_CLOSED_PIPE
        from recdig.oracle import BudgetExceededError  # only on this path

        if isinstance(exc, BudgetExceededError):
            # The library names its keyword; here the switch is the flag.
            hint = str(exc).replace("override_budget=True", "--override-budget")
            print(f"error: {hint}", file=sys.stderr)
            return EXIT_BUDGET
        import traceback  # only on this path, to keep start-up imports lean

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
