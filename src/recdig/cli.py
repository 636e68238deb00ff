"""Command-line interface.

Every data cell is printed as a decimal string, CSV is header-first and
newline-terminated, JSON output is one object per line; identical argv
always produces byte-identical output.  Exit codes: 0 success, 1
verification or identity mismatch, 2 usage error (including a negative
size), 3 enumeration budget exceeded, 4 internal error (any other
exception, such as a RecursionError or a failed exactness or residual
check: a bug, reported as one ``internal error:`` line and the traceback
on stderr), 141 stdout closed before the output was written, as by
``recdig seq ... | head`` (the code a shell reports for a process killed by
SIGPIPE; nothing is printed).

Routes: seq, the formula column of verify, and report asymptotics are
served by the two-sort table recursion (digraphs.count_sequence); table
sdiff and check identities use the closed form over Stirling differences;
count and the oracle column of verify enumerate.
"""

from __future__ import annotations

import argparse
import os
import sys

from recdig import digraphs, oracle, stats
from recdig.bijections import (
    doubly_rooted_tree_dot,
    endofunction_dot,
    endofunction_to_tree,
)
from recdig.series import atom
from recdig.stirling import sdiff

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports it

SEQ_CLASSES = tuple(digraphs.CLASS_RECURRENT_ATOMS)


def _emit(headers: list[str], rows: list[list], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(headers) + "\n")
        for row in rows:
            out.write(",".join(str(c) for c in row) + "\n")
    else:
        import json  # only for --format json, to keep start-up imports lean

        for row in rows:
            obj = {h: str(c) for h, c in zip(headers, row)}
            out.write(json.dumps(obj, sort_keys=True) + "\n")


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
    p_seq.add_argument("--class", dest="klass", choices=SEQ_CLASSES, default="all")
    p_seq.add_argument("--nmax", type=nonnegative_int, required=True)
    p_seq.add_argument("--format", choices=("csv", "json"), default="csv")

    p_table = sub.add_parser("table", help="emit a coefficient table")
    p_table.add_argument("kind", choices=("sdiff", "psi"))
    p_table.add_argument(
        "--r", type=nonnegative_int, default=1, help="prefix size (sdiff)"
    )
    p_table.add_argument(
        "--R",
        dest="rec",
        choices=("S", "X", "E", "C", "Der"),
        default="S",
        help="recurrent structure (psi)",
    )
    p_table.add_argument("--nmax", type=nonnegative_int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_count = sub.add_parser("count", help="brute-force counts")
    p_count.add_argument("--n", type=nonnegative_int, required=True)
    p_count.add_argument(
        "--model", choices=oracle.MODELS, default="cayley"
    )
    p_count.add_argument("--class", dest="klass", default="all")
    p_count.add_argument("--by", choices=("ij", "ijr"), default="ij")
    p_count.add_argument("--override-budget", action="store_true")
    p_count.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="formulas against the oracle")
    p_verify.add_argument("--nmax", type=nonnegative_int, required=True)
    p_verify.add_argument("--model", choices=oracle.MODELS, default="cayley")
    p_verify.add_argument("--class", dest="klass", choices=SEQ_CLASSES, default="all")
    p_verify.add_argument("--override-budget", action="store_true")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")

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
    p_check.add_argument("--format", choices=("csv", "json"), default="csv")

    p_report = sub.add_parser("report", help="descriptive ratio reports")
    p_report.add_argument("what", choices=("asymptotics",))
    p_report.add_argument("--nmax", type=nonnegative_int, required=True)
    p_report.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _cmd_seq(args, out) -> int:
    klass = "derangement" if args.family == "cayder" else args.klass
    model = "endofunctions" if args.family == "end" else "cayley"
    rec = digraphs.recurrent_structure_for_class(klass, args.nmax)
    counts = digraphs.count_sequence(rec, args.nmax, model)
    _emit(["n", "count"], list(enumerate(counts)), args.format, out)
    return EXIT_OK


def _cmd_table(args, out) -> int:
    rows = []
    if args.kind == "sdiff":
        for n in range(1, args.nmax + 1):
            for m in range(1, n + 1):
                rows.append([n, m, sdiff(n, m, args.r)])
        _emit(["n", "m", "value"], rows, args.format, out)
    else:
        rec = atom(args.rec, args.nmax)
        table = digraphs.digraph_table(rec, args.nmax)
        for i, j, c in table.cells():
            rows.append([i, j, c])
        _emit(["i", "j", "value"], rows, args.format, out)
    return EXIT_OK


def _cmd_count(args, out) -> int:
    pred = oracle.parse_class(args.klass)
    table = oracle.count_table(
        args.n, args.model, pred, by=args.by, override_budget=args.override_budget
    )
    headers = ["i", "j", "count"] if args.by == "ij" else ["i", "j", "r", "count"]
    rows = [list(key) + [table[key]] for key in sorted(table)]
    _emit(headers, rows, args.format, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    pred = oracle.parse_class(args.klass)
    oracle.check_budget(args.nmax, args.model, args.override_budget)
    rec = digraphs.recurrent_structure_for_class(args.klass, args.nmax)
    formulas = digraphs.count_sequence(rec, args.nmax, args.model)
    rows = []
    failing = []
    for n, formula in enumerate(formulas):
        brute = oracle.count(
            n, args.model, pred, override_budget=args.override_budget
        )
        ok = formula == brute
        if not ok:
            failing.append(n)
        rows.append([n, args.model, args.klass, formula, brute,
                     "ok" if ok else "MISMATCH"])
    _emit(["n", "model", "class", "formula", "oracle", "status"],
          rows, args.format, out)
    if failing:
        print(
            f"verification failed at n = {failing[:10]}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def _parse_word(word: str, n: int) -> tuple[int, ...]:
    if "," in word:
        values = tuple(int(p) for p in word.split(","))
    else:
        values = tuple(int(ch) for ch in word)
    if len(values) != n:
        raise ValueError(f"word has {len(values)} values, expected {n}")
    return oracle.check_endofunction(values)


def _cmd_joyal(args, out) -> int:
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
    rows = []
    bad = 0
    for label in ("S", "Der"):
        rec = atom(label, args.nmax)
        for check in stats.identity_checks(rec, args.nmax):
            status = "ok" if check.ok else "FAIL"
            bad += not check.ok
            rows.append([
                check.identity,
                label,
                ";".join(str(v) for v in check.index),
                check.lhs,
                check.rhs,
                status,
            ])
    _emit(["identity", "R", "index", "lhs", "rhs", "status"],
          rows, args.format, out)
    return EXIT_MISMATCH if bad else EXIT_OK


def _cmd_report(args, out) -> int:
    rows = [
        [r.statistic, r.n, r.numerator, r.denominator, r.ratio, r.reference]
        for r in stats.asymptotics_report(args.nmax)
    ]
    _emit(
        ["statistic", "n", "numerator", "denominator", "ratio", "reference"],
        rows, args.format, out,
    )
    return EXIT_OK


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.11+
        # Counts pass the default 4300-digit limit on int -> str near n = 1490.
        sys.set_int_max_str_digits(0)
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
    except oracle.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        if isinstance(exc, BrokenPipeError) and out is sys.stdout:
            # The reader has gone.  Point fd 1 at devnull so that the
            # interpreter's final flush of what is still buffered is quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_CLOSED_PIPE
        import traceback  # only on this path, to keep start-up imports lean

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
