import io
import json
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from recdig import oracle
from recdig.cli import main
from recdig.digraphs import CLASS_RECURRENT_ATOMS


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def test_module_entry_point_subprocess(child_env):
    out = subprocess.check_output(
        [sys.executable, "-m", "recdig.cli", "seq", "cayder", "--nmax", "5"],
        text=True,
        env=child_env,
    )
    assert out == "n,count\n0,1\n1,0\n2,1\n3,4\n4,25\n5,184\n"
    rc = subprocess.run(
        [sys.executable, "-m", "recdig.cli", "count", "--n", "9",
         "--model", "endofunctions"],
        capture_output=True,
        env=child_env,
    ).returncode
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "cay", "--nmax", "2000"],
        ["seq", "cay", "--nmax", "5"],
        ["seq", "end", "--nmax", "2000"],
        ["table", "psi", "--nmax", "400"],
    ],
    ids=["2000", "5", "end-2000", "psi-400"],
)
def test_closed_stdout_pipe_exits_141_quietly(child_env, argv):
    # At nmax 2000 seq prints megabytes, far past a 64 KB pipe buffer, and
    # it writes each count as the merge makes it final: the first lines
    # arrive while the child is still counting (for seconds), and the
    # reader goes after them.  At nmax 5 the output waits in the stdout
    # buffer for the final flush, and the reader is gone before the child
    # starts.  table psi at nmax 400 prints megabytes as well, one write
    # per table row, and its reader goes after two lines.
    env = {k: v for k, v in child_env.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "recdig.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if argv[0] == "table":
        assert proc.stdout.readline() == b"i,j,value\n"
        assert proc.stdout.readline() == b"0,0,1\n"
    elif argv[-1] == "2000":
        assert proc.stdout.readline() == b"n,count\n"
        assert proc.stdout.readline() == b"0,1\n"
        assert proc.poll() is None
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_seq_cayder():
    rc, out = run(["seq", "cayder", "--nmax", "11"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count"
    assert lines[-1] == "11,577560596"


def test_seq_classes():
    rc, out = run(["seq", "cay", "--class", "tree", "--nmax", "5"])
    assert rc == 0
    assert out.strip().splitlines()[1:] == [
        "0,0", "1,1", "2,1", "3,3", "4,13", "5,75",
    ]
    rc, out = run(["seq", "end", "--class", "derangement", "--nmax", "4"])
    assert rc == 0
    assert out.strip().splitlines()[-1] == "4,81"


def test_table_sdiff_matches_printed_triangle():
    rc, out = run(["table", "sdiff", "--r", "2", "--nmax", "8"])
    assert rc == 0
    cells = {}
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,value"
    for line in lines[1:]:
        n, m, v = line.split(",")
        cells[(int(n), int(m))] = int(v)
    assert cells[(8, 4)] == 570
    assert cells[(5, 3)] == 10
    assert cells[(1, 1)] == 0


class _CountingOut:
    """A stdout that keeps only the number of characters written to it."""

    size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def test_table_sdiff_streams_one_column(monkeypatch):
    # The column builder holds one row at a time and never calls the
    # recursive point lookup; the cached recursion took 46,042 entries and
    # 11.2 MB here.
    import tracemalloc

    import recdig.stirling

    def refuse(*args):
        raise AssertionError("table sdiff called the recursive point lookup")

    monkeypatch.setattr(recdig.stirling, "sdiff", refuse)
    out = _CountingOut()
    tracemalloc.start()
    try:
        assert main(["table", "sdiff", "--r", "2", "--nmax", "300"], out=out) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.size > 10**6
    assert peak < 2 * 2**20, peak


def test_table_psi():
    rc, out = run(["table", "psi", "--R", "Der", "--nmax", "4"])
    assert rc == 0
    cells = {}
    for line in out.strip().splitlines()[1:]:
        i, j, v = (int(x) for x in line.split(","))
        cells[(i, j)] = v
    assert cells[(0, 0)] == 1  # the empty digraph has no fixed points
    assert cells[(1, 0)] == 0
    assert cells[(2, 0)] == 1


class _RecordingOut(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv, blocks, rows",
    [
        (["table", "psi", "--nmax", "6"], 7, 28),
        (["table", "sdiff", "--nmax", "6"], 6, 21),
        (["seq", "cay", "--nmax", "6"], 7, 7),
    ],
    ids=["psi", "sdiff", "seq"],
)
def test_one_write_per_table_row(argv, blocks, rows):
    out = _RecordingOut()
    assert main(argv, out=out) == 0
    assert out.writes == 1 + blocks  # the header, then one per block
    assert out.getvalue().count("\n") == 1 + rows


def _render_cells(headers, cells, fmt):
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(str(c) for c in cell) for cell in cells]
    else:
        lines = [
            json.dumps({h: str(c) for h, c in zip(headers, cell)}, sort_keys=True)
            for cell in cells
        ]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_equal_a_per_cell_rendering(fmt):
    from recdig.digraphs import digraph_rows
    from recdig.series import atom
    from recdig.stirling import sdiff

    for nmax in range(9):
        for rec in ("S", "X", "E", "C", "Der"):
            rows = digraph_rows(atom(rec, nmax), nmax)
            cells = [(i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row)]
            argv = ["table", "psi", "--R", rec, "--nmax", str(nmax), "--format", fmt]
            assert run(argv) == (0, _render_cells(["i", "j", "value"], cells, fmt))
        for r in range(4):
            cells = [
                (n, m, sdiff(n, m, r))
                for n in range(1, nmax + 1)
                for m in range(1, n + 1)
            ]
            argv = ["table", "sdiff", "--r", str(r), "--nmax", str(nmax),
                    "--format", fmt]
            assert run(argv) == (0, _render_cells(["n", "m", "value"], cells, fmt))


def test_count_table():
    rc, out = run(["count", "--n", "4", "--model", "cayley", "--by", "ij"])
    assert rc == 0
    total = sum(int(line.split(",")[-1]) for line in out.strip().splitlines()[1:])
    assert total == 75
    rc, out = run(
        ["count", "--n", "3", "--model", "cayley", "--by", "ijr",
         "--class", "all"]
    )
    rows = {tuple(map(int, line.split(","))) for line in out.strip().splitlines()[1:]}
    assert (2, 1, 1, 2) in rows


def test_verify_ok():
    rc, out = run(
        ["verify", "--nmax", "5", "--model", "cayley", "--class", "derangement"]
    )
    assert rc == 0
    assert all(line.endswith("ok") for line in out.strip().splitlines()[1:])
    # Every class that seq and verify serve, in both models.
    for model, klass in product(oracle.MODELS, CLASS_RECURRENT_ATOMS):
        rc, out = run(["verify", "--nmax", "4", "--model", model, "--class", klass])
        assert rc == 0, (model, klass)
        rows = out.splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["ok"] * 5, (model, klass)


def test_verify_streams_its_rows(monkeypatch, capsys):
    # Row n - 1 is on out when the oracle is asked for count n.
    buf = io.StringIO()
    count = oracle.count
    written = []

    def recording_count(n, *args, **kw):
        written.append(buf.getvalue())
        return count(n, *args, **kw)

    monkeypatch.setattr(oracle, "count", recording_count)
    argv = ["verify", "--nmax", "5", "--class", "derangement"]
    assert main(argv, out=buf) == 0
    lines = buf.getvalue().splitlines(keepends=True)
    assert len(lines) == 7
    assert written == ["".join(lines[:n + 1]) for n in range(6)]

    # A mismatch is still reported after every row, on stderr, with exit 1.
    monkeypatch.setattr(
        oracle, "count", lambda n, *args, **kw: -1 if n == 3 else count(n, *args, **kw)
    )
    rc, out = run(argv)
    assert rc == 1
    assert out.splitlines() == [
        line.rstrip("\n") if n != 4 else "3,cayley,derangement,4,-1,MISMATCH"
        for n, line in enumerate(lines)
    ]
    assert capsys.readouterr().err == "verification failed at n = [3]\n"


def test_budget_exit_code(monkeypatch, capsys):
    rc, _ = run(["count", "--n", "9", "--model", "endofunctions"])
    assert rc == 3
    # The hint names the CLI's flag, not the library's keyword.
    assert capsys.readouterr().err == (
        "error: n=9 exceeds the endofunctions budget of 8; "
        "pass --override-budget to force\n"
    )
    # verify checks the budget for its largest n before enumerating any map.
    calls = []
    monkeypatch.setattr(oracle, "count", lambda *args, **kw: calls.append(args))
    rc, _ = run(["verify", "--nmax", "10"])
    assert rc == 3
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "cay", "--nmax", "-3"],
        ["table", "sdiff", "--r", "-2", "--nmax", "4"],
        ["table", "psi", "--nmax", "-1"],
        ["count", "--n", "-1"],
        ["verify", "--nmax", "-1"],
        ["joyal", "--n", "-1", "--input", "1"],
        ["check", "identities", "--nmax", "-1"],
        ["report", "asymptotics", "--nmax", "-1"],
    ],
    ids=["seq", "table-sdiff", "table-psi", "count", "verify", "joyal", "check",
         "report"],
)
def test_negative_sizes_are_usage_errors(argv):
    assert run(argv) == (2, "")


@pytest.fixture
def int_str_digits():
    """Set the int -> str digit limit (Python 3.11+) to the value asked
    for, and give the caller's back after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield lambda limit: None
        return
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def test_seq_prints_counts_past_the_int_str_digit_limit(int_str_digits):
    int_str_digits(4300)  # the interpreter's default
    rc, out = run(["seq", "cay", "--nmax", "1500"])
    assert rc == 0
    n, count = out.splitlines()[-1].split(",")
    assert n == "1500"
    assert len(count) > 4300


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no limit before 3.11"
)
@pytest.mark.parametrize(
    "argv",
    [["seq", "cay", "--nmax", "3"], ["table", "psi", "--nmax", "3"],
     ["seq", "cay"], ["seq", "cay", "--nmax", "x"]],
    ids=["seq", "psi", "usage", "bad-value"],
)
def test_main_leaves_the_int_str_digit_limit_as_it_found_it(int_str_digits, argv):
    for limit in (4300, 5000, 0):
        int_str_digits(limit)
        run(argv)
        assert sys.get_int_max_str_digits() == limit


def _decimal_settings():
    import decimal

    c = decimal.getcontext()
    return (c.prec, c.rounding, c.Emin, c.Emax, c.capitals, c.clamp,
            dict(c.flags), dict(c.traps))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_psi_prints_the_int_rows(fmt):
    # The CLI prints Decimal cells; they must read exactly as the int rows
    # of the library kernel, up to 661 digits at nmax 300.
    from recdig.digraphs import digraph_rows
    from recdig.series import atom

    before = _decimal_settings()
    sizes = [(rec, nmax) for rec in CLASS_RECURRENT_ATOMS.values()
             for nmax in (0, 1, 2, 7, 60)]
    for rec, nmax in sizes + [("Der", 300)]:
        rows = digraph_rows(atom(rec, nmax), nmax)
        cells = [(i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row)]
        argv = ["table", "psi", "--R", rec, "--nmax", str(nmax), "--format", fmt]
        assert run(argv) == (0, _render_cells(["i", "j", "value"], cells, fmt))
        assert _decimal_settings() == before
    assert max(len(str(c)) for _, _, c in cells) == 661


def test_table_psi_serves_the_class_atoms(monkeypatch):
    # --R takes its choices, and its default, from CLASS_RECURRENT_ATOMS:
    # an R served there prints with no edit of the CLI, and no --R is the
    # R of the class "all".
    from recdig.digraphs import digraph_rows
    from recdig.series import atom

    psi = ["table", "psi", "--nmax", "5"]
    assert run(psi) == run([*psi, "--R", "S"])
    bal = ["table", "psi", "--R", "Bal", "--nmax", "2"]
    assert run(bal) == (2, "")
    monkeypatch.setitem(CLASS_RECURRENT_ATOMS, "ballots", "Bal")
    rows = digraph_rows(atom("Bal", 2), 2)
    cells = [(i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row)]
    assert run(bal) == (0, _render_cells(["i", "j", "value"], cells, "csv"))
    monkeypatch.setitem(CLASS_RECURRENT_ATOMS, "all", "Der")
    assert run(psi) == run([*psi, "--R", "Der"]) != run([*psi, "--R", "S"])


def test_internal_errors_exit_4_and_mismatches_exit_1(monkeypatch, capsys):
    from recdig import cli

    def overflow(args, out):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_seq", overflow)
    assert run(["seq", "cay", "--nmax", "3"]) == (cli.EXIT_INTERNAL, "")
    assert cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RecursionError")
    assert "Traceback" in err

    # A broken pipe on any stream but the real stdout is a bug too.
    def broken_pipe(args, out):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_cmd_seq", broken_pipe)
    assert run(["seq", "cay", "--nmax", "3"]) == (cli.EXIT_INTERNAL, "")
    assert capsys.readouterr().err.startswith("internal error: BrokenPipeError")

    monkeypatch.setattr(oracle, "count", lambda *args, **kw: -1)
    rc, out = run(["verify", "--nmax", "3"])
    assert rc == 1
    assert "MISMATCH" in out


def test_idempotent_power_is_not_linear_in_k(child_env):
    # 10**12 = 4 (mod 6) and 4 >= 2, the longest tail on [3], so f^k = f
    # exactly when f^4 = f.  A loop of k - 1 compositions would not end.
    argv = ["count", "--n", "3", "--class"]
    start = time.perf_counter()
    big = subprocess.run(
        [sys.executable, "-m", "recdig.cli", *argv, "idempotent:1000000000000"],
        capture_output=True, text=True, env=child_env, timeout=30,
    )
    assert time.perf_counter() - start < 1.0
    assert big.returncode == 0
    assert (0, big.stdout) == run(argv + ["idempotent:4"])


def test_usage_error_exit_code():
    rc, _ = run(["frobnicate"])
    assert rc == 2
    rc, _ = run(["seq", "cayder"])  # missing --nmax
    assert rc == 2
    rc, _ = run(["joyal", "--n", "3", "--input", "12"])  # wrong length
    assert rc == 2
    rc, out = run(["count", "--n", "3", "--class", "forest:7"])  # no parameter
    assert rc == 2 and out == ""
    # A flag that the chosen form would ignore is rejected, not ignored.
    for argv in (["seq", "cayder", "--class", "tree", "--nmax", "3"],
                 ["table", "sdiff", "--R", "Der", "--nmax", "3"],
                 ["table", "psi", "--r", "5", "--nmax", "3"]):
        rc, out = run(argv)
        assert rc == 2 and out == "", argv


def test_malformed_class_parameter_is_named(capsys):
    # The error names the class and the text that is not an integer.
    for klass, param in (("tree", ""), ("idempotent", "x")):
        assert run(["count", "--n", "3", "--class", f"{klass}:{param}"]) == (2, "")
        assert capsys.readouterr().err == (
            f"error: class {klass}: {param!r} is not an integer\n"
        )
    # An unknown class is named before its parameter is read.
    for text in ("bogus:x", "bogus:", "bogus:3", "bogus"):
        assert run(["count", "--n", "3", "--class", text]) == (2, ""), text
        assert capsys.readouterr().err == "error: unknown class 'bogus'\n", text


def test_models_agree_across_routes():
    # The oracle's model table, both counting routes and the --model
    # choices of count and verify name the same two models, and each name
    # means the same model on every route.
    from recdig import digraphs
    from recdig.cli import _build_parser
    from recdig.series import atom

    models = list(oracle.MODELS)
    assert sorted(models) == ["cayley", "endofunctions"]
    rec = atom("S", 4)
    every = oracle.parse_class("all")
    for model in models:
        brute = [oracle.count(n, model, every) for n in range(5)]
        assert list(digraphs.count_sequence(rec, 4, model)) == brute
        assert digraphs.closed_form_sequence(rec, 4, model) == brute
    for bad in ("bogus", "Cayley", ""):
        for route in (digraphs.count_sequence, digraphs.closed_form_sequence):
            with pytest.raises(ValueError, match="unknown model"):
                route(rec, 4, bad)
    commands = next(
        a for a in _build_parser()._actions if a.dest == "command"
    ).choices
    for command in ("count", "verify"):
        (model,) = (a for a in commands[command]._actions if a.dest == "model")
        assert list(model.choices) == models
        assert model.default in models


def _joyal_golden(ext):
    return (Path(__file__).parent / "golden" / f"joyal_fig1.{ext}").read_bytes()


def test_joyal_text_output():
    rc, out = run(["joyal", "--n", "15", "--input", "985776326459548"])
    assert rc == 0
    assert "spine: 8,5,7,6,3,2" in out
    assert "tail: 8" in out and "head: 2" in out
    assert out.encode() == _joyal_golden("txt")


def test_joyal_comma_separated_input():
    rc, out = run(["joyal", "--n", "3", "--input", "2,1,1"])
    assert rc == 0
    assert "spine:" in out


def test_joyal_dot_export():
    rc, out = run(
        ["joyal", "--n", "15", "--input", "985776326459548", "--export", "dot"]
    )
    assert rc == 0
    assert out.count("digraph") == 1
    assert "\ngraph " in out
    assert "->" in out and "--" in out
    assert out.encode() == _joyal_golden("dot")


def test_check_identities():
    rc, out = run(["check", "identities", "--nmax", "6"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,R,index,lhs,rhs,status"
    assert all(line.endswith(",ok") for line in lines[1:])


def test_check_identities_names_its_first_failure(monkeypatch, capsys):
    # An off-by-one closed-form count of Der at n = 4 fails both segment
    # expansions there; stderr names the first, stdout marks both rows.
    from recdig import stats
    from recdig.series import atom

    right = stats.closed_form_sequence
    der = atom("Der", 6).counts

    def off_by_one(rec, nmax, model):
        counts = right(rec, nmax, model)
        if rec.counts == der:
            counts[4] += 1
        return counts

    monkeypatch.setattr(stats, "closed_form_sequence", off_by_one)
    rc, out = run(["check", "identities", "--nmax", "6"])
    assert rc == 1
    failed = [line for line in out.splitlines() if line.endswith(",FAIL")]
    assert [line.split(",")[:3] for line in failed] == [
        ["segment_expansion", "Der", "4"],
        ["segment_expansion_halved", "Der", "4"],
    ]
    assert capsys.readouterr().err == (
        "identity check failed at segment_expansion, R = Der, index = 4\n"
    )


def test_report_asymptotics():
    rc, out = run(["report", "asymptotics", "--nmax", "12"])
    assert rc == 0
    assert "cayley_derangement_fraction,11,577560596,1622632573,0.3559" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, golden",
    [
        (["report", "asymptotics", "--nmax", "8"], "report_asymptotics_nmax8"),
        (["check", "identities", "--nmax", "5"], "check_identities_nmax5"),
    ],
    ids=["report", "check"],
)
def test_stats_commands_print_the_golden_bytes(argv, golden, fmt):
    want = (Path(__file__).parent / "golden" / f"{golden}.{fmt}").read_bytes()
    rc, out = run([*argv, "--format", fmt])
    assert rc == 0
    assert out.encode() == want


def test_json_format_is_one_object_per_line():
    rc, out = run(["seq", "cayder", "--nmax", "3", "--format", "json"])
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[-1] == {"n": "3", "count": "4"}


def test_byte_identical_reruns():
    args = ["report", "asymptotics", "--nmax", "10"]
    assert run(args) == run(args)
    args = ["table", "psi", "--R", "S", "--nmax", "6"]
    assert run(args) == run(args)
