import io
import json
import subprocess
import sys

import pytest

from recdig import oracle
from recdig.cli import main


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


@pytest.mark.parametrize("nmax", [2000, 5])
def test_closed_stdout_pipe_exits_141_quietly(child_env, nmax):
    # At nmax 2000 seq prints about 5.6 MB, far past a 64 KB pipe buffer,
    # so the child is still writing when the reader goes after one line.
    # At nmax 5 the output waits in the stdout buffer for the final flush,
    # and the reader is gone before the child starts.
    env = {k: v for k, v in child_env.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "recdig.cli", "seq", "cay", "--nmax", str(nmax)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if nmax == 2000:
        assert proc.stdout.readline() == b"n,count\n"
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
    rc, _ = run(["verify", "--nmax", "4", "--model", "endofunctions"])
    assert rc == 0


def test_budget_exit_code(monkeypatch):
    rc, _ = run(["count", "--n", "9", "--model", "endofunctions"])
    assert rc == 3
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


def test_seq_prints_counts_past_the_int_str_digit_limit():
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)  # the interpreter's default
    rc, out = run(["seq", "cay", "--nmax", "1500"])
    assert rc == 0
    n, count = out.splitlines()[-1].split(",")
    assert n == "1500"
    assert len(count) > 4300


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


def test_usage_error_exit_code():
    rc, _ = run(["frobnicate"])
    assert rc == 2
    rc, _ = run(["seq", "cayder"])  # missing --nmax
    assert rc == 2
    rc, _ = run(["joyal", "--n", "3", "--input", "12"])  # wrong length
    assert rc == 2
    rc, out = run(["count", "--n", "3", "--class", "forest:7"])  # no parameter
    assert rc == 2 and out == ""


def test_joyal_text_output():
    rc, out = run(["joyal", "--n", "15", "--input", "985776326459548"])
    assert rc == 0
    assert "spine: 8,5,7,6,3,2" in out
    assert "tail: 8" in out and "head: 2" in out


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


def test_check_identities():
    rc, out = run(["check", "identities", "--nmax", "6"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "identity,R,index,lhs,rhs,status"
    assert all(line.endswith(",ok") for line in lines[1:])


def test_report_asymptotics():
    rc, out = run(["report", "asymptotics", "--nmax", "12"])
    assert rc == 0
    assert "cayley_derangement_fraction,11,577560596,1622632573,0.3559" in out


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
