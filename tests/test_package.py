import ast
import json
import subprocess
import sys
from pathlib import Path

import recdig
from recdig import oracle


def test_every_public_name_imports():
    # A star import raises AttributeError for a name __all__ lists but the
    # package does not define.
    namespace = {}
    exec("from recdig import *", namespace)
    assert set(recdig.__all__) <= namespace.keys()


def test_cli_start_up_leaves_heavy_modules_unimported(child_env):
    # Every command runs in a fresh interpreter, so whatever `import
    # recdig.cli` pulls in is paid on every run; json is imported only by
    # --format json.
    code = """
import io, sys
from recdig import cli
assert cli.main(["seq", "cay", "--nmax", "3"], out=io.StringIO()) == 0
print(sorted({"dataclasses", "inspect", "json"} & sys.modules.keys()))
buf = io.StringIO()
assert cli.main(["seq", "cay", "--nmax", "3", "--format", "json"], out=buf) == 0
print(buf.getvalue(), end="")
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=child_env, check=True,
    ).stdout.splitlines()
    assert out[0] == "[]"
    assert [json.loads(line) for line in out[1:]] == [
        {"n": "0", "count": "1"},
        {"n": "1", "count": "1"},
        {"n": "2", "count": "3"},
        {"n": "3", "count": "13"},
    ]


def test_oracle_imports_no_route_it_checks():
    # The oracle is the independent route: of the package it may import the
    # record base only, never the code whose counts it checks.
    modules = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import stays inside the package
                module = f"recdig.{module}".rstrip(".")
            if module == "recdig":  # each name may be a submodule
                modules.update(f"recdig.{alias.name}" for alias in node.names)
            else:
                modules.add(module)
    ours = {m for m in modules if m == "recdig" or m.startswith("recdig.")}
    assert ours == {"recdig._record"}, sorted(ours)


def _modules_after(code, child_env):
    """The recdig modules a child interpreter has loaded after running code."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sorted(sys.modules))"],
        capture_output=True, text=True, env=child_env, check=True,
    ).stdout.split()
    return {m for m in out if m.startswith("recdig.")}


def test_oracle_import_loads_no_counting_route(child_env):
    # The package resolves its public names lazily, so importing the
    # oracle (or the bijections on top of it) loads no route it checks.
    for module in ("recdig.oracle", "recdig.bijections"):
        loaded = _modules_after(f"import {module}", child_env)
        assert not loaded & {
            "recdig.series", "recdig.tables", "recdig.stirling", "recdig.digraphs"
        }, (module, sorted(loaded))


def test_each_command_loads_only_what_it_runs(child_env):
    run = (
        "import io\nfrom recdig import cli\n"
        "assert cli.main({}, out=io.StringIO()) == 0"
    )
    cases = {
        ("seq", "end", "--class", "forest", "--nmax", "5"): {
            "recdig.oracle", "recdig.stats", "recdig.bijections", "recdig.stirling"},
        ("verify", "--nmax", "4", "--class", "connected"): {
            "recdig.stats", "recdig.bijections", "recdig.stirling"},
        ("count", "--n", "4", "--model", "cayley"): {
            "recdig.series", "recdig.tables", "recdig.stirling", "recdig.digraphs",
            "recdig.stats", "recdig.bijections"},
        ("table", "sdiff", "--nmax", "4"): {
            "recdig.series", "recdig.tables", "recdig.digraphs", "recdig.oracle",
            "recdig.stats", "recdig.bijections"},
        ("table", "psi", "--nmax", "4"): {
            "recdig.tables", "recdig.oracle", "recdig.stats", "recdig.bijections",
            "recdig.stirling"},
        ("report", "asymptotics", "--nmax", "4"): {
            "recdig.oracle", "recdig.bijections"},
    }
    for argv, unused in cases.items():
        loaded = _modules_after(run.format(list(argv)), child_env)
        assert not loaded & unused, (argv, sorted(loaded))
