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
