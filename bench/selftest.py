"""Self-tests of the benchmark at tiny sizes.

    python3 bench/selftest.py      # from the root of a checkout, ~1 minute

Checks that every operation's independent checker, on its own, rejects a
corrupted or cut stdout, and that the full check (digest and checker)
rejects these, a wrong exit code and a timeout; that the tracer records parents and self times and
never wraps the recursive functions; that every metric BENCHMARK.json
names is emitted; that the counts repeat exactly; and that the benchmark
refuses to run without the package.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from run import Runner, op_argv  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    OUT_DIR,
    WORKLOADS,
    CheckError,
    check_result,
    operations,
)

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


def corruptions(stdout: bytes) -> list[bytes]:
    """The stdout with its last digit changed, with the digit nearest its
    middle changed, cut in half, and empty."""
    digits = [k for k, b in enumerate(stdout) if chr(b).isdigit()]
    middle = min(digits, key=lambda k: abs(k - len(stdout) // 2))
    out = []
    for i in (digits[-1], middle):
        new = str((int(chr(stdout[i])) + 1) % 10).encode()
        out.append(stdout[:i] + new + stdout[i + 1:])
    return out + [stdout[: len(stdout) // 2], b""]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class CheckerTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runner = Runner(ROOT)

    @classmethod
    def tearDownClass(cls):
        cls.runner.close()

    def test_checkers_accept_real_and_reject_bad_output(self):
        for name in WORKLOADS:
            ops = operations(name, 5, "tiny")
            for op in ops:
                if op.inputs is not None:
                    path = ROOT / op.args[-1]
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(json.dumps(op.inputs()))
                with self.subTest(op=op.key):
                    res = self.runner.run(op_argv(op), 60)
                    self.assertIsNone(check_result(op, res, GOLDEN))
                    op.check(res.stdout)
                    bad = [dataclasses.replace(res, stdout=out)
                           for out in corruptions(res.stdout)]
                    for r in bad:
                        # The checker alone, without the golden digest.
                        with self.assertRaises(CheckError):
                            op.check(r.stdout)
                    bad += [
                        dataclasses.replace(res, exit_code=1),
                        dataclasses.replace(res, timed_out=True),
                    ]
                    for r in bad:
                        self.assertIsNotNone(check_result(op, r, GOLDEN))

    def test_timeout_and_exit_code_of_real_children(self):
        res = self.runner.run([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
        self.assertTrue(res.timed_out)
        self.assertLess(res.wall, 10)
        op = operations("counting", 0, "tiny")[0]
        self.assertEqual(check_result(op, res, GOLDEN), "timed out")
        res = self.runner.run([sys.executable, "-m", "recdig.cli", "seq", "nope",
                               "--nmax", "3"], 60)
        self.assertEqual(res.exit_code, 2)
        self.assertEqual(check_result(op, res, GOLDEN), "exit code 2")


class TracerTests(unittest.TestCase):
    def test_spans_parents_self_time_and_aggregates(self):
        mod = types.ModuleType("recdig.fake")

        def leaf():
            pass

        def outer():
            time.sleep(0.01)
            for _ in range(tracer.SPAN_LIMIT + 3):
                mod.leaf()

        def gen():
            yield from range(3)

        for fn in (leaf, outer, gen):
            fn.__module__ = "recdig.fake"
            fn.__qualname__ = fn.__name__
            setattr(mod, fn.__name__, fn)
        rec = Tracer()
        rec.install([mod])
        mod.outer()
        self.assertEqual(list(mod.gen()), [0, 1, 2])
        rec.uninstall()
        self.assertIs(mod.leaf, leaf)

        top = next(s for s in rec.spans if s[1] == "fake.outer")
        leaves = [s for s in rec.spans if s[1] == "fake.leaf"]
        self.assertEqual(len(leaves), tracer.SPAN_LIMIT)  # the rest are aggregated
        self.assertTrue(all(s[4] == top[0] for s in leaves))
        calls, total, _ = rec.aggregates["fake.leaf"]
        self.assertEqual(calls, 3)
        children = sum(s[3] - s[2] for s in leaves) + total
        self.assertAlmostEqual(top[5], top[3] - top[2] - children, places=6)
        self.assertGreater(top[5], 0.009)
        self.assertEqual(rec.aggregates["fake.gen.next"][0], 4)  # 3 items + stop
        self.assertEqual(rec.calls("fake.leaf"), tracer.SPAN_LIMIT + 3)

    def test_recursive_functions_are_never_wrapped(self):
        from recdig import digraphs, stirling

        sdiff, r_stirling = stirling.sdiff, stirling.r_stirling
        with Tracer():
            self.assertIs(stirling.sdiff, sdiff)
            self.assertIs(stirling.r_stirling, r_stirling)
            self.assertIs(digraphs.sdiff, sdiff)
            self.assertIsNot(digraphs.cayley_count.__wrapped__, None)
        self.assertFalse(hasattr(digraphs.cayley_count, "__wrapped__"))


class EndToEndTests(unittest.TestCase):
    def last_json(self, proc) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_is_emitted_and_counts_repeat(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out = self.last_json(run_bench("--workload", name, "--seed", "3",
                                               "--seconds", "0", "--trace", "0",
                                               "--scale", "tiny"))
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, e2e)
                runs = [self.last_json(run_bench("--workload", name, "--seed", seed,
                                                 "--seconds", "0", "--trace", "1",
                                                 "--scale", "tiny"))
                        for seed in ("3", "4")]
                for out in runs:
                    self.assertTrue(out["correct"])
                    self.assertEqual(
                        {k: v["unit"] for k, v in out["metrics"].items()}, layer)
                for key, unit in layer.items():
                    if unit == "count":
                        self.assertEqual(runs[0]["metrics"][key], runs[1]["metrics"][key])

    def test_refuses_to_run_without_the_package(self):
        bare = ROOT / OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "counting", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
