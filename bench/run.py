"""The recdig benchmark.

    python3 bench/run.py --workload {counting,trees,verify} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]
    python3 bench/run.py --record-golden

Run from the root of a checkout; the package is imported from ``src``.
Operations run serially in a closed loop, one cold interpreter each, in an
order drawn from the seed, until ``--seconds`` have passed and every
operation has run at least once.  Each result is checked
(``workloads.check_result``) outside the timed interval.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``wall_s``: sum over the operations of each one's median wall time;
* ``cpu_s``: the same for user + sys CPU time of the child processes;
* ``peak_rss_mb``: the largest median peak RSS of any one operation;
* ``setup_s``: median time for a cold interpreter to ``import recdig.cli``,
  sampled once before the run and once after every operation.

The times are reference-speed seconds (unit ``ref_s``; ``setup_s`` keeps
the unit ``s`` but is scaled the same way): each sample is multiplied by
``REFERENCE_LOOP_S / loop_s``, where ``loop_s`` is the time of the fixed
pure-Python loop ``bench/spawn.py`` runs just before and after that child.
On shared machines, whose speed drifts by tens of per cent over minutes,
this keeps the figures comparable between runs.  The raw medians and the
machine's speed factor are printed alongside and written to the result
file (``raw``).

``fail_frac`` (failed / attempted) is printed in the summary and carried by
the ``attempted`` and ``failed`` fields.  With ``--trace 1`` the last line
carries the per-layer metrics: the direct probes of ``bench/probes.py``,
the calls into ``digraphs`` during one traced pass, and the tracing
overhead (traced minus untraced ``wall_s``).  Per-layer self times of the
traced passes are printed and written with the spans to
``.bench_out/trace-<workload>-<seed>.json``.

``--scale tiny`` runs the same operations at small sizes, for the
self-tests (``bench/selftest.py``).  ``--record-golden`` runs every
deterministic operation once at both scales
and stores the sha256 of its stdout in ``bench/golden.json``; run it only on
a commit whose output is known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import OUT_DIR, SIZES, WORKLOADS, Op, check_result, operations

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
SETUP_ARGV = [sys.executable, "-c", "import recdig.cli"]
SETUP_SAMPLES = 5  # before the run; one more follows every operation
# About the calibration loop's fastest time on the machine the benchmark was
# tuned on (Intel Xeon, 2 vCPUs, Python 3.11.7).
REFERENCE_LOOP_S = 0.007
OP_TIMEOUT = 100.0
HARD_LIMIT = 160.0  # start no operation after this many seconds of a run


@dataclass
class Result:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    loop_s: float

    @property
    def speed(self) -> float:
        """Factor that scales this sample's times to the reference speed."""
        return REFERENCE_LOOP_S / self.loop_s


class Runner:
    """Runs children one at a time through the spawner (``bench/spawn.py``)."""

    def __init__(self, root: Path):
        self.root = root
        self.tmp = root / OUT_DIR / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], timeout: float) -> Result:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": timeout}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return Result(
            wall=reply["wall"],
            cpu=reply["cpu"],
            rss_mb=reply["rss_kb"] / 1024,
            exit_code=reply["exit_code"],
            timed_out=reply["timed_out"],
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
            loop_s=reply["loop_s"],
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()


def op_argv(op: Op, trace_path: Path | None = None, shim: bool = False) -> list[str]:
    """The child's argv: a real CLI command, or bench/op.py.  ``shim`` runs
    a CLI operation through op.py untraced, so that traced and untraced
    samples pay the same start-up."""
    if op.kind == "cli" and trace_path is None and not shim:
        return [sys.executable, "-m", "recdig.cli", *op.args]
    argv = [sys.executable, str(BENCH_DIR / "op.py")]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    return argv + [op.kind, *op.args]


def machine_record(root: Path, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "recdig").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "seed": seed,
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def check_package(runner: Runner) -> None:
    """Fail unless the children import recdig from this checkout's src."""
    res = runner.run(
        [sys.executable, "-c", "import recdig.cli; print(recdig.__file__)"], 60
    )
    expected = runner.root / "src" / "recdig"
    found = Path(res.stdout.decode().strip() or ".").resolve().parent
    if res.exit_code != 0 or found != expected.resolve():
        sys.exit(f"error: recdig does not import from {expected}: "
                 f"{res.stderr.decode()[-300:]}")


class Workload:
    """Runs a workload's operations, checks them and keeps their samples."""

    def __init__(self, runner: Runner, ops: list[Op], golden: dict, seed: int,
                 shim: bool = False):
        self.runner, self.ops, self.golden, self.shim = runner, ops, golden, shim
        self.rng = random.Random(seed)
        self.samples: dict[tuple[str, bool], list[Result]] = {}
        self.setup: list[Result] = []
        self.errors: dict[str, str] = {}
        self.attempted = self.failed = 0
        self._checked: dict[tuple, str | None] = {}
        for op in ops:
            if op.inputs is not None:
                path = runner.root / op.args[-1]
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(op.inputs()))

    def run_pass(self, stop, trace_dir: Path | None = None) -> list[dict]:
        """One pass in a seeded order, cut short once stop() holds; returns
        the spans of a traced pass."""
        order = list(self.ops)
        self.rng.shuffle(order)
        traces = []
        for op in order:
            remaining = stop()
            if remaining is None:
                break
            trace_path = trace_dir / "op.json" if trace_dir else None
            res = self.runner.run(op_argv(op, trace_path, self.shim), remaining)
            self.attempted += 1
            key = (op.key, res.exit_code, res.timed_out,
                   hashlib.sha256(res.stdout).hexdigest())
            if key not in self._checked:
                self._checked[key] = check_result(op, res, self.golden)
            error = self._checked[key]
            if error is not None:
                self.failed += 1
                self.errors[op.key] = f"{error} {res.stderr.decode()[-200:]}".strip()
            res.stdout = res.stderr = b""  # checked; keep only the figures
            self.samples.setdefault((op.key, trace_dir is not None), []).append(res)
            if trace_path is not None and error is None:
                traces.append(dict(json.loads(trace_path.read_text()), op=op.key))
            self.sample_setup()
        return traces

    def sample_setup(self) -> None:
        res = self.runner.run(SETUP_ARGV, 60)
        if res.exit_code != 0:
            sys.exit(f"error: import recdig.cli failed: {res.stderr.decode()[-300:]}")
        self.setup.append(res)

    def complete(self, traced: bool) -> bool:
        return all((op.key, traced) in self.samples for op in self.ops)

    def summary(self, traced: bool) -> dict:
        per_op = {}
        for op in self.ops:
            runs = self.samples.get((op.key, traced), [])
            if runs:
                per_op[op.key] = {
                    "samples": len(runs),
                    "wall_s": statistics.median(r.wall * r.speed for r in runs),
                    "cpu_s": statistics.median(r.cpu * r.speed for r in runs),
                    "rss_mb": statistics.median(r.rss_mb for r in runs),
                    "raw_wall_s": statistics.median(r.wall for r in runs),
                    "raw_cpu_s": statistics.median(r.cpu for r in runs),
                }
        return per_op


def totals(per_op: dict) -> dict:
    return {
        "wall_s": sum(v["wall_s"] for v in per_op.values()),
        "cpu_s": sum(v["cpu_s"] for v in per_op.values()),
        "peak_rss_mb": max((v["rss_mb"] for v in per_op.values()), default=0.0),
    }


def run_probes(runner: Runner, scale: str) -> dict:
    res = runner.run([sys.executable, str(BENCH_DIR / "probes.py"), scale], OP_TIMEOUT)
    if res.exit_code != 0 or res.timed_out:
        print(f"FAILED probes: {res.stderr.decode()[-300:]}")
        return {}
    return json.loads(res.stdout.decode().splitlines()[-1])


def run_benchmark(args) -> int:
    t0 = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "recdig" / "__init__.py").is_file():
        print(f"error: no recdig package under {root / 'src'}; run from the "
              "root of a recdig checkout", file=sys.stderr)
        return 2
    runner = Runner(root)
    try:
        return measure(args, root, runner, t0)
    finally:
        runner.close()


def measure(args, root: Path, runner: Runner, t0: float) -> int:
    out_dir = root / OUT_DIR
    check_package(runner)
    golden = json.loads(GOLDEN.read_text())
    record = machine_record(root, args.seed)
    record.update(workload=args.workload, trace=args.trace, scale=args.scale,
                  seconds=args.seconds)
    ops = operations(args.workload, args.seed, args.scale)
    wl = Workload(runner, ops, golden, args.seed, shim=bool(args.trace))
    for _ in range(SETUP_SAMPLES):
        wl.sample_setup()
    probes: dict = {}
    traces: list[dict] = []
    end = t0 + args.seconds
    deadline = t0 + HARD_LIMIT

    def stop() -> float | None:
        """None when the run is over, else the next operation's timeout."""
        now = time.perf_counter()
        done = wl.complete(False) and (not args.trace or wl.complete(True))
        if now >= deadline or (now >= end and done):
            return None
        return min(OP_TIMEOUT, deadline - now)

    if args.trace:
        probes = run_probes(runner, args.scale)
        wl.attempted += 1
        wl.failed += not probes
        trace_dir = out_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        while stop() is not None:
            wl.run_pass(stop)
            pass_traces = wl.run_pass(stop, trace_dir)
            if not traces:
                traces = pass_traces
    else:
        while stop() is not None:
            wl.run_pass(stop)

    untraced = wl.summary(False)
    e2e = dict(totals(untraced),
               setup_s=statistics.median(r.wall * r.speed for r in wl.setup))
    runs = wl.setup + [r for v in wl.samples.values() for r in v]
    speed = statistics.median(r.speed for r in runs)
    raw = {
        "wall_s": sum(v["raw_wall_s"] for v in untraced.values()),
        "cpu_s": sum(v["raw_cpu_s"] for v in untraced.values()),
        "setup_s": statistics.median(r.wall for r in wl.setup),
    }
    fail_frac = wl.failed / max(wl.attempted, 1)
    correct = wl.failed == 0 and wl.complete(False)

    print(f"recdig benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale}")
    print("machine " + json.dumps(record, sort_keys=True))
    print(f"{'operation':<52} {'n':>3} {'wall_s':>8} {'cpu_s':>8} {'rss_mb':>8} "
          f"{'raw_wall':>8}")
    for key, v in untraced.items():
        print(f"{key[:52]:<52} {v['samples']:>3} {v['wall_s']:8.3f} "
              f"{v['cpu_s']:8.3f} {v['rss_mb']:8.1f} {v['raw_wall_s']:8.3f}")
    for key, error in wl.errors.items():
        print(f"FAILED {key}: {error}")
    samples = min((v["samples"] for v in untraced.values()), default=0)
    print(f"wall_s {e2e['wall_s']:.4f} s, cpu_s {e2e['cpu_s']:.4f} s "
          f"(reference speed; sums of per-operation medians, >= {samples} "
          f"samples each; raw wall {raw['wall_s']:.4f} s, cpu {raw['cpu_s']:.4f} s; "
          f"median speed factor {speed:.3f})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB, setup_s {e2e['setup_s']:.4f} s "
          f"(median of {len(wl.setup)}; raw {raw['setup_s']:.4f} s), "
          f"fail_frac {fail_frac:g} "
          f"({wl.failed}/{wl.attempted})")

    if args.trace:
        traced = totals(wl.summary(True))
        layers: dict[str, dict] = {}
        for t in traces:
            for name, v in t["layers"].items():
                total = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
                total["calls"] += v["calls"]
                total["self_s"] += v["self_s"]
        metrics = dict(probes)
        metrics["digraphs.calls"] = layers.get("digraphs", {}).get("calls", 0)
        metrics["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
        print(f"traced wall_s {traced['wall_s']:.4f} s, overhead "
              f"{metrics['trace.overhead_s']:.4f} s")
        print("per layer over one traced pass: " + ", ".join(
            f"{k} {v['self_s']:.3f} s self in {v['calls']} calls"
            for k, v in sorted(layers.items())))
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"record": record, "ops": traces}))
        print(f"spans written to {trace_file.relative_to(root)}")
    else:
        metrics = e2e

    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec if m["name"] in metrics},
    }
    (out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(dict(result, record=record, operations=untraced,
                        samples={f"{k} traced={t}": [[r.wall, r.cpu, r.loop_s] for r in v]
                                 for (k, t), v in wl.samples.items()},
                        setup_samples=[[r.wall, r.loop_s] for r in wl.setup],
                        raw=raw, speed=speed, fail_frac=fail_frac), indent=1))
    print(json.dumps(result))
    return 0


def record_golden() -> int:
    runner = Runner(Path.cwd())
    golden, bad = {}, []
    try:
        check_package(runner)
        for scale in SIZES:
            for name in WORKLOADS:
                for op in operations(name, 0, scale):
                    if not op.golden:
                        continue
                    res = runner.run(op_argv(op), OP_TIMEOUT)
                    digest = hashlib.sha256(res.stdout).hexdigest()
                    error = check_result(op, res, {op.key: digest})
                    if error:
                        bad.append(f"{op.key}: {error}")
                    golden[op.key] = digest
    finally:
        runner.close()
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {GOLDEN.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SIZES), default="full")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
