"""Start benchmark children and measure each one with wait4.

    python3 bench/spawn.py    # one JSON request per stdin line

Linux carries a process's peak RSS across exec, so a child reports at
least the peak RSS of whoever started it.  The benchmark parent grows as
it reads and checks outputs; this small, long-lived process starts the
children instead, so their ``ru_maxrss`` is their own.

The machine this runs on is shared, and its speed drifts by tens of per
cent over minutes.  So around each child the spawner also times a fixed
pure-Python loop; the caller scales the child's times by it.

Request: {"argv": [...], "stdout": path, "stderr": path, "timeout": s}.
Reply: {"wall": s, "cpu": s, "rss_kb": n, "exit_code": n, "timed_out": bool,
        "loop_s": mean time of the calibration loop before and after}.
"""

import json
import os
import subprocess
import sys
import threading
import time

CALIBRATION_LOOP = 100_000


def calibrate(repeats=3):
    """Fastest of a few runs of the loop: the speed the machine offers now."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for k in range(CALIBRATION_LOOP):
            acc += k * k
        best = min(best, time.perf_counter() - start)
    return best


def run(argv, stdout, stderr, timeout):
    before = calibrate()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        lock = threading.Lock()
        state = {"done": False, "killed": False}

        def expire():
            with lock:
                if not state["done"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(timeout, expire)
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["done"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    after = calibrate()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "exit_code": proc.returncode,
        "timed_out": state["killed"],
        "loop_s": (before + after) / 2,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
