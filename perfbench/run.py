"""weakslit benchmark: closed-loop CLI workloads, checked outputs, traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 15 --trace 0

One client runs the workload's commands (see ``workloads.py``) one at a
time, each as a fresh ``python -m weakslit`` process on ``src/``, and
checks every output directory with ``gate.py``.  Set-up loads the
references and runs one untimed warm-up round; it is repeated
``SETUP_REPEATS`` times and reported as the median.  Rounds then repeat
until ``--seconds`` have passed.  A round's time is the sum of its
commands' wall times; the gate runs between commands, untimed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
``layers.py``, the in-process traced run, and prints the per-layer
metrics.  That run traces all three workloads whatever ``--workload``
says, so every per-layer metric is measured where its layer runs and
none reads zero.  The last stdout line is the JSON result; scratch
files go to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from gate import check, self_check
from workloads import WORKLOADS, Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFS = HERE / "refs.json"

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 60.0
TRACE_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def load_refs() -> dict:
    return json.loads(REFS.read_text(encoding="utf-8"))


def run_command(cmd, out_dir: Path):
    """Run one CLI command; return (exit code, wall s, max RSS KiB, stderr)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    err_path = out_dir.with_name(out_dir.name + ".stderr")
    argv = [sys.executable, "-m", "weakslit", *cmd.argv, "--out", str(out_dir)]
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return proc.returncode, wall, usage.ru_maxrss, stderr


class Client:
    """Closed-loop client for one workload: runs, checks and records."""

    def __init__(self, workload: str, seed: int, refs: dict):
        self.workload = workload
        self.plan = Plan(workload, seed)
        self.refs = refs[workload]
        self.attempted = 0
        self.failed = 0

    def out_dir(self, cmd) -> Path:
        return WORK / self.workload / cmd.label

    def execute(self, cmd):
        """Run and check one command; return (wall s, max RSS KiB)."""
        code, wall, rss, stderr = run_command(cmd, self.out_dir(cmd))
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code}: {stderr.strip()[-300:]}"]
        else:
            problems = check(self.out_dir(cmd), cmd, self.refs[cmd.label])
        if problems:
            self.failed += 1
            print(f"FAIL {self.workload}/{cmd.label}: {problems[:3]}",
                  file=sys.stderr)
        return wall, rss

    def setup(self) -> list:
        """Untimed warm-up rounds; returns the duration of each set-up."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.refs = load_refs()[self.workload]
            for cmd in self.plan.round():
                self.execute(cmd)
            times.append(time.perf_counter() - t0)
        return times

    def measure(self, seconds: float):
        """Whole rounds until *seconds* have passed; returns samples."""
        rounds, cmds, rss = [], [], []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < seconds:
            total = 0.0
            for cmd in self.plan.round():
                wall, peak = self.execute(cmd)
                cmds.append(wall)
                rss.append(peak)
                total += wall
            rounds.append(total)
        return rounds, cmds, rss


def end_to_end(client: Client, seconds: float) -> dict:
    setup = client.setup()
    errors = self_check(WORK / client.workload, client.plan.commands,
                        client.refs)
    if errors:
        raise RuntimeError(f"gate self-check failed: {errors}")
    rounds, cmds, rss = client.measure(seconds)
    print(f"samples: {len(rounds)} rounds, {len(cmds)} commands, "
          f"{len(setup)} set-ups")
    p50, p90 = (statistics.quantiles(cmds, n=10, method="inclusive")[i]
                for i in (4, 8))
    return {
        "round_s.p50": (statistics.median(rounds), "s"),
        "cmd_s.p50": (p50, "s"),
        "cmd_s.p90": (p90, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": (1.0 - client.failed / client.attempted, "ratio"),
        "peak_rss_mib": (max(rss) / 1024.0, "MiB"),
    }


def traced(seed: int, seconds: float) -> dict:
    """Run layers.py in a child process and return its result object."""
    argv = [sys.executable, str(HERE / "layers.py"), "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), text=True,
                          stdout=subprocess.PIPE, timeout=TRACE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"layers.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weakslit" / "__init__.py").is_file():
        print(f"no weakslit sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("environment: " + json.dumps(environment(), sort_keys=True))

    try:
        if args.trace:
            result = traced(args.seed, args.seconds)
            attempted, failed = result["attempted"], result["failed"]
            metrics = result["metrics"]
        else:
            client = Client(args.workload, args.seed, load_refs())
            metrics = end_to_end(client, args.seconds)
            attempted, failed = client.attempted, client.failed
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
