"""Traced in-process run of every workload: per-layer times and counts.

Started by ``run.py --trace 1`` with ``src/`` on PYTHONPATH.  It wraps
the public names that ``weakslit.cli``, ``weakslit.runner`` and
``weakslit.pointer`` call, plus ``SimGrid``'s transforms and
``numpy.fft.fft``/``ifft``, and records one span (name, start, end,
parent) per call.  The package itself is not modified.

Each command of each workload runs in-process three times: traced
(cold), untraced, traced (warm); while ``--seconds`` have not passed,
further traced runs follow.  Layer times come from the warm traced runs
(median), tracing overhead is warm traced minus untraced wall time, and
every count must repeat exactly between the traced runs.  The ROADMAP
scaling set (``transfer_distribution`` with 15 windows and a full tiling
at N = 2^12, 2^14, 2^16) and the import breakdown of
``python -X importtime -c "import weakslit"`` run once.  The last stdout
line is ``{"attempted", "failed", "metrics"}``; all spans are written
to ``.perfbench/trace.json``.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import weakslit.cli
import weakslit.config
import weakslit.outputs
import weakslit.pointer
import weakslit.runner
from weakslit.config import PRESETS, ScenarioConfig, from_dict
from weakslit.errors import CoverageWarning
from weakslit.grid import SimGrid
from weakslit.weak_values import transfer_distribution

from gate import check, self_check
from run import ROOT, WORK, load_refs
from workloads import WORKLOADS, Plan

IMPORT_REPEATS = 5
SCALING_SIZES = (4096, 16384, 65536)

#: (owner, attribute, span name) for every wrapped call site.
TARGETS = (
    (weakslit.cli, "from_dict", "config.from_dict"),
    (weakslit.cli, "run", "runner.run"),
    (weakslit.cli, "emit_outputs", "outputs.emit"),
    (weakslit.outputs, "render_plot", "svg.render_plot"),
    (weakslit.config, "build_double_slit", "states.build_double_slit"),
    (ScenarioConfig, "build_channel", "channels.build_channel"),
    (SimGrid, "to_momentum", "grid.fft_pair"),
    (SimGrid, "from_momentum", "grid.fft_pair"),
    (weakslit.runner, "transfer_distribution",
     "weak_values.transfer_distribution"),
    (weakslit.runner, "joint_wvp", "weak_values.joint_wvp"),
    (weakslit.runner, "conditional_wvp", "weak_values.conditional_wvp"),
    (weakslit.pointer, "conditional_wvp", "weak_values.conditional_wvp"),
    (weakslit.runner, "momentum_distribution",
     "weak_values.momentum_distribution"),
    (weakslit.runner, "run_tagged", "pointer.run_tagged"),
    (weakslit.pointer, "run_tagged", "pointer.run_tagged"),
    (weakslit.runner, "convergence_sweep", "pointer.convergence_sweep"),
    (weakslit.runner, "sharp_cutoff_variance", "moments.sweeps"),
    (weakslit.runner, "apodization_sweep", "moments.sweeps"),
)

_COMMON = ("config.from_dict", "states.build_double_slit",
           "channels.build_channel", "grid.fft_pair", "runner.run",
           "outputs.emit", "svg.render_plot")
_TRANSFER = ("weak_values.transfer_distribution", "moments.sweeps")
_POINTER = ("weak_values.joint_wvp", "weak_values.conditional_wvp",
            "weak_values.momentum_distribution", "pointer.run_tagged",
            "pointer.convergence_sweep")

#: Layers each workload's commands reach; each gets a ``<layer>_s.<workload>``
#: metric.
LAYERS = {
    "paper-cli": _COMMON + _TRANSFER + _POINTER,
    "full-tiling": _COMMON + _TRANSFER,
    "large-grid": _COMMON + _POINTER,
}


class Tracer:
    """In-memory spans and counts; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._restore = []

    def reset(self, enabled: bool):
        self.enabled = enabled
        self.spans, self.stack, self.counts = [], [], Counter()

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if name == "weak_values.transfer_distribution":
                self.counts["weak_values.windows"] += len(result.windows)
            return result
        return wrapper

    def fft_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, axis=-1, **kwargs):
            if self.enabled:
                shape = np.shape(a)
                points = math.prod(shape)
                self.counts["grid.fft_rows"] += points // shape[axis]
                self.counts["grid.fft_points"] += points
            return fn(a, *args, axis=axis, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapped):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self):
        for owner, attr, name in TARGETS:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        for attr in ("fft", "ifft"):
            self._patch(np.fft, attr, self.fft_counter(getattr(np.fft, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def nesting_problems(spans) -> list:
    """Spans that are not inside their parent or overlap a sibling.

    Without such spans, the self times of the spans under ``runner.run``
    add up to its duration, so they account for ``runner.run_s``.
    """
    problems = []
    last_end = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent is not None:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} {name} outside its parent")
        if start < last_end.get(parent, -np.inf):
            problems.append(f"span {i} {name} overlaps a sibling")
        last_end[parent] = end
    return problems


def span_totals(spans) -> Counter:
    """Inclusive seconds per span name, plus the self time of ``runner.run``.

    Self time is the span's duration minus its children's; siblings never
    overlap (``nesting_problems``), so the children cover exactly that.
    """
    totals = Counter()
    child_time = Counter()
    for name, start, end, parent in spans:
        totals[name] += end - start
        if parent is not None:
            child_time[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        if name == "runner.run":
            totals["runner.self"] += (end - start) - child_time[i]
    return totals


@dataclass
class Execution:
    """One in-process run of a command."""

    traced: bool
    code: object
    wall: float
    spans: list
    counts: dict


def run_in_process(tracer, cmd, out_dir: Path, traced: bool) -> Execution:
    tracer.reset(traced)
    argv = list(cmd.argv) + ["--out", str(out_dir)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = weakslit.cli.main(argv)
    except Exception as exc:  # a crash is one failed command
        code = repr(exc)
    wall = time.perf_counter() - t0
    tracer.enabled = False
    counts = Counter(tracer.counts)
    counts.update(f"calls.{name}" for name, *_ in tracer.spans)
    if code == 0:
        files = [p for p in out_dir.iterdir() if p.is_file()]
        counts["outputs.bytes"] = sum(p.stat().st_size for p in files)
        counts["outputs.csv_rows"] = sum(p.read_bytes().count(b"\n") - 1
                                         for p in files if p.suffix == ".csv")
    return Execution(traced, code, wall, tracer.spans, dict(counts))


def run_workloads(tracer, seed, seconds, refs):
    """Cold traced, untraced, warm traced (+ more while time remains)."""
    plans = {w: Plan(w, seed) for w in WORKLOADS}
    runs = {w: {} for w in WORKLOADS}
    problems = []

    def execute(workload, cmd, traced):
        out_dir = WORK / "trace" / workload / cmd.label
        out_dir.mkdir(parents=True, exist_ok=True)
        for p in out_dir.iterdir():
            p.unlink()
        run = run_in_process(tracer, cmd, out_dir, traced)
        found = ([f"exit {run.code}"] if run.code != 0
                 else check(out_dir, cmd, refs[workload][cmd.label]))
        found += nesting_problems(run.spans)
        if found:
            problems.append(f"{workload}/{cmd.label}: {found[:3]}")
        runs[workload].setdefault(cmd.label, []).append(run)

    t0 = time.perf_counter()
    for workload, plan in plans.items():
        for cmd in plan.round():
            for traced in (True, False, True):
                execute(workload, cmd, traced)
    while time.perf_counter() - t0 < seconds:
        for workload, plan in plans.items():
            for cmd in plan.round():
                execute(workload, cmd, True)
    problems += [f"gate self-check: {e}" for e in self_check(
        WORK / "trace" / "paper-cli", plans["paper-cli"].commands,
        refs["paper-cli"])]
    return runs, problems


def workload_metrics(workload, by_label) -> tuple:
    """Per-layer metrics of one workload, and any count that did not repeat."""
    problems = []
    passes = []
    counts = Counter()
    overhead = 0.0
    for label, executions in sorted(by_label.items()):
        traced = [e for e in executions if e.traced]
        untraced = next(e for e in executions if not e.traced)
        for other in traced[1:]:
            diff = sorted(k for k in other.counts.keys() | traced[0].counts.keys()
                          if other.counts.get(k) != traced[0].counts.get(k))
            if diff:
                problems.append(f"{workload}/{label}: counts differ: {diff}")
        warm = traced[1:]
        overhead += statistics.median(e.wall for e in warm) - untraced.wall
        for k, run in enumerate(warm):
            if len(passes) <= k:
                passes.append(Counter())
            passes[k].update(span_totals(run.spans))
        counts.update(warm[0].counts)

    metrics = {}
    for layer in LAYERS[workload] + ("runner.self",):
        metrics[f"{layer}_s.{workload}"] = (
            statistics.median(p[layer] for p in passes), "s")
    for name, unit in (("grid.fft_rows", "count"), ("grid.fft_points", "count"),
                       ("outputs.bytes", "bytes"),
                       ("outputs.csv_rows", "count")):
        metrics[f"{name}.{workload}"] = (counts[name], unit)
    if "weak_values.transfer_distribution" in LAYERS[workload]:
        metrics[f"weak_values.windows.{workload}"] = (
            counts["weak_values.windows"], "count")
    if "pointer.run_tagged" in LAYERS[workload]:
        metrics[f"pointer.run_tagged_calls.{workload}"] = (
            counts["calls.pointer.run_tagged"], "count")
    metrics[f"trace.overhead_s.{workload}"] = (overhead, "s")
    return metrics, problems


def scaling_metrics() -> dict:
    """ROADMAP scaling set: 15 windows and a full tiling at three sizes."""
    metrics = {}
    for n in SCALING_SIZES:
        config = from_dict(dict(PRESETS["paper"], grid={"n_points": n}))
        grid = config.sim_grid()
        state = config.build_state(grid)
        channel = config.build_channel(grid)
        width = config.window_width_internal()
        for name, indices in (("transfer15", range(-7, 8)),
                              ("transfer_full", None)):
            t0 = time.perf_counter()
            transfer_distribution(state, channel, width, indices)
            metrics[f"weak_values.{name}_s.n{n}"] = (
                time.perf_counter() - t0, "s")
    return metrics


_THIRD_PARTY = ("numpy", "scipy")


def _importtime_cumulative(stderr: str) -> dict:
    """Cumulative seconds of weakslit and of its outermost numpy/scipy imports.

    A numpy module that scipy imports counts towards scipy.
    """
    totals = Counter()
    ancestors = []
    # -X importtime prints a module after its imports: read it backwards so
    # that every module comes before the modules it imported.
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        name_field = field[1:]
        depth = (len(name_field) - len(name_field.lstrip(" "))) // 2
        name = name_field.strip()
        ancestors = ancestors[:depth]
        top = name.split(".")[0]
        if name == "weakslit" and depth == 0:
            totals["total"] += int(cumulative)
        if top in _THIRD_PARTY and not any(
                a.split(".")[0] in _THIRD_PARTY for a in ancestors):
            totals[top] += int(cumulative)
        ancestors.append(name)
    return {k: v * 1e-6 for k, v in totals.items()}


def import_metrics() -> dict:
    samples = {"total": [], "numpy": [], "scipy": [], "interpreter": []}
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        samples["interpreter"].append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import weakslit"],
            check=True, cwd=ROOT, stderr=subprocess.PIPE, text=True)
        found = _importtime_cumulative(proc.stderr)
        for key in ("total", "numpy", "scipy"):
            samples[key].append(found.get(key, 0.0))
    return {f"import.{k}_s": (statistics.median(v), "s")
            for k, v in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    refs = load_refs()
    # The paper-cli transfer reports its 90% coverage on every run.
    warnings.simplefilter("ignore", CoverageWarning)
    tracer = Tracer()
    tracer.install()
    try:
        runs, problems = run_workloads(tracer, args.seed, args.seconds,
                                       refs)
    finally:
        tracer.uninstall()
    metrics = {}
    for workload, by_label in runs.items():
        found, count_problems = workload_metrics(workload, by_label)
        metrics.update(found)
        problems += count_problems
    metrics.update(scaling_metrics())
    metrics.update(import_metrics())

    dump = {w: {label: [{"wall_s": e.wall, "counts": e.counts,
                         "spans": e.spans} for e in executions]
                for label, executions in by_label.items()}
            for w, by_label in runs.items()}
    (WORK / "trace.json").write_text(json.dumps(dump), encoding="utf-8")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    attempted = sum(len(e) for by_label in runs.values()
                    for e in by_label.values())
    print(json.dumps({"attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
