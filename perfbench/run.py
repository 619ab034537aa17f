#!/usr/bin/env python3
"""multiekr benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's fixed batch of instances is run in rounds until
``--seconds`` would be exceeded (at least one round). Each instance's
program calls are timed; its outputs are then re-checked by the benchmark's
own predicates outside the timed region.

``--trace 0`` reports the end-to-end metrics, ``setup_s`` among them from
fresh set-up probes (``ready.py``), with times rescaled to a reference
speed (see ``REFERENCE_S``). ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics of the traced rounds, the
tracing overhead, and the part of the traced wall time no layer span
covers. The metric names and units are those of ``BENCHMARK.json``. The
last line of standard output is the result object; the line before it
holds the run metadata and details, which are also written with the traced
spans to ``.perfbench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL_SAMPLES = 10  # the tail percentile leaves at least this many samples above it

# Times are reported at reference speed. On a shared 2-vCPU VM a plain
# Python loop's speed moved by up to 1.7x for seconds to minutes at a time,
# which no run length averages out, so each time is rescaled by a reference
# measured next to it, which is the benchmark's code and not the program's.
# Program times: a fixed chunk of pure-Python integer work, timed right
# before and right after each instance.
REFERENCE_LOOPS = 20_000
REFERENCE_S = 0.004  # the chunk's time at reference speed
REFERENCE_SHARE = 0.1  # the chunk runs for at least this share of the instance
# setup_s: a bare interpreter start (python -c pass) before each set-up
# probe. Process start-up and imports follow it closely; they do not follow
# the integer-loop chunk.
SETUP_PROBES = 7
BARE_START_S = 0.06  # a bare interpreter start at reference speed
PROGRAM_MODULES = ("core", "bounds", "kernels", "_kernels_py", "search", "compression", "corpus")


def load_program() -> SimpleNamespace:
    """Import multiekr from the checkout's src/ and select its backend."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("multiekr")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"multiekr was imported from {package.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"multiekr.{name}") for name in PROGRAM_MODULES}
    return SimpleNamespace(
        backend=package.backend_name(),
        modules=[package, *mods.values()],
        kernels_py=mods["_kernels_py"],
        **{name: mod for name, mod in mods.items() if not name.startswith("_")},
    )


def reference_time(spent: float) -> float:
    """Mean time of the reference chunk, run for at least REFERENCE_SHARE * spent s."""
    chunks = 0
    started = perf_counter()
    while True:
        x = 0
        for i in range(REFERENCE_LOOPS):
            x ^= (x << 1 | i) & 0xFFFFFFFF
        chunks += 1
        elapsed = perf_counter() - started
        if elapsed >= REFERENCE_SHARE * spent:
            return elapsed / chunks


def bare_start_time() -> float:
    started = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
    return perf_counter() - started


def setup_time(workload: str, seed: int) -> float:
    """Seconds from spawning a set-up probe until its first instance is ready."""
    started = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "ready.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as probe:
        line = probe.stdout.readline()
        ready = perf_counter() - started
    if probe.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {probe.returncode}")
    return ready


class Clock:
    """Accumulates the time spent inside ``with clock:`` blocks.

    With a tracer attached, the tracer records spans only inside them.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.elapsed = 0.0
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        self._started = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed += perf_counter() - self._started
        if self.tracer is not None:
            self.tracer.active = False
        return False


def run_round(instances, program, tracer=None):
    """Run the batch once; return wall time, per-instance times and failures.

    Times are at reference speed, except ``measured``, the wall time as
    measured. Runs that share a label are timed together as one instance.
    """
    gc.collect()
    clock = Clock(tracer)
    failures = []
    times, kinds = {}, {}
    chunk_before = reference_time(0.0)
    for inst in instances:
        before = clock.elapsed
        try:
            problems = inst.run(program, clock)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        spent = clock.elapsed - before
        chunk_after = reference_time(spent)
        spent *= 2 * REFERENCE_S / (chunk_before + chunk_after)
        chunk_before = chunk_after
        times[inst.label] = times.get(inst.label, 0.0) + spent
        kinds[inst.kind] = kinds.get(inst.kind, 0.0) + spent
        if problems:
            failures.append((f"{inst.kind} {inst.label}", problems))
    return SimpleNamespace(
        wall=sum(times.values()), measured=clock.elapsed,
        times=times, kinds=kinds, failures=failures,
    )


def tail(values):
    """Highest percentile with TAIL_SAMPLES samples above it, or the maximum."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 2 * TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[count - TAIL_SAMPLES - 1], 100.0 * (count - TAIL_SAMPLES) / count


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def median_of(rounds, key):
    return statistics.median(key(r) for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    make_instances = WORKLOADS[args.workload]

    if not (SRC / "multiekr" / "__init__.py").is_file():
        print(f"error: no multiekr sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bare_starts, setup_times = [], []
    for _ in range(0 if args.trace else SETUP_PROBES):
        bare_starts.append(bare_start_time())
        setup_times.append(setup_time(args.workload, args.seed))
    program = load_program()
    instances = make_instances(args.seed)

    deadline = perf_counter() + args.seconds
    plan = (False, True) if args.trace else (False,)
    untraced, traced, layer_rounds, durations = [], [], [], []
    tracer = None
    while True:
        started = perf_counter()
        if plan[len(durations) % len(plan)]:
            tracer = Tracer()
            tracer.install(program)
            try:
                result = run_round(instances, program, tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
            layer_rounds.append(tracer.layer_metrics(result.measured))
        else:
            untraced.append(run_round(instances, program))
        durations.append(perf_counter() - started)
        if len(durations) >= len(plan) and perf_counter() + max(durations) > deadline:
            break

    rounds = untraced + traced
    attempted = len(instances) * len(rounds)
    failures = [f for r in rounds for f in r.failures]

    per_instance = [statistics.median(r.times[label] for r in untraced) for label in untraced[0].times]
    tail_s, tail_pct = tail(per_instance)
    kind_s = {kind: median_of(untraced, lambda r: r.kinds.get(kind, 0.0)) for kind in untraced[0].kinds}
    wall_s = median_of(untraced, lambda r: r.wall)

    if args.trace:
        metrics = {
            name: statistics.median(layers[name] for layers in layer_rounds)
            for name in layer_rounds[0]
        }
        traced_wall = median_of(traced, lambda r: r.wall)
        metrics["trace.overhead_s"] = traced_wall - wall_s
        metrics["trace.overhead_frac"] = (traced_wall - wall_s) / wall_s
        metrics["frontier.find_s"] = kind_s.get("find", 0.0)
        metrics["frontier.refute_s"] = kind_s.get("refute", 0.0)
    else:
        metrics = {
            "setup_s": (
                statistics.median(setup_times) * BARE_START_S / statistics.median(bare_starts)
            ),
            "wall_s": wall_s,
            "instance_p50_s": statistics.median(per_instance),
            "instance_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(
            f"metrics {sorted(metrics)} differ from BENCHMARK.json's "
            f"{sorted(m['name'] for m in wanted)}"
        )
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    failed = len(failures)
    detail = {
        "workload": args.workload,
        "meta": {
            "backend": program.backend,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_revision": git_revision(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "measured_wall_s": median_of(untraced, lambda r: r.measured),
        "instances": len(per_instance),
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "failed_frac": failed / attempted,
        "instance_tail_percentile": tail_pct,
        "instance_tail_samples": len(per_instance),
        "kind_s": kind_s,
        "measured_setup_samples_s": setup_times,
        "bare_start_samples_s": bare_starts,
        "failures": [[label, found] for label, found in failures[:20]],
    }
    for label, found in failures[:20]:
        print(f"FAILED {label}: {found}", file=sys.stderr)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"detail": detail, "metrics": result_metrics}
    if tracer is not None:
        record["trace"] = tracer.dump()
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
