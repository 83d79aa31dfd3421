"""The epplan benchmark: time to verdict on three planning workloads.

    python3 bench/run.py --workload lang-decide --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The passes run in one process and one thread, as a closed
loop with one caller: each planner call starts after the previous
verdict returned.  A pass runs every instance of the workload once;
passes repeat while the next one is expected to end within
``--seconds``, and each metric is the median over passes.  Every
verdict and plan is checked against ``expected.json`` and every answer
is confirmed independently (see ``check.py``).

With ``--trace 0`` the end-to-end metrics are printed, measured without
tracing, with every time scaled to a steady host speed (see
``speed.py``).  With ``--trace 1`` the passes run with every layer boundary
wrapped (see ``spans.py``), the per-layer metrics are printed and the
spans of the last pass are written to ``.bench_out/``.  The
last line of stdout is one JSON object; the exit code is 0 only when
every answer was right.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import epplan  # noqa: E402

if Path(epplan.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"epplan was imported from {epplan.__file__}, not from {SRC}")

from epplan import planner  # noqa: E402
from epplan.errors import EppError  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# a traced run leaves its last pass's spans here, relative to the working directory
SPANS_DIR = ".bench_out"

# setup_s is the median of this many fresh processes that only build the inputs
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_geomean_s": "s",
    "bfs_s": "s",
    "peak_rss_mib": "MiB",
}


def pin_hash_seed(seed):
    """Re-run this process with string hashing fixed by the seed.

    Set iteration order decides how the program numbers automaton states,
    and with it a few cache hits and construction counts; a fixed hash
    seed makes every count repeat exactly for a given ``--seed``.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run_pass(instances, host=None):
    """One closed-loop pass: per call, its result (or error text) and time.

    With ``host`` (a ``speed.HostSpeed``) each time is at nominal host
    speed; without it, plain seconds.
    """
    results, times = {}, {}
    for inst in instances:
        mark = host.mark() if host is not None else None
        start = time.perf_counter()
        try:
            if inst.planner == "decide":
                result = planner.decide_plan(inst.model, inst.world, inst.action,
                                             inst.goal)
            else:
                result = planner.bfs_plan(inst.model, inst.world, inst.action,
                                          inst.goal, inst.max_depth)
        except EppError as err:
            result = f"raised {type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        times[inst.name] = host.scaled(elapsed, mark) if host is not None else elapsed
        results[inst.name] = result
    return results, times


def measure(instances, seconds, tracer=None, host=None):
    """Passes for as long as the next one, if it takes as long as the
    median pass so far, ends within ``seconds`` (at least one pass).

    Returns per pass: results, call times, wall time and, when traced,
    the layer metrics.  With ``host``, call times are at nominal host
    speed (see ``speed.py``); the wall time is always plain seconds.
    """
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started
                         + statistics.median(p["wall"] for p in passes) <= seconds):
        gc.collect()
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        results, times = run_pass(instances, host)
        wall = time.perf_counter() - start
        layers = tracer.metrics() if tracer is not None else None
        passes.append({"results": results, "times": times, "wall": wall,
                       "layers": layers})
    return passes


def setup_seconds(workload, seed):
    """Median set-up time of fresh processes that import epplan and build
    the workload's inputs (see ``setup_time.py``)."""
    command = [sys.executable, str(Path(__file__).with_name("setup_time.py")),
               workload, str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, check=True, capture_output=True, text=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def end_to_end(passes, instances, setup_s):
    bfs = [inst.name for inst in instances if inst.planner == "bfs"]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(p["times"].values()) for p in passes),
        "verdict_geomean_s": statistics.median(
            statistics.geometric_mean(p["times"].values()) for p in passes),
        "bfs_s": statistics.median(sum(p["times"][n] for n in bfs) for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(passes, setup_layers, loc):
    """Times are medians over passes; counts come from the first pass (they
    repeat exactly from pass to pass)."""
    first = passes[0]["layers"]
    out = {}
    for name, value in first.items():
        if name.startswith("cli."):
            value = setup_layers[name]
        elif name.endswith("_s"):
            value = statistics.median(p["layers"][name] for p in passes)
        out[name] = {"value": value, "unit": layer_unit(name)}
    out["traced.wall_s"] = {"value": statistics.median(p["wall"] for p in passes),
                            "unit": "s"}
    for name, lines in loc.items():
        out[name] = {"value": lines, "unit": "lines"}
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main():
    args = parse_args()
    pin_hash_seed(args.seed)
    expected = check.load_expected()

    if args.trace:
        with spans.Tracer() as tracer:
            instances = workloads.build(args.workload, args.seed)
            setup_layers = tracer.metrics()
            passes = measure(instances, args.seconds, tracer)
        tracer.write(Path(SPANS_DIR, f"spans-{args.workload}.jsonl"))
        metrics = per_layer(passes, setup_layers, spans.source_lines())
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        instances = workloads.build(args.workload, args.seed)
        with speed.HostSpeed() as host:
            passes = measure(instances, args.seconds, host=host)
        metrics = end_to_end(passes, instances, setup_s)
        print(f"[bench] {len(passes)} passes; plain wall time per pass "
              f"{statistics.median(p['wall'] for p in passes):.3f} s; host speed "
              f"{speed.SLICE_S / statistics.median(host.samples):.2f} of nominal "
              f"over {len(host.samples)} samples", file=sys.stderr)

    problems, failed = [], set()
    for index, p in enumerate(passes):
        for name, reason in check.check_pass(instances, p["results"], expected):
            problems.append(f"pass {index}: {name}: {reason}")
            failed.add((index, name))
    for inst in instances:
        result = passes[0]["results"][inst.name]
        reason = None if isinstance(result, str) else check.confirm(inst, result)
        if reason is not None:
            problems.append(f"{inst.name}: {reason}")
            failed.update((index, inst.name) for index in range(len(passes)))
    for line in problems:
        print(f"[bench] {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(passes) * len(instances),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
