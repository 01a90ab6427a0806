"""Benchmark of the hcran_noma solver: end-to-end metrics with tracing off,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, tracing off

The package is imported from ``src/`` of the checkout this file sits in.  The
last line of standard output is one JSON object: correct, attempted, failed
and the metrics named in BENCHMARK.json at the checkout's root.
"""

from __future__ import annotations

import os

# one BLAS thread per process, inherited by the pool's children, so that
# each worker uses one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 5

if not (SRC / "hcran_noma" / "__init__.py").is_file():
    sys.exit(f"error: no package source at {SRC / 'hcran_noma'}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import hcran_noma  # noqa: E402

if Path(hcran_noma.__file__).resolve().parent != (SRC / "hcran_noma").resolve():
    sys.exit(f"error: hcran_noma imported from {hcran_noma.__file__}, not {SRC}")

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Campaign, capture_draws, workers  # noqa: E402


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of the time from process start until the
    package is imported and the workload's inputs are built.  Each process
    prints its wall clock when its inputs are ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", name, "--seed", str(seed)],
                              check=True, timeout=120, capture_output=True, text=True)
        times.append(float(proc.stdout) - t0)
    return statistics.median(times)


def run_untraced(name: str, seed: int, seconds: float):
    setup = setup_seconds(name, seed)
    wl = WORKLOADS[name](seed)
    inputs = wl.build_inputs()
    rounds = []
    t0 = time.perf_counter()
    # start another whole round only if it ends nearer to `seconds` than
    # stopping now would, so a run lasts `seconds` give or take half a round
    while not rounds or (time.perf_counter() - t0
                         + statistics.median(r.wall for r in rounds) / 2 < seconds):
        rounds.append(wl.run_round(inputs))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"round {i} outputs differ from round 0"
                for i, r in enumerate(rounds) if r.fingerprint != rounds[0].fingerprint]
    problems += wl.check(inputs, rounds[-1])
    first = rounds[0]
    # every step's median over the rounds, so a slow spell of the host that
    # hits some steps of some rounds moves no figure
    steps = step_medians([r.step_seconds for r in rounds])
    ops = step_medians([r.op_seconds for r in rounds])
    metrics = {
        "setup_s": setup,
        "ops_per_s": (first.attempted - first.failed) / sum(steps),
        "op_geomean_s": statistics.geometric_mean(ops) if ops else 0.0,
        "peak_rss_mb": peak_rss,
        "mean_ee": statistics.fmean(first.ee) if first.ee else 0.0,
    }
    return rounds, problems, metrics


def step_medians(per_round: list[list[float]]) -> list[float]:
    """The median over the rounds of each step's seconds; every round times
    the same steps, since its outputs equal the first round's."""
    return [statistics.median(times) for times in zip(*per_round)]


def run_traced(name: str, seed: int):
    """One untraced round, then the same round traced; the traced outputs
    must equal the untraced ones bit for bit."""
    wl = WORKLOADS[name](seed)
    inputs = wl.build_inputs()
    campaign = isinstance(wl, Campaign)
    pooled = wl.run_round(inputs)
    base = pooled
    if campaign:
        # the traced campaign runs its draws in-process; time the untraced
        # in-process round too, so the difference is the tracing overhead
        inputs = wl.build_inputs(n_workers=1)
        base = wl.run_round(inputs)

    capture = capture_draws() if campaign else nullcontext()
    memory = name == "ladder"
    if memory:
        tracemalloc.start()
    try:
        with Tracer() as tracer, capture:
            traced_inputs = inputs if campaign else wl.build_inputs()
            traced = wl.run_round(traced_inputs, tracer=tracer, memory=memory)
    finally:
        if memory:
            tracemalloc.stop()

    problems = []
    if traced.fingerprint != base.fingerprint or pooled.fingerprint != base.fingerprint:
        problems.append("traced outputs differ from untraced outputs")
    problems += wl.check(traced_inputs, traced,
                         traced=capture.checked() if campaign else None)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{name}-seed{seed}-spans.jsonl")
    metrics = layer_metrics(tracer, wl, pooled, traced)
    metrics["trace.overhead_s"] = traced.wall - base.wall
    return [traced], problems, metrics


# spans and counts reported per ladder size as well as in total
SIZED_SPANS = ("dinkelbach.solve", "scale.solve_fixed_e", "scale.coeffs_at",
               "scale.dual_update", "model.check_feasibility")
SIZED_COUNTS = ("scale.cold.s", "scale.warm.s", "scale.rounds", "scale.sweeps",
                "scale.kept_warm")
TOTAL_SPANS = ("scenarios.build_config", "scenarios.gen_channel",
               "scenarios.run_sweep", "scenarios.run_draw", "scenarios.tiny_instance",
               "model.per_user_rate", "model.rate_array", "model.sinr_array",
               "model.energy_efficiency", "polyblock.solve_fixed_e")


def layer_metrics(tracer: Tracer, wl, pooled, traced) -> dict:
    values: dict = defaultdict(float)  # (key, tag) -> value
    for (name, tag), entry in tracer.totals().items():
        values[(f"{name}.s", tag)] += entry["s"]
        values[(f"{name}.calls", tag)] += entry["calls"]
        values[(f"{name}.self", tag)] += entry["self"]
    for key, value in tracer.counts.items():
        values[key] += value

    def total(key):
        return sum(v for (k, _), v in values.items() if k == key)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict = {}

    def sized(get, sfx):
        for span in SIZED_SPANS:
            metrics[f"{span}.s{sfx}"] = get(f"{span}.s")
            metrics[f"{span}.calls{sfx}"] = get(f"{span}.calls")
        for count in SIZED_COUNTS:
            metrics[f"{count}{sfx}"] = get(count)
        metrics[f"scale.self.s{sfx}"] = get("scale.solve_fixed_e.self")
        metrics[f"scale.s_per_sweep{sfx}"] = ratio(get("scale.solve_fixed_e.s"),
                                                   get("scale.sweeps"))

    sized(total, "")
    peaks = traced.extra.get("peak_mb", {})
    for tag in {t for _, t in values if t}:
        sized(lambda key: values.get((key, tag), 0.0), "." + tag)
        metrics[f"scale.peak_alloc_mb.{tag}"] = peaks.get(tag, 0.0)
    metrics["scale.peak_alloc_mb"] = max(peaks.values(), default=0.0)

    for span in TOTAL_SPANS:
        metrics[f"{span}.s"] = total(f"{span}.s")
        metrics[f"{span}.calls"] = total(f"{span}.calls")
    metrics["dinkelbach.self.s"] = total("dinkelbach.solve.self")
    metrics["dinkelbach.outer_iterations"] = total("dinkelbach.outer_iterations")
    metrics["dinkelbach.converged"] = total("dinkelbach.converged")
    metrics["polyblock.iterations"] = total("polyblock.iterations")
    metrics["polyblock.s_per_iteration"] = ratio(total("polyblock.solve_fixed_e.s"),
                                                 total("polyblock.iterations"))
    metrics["polyblock.gap_rel"] = ratio(total("polyblock.gap_rel_sum"),
                                         total("polyblock.solved"))
    ratios = traced.extra.get("ratio", [])
    metrics["polyblock.local_to_global"] = statistics.fmean(ratios) if ratios else 0.0
    metrics["scenarios.pool_utilisation"] = 0.0
    if isinstance(wl, Campaign):
        metrics["scenarios.pool_utilisation"] = ratio(
            wl.draw_seconds(pooled), sum(pooled.step_seconds) * workers())
    return metrics


def result_line(spec_metrics, rounds, problems, metrics) -> dict:
    names = {m["name"]: m["unit"] for m in spec_metrics}
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u}
                    for n, u in names.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process; prints one line per metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed).build_inputs()
        print(repr(time.time()))
        return 0
    if args.workload == "all":
        return run_all(args)

    spec = load_spec()
    if args.trace:
        rounds, problems, metrics = run_traced(args.workload, args.seed)
        line = result_line(spec["per_layer"], rounds, problems, metrics)
    else:
        rounds, problems, metrics = run_untraced(args.workload, args.seed, args.seconds)
        line = result_line(spec["end_to_end"], rounds, problems, metrics)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(line, fh, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
