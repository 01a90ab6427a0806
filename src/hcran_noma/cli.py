"""Command-line front end: single solves, figure sweeps (draws optionally
spread over a process pool), the signalling-overhead curves and the
optimality-gap study.

Configs are YAML key-value files; every key is optional and falls back to the
experiment defaults (42 dBm high-power node, 23 dBm low-power heads, mask =
budget/N, -174 dBm/Hz noise, unit weights, 1024-bit packets, 25-packet queues,
stop tolerance 0.01).  Unknown keys are rejected by name.

All CSV outputs start with a comment block recording the config hash, the git
revision, and the command; identical (config, seed) runs produce identical
bytes unless the opt-in timing column is enabled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import yaml

from . import dinkelbach, model, overhead
from .model import ConfigError, NetworkConfig, Tolerances
from .polyblock import PolyblockSolver
from .scale import ScaleSolver
from .scenarios import (ARCHITECTURES, Scenario, _config_for, build_config,
                        gen_channel, run_sweep, tiny_instance)

_NETWORK_KEYS = {
    "architecture", "m_f", "n_subcarriers", "bandwidth_hz", "noise_dbm_hz",
    "l_max", "mask_dbm",
}
_TRAFFIC_KEYS = {"arrival_rate", "queue_packets", "packet_bits"}
_SCENARIO_KEYS = {
    "sweep", "values", "users", "streaming_users", "draws", "seed", "solver",
    "workers", "oma",
}
_TOLERANCE_KEYS = {"xi", "varpi1_rel", "varpi2_rel", "s_max", "v_max",
                   "outer_max", "rho1", "rho2"}
_WHOLE_TOLERANCES = {"s_max", "v_max", "outer_max"}


def _number(key: str, value) -> float | None:
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _whole(key: str, value) -> int | None:
    """An integer key: any integral number, else a named ConfigError."""
    if value is None or isinstance(value, int):
        return value
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(number)


def _values(raw: dict) -> tuple:
    """The sweep values: a list of numbers (integers stay integers, as with
    ``--values``), else a named ConfigError; the user count when absent."""
    values = raw.get("values")
    if values is None:
        return (raw.get("users", 12),)
    if not isinstance(values, list) or None in values:
        raise ConfigError(f"values must be a list of numbers, got {values!r}")
    return tuple(v if isinstance(v, int) else _number("values", v) for v in values)


def load_config(path: str | Path | None) -> tuple[NetworkConfig, Scenario]:
    """Parse a YAML config into a validated network (defaults applied) and a
    scenario.  An empty or missing-body file yields the full defaults."""
    raw = {}
    if path is not None:
        text = Path(path).read_text()
        raw = yaml.safe_load(text) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    known = _NETWORK_KEYS | _TRAFFIC_KEYS | _SCENARIO_KEYS | {"tolerances"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    tol_raw = raw.get("tolerances")
    if tol_raw is None:
        tol_raw = {}
    elif not isinstance(tol_raw, dict):
        raise ConfigError(f"tolerances must be a mapping, got {tol_raw!r}")
    tolerances = {}
    for key, value in tol_raw.items():
        if key not in _TOLERANCE_KEYS:
            raise ConfigError(f"unknown tolerances key {key!r}")
        convert = _whole if key in _WHOLE_TOLERANCES else _number
        tolerances[key] = convert(f"tolerances.{key}", value)

    def whole(key: str, default):
        return _whole(key, raw.get(key, default))

    scenario = Scenario(
        architecture=raw.get("architecture", "hcran"),
        sweep=raw.get("sweep", "none"),
        values=_values(raw),
        k_total=whole("users", 12),
        k_streaming=whole("streaming_users", 6),
        arrival_rate=_number("arrival_rate", raw.get("arrival_rate", 125.0)),
        l_max=1 if raw.get("oma") else whole("l_max", 3),
        n_subcarriers=whole("n_subcarriers", 32),
        bandwidth_hz=_number("bandwidth_hz", raw.get("bandwidth_hz", 1.0e6)),
        m_f=whole("m_f", None),
        mask_dbm=_number("mask_dbm", raw.get("mask_dbm")),
        noise_dbm_hz=_number("noise_dbm_hz", raw.get("noise_dbm_hz", -174.0)),
        queue_packets=_number("queue_packets", raw.get("queue_packets", 25.0)),
        packet_bits=_number("packet_bits", raw.get("packet_bits", 1024.0)),
        tolerances=Tolerances(**tolerances),
        draws=whole("draws", 50),
        seed=whole("seed", 1),
        solver=raw.get("solver", "scale"),
        workers=whole("workers", 1),
    )
    # solve's network is the sweep's draw-0 network without the sweep variable
    cfg = _config_for(replace(scenario, sweep="none"), None,
                      np.random.default_rng([scenario.seed, 0]))
    return cfg, scenario


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).parent)
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _header_lines(tag: str, payload: dict) -> list[str]:
    blob = json.dumps(payload, sort_keys=True, default=str)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return [f"# {tag}", f"# config_hash: {digest}", f"# git_rev: {_git_revision()}",
            f"# config: {blob}"]


def _write_csv(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


_PLOT_TEMPLATE = """\
# Auto-generated plotting companion; run with any matplotlib-enabled python.
import csv
import sys

import matplotlib.pyplot as plt

rows = []
with open({csv_name!r}) as fh:
    for row in csv.DictReader(l for l in fh if not l.startswith('#')):
        rows.append(row)
x = [float(r[{x_col!r}]) for r in rows]
y = [float(r[{y_col!r}]) for r in rows]
plt.plot(x, y, marker='o')
plt.xlabel({x_col!r})
plt.ylabel({y_col!r})
plt.grid(True)
plt.savefig({png_name!r}, dpi=150, bbox_inches='tight')
print('saved', {png_name!r})
"""


def _emit_plot_script(csv_path: Path, x_col: str, y_col: str) -> None:
    script = _PLOT_TEMPLATE.format(csv_name=csv_path.name, x_col=x_col,
                                   y_col=y_col, png_name=csv_path.stem + ".png")
    (csv_path.with_suffix(csv_path.suffix + ".plot.py")).write_text(script)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    cfg, scenario = load_config(args.config)
    scenario = replace(scenario, seed=args.seed if args.seed is not None else scenario.seed,
                       l_max=1 if args.oma else scenario.l_max)
    if args.oma:
        cfg = replace(cfg, l_max=1)
    ch = gen_channel(cfg, np.random.default_rng([scenario.seed, 7]))
    solver = (PolyblockSolver(allow_high_dim=True) if args.solver == "polyblock"
              else ScaleSolver())
    t0 = time.perf_counter()
    trace = dinkelbach.solve(ch, cfg, solver)
    wall = time.perf_counter() - t0
    report = trace.final_report
    feas = model.check_feasibility(trace.final_allocation, ch, cfg)
    print(f"status={trace.status} iterations={len(trace.iterations)} "
          f"ee={report.ee:.6g} rate={report.sum_rate:.6g} "
          f"power={report.total_power:.6g} feasible={feas.ok} wall={wall:.2f}s")
    if args.out:
        lines = _header_lines("single solve", {"seed": scenario.seed,
                                               "solver": args.solver,
                                               "oma": bool(args.oma)})
        lines.append("iteration,e,surplus")
        for i, it in enumerate(trace.iterations):
            lines.append(f"{i},{it.e:.12g},{it.surplus:.12g}")
        _write_csv(Path(args.out), lines)
        _emit_plot_script(Path(args.out), "iteration", "e")
    return 0


def _cmd_sweep(args) -> int:
    _, scenario = load_config(args.config)
    overrides = {}
    if args.arch:
        overrides["architecture"] = args.arch
    if args.sweep:
        overrides["sweep"] = args.sweep
    if args.values:  # read as the YAML list, integer literals as integers
        tokens = [v.strip() for v in args.values.split(",")]
        overrides["values"] = _values(
            {"values": [int(v) if v.removeprefix("-").isdecimal() else v for v in tokens]})
    if args.draws is not None:
        overrides["draws"] = args.draws
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.solver:
        overrides["solver"] = args.solver
    if args.oma:
        overrides["l_max"] = 1
    if args.timing:
        overrides["include_timing"] = True
    scenario = replace(scenario, **overrides)

    rows = run_sweep(scenario)
    lines = _header_lines("sweep", asdict(scenario))
    cols = "value,mean_ee,mean_rate,mean_power,mean_iterations,n_feasible,n_draws"
    if scenario.include_timing:
        cols += ",mean_wall_s"
    lines.append(cols)
    for r in rows:
        row = (f"{r.value:.10g},{r.mean_ee:.10g},{r.mean_rate:.10g},"
               f"{r.mean_power:.10g},{r.mean_iterations:.10g},"
               f"{r.n_feasible},{r.n_draws}")
        if scenario.include_timing:
            row += f",{r.mean_wall_s:.4f}"
        lines.append(row)
    out = Path(args.out or "sweep.csv")
    _write_csv(out, lines)
    _emit_plot_script(out, "value", "mean_ee")
    return 0


def _cmd_overhead(args) -> int:
    lo, _, hi = args.k_range.partition(":")
    lo, hi = _whole("k_range", lo), _whole("k_range", hi)
    if not 1 <= lo <= hi:
        raise ConfigError(f"k_range must be LO:HI with 1 <= LO <= HI, got {args.k_range!r}")
    lines = _header_lines("signalling overhead",
                          {"m": args.m, "n": args.n, "k_range": [lo, hi]})
    lines.append("K,centralized_bits,distributed_bits")
    for k in range(lo, hi + 1):
        cfg = build_config(architecture="hcran", k_total=k,
                           k_streaming=min(args.streaming, k), rng=0,
                           m_f=args.m - 1, n_subcarriers=args.n)
        cen = overhead.count_centralized(cfg)
        dist = overhead.count_distributed(cfg, rounds=1)
        lines.append(f"{k},{cen},{dist}")
    out = Path(args.out or "overhead.csv")
    _write_csv(out, lines)
    _emit_plot_script(out, "K", "centralized_bits")
    return 0


def _cmd_gap(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"instances must be at least 1, got {args.instances!r}")
    rng = np.random.default_rng(args.seed or 0)
    lines = _header_lines("optimality gap study",
                          {"instances": args.instances, "seed": args.seed})
    lines.append("instance,dim,scale_value,poly_value,poly_gap,ratio")
    scale_solver = ScaleSolver()
    poly = PolyblockSolver(allow_high_dim=True, max_iter=args.budget)
    for i in range(args.instances):
        inst = tiny_instance(rng)
        s_res = scale_solver.solve_fixed_e(inst.ch, inst.cfg, inst.e)
        p_res = poly.solve_fixed_e(inst.ch, inst.cfg, inst.e,
                                   warm_start=s_res.allocation
                                   if s_res.status == "ok" else None)
        s_val = s_res.stats.true_objective if s_res.status == "ok" else float("nan")
        p_val = p_res.stats.true_objective if p_res.status == "ok" else float("nan")
        ratio = s_val / p_val if (p_val and np.isfinite(p_val) and p_val > 0) else float("nan")
        lines.append(f"{i},{p_res.stats.dim},{s_val:.10g},{p_val:.10g},"
                     f"{p_res.stats.gap:.10g},{ratio:.6g}")
        print(lines[-1])
    _write_csv(Path(args.out or "gap.csv"), lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcran-noma",
        description="Energy-efficient power allocation for layered NOMA "
                    "cloud radio networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--solver", choices=["scale", "polyblock"], default=None)
        p.add_argument("--oma", action="store_true",
                       help="orthogonal baseline: one user per subcarrier")

    p_solve = sub.add_parser("solve", help="solve one channel instance")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve, solver="scale")

    p_sweep = sub.add_parser("sweep", help="run a figure-style sweep")
    common(p_sweep)
    p_sweep.add_argument("--arch", choices=list(ARCHITECTURES))
    p_sweep.add_argument("--sweep", choices=["users", "streaming", "arrival",
                                             "lpn", "none"])
    p_sweep.add_argument("--values", help="comma-separated sweep values")
    p_sweep.add_argument("--draws", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="processes the draws are spread over")
    p_sweep.add_argument("--timing", action="store_true",
                         help="include the (non-reproducible) wall-time column")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_over = sub.add_parser("overhead", help="signalling overhead curves")
    p_over.add_argument("--m", type=int, default=3)
    p_over.add_argument("--n", type=int, default=8)
    p_over.add_argument("--streaming", type=int, default=2)
    p_over.add_argument("--k-range", default="4:40")
    p_over.add_argument("--out")
    p_over.set_defaults(func=_cmd_overhead)

    p_gap = sub.add_parser("gap", help="local solver vs global oracle on tiny instances")
    p_gap.add_argument("--instances", type=int, default=20)
    p_gap.add_argument("--seed", type=int, default=0)
    p_gap.add_argument("--budget", type=int, default=800,
                       help="oracle box budget per instance")
    p_gap.add_argument("--out")
    p_gap.set_defaults(func=_cmd_gap)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
