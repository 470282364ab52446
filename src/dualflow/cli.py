"""Configuration-driven experiment front end.

Subcommands: simulate (primal paths), dual (absorbed dual pairs), couple
(linked coupling trajectories), pitman (gap versus 2M - W comparison
data), verify (the statistical suites), posterior (the stopped-coupling
region sampler on a logistic dataset).  Every run writes a fresh
append-only directory containing the fully resolved config next to its
artifacts, so any artifact can be regenerated from what sits beside it.

Exit codes: 0 success, 2 configuration or data error, 3 numeric failure,
4 statistical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from .core import (
    BilinearDrift,
    ConstantDrift,
    LogisticDrift,
    ModelError,
    NumericalError,
    RngSpec,
    TimeGrid,
    euler_backward,
    sample_brownian,
    uniforms,
    write_path_csv,
)
from .coupling import (
    CouplingTrajectory,
    mc_region_sampler,
    pitman_construct,
    read_coupling_jsonl,
    run_coupling,
    run_entrance_coupling,
    trajectory_from_columns,
    write_coupling_jsonl,
    write_region_csv,
)
from .duals import (
    IntervalState,
    SlabState,
    WedgeState,
    dual_step,
    plane_density,
    span_normal,
    _plane_density_sampler,
)
from .verify import (
    SUITES,
    ks_test,
    ks_two_sample,
    summarize_reports,
    write_reports_jsonl,
)

OUT_ENV = "DUALFLOW_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_STATISTICAL = 4


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "model": {"family": "constant", "mu": 0.5, "n": 1, "data": None},
    "grid": {"T": 1.0, "N": 1000},
    "seed": 0,
    "replicas": 4,
    "out": None,
    "simulate": {"x0": [0.0]},
    "dual": {"state": {"family": "interval", "z": -1.0, "y": 1.0}},
    "couple": {
        "entrance": False,
        "state": {"family": "interval", "z": -1.0, "y": 1.0},
        "start": 0.0,
    },
    "pitman": {},
    "verify": {"suites": ["duality", "flow_wiener", "reversal"]},
    "posterior": {
        "region": [-0.6, 0.6],
        "count": 2000,
        "dt": 0.002,
        "horizon": 8.0,
        "max_attempts": 200000,
        "oracle": True,
    },
}


# ---------------------------------------------------------------------------
# config handling


def _deep_merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _apply_override(config: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError(f"override must look like key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def load_config(args) -> dict:
    config = copy.deepcopy(DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config) as fp:
                loaded = json.load(fp)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be an object")
        config = _deep_merge(config, loaded)
    for item in args.override or []:
        _apply_override(config, item)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.replicas is not None:
        config["replicas"] = args.replicas
    if args.out is not None:
        config["out"] = args.out
    if config["out"] is None:
        config["out"] = os.environ.get(OUT_ENV, "runs")
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    model = config.get("model", {})
    family = model.get("family")
    if family not in ("constant", "bilinear", "logistic"):
        raise ConfigError(f"unknown model family {family!r}")
    grid = config.get("grid", {})
    T, N = grid.get("T"), grid.get("N")
    if not (isinstance(T, (int, float)) and T > 0):
        raise ConfigError(f"grid.T must be positive, got {T!r}")
    if not (isinstance(N, int) and N >= 1):
        raise ConfigError(f"grid.N must be a positive integer, got {N!r}")
    seed = config.get("seed")
    if not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    replicas = config.get("replicas")
    if not (isinstance(replicas, int) and replicas >= 1):
        raise ConfigError(f"replicas must be a positive integer, got {replicas!r}")


def build_drift(config: dict):
    """Drift field plus the slab normal for logistic models (None otherwise)."""
    model = config["model"]
    family = model["family"]
    if family == "constant":
        mu = model.get("mu", 0.0)
        n = model.get("n", 1)
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"model.n must be a positive integer, got {n!r}")
        mu_vec = np.atleast_1d(np.asarray(mu, dtype=float))
        if mu_vec.shape == (1,) and n > 1:
            mu_vec = np.full(n, float(mu_vec[0]))
        if mu_vec.shape != (n,):
            raise ConfigError(f"model.mu has shape {mu_vec.shape}, expected ({n},)")
        return ConstantDrift(mu_vec), None
    if family == "bilinear":
        return BilinearDrift(), None
    data = model.get("data")
    if data is None:
        path = resources.files("dualflow").joinpath("data/logistic_toy.csv")
        with resources.as_file(path) as p:
            drift, d = ingest_training_data(p)
    else:
        drift, d = ingest_training_data(data)
    return drift, d


# ---------------------------------------------------------------------------
# training data ingestion


def ingest_training_data(path):
    """Read a logistic dataset and build its drift field and slab normal.

    The file is CSV with header a_1..a_n,b and labels in {0, 1}.  The
    inputs must span a subspace of dimension exactly n-1 (full-rank data
    puts no direction of guaranteed mass decay and is out of scope), and
    the signed inputs (2b-1)a must positively span that subspace so the
    restricted invariant density has finite mass; positive spanning is
    certified by small feasibility linear programs.  The returned normal
    is the unit vector orthogonal to the span with positive first entry.
    """
    try:
        with open(path, newline="") as fp:
            rows = list(csv.reader(fp))
    except OSError as exc:
        raise ModelError(f"cannot read training data {path}: {exc}")
    if not rows:
        raise ModelError("training data is empty")
    header = [h.strip() for h in rows[0]]
    n = len(header) - 1
    if n < 1 or header != [f"a_{i + 1}" for i in range(n)] + ["b"]:
        raise ModelError(f"unexpected training-data header {header}")
    body = [r for r in rows[1:] if r]
    if not body:
        raise ModelError("training data has no rows")
    try:
        table = np.array([[float(v) for v in r] for r in body])
    except ValueError as exc:
        raise ModelError(f"non-numeric training data: {exc}")
    if table.shape[1] != n + 1:
        raise ModelError("ragged training data")
    inputs, labels = table[:, :n], table[:, n]
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ModelError("labels must be 0 or 1")

    d, basis = span_normal(inputs)
    signed = (2.0 * labels - 1.0)[:, None] * inputs
    w_h = signed @ basis.T  # coordinates in the span
    for axis in range(n - 1):
        for sign in (1.0, -1.0):
            target = np.zeros(n - 1)
            target[axis] = sign
            res = linprog(
                c=np.zeros(w_h.shape[0]),
                A_eq=w_h.T,
                b_eq=target,
                bounds=(0.0, None),
                method="highs",
            )
            if not res.success:
                raise ModelError(
                    "improper posterior: signed inputs do not positively span "
                    "their subspace (separable data), so the restricted "
                    "invariant mass is infinite"
                )
    return LogisticDrift(inputs, labels), d


# ---------------------------------------------------------------------------
# run directories


def fresh_run_dir(base: str, name: str) -> Path:
    root = Path(base)
    root.mkdir(parents=True, exist_ok=True)
    cand = root / name
    k = 1
    while cand.exists():
        k += 1
        cand = root / f"{name}-{k}"
    cand.mkdir()
    return cand


def new_run_dir(config: dict, command: str) -> Path:
    """Fresh run directory for a command, holding the resolved config."""
    run_dir = fresh_run_dir(config["out"], f"{command}-seed{config['seed']}")
    with open(run_dir / "config.json", "w") as fp:
        json.dump(config, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return run_dir


# ---------------------------------------------------------------------------
# state construction from config


def build_state(desc: dict, d=None):
    family = desc.get("family")
    if family == "interval":
        return IntervalState(float(desc["z"]), float(desc["y"]))
    if family == "wedge":
        return WedgeState(
            np.asarray(desc["u"], dtype=float),
            np.asarray(desc["z"], dtype=float),
            np.asarray(desc["y"], dtype=float),
        )
    if family == "slab":
        if "normal" in desc and desc["normal"] is not None:
            normal = np.asarray(desc["normal"], dtype=float)
        elif d is not None:
            normal = d
        else:
            raise ConfigError("slab state needs a normal (none computable from model)")
        if "z_offset" in desc:
            z = float(desc["z_offset"]) * normal
            y = float(desc["y_offset"]) * normal
        else:
            z = np.asarray(desc["z"], dtype=float)
            y = np.asarray(desc["y"], dtype=float)
        return SlabState(z, y, normal)
    raise ConfigError(f"unknown state family {family!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config: dict) -> int:
    drift, _ = build_drift(config)
    grid = TimeGrid(float(config["grid"]["T"]), int(config["grid"]["N"]))
    x0 = np.atleast_1d(np.asarray(config["simulate"]["x0"], dtype=float))
    if x0.shape != (drift.n,):
        raise ConfigError(f"simulate.x0 has shape {x0.shape}, expected ({drift.n},)")
    run_dir = new_run_dir(config, "simulate")
    for r in range(config["replicas"]):
        noise = sample_brownian(grid, drift.n, RngSpec(config["seed"], r))
        path = euler_backward(x0, noise, drift)
        with open(run_dir / f"path-{r}.csv", "w") as fp:
            write_path_csv(fp, path)
    print(run_dir)
    return EXIT_OK


def cmd_dual(config: dict) -> int:
    drift, d = build_drift(config)
    grid = TimeGrid(float(config["grid"]["T"]), int(config["grid"]["N"]))
    state0 = build_state(config["dual"]["state"], d)
    if state0.n != drift.n:
        raise ConfigError("dual state and model live in different dimensions")
    run_dir = new_run_dir(config, "dual")
    for r in range(config["replicas"]):
        noise = sample_brownian(grid, drift.n, RngSpec(config["seed"], r))
        inc = noise.increments()
        state = state0
        with open(run_dir / f"dual-{r}.jsonl", "w") as fp:
            for j in range(grid.N + 1):
                rec = {
                    "t": float(grid.times[j]),
                    "z": np.atleast_1d(np.asarray(state.z, dtype=float)).tolist(),
                    "y": np.atleast_1d(np.asarray(state.y, dtype=float)).tolist(),
                    "absorbed": bool(state.absorbed),
                }
                if isinstance(state, WedgeState):
                    rec["u"] = state.u.tolist()
                if state.zeta is not None:
                    rec["zeta"] = float(state.zeta)
                fp.write(json.dumps(rec) + "\n")
                if j < grid.N:
                    try:
                        state = dual_step(state, inc[j], grid.dt, drift,
                                          t_prev=float(grid.times[j]))
                    except NumericalError as err:
                        raise NumericalError(
                            f"dual (seed {config['seed']}, replica {r}): dual flow failed at "
                            f"step {j + 1} (t={(j + 1) * grid.dt:.6g}): {err}") from err
    print(run_dir)
    return EXIT_OK


def cmd_couple(config: dict) -> int:
    drift, d = build_drift(config)
    grid = TimeGrid(float(config["grid"]["T"]), int(config["grid"]["N"]))
    section = config["couple"]
    if section.get("entrance"):
        run, start = run_entrance_coupling, section.get("start", 0.0)
        if isinstance(start, dict):
            start = build_state(start, d)
    else:
        run, start = run_coupling, build_state(section["state"], d)
        if start.n != drift.n:
            raise ConfigError("coupling state and model dimensions differ")
    run_dir = new_run_dir(config, "couple")
    for r in range(config["replicas"]):
        traj = run(start, drift, grid, RngSpec(config["seed"], r))
        with open(run_dir / f"coupling-{r}.jsonl", "w") as fp:
            write_coupling_jsonl(fp, traj)
    print(run_dir)
    return EXIT_OK


def cmd_pitman(config: dict) -> int:
    drift, _ = build_drift(config)
    if not isinstance(drift, ConstantDrift) or drift.n != 1:
        raise ConfigError("the 2M - W comparison needs the 1-d constant model")
    mu = float(drift.mu[0])
    grid = TimeGrid(float(config["grid"]["T"]), int(config["grid"]["N"]))
    run_dir = new_run_dir(config, "pitman")
    for r in range(config["replicas"]):
        traj = run_entrance_coupling(0.0, drift, grid, RngSpec(config["seed"], r))
        v = pitman_construct(traj.wiener, mu).values[:, 0]
        half_gap = 0.5 * (traj.y_path.values[:, 0] - traj.z_path.values[:, 0])
        with open(run_dir / f"pitman-{r}.csv", "w") as fp:
            fp.write("t,v,half_gap,abs_diff\n")
            for j, t in enumerate(grid.times):
                fp.write(
                    ",".join(
                        format(val, ".17g")
                        for val in (t, v[j], half_gap[j], abs(v[j] - half_gap[j]))
                    )
                    + "\n"
                )
    print(run_dir)
    return EXIT_OK


def cmd_verify(config: dict) -> int:
    wanted = config["verify"]["suites"]
    bad = [s for s in wanted if s not in SUITES]
    if bad:
        raise ConfigError(f"unknown suites {bad}; known: {list(SUITES)}")
    run_dir = new_run_dir(config, "verify")
    all_reports = []
    for name, suite in SUITES.items():
        if name in wanted:
            all_reports.extend(suite(config["seed"]))
    with open(run_dir / "reports.jsonl", "w") as fp:
        write_reports_jsonl(fp, all_reports)
    summary = summarize_reports(all_reports)
    with open(run_dir / "summary.txt", "w") as fp:
        fp.write(summary + "\n")
    print(summary)
    print(run_dir)
    return EXIT_OK if all(r.passed for r in all_reports) else EXIT_STATISTICAL


def cmd_posterior(config: dict) -> int:
    model = config["model"]
    if model["family"] != "logistic":
        raise ConfigError("posterior sampling needs a logistic model with data")
    drift, d = build_drift(config)
    section = config["posterior"]
    region = tuple(float(v) for v in section["region"])
    rng = RngSpec(config["seed"], 0)
    result = mc_region_sampler(
        region,
        None,
        drift,
        rng,
        count=int(section["count"]),
        max_attempts=int(section["max_attempts"]),
        horizon=float(section["horizon"]),
        dt=float(section["dt"]),
    )
    run_dir = new_run_dir(config, "posterior")
    with open(run_dir / "samples.csv", "w") as fp:
        write_region_csv(fp, result)
    if result.accepted == 0:
        print(f"no accepted samples after {result.attempts} attempts", file=sys.stderr)
        return EXIT_NUMERIC

    reports = []
    if section.get("oracle"):
        reports = _posterior_reports(result, drift, d, region, config["seed"])
        with open(run_dir / "reports.jsonl", "w") as fp:
            write_reports_jsonl(fp, reports)
        print(summarize_reports(reports))
    print(f"accepted {result.accepted} of {result.attempts} attempts "
          f"(rate {result.acceptance_rate:.3f})")
    print(run_dir)
    if result.truncated:
        print("attempt budget exhausted before the requested count", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK if all(r.passed for r in reports) else EXIT_STATISTICAL


def _posterior_reports(result, drift, d, region, seed):
    """KS comparisons against a direct sampler from the restricted density."""
    lo, hi = region
    samples = result.samples
    m = samples.shape[0]
    gen = RngSpec(seed, 999983).generator()
    pd = plane_density(drift, d)
    w = _plane_density_sampler(pd, gen, m)
    offsets = lo + (hi - lo) * uniforms(gen, (m,))
    oracle = w @ pd.basis.T + offsets[:, None] * d

    reports = []
    for i in range(samples.shape[1]):
        reports.append(
            ks_two_sample(
                samples[:, i], oracle[:, i],
                name=f"posterior_coordinate_{i + 1}", seeds={"seed": seed},
            )
        )

    def unif_cdf(v):
        return np.clip((np.asarray(v) - lo) / (hi - lo), 0.0, 1.0)

    reports.append(
        ks_test(samples @ d, unif_cdf, name="posterior_offsets_uniform",
                seeds={"seed": seed})
    )
    return reports


# ---------------------------------------------------------------------------
# plot data


def coupling_csv_rows(traj: CouplingTrajectory):
    """Column names and formatted rows; primary columns first."""
    n = traj.primal.dim

    def names(prefix):
        if n == 1:
            return [prefix]
        return [f"{prefix}_{i + 1}" for i in range(n)]

    cols = (["t"] + names("Z") + names("Y") + names("X") + ["sigma", "gamma"]
            + names("W") + names("omega") + names("xi"))
    if traj.u_path is not None:
        cols += ["u_1", "u_2"]
    rows = []
    for j, t in enumerate(traj.grid.times):
        vals = (
            [t]
            + list(traj.z_path.values[j])
            + list(traj.y_path.values[j])
            + list(traj.primal.values[j])
            + [traj.sigma.values[j, 0]]
        )
        row = [format(v, ".17g") for v in vals]
        row.append("1" if traj.gamma_flags[j] else "0")
        more = (list(traj.wiener.values[j]) + list(traj.noise.values[j])
                + list(traj.reflected.values[j]))
        if traj.u_path is not None:
            more += list(traj.u_path[j])
        row.extend(format(v, ".17g") for v in more)
        rows.append(row)
    return cols, rows


def write_coupling_csv(fp, traj: CouplingTrajectory) -> None:
    head = {"family": traj.family, "T": traj.grid.T, "N": traj.grid.N}
    if traj.normal is not None:
        head["normal"] = traj.normal.tolist()
    fp.write("# " + json.dumps(head) + "\n")
    cols, rows = coupling_csv_rows(traj)
    fp.write(",".join(cols) + "\n")
    for row in rows:
        fp.write(",".join(row) + "\n")


def read_coupling_csv(fp) -> CouplingTrajectory:
    first = fp.readline()
    if not first.startswith("# "):
        raise ValueError("coupling CSV must start with its metadata comment")
    head = json.loads(first[2:])
    header = fp.readline().strip().split(",")
    data = [line.strip().split(",") for line in fp if line.strip()]
    at = {name: i for i, name in enumerate(header)}

    def block(prefix):
        if prefix in at:
            idx = [at[prefix]]
        else:
            idx = []
            i = 1
            while f"{prefix}_{i}" in at:
                idx.append(at[f"{prefix}_{i}"])
                i += 1
        if not idx:
            raise ValueError(f"no columns for {prefix}")
        return np.array([[float(r[i]) for i in idx] for r in data])

    u_path = block("u") if "u_1" in at else None
    gamma = [r[at["gamma"]] == "1" for r in data]
    names = {"x": "X", "z": "Z", "y": "Y", "w": "W"}
    return trajectory_from_columns(head, lambda key: block(names.get(key, key)), gamma, u_path)


def emit_plot_data(run_dir) -> list:
    """Convert a run directory's JSONL trajectories to tidy CSV files."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ModelError(f"not a run directory: {run_dir}")
    written = []
    for src in sorted(run_dir.glob("coupling-*.jsonl")):
        with open(src) as fp:
            traj = read_coupling_jsonl(fp)
        dst = src.with_suffix(".csv")
        with open(dst, "w") as fp:
            write_coupling_csv(fp, traj)
        written.append(dst)
    for src in sorted(run_dir.glob("dual-*.jsonl")):
        with open(src) as fp:
            recs = [json.loads(line) for line in fp if line.strip()]
        dst = src.with_suffix(".csv")
        n = len(recs[0]["z"])
        cols = (["t"] + [f"z_{i + 1}" for i in range(n)]
                + [f"y_{i + 1}" for i in range(n)] + ["absorbed"])
        with open(dst, "w") as fp:
            fp.write(",".join(cols) + "\n")
            for rec in recs:
                row = ([format(rec["t"], ".17g")]
                       + [format(v, ".17g") for v in rec["z"]]
                       + [format(v, ".17g") for v in rec["y"]]
                       + ["1" if rec["absorbed"] else "0"])
                fp.write(",".join(row) + "\n")
        written.append(dst)
    if not written:
        raise ModelError(f"no trajectory artifacts in {run_dir}")
    return written


def cmd_plot_data(config: dict, run_dir: str) -> int:
    written = emit_plot_data(run_dir)
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualflow",
        description="simulate linked primal-dual diffusions and verify them",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file merged over defaults")
    common.add_argument("--seed", type=int, help="base seed for all streams")
    common.add_argument("--replicas", type=int, help="replica count")
    common.add_argument("--out", help=f"output root (default ${OUT_ENV} or ./runs)")
    common.add_argument(
        "--override", action="append", metavar="K=V",
        help="dotted config override, value parsed as JSON when possible",
    )
    for name in ("simulate", "dual", "couple", "pitman", "verify", "posterior"):
        sub.add_parser(name, parents=[common])
    plot = sub.add_parser("plot-data", parents=[common])
    plot.add_argument("run_dir", help="run directory holding JSONL artifacts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "dual":
            return cmd_dual(config)
        if args.command == "couple":
            return cmd_couple(config)
        if args.command == "pitman":
            return cmd_pitman(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "posterior":
            return cmd_posterior(config)
        if args.command == "plot-data":
            return cmd_plot_data(config, args.run_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
