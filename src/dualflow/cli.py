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
import operator
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
    _write_csv,
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
    write_coupling_jsonl,
    write_region_csv,
    _header_record,
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
from .surfaces import _along
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
    for key, default in DEFAULTS.items():
        if isinstance(default, dict) and not isinstance(config[key], dict):
            raise ConfigError(f"{key} must be an object, got {config[key]!r}")
    model = config["model"]
    family = model.get("family")
    if family not in ("constant", "bilinear", "logistic"):
        raise ConfigError(f"unknown model family {family!r}")
    grid = config["grid"]
    T, N = grid.get("T"), grid.get("N")
    # type(), not isinstance(): JSON's true and false load as bools, which are ints
    if not (type(T) in (int, float) and T > 0):
        raise ConfigError(f"grid.T must be positive, got {T!r}")
    if not (type(N) is int and N >= 1):
        raise ConfigError(f"grid.N must be a positive integer, got {N!r}")
    seed = config.get("seed")
    if type(seed) is not int:
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    replicas = config.get("replicas")
    if not (type(replicas) is int and replicas >= 1):
        raise ConfigError(f"replicas must be a positive integer, got {replicas!r}")
    if not isinstance(config["out"], str):
        raise ConfigError(f"out must be a directory path, got {config['out']!r}")


def _read(section: dict, key: str, convert, where: str):
    """convert(section[key]); a missing, boolean or unconvertible value is
    a ConfigError that names the key."""
    if key not in section:
        raise ConfigError(f"{where} needs {key!r}")
    if isinstance(section[key], bool):
        raise ConfigError(f"{where} {key!r} must not be a boolean")
    try:
        return convert(section[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} {key!r}: {exc}") from exc


def _flag(section: dict, key: str, where: str) -> bool:
    """section[key]; anything but a JSON boolean is a ConfigError naming the key."""
    if not isinstance(section.get(key), bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {section.get(key)!r}")
    return section[key]


def _vector(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def build_drift(config: dict):
    """Drift field plus the slab normal for logistic models (None otherwise)."""
    model = config["model"]
    family = model["family"]
    if family == "constant":
        mu = model.get("mu", 0.0)
        n = model.get("n", 1)
        if type(n) is not int or n < 1:
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
    elif not isinstance(data, str):
        raise ConfigError(f"model.data must be a file path, got {data!r}")
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
    if not isinstance(desc, dict):
        raise ConfigError(f"a state must be an object, got {desc!r}")
    family = desc.get("family")
    where = f"{family} state"
    if family == "interval":
        return IntervalState(_read(desc, "z", float, where), _read(desc, "y", float, where))
    if family == "wedge":
        return WedgeState(*(_read(desc, key, _vector, where) for key in ("u", "z", "y")))
    if family == "slab":
        if desc.get("normal") is not None:
            normal = _read(desc, "normal", _vector, where)
        elif d is not None:
            normal = d
        else:
            raise ConfigError("slab state needs a normal (none computable from model)")
        if "z_offset" in desc:
            z = _read(desc, "z_offset", float, where) * normal
            y = _read(desc, "y_offset", float, where) * normal
        else:
            z, y = (_read(desc, key, _vector, where) for key in ("z", "y"))
        return SlabState(z, y, normal)
    raise ConfigError(f"unknown state family {family!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config: dict) -> int:
    drift, _ = build_drift(config)
    grid = TimeGrid(float(config["grid"]["T"]), int(config["grid"]["N"]))
    x0 = np.atleast_1d(_read(config["simulate"], "x0", _vector, "simulate"))
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
    state0 = build_state(config["dual"].get("state"), d)
    if state0.n != drift.n:
        raise ConfigError("dual state and model live in different dimensions")
    state0._check_drift(drift)
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
                if state._rotating:
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
    if _flag(section, "entrance", "couple"):
        run, start = run_entrance_coupling, section.get("start", 0.0)
        if isinstance(start, dict):
            start = build_state(start, d)
        elif isinstance(start, (int, float)) and not isinstance(start, bool):
            start = IntervalState(float(start), float(start))
        else:
            raise ConfigError(f"couple.start must be a number or a state, got {start!r}")
    else:
        run, start = run_coupling, build_state(section.get("state"), d)
    if start.n != drift.n:
        raise ConfigError("coupling state and model dimensions differ")
    start._check_drift(drift, sampled=True)
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
            _write_csv(fp, ["t", "v", "half_gap", "abs_diff"],
                       [grid.times, v, half_gap, np.abs(v - half_gap)])
    print(run_dir)
    return EXIT_OK


def cmd_verify(config: dict) -> int:
    wanted = config["verify"].get("suites")
    if not (isinstance(wanted, list) and all(isinstance(s, str) for s in wanted)):
        raise ConfigError(f"verify.suites must be a list of suite names, got {wanted!r}")
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

    def read(key, convert=float):
        return _read(section, key, convert, "posterior")

    oracle = _flag(section, "oracle", "posterior")
    region = read("region", lambda v: tuple(float(x) for x in v))
    if len(region) != 2:
        raise ConfigError(f"posterior 'region' must be a pair, got {section['region']!r}")
    result = mc_region_sampler(
        region,
        None,
        drift,
        RngSpec(config["seed"], 0),
        count=read("count", operator.index),
        max_attempts=read("max_attempts", operator.index),
        horizon=read("horizon"),
        dt=read("dt"),
    )
    run_dir = new_run_dir(config, "posterior")
    with open(run_dir / "samples.csv", "w") as fp:
        write_region_csv(fp, result)
    if result.accepted == 0:
        print(f"no accepted samples after {result.attempts} attempts", file=sys.stderr)
        return EXIT_NUMERIC

    reports = []
    if oracle:
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
        ks_test(_along(d, samples), unif_cdf, name="posterior_offsets_uniform",
                seeds={"seed": seed})
    )
    return reports


# ---------------------------------------------------------------------------
# plot data


def write_coupling_csv(fp, traj: CouplingTrajectory) -> None:
    """Header record, then one row per node; primary columns first."""
    fp.write("# " + _header_record(traj) + "\n")
    n = traj.primal.dim

    def names(prefix):
        if n == 1:
            return [prefix]
        return [f"{prefix}_{i + 1}" for i in range(n)]

    cols = (["t"] + names("Z") + names("Y") + names("X") + ["sigma", "gamma"]
            + names("W") + names("omega") + names("xi"))
    table = [traj.grid.times, traj.z_path.values, traj.y_path.values, traj.primal.values,
             traj.sigma.values[:, 0], traj.gamma_flags, traj.wiener.values,
             traj.noise.values, traj.reflected.values]
    if traj.u_path is not None:
        cols += ["u_1", "u_2"]
        table.append(traj.u_path)
    _write_csv(fp, cols, table, flags=("gamma",))


def emit_plot_data(run_dir) -> list:
    """Convert a run directory's JSONL trajectories to tidy CSV files."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ModelError(f"not a run directory: {run_dir}")
    written = []
    for src in sorted(run_dir.glob("coupling-*.jsonl")):
        traj = _read_artifact(src, read_coupling_jsonl)
        dst = src.with_suffix(".csv")
        with open(dst, "w") as fp:
            write_coupling_csv(fp, traj)
        written.append(dst)
    for src in sorted(run_dir.glob("dual-*.jsonl")):
        n, table = _read_artifact(src, _dual_table)
        dst = src.with_suffix(".csv")
        cols = (["t"] + [f"z_{i + 1}" for i in range(n)]
                + [f"y_{i + 1}" for i in range(n)] + ["absorbed"])
        with open(dst, "w") as fp:
            _write_csv(fp, cols, [table], flags=("absorbed",))
        written.append(dst)
    if not written:
        raise ModelError(f"no trajectory artifacts in {run_dir}")
    return written


def _read_artifact(src: Path, read):
    """read(fp) over the artifact src; one that does not parse is a data
    error that names src."""
    try:
        with open(src) as fp:
            return read(fp)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed artifact {src}: {exc}") from exc


def _dual_table(fp):
    """The dimension n and the rows t, z, y, absorbed of a dual artifact."""
    recs = [json.loads(line) for line in fp if line.strip()]
    if not recs:
        raise ValueError("no records")
    n = len(recs[0]["z"])
    rows = [(r["t"], *r["z"], *r["y"], r["absorbed"]) for r in recs]
    if any(len(row) != 2 * n + 2 for row in rows):
        raise ValueError(f"every record needs {n} z and {n} y values")
    return n, np.array(rows)


def cmd_plot_data(config: dict, run_dir: str) -> int:
    written = emit_plot_data(run_dir)
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _commands() -> dict:
    """Each subcommand's handler, called with the config; plot-data's also
    takes the run directory.  The table is built at each call, so a handler
    rebound on the module (a tracer's wrapper) is the one called."""
    return {
        "simulate": cmd_simulate,
        "dual": cmd_dual,
        "couple": cmd_couple,
        "pitman": cmd_pitman,
        "verify": cmd_verify,
        "posterior": cmd_posterior,
        "plot-data": cmd_plot_data,
    }


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
    parsers = {name: sub.add_parser(name, parents=[common]) for name in _commands()}
    parsers["plot-data"].add_argument("run_dir", help="run directory holding JSONL artifacts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        extra = [args.run_dir] if args.command == "plot-data" else []
        return _commands()[args.command](config, *extra)
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
