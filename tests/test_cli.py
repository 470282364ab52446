"""Command-line driver: config plumbing, data ingestion, subcommand runs."""

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualflow import (
    BilinearDrift,
    LogisticDrift,
    ModelError,
    RngSpec,
    TimeGrid,
    run_coupling,
)
from dualflow.cli import (
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    build_drift,
    build_state,
    ingest_training_data,
    main,
)
from dualflow.coupling import read_coupling_jsonl, write_coupling_jsonl


# ---------------------------------------------------------------------------
# config plumbing


def run_main(argv):
    return main(argv)


def test_override_parsing(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "simulate", "--seed", "3", "--replicas", "1", "--out", str(out),
        "--override", "grid.N=16", "--override", "grid.T=0.5",
        "--override", "model.mu=0.25",
    ])
    assert code == EXIT_OK
    run = next(out.iterdir())
    config = json.loads((run / "config.json").read_text())
    assert config["grid"]["N"] == 16
    assert config["grid"]["T"] == 0.5
    assert config["model"]["mu"] == 0.25
    assert config["seed"] == 3


def test_bad_override_exits_config(tmp_path):
    assert main(["simulate", "--out", str(tmp_path),
                 "--override", "no_equals_sign"]) == EXIT_CONFIG
    assert main(["simulate", "--out", str(tmp_path),
                 "--override", "grid.N=0"]) == EXIT_CONFIG
    assert main(["simulate", "--out", str(tmp_path),
                 "--override", "model.family=\"nope\""]) == EXIT_CONFIG


@pytest.mark.parametrize("argv,key", [
    (["dual", "--override", 'dual.state={"family":"interval","z":-1}'], "'y'"),
    (["couple", "--override", "model.family=logistic",
      "--override", 'couple.state={"family":"slab","z_offset":-0.4}'], "'y_offset'"),
    (["simulate", "--override", "grid=5"], "grid"),
    (["simulate", "--override", "model.family=logistic", "--override", "model.data=5"],
     "model.data"),
    (["simulate", "--override", "out=5"], "out"),
    (["simulate", "--override", "seed=true"], "seed"),
    (["simulate", "--override", "replicas=true"], "replicas"),
    (["simulate", "--override", "grid.N=true"], "grid.N"),
    (["simulate", "--override", "grid.T=true"], "grid.T"),
    (["simulate", "--override", "model.n=true"], "model.n"),
    (["posterior", "--override", "model.family=logistic", "--override", "posterior.count=true"],
     "'count'"),
], ids=["dual-interval-without-y", "couple-slab-without-y_offset", "simulate-grid-not-object",
        "simulate-data-not-a-path", "simulate-out-not-a-path", "simulate-seed-bool",
        "simulate-replicas-bool", "simulate-grid-N-bool", "simulate-grid-T-bool",
        "simulate-model-n-bool", "posterior-count-bool"])
def test_malformed_config_exits_config(tmp_path, capsys, argv, key):
    # --out would replace the out=5 of the last case
    out = ["--out", str(tmp_path)] if key != "out" else []
    assert main(argv + out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not any(tmp_path.iterdir())


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": {"N": 8}, "replicas": 2}))
    out = tmp_path / "runs"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    run = next(out.iterdir())
    merged = json.loads((run / "config.json").read_text())
    assert merged["grid"]["N"] == 8
    assert merged["grid"]["T"] == DEFAULTS["grid"]["T"]  # untouched default
    assert merged["replicas"] == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# drift and state construction


def test_build_drift_constant_broadcast():
    drift, d = build_drift({"model": {"family": "constant", "mu": 0.5, "n": 3}})
    assert d is None
    assert np.allclose(drift.mu, [0.5, 0.5, 0.5])
    with pytest.raises(ConfigError):
        build_drift({"model": {"family": "constant", "mu": [0.5, 0.3], "n": 3}})


def test_build_drift_logistic_default_data():
    drift, d = build_drift({"model": {"family": "logistic", "data": None}})
    assert isinstance(drift, LogisticDrift)
    assert drift.n == 2
    # the bundled inputs span the diagonal, so the slab normal is the
    # antidiagonal unit vector with positive first entry
    assert np.allclose(d, np.array([1.0, -1.0]) / math.sqrt(2.0))


def test_build_state_variants():
    s = build_state({"family": "interval", "z": -1.0, "y": 1.0})
    assert s.z == -1.0 and s.y == 1.0
    d = np.array([1.0, -1.0]) / math.sqrt(2.0)
    slab = build_state({"family": "slab", "z_offset": -0.4, "y_offset": 0.4}, d=d)
    assert np.allclose(slab.z, -0.4 * d)
    with pytest.raises(ConfigError):
        build_state({"family": "slab", "z_offset": -0.4, "y_offset": 0.4}, d=None)
    with pytest.raises(ConfigError):
        build_state({"family": "mystery"})


# ---------------------------------------------------------------------------
# training data ingestion


def write_rows(tmp_path, rows, header="a_1,a_2,b"):
    p = tmp_path / "data.csv"
    p.write_text(header + "\n" + "\n".join(",".join(str(v) for v in r) for r in rows) + "\n")
    return p


def test_ingest_bundled_shape():
    from importlib import resources

    path = resources.files("dualflow").joinpath("data/logistic_toy.csv")
    with resources.as_file(path) as p:
        drift, d = ingest_training_data(p)
    assert drift.inputs.shape == (4, 2)
    assert abs(np.linalg.norm(d) - 1.0) < 1e-12


def test_ingest_rejects_full_rank_inputs(tmp_path):
    p = write_rows(tmp_path, [(1, 0, 1), (0, 1, 0), (1, 1, 1), (1, -1, 0)])
    with pytest.raises(ModelError):
        ingest_training_data(p)


def test_ingest_rejects_separable_data(tmp_path):
    # all signed inputs point the same way along the span: improper posterior
    p = write_rows(tmp_path, [(1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)])
    with pytest.raises(ModelError):
        ingest_training_data(p)


def test_ingest_rejects_malformed(tmp_path):
    p = write_rows(tmp_path, [(1, 1, 1)], header="x_1,x_2,y")
    with pytest.raises(ModelError):
        ingest_training_data(p)
    p2 = write_rows(tmp_path, [(1, 1, 2), (-1, -1, 0)])
    with pytest.raises(ModelError):
        ingest_training_data(p2)
    p3 = tmp_path / "text.csv"
    p3.write_text("a_1,a_2,b\none,two,1\n")
    with pytest.raises(ModelError):
        ingest_training_data(p3)


# ---------------------------------------------------------------------------
# subcommand smoke runs


def test_simulate_writes_readable_paths(tmp_path):
    out = tmp_path / "runs"
    code = main(["simulate", "--seed", "1", "--replicas", "2", "--out", str(out),
                 "--override", "grid.N=16"])
    assert code == EXIT_OK
    run = next(out.iterdir())
    files = sorted(run.glob("path-*.csv"))
    assert len(files) == 2
    with open(files[0], newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["t", "x_1"]
    table = np.array(rows[1:], dtype=float)
    assert table.shape == (17, 2)
    assert table[0].tolist() == [0.0, 0.0] and table[-1, 0] == 1.0


def test_dual_records_absorption_fields(tmp_path):
    out = tmp_path / "runs"
    code = main(["dual", "--seed", "2", "--replicas", "1", "--out", str(out),
                 "--override", "grid.N=8"])
    assert code == EXIT_OK
    run = next(out.iterdir())
    lines = (run / "dual-0.jsonl").read_text().strip().splitlines()
    assert len(lines) == 9
    first = json.loads(lines[0])
    assert first["z"] == [-1.0] and first["y"] == [1.0]
    assert first["absorbed"] is False


def test_couple_pitman_and_plot_data(tmp_path):
    out = tmp_path / "runs"
    code = main(["couple", "--seed", "4", "--replicas", "2", "--out", str(out),
                 "--override", "grid.N=32"])
    assert code == EXIT_OK
    run = next(p for p in out.iterdir() if p.name.startswith("couple"))
    with open(run / "coupling-0.jsonl") as fp:
        traj = read_coupling_jsonl(fp)
    assert traj.primal.grid.N == 32

    # tidy CSV conversion preserves the numbers exactly
    code = main(["plot-data", str(run)])
    assert code == EXIT_OK
    with open(run / "coupling-0.csv", newline="") as fp:
        assert json.loads(fp.readline()[2:])["family"] == "interval"
        rows = list(csv.DictReader(fp))
    assert len(rows) == traj.grid.N + 1
    for key, path in (("Z", traj.z_path), ("Y", traj.y_path), ("X", traj.primal)):
        assert np.array_equal([float(r[key]) for r in rows], path.values[:, 0])
    assert [r["gamma"] == "1" for r in rows] == traj.gamma_flags.tolist()

    code = main(["pitman", "--seed", "5", "--replicas", "1", "--out", str(out),
                 "--override", "grid.N=64"])
    assert code == EXIT_OK
    prun = next(p for p in out.iterdir() if p.name.startswith("pitman"))
    rows = (prun / "pitman-0.csv").read_text().strip().splitlines()
    assert rows[0] == "t,v,half_gap,abs_diff"
    diffs = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(diffs) < 1e-10  # the two constructions agree at every node


@pytest.mark.parametrize("artifact", ["dual-0.jsonl", "coupling-0.jsonl"])
def test_plot_data_refuses_an_empty_artifact(tmp_path, capsys, artifact):
    (tmp_path / artifact).write_text("")
    assert main(["plot-data", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("model error: malformed artifact ") and artifact in err


def test_verify_runs_only_the_requested_suites(tmp_path, monkeypatch):
    from dualflow import verify

    def unexpected(seed):
        raise AssertionError("a suite ran that was not requested")

    for name, attr in (("duality", "suite_duality"), ("flow_wiener", "suite_flow_wiener")):
        monkeypatch.setitem(verify.SUITES, name, unexpected)
        monkeypatch.setattr(verify, attr, unexpected)
    code = main(["verify", "--seed", "7", "--out", str(tmp_path),
                 "--override", 'verify.suites=["reversal"]'])
    assert code == EXIT_OK
    lines = (next(tmp_path.iterdir()) / "reports.jsonl").read_text().splitlines()
    names = [json.loads(line)["name"] for line in lines]
    assert names and all(name.startswith("reversal_") for name in names)


def test_verify_rejects_unknown_suite(tmp_path):
    code = main(["verify", "--out", str(tmp_path),
                 "--override", 'verify.suites=["nope"]'])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("override", ["posterior.dt=0", "posterior.dt=-0.002",
                                      "posterior.count=0", "posterior.max_attempts=0"])
def test_posterior_rejects_bad_sampler_arguments(tmp_path, capsys, override):
    code = main(["posterior", "--out", str(tmp_path), "--override", "model.family=logistic",
                 "--override", override])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("model error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,override", [("couple", "couple.state.y=inf"),
                                              ("dual", "dual.state.z=nan")])
def test_non_finite_state_is_refused_before_the_run(tmp_path, capsys, command, override):
    code = main([command, "--out", str(tmp_path), "--override", override])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("model error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("start", ["inf", "1e999"])
def test_bad_entrance_start_is_refused_before_the_run(tmp_path, capsys, start):
    # "inf" is not JSON and stays a string; 1e999 parses to an infinite float
    code = main(["couple", "--out", str(tmp_path), "--override", "couple.entrance=true",
                 "--override", f"couple.start={start}", "--override", "grid.N=8"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(("config error: ", "model error: "))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["couple", "dual"])
def test_tilted_slab_is_refused_before_the_run(tmp_path, capsys, command):
    # the logistic drift lies in the span of (1, 1), so the normal e_1 is tilted
    tilted = json.dumps({"family": "slab", "z_offset": -0.4, "y_offset": 0.4,
                         "normal": [1.0, 0.0]})
    code = main([command, "--out", str(tmp_path), "--override", "model.family=logistic",
                 "--override", f"{command}.state={tilted}", "--override", "grid.N=8"])
    assert code == EXIT_CONFIG
    assert "tilted" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("entrance", ["false", "true"])
def test_slab_under_a_non_logistic_model_is_refused_before_the_run(tmp_path, capsys, entrance):
    # the bilinear drift is orthogonal to e_1 at these faces, so the tilt check passes it
    slab = json.dumps({"family": "slab", "z_offset": -0.4, "y_offset": 0.4, "normal": [1, 0]})
    degenerate = json.dumps({"family": "slab", "z_offset": 0.0, "y_offset": 0.0,
                             "normal": [1, 0]})
    key = "couple.start" if entrance == "true" else "couple.state"
    code = main(["couple", "--out", str(tmp_path), "--override", "model.family=bilinear",
                 "--override", f"couple.entrance={entrance}",
                 "--override", f"{key}={degenerate if entrance == 'true' else slab}",
                 "--override", "grid.N=8"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "model error: slab sampling requires the logistic drift family\n")
    assert not any(tmp_path.iterdir())


def test_run_dir_collision_suffix(tmp_path):
    out = tmp_path / "runs"
    for _ in range(2):
        assert main(["simulate", "--seed", "9", "--replicas", "1",
                     "--out", str(out), "--override", "grid.N=4"]) == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["simulate-seed9", "simulate-seed9-2"]


# ---------------------------------------------------------------------------
# byte stability: run directories are pure functions of (config, seed)

_WEDGE = json.dumps({"family": "wedge", "u": [1, 2], "z": [0, 0], "y": [1, 0]})
_SLAB = json.dumps({"family": "slab", "z_offset": -0.4, "y_offset": 0.4})
_SMALL = ["--replicas", "2", "--override", "grid.N=40"]

GOLDEN_RUNS = {
    "simulate": ["simulate", "--seed", "3"] + _SMALL,
    "dual-interval": ["dual", "--seed", "3"] + _SMALL,
    "dual-wedge": ["dual", "--seed", "3", "--override", "model.family=bilinear",
                   "--override", f"dual.state={_WEDGE}"] + _SMALL,
    "dual-slab": ["dual", "--seed", "3", "--override", "model.family=logistic",
                  "--override", f"dual.state={_SLAB}"] + _SMALL,
    "couple-interval": ["couple", "--seed", "5"] + _SMALL,
    "couple-entrance": ["couple", "--seed", "11",
                        "--override", "couple.entrance=true"] + _SMALL,
    "couple-wedge": ["couple", "--seed", "5", "--override", "model.family=bilinear",
                     "--override", f"couple.state={_WEDGE}"] + _SMALL,
    "couple-slab": ["couple", "--seed", "5", "--override", "model.family=logistic",
                    "--override", f"couple.state={_SLAB}"] + _SMALL,
    "pitman": ["pitman", "--seed", "2"] + _SMALL,
    "posterior": ["posterior", "--seed", "8808", "--override", "model.family=logistic",
                  "--override", "posterior.count=20"],
    # 32 attempts, 7 of which never cover within the short horizon
    "posterior-short": ["posterior", "--seed", "8808", "--override", "model.family=logistic",
                        "--override", "posterior.horizon=1.0",
                        "--override", "posterior.count=20",
                        "--override", "posterior.oracle=false"],
}

# sha256 over every artifact but config.json (name and bytes, sorted by
# name), after plot-data on the dual and couple runs
GOLDEN_DIGESTS = {
    "simulate": "5983e33bdeb22966fefc61338f81fb5394dbe177fc65060125df048bc4079154",
    "dual-interval": "2ff9d6fbc8c3864a98188f1760035671d781389c9dacbad526829656bcb6cef7",
    "dual-wedge": "90bc915d42af20145d688896763f50d5f8b91bb667d148d0b81e652182ef19f6",
    "dual-slab": "9ae83cb41e4b9cf2a84e9a569f475fa7180d51e177f0ad13ac69dd4f803bae76",
    "couple-interval": "2341853968c1b67b0a1ef9751e8e21ad6449b18a608bbe6b1f624b58f89d1d14",
    "couple-entrance": "7dfd33860e2b8680bd7aa4eb64d6e761020dad06eed08d3ef15b0a9b4e999ec3",
    "couple-wedge": "956b650c2b24a3c6f8c7306064a66cd4c4426162fe4a4728300973aa57a4094f",
    "couple-slab": "36c9b66be5b1f604ed3b532c5014608970fca8d7ab33dd93f3374de228fcaf7d",
    "pitman": "e62839c7f4ee76a0d12859d061e66263053a1c2f9723ebee4f755cd78e928902",
    "posterior": "5f500972b268a07b4ca126089dfdead1c7dda587db0e0640820100eeedb3e097",
    "posterior-short": "18429656a1dd0b205ae82f10fe6f653474c892d1c0a489d13a8e69db01b9a835",
}


def golden_digests(root: Path) -> dict:
    out = {}
    for name, argv in GOLDEN_RUNS.items():
        assert main(argv + ["--out", str(root / name)]) == EXIT_OK, name
        run = next((root / name).iterdir())
        if name.startswith(("dual", "couple")):
            assert main(["plot-data", str(run)]) == EXIT_OK, name
        h = hashlib.sha256()
        for f in sorted(run.iterdir()):
            if f.name != "config.json":
                h.update(f.name.encode() + b"\0" + f.read_bytes())
        out[name] = h.hexdigest()
    return out


def test_cli_artifacts_are_byte_stable(tmp_path):
    assert golden_digests(tmp_path) == GOLDEN_DIGESTS


# ---------------------------------------------------------------------------
# replicas: replica r's file is a function of (config, seed, r) alone


def replica_runs(tmp_path, name: str) -> dict:
    runs = {}
    for m in (1, 3):
        out = tmp_path / f"replicas-{m}"
        assert main(GOLDEN_RUNS[name] + ["--replicas", str(m), "--out", str(out)]) == EXIT_OK
        runs[m] = next(out.iterdir())
    return runs


@pytest.mark.parametrize("name,artifact", [("couple-wedge", "coupling-0.jsonl"),
                                           ("dual-slab", "dual-0.jsonl")])
def test_replica_file_does_not_depend_on_the_replica_count(tmp_path, name, artifact):
    runs = replica_runs(tmp_path, name)
    assert (runs[3] / artifact).read_bytes() == (runs[1] / artifact).read_bytes()


def test_couple_replica_file_is_the_run_of_its_stream(tmp_path):
    runs = replica_runs(tmp_path, "couple-wedge")
    traj = run_coupling(build_state(json.loads(_WEDGE)), BilinearDrift(), TimeGrid(1.0, 40),
                        RngSpec(5, 2))
    buf = io.StringIO()
    write_coupling_jsonl(buf, traj)
    assert (runs[3] / "coupling-2.jsonl").read_bytes() == buf.getvalue().encode()
