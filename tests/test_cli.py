"""Command-line driver: config plumbing, data ingestion, subcommand runs."""

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
    read_path_csv,
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
    read_coupling_csv,
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
    with open(files[0]) as fp:
        path = read_path_csv(fp)
    assert path.grid.N == 16
    assert path.values.shape == (17, 1)


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
    with open(run / "coupling-0.csv") as fp:
        back = read_coupling_csv(fp)
    assert np.array_equal(back.z_path.values, traj.z_path.values)
    assert np.array_equal(back.y_path.values, traj.y_path.values)

    code = main(["pitman", "--seed", "5", "--replicas", "1", "--out", str(out),
                 "--override", "grid.N=64"])
    assert code == EXIT_OK
    prun = next(p for p in out.iterdir() if p.name.startswith("pitman"))
    rows = (prun / "pitman-0.csv").read_text().strip().splitlines()
    assert rows[0] == "t,v,half_gap,abs_diff"
    diffs = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(diffs) < 1e-10  # the two constructions agree at every node


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
    # 36 attempts, 8 of which never cover within the short horizon
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
    "dual-slab": "70e8da430a6b5111a63dc584510b78affa681c8a5f34c3168c7d5302bb53c77c",
    "couple-interval": "2341853968c1b67b0a1ef9751e8e21ad6449b18a608bbe6b1f624b58f89d1d14",
    "couple-entrance": "7dfd33860e2b8680bd7aa4eb64d6e761020dad06eed08d3ef15b0a9b4e999ec3",
    "couple-wedge": "956b650c2b24a3c6f8c7306064a66cd4c4426162fe4a4728300973aa57a4094f",
    "couple-slab": "ea6b45c4f5d97c263fd1785948906e215df8b0959b6353244cde9a1afae58d71",
    "pitman": "e62839c7f4ee76a0d12859d061e66263053a1c2f9723ebee4f755cd78e928902",
    "posterior": "7a0ad9119a8f011ba44b52bbd1c59200d04127c9445bec8eb39a748c1cd2521d",
    "posterior-short": "002ffab934160f1057af79310a66a8a7f5b24d5dc5a6fd1e58125a97735d299c",
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
