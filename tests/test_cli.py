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
    ConstantDrift,
    LogisticDrift,
    ModelError,
    RngSpec,
    SamplePath,
    TimeGrid,
    run_coupling,
    run_entrance_coupling,
    write_path_csv,
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
    write_coupling_csv,
)
from dualflow.coupling import (
    CouplingTrajectory,
    RegionSamples,
    read_coupling_jsonl,
    write_coupling_jsonl,
    write_region_csv,
)


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
    (["posterior", "--override", "model.family=logistic", "--override", "posterior.count=2.5"],
     "'count'"),
    (["posterior", "--override", "model.family=logistic",
      "--override", "posterior.max_attempts=2.5"], "'max_attempts'"),
    (["couple", "--override", "couple.entrance=False"], "couple.entrance"),
    (["posterior", "--override", "model.family=logistic",
      "--override", "posterior.oracle=False"], "posterior.oracle"),
    (["posterior", "--override", "model.family=logistic",
      "--override", "posterior.horizon=Infinity"], "horizon=inf"),
    (["posterior", "--override", "model.family=logistic",
      "--override", "posterior.horizon=NaN"], "horizon=nan"),
], ids=["dual-interval-without-y", "couple-slab-without-y_offset", "simulate-grid-not-object",
        "simulate-data-not-a-path", "simulate-out-not-a-path", "simulate-seed-bool",
        "simulate-replicas-bool", "simulate-grid-N-bool", "simulate-grid-T-bool",
        "simulate-model-n-bool", "posterior-count-bool", "posterior-count-fraction",
        "posterior-max-attempts-fraction", "couple-entrance-string", "posterior-oracle-string",
        "posterior-horizon-infinite", "posterior-horizon-nan"])
def test_malformed_config_exits_config(tmp_path, capsys, argv, key):
    # --out would replace the out=5 of the last case
    out = ["--out", str(tmp_path)] if key != "out" else []
    assert main(argv + out) == EXIT_CONFIG
    err = capsys.readouterr().err
    # a horizon is read as a number and refused by the sampler, as its dt is
    kind = "model" if key.startswith("horizon=") else "config"
    assert err.startswith(f"{kind} error: ") and key in err
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


def _coupling_artifact(edit_header=None, edit_record=None) -> str:
    """A small interval coupling artifact, with its header or records edited."""
    traj = run_entrance_coupling(0.0, ConstantDrift(0.5), TimeGrid(1.0, 4), RngSpec(5, 0))
    buf = io.StringIO()
    write_coupling_jsonl(buf, traj)
    head, *recs = [json.loads(line) for line in buf.getvalue().splitlines()]
    head = edit_header(head) if edit_header else head
    recs = [edit_record(r) if edit_record else r for r in recs]
    return "".join(json.dumps(r) + "\n" for r in [head] + recs)


def _coupling_lines(edit) -> str:
    """The small interval coupling artifact, its list of lines as edit returns it."""
    return "".join(edit(_coupling_artifact().splitlines(True)))


# (id, artifact text, where the error says it is malformed); the records of
# _coupling_artifact are at t = 0, 0.25, ..., 1 on lines 2 to 6
_MALFORMED_COUPLING = [
    ("coupling-keys-reordered", lambda: _coupling_artifact(
        edit_record=lambda r: dict(reversed(list(r.items())))), "line 2 "),
    ("coupling-extra-key", lambda: _coupling_artifact(edit_record=lambda r: {**r, "v": 0.0}),
     "line 2 "),
    ("coupling-x-one-value-too-long", lambda: _coupling_artifact(
        edit_record=lambda r: {**r, "x": r["x"] + [0.0]} if r["t"] == 0.5 else r), "line 4 "),
    ("coupling-value-not-a-float",
     lambda: _coupling_artifact().replace('"t": 0.5,', '"t": 1-2,'), "line 4 "),
    ("coupling-N-records", lambda: _coupling_lines(lambda lines: lines[:-1]),
     "expected 5 records, got 4"),
    ("coupling-blank-line", lambda: _coupling_lines(lambda lines: lines[:3] + ["\n"] + lines[3:]),
     "line 4 "),
    # every record is consistent, but x holds 2 values where an interval's
    # z holds 1: the header family's layout refuses it at the first record
    ("coupling-x-wider-than-z", lambda: _coupling_artifact(
        edit_record=lambda r: {**r, "x": r["x"] + [0.0]}), "line 2 "),
    ("coupling-wedge-header-over-interval-records", lambda: _coupling_artifact(
        edit_header=lambda h: {**h, "family": "wedge"}), "line 2 "),
    ("coupling-unknown-family", lambda: _coupling_artifact(
        edit_header=lambda h: {**h, "family": "strip"}), "'strip'"),
    # a first record that is no JSON, or a blank first record, is named by
    # its file line
    ("coupling-first-record-not-json", lambda: _coupling_lines(
        lambda lines: lines[:1] + [lines[1].replace('{"t": 0.0, ', '{"t": 0.0,, ')] + lines[2:]),
     "line 2 "),
    ("coupling-first-record-blank", lambda: _coupling_lines(
        lambda lines: lines[:1] + ["\n"] + lines[2:]), "line 2 "),
]


@pytest.mark.parametrize("artifact,text,where", [
    ("coupling-0.jsonl", lambda: _coupling_artifact(
        edit_record=lambda r: {k: v for k, v in r.items() if k != "x"}), ""),
    ("coupling-0.jsonl", lambda: _coupling_artifact(edit_header=lambda h: list(h.values())), ""),
    ("dual-0.jsonl", lambda: '{"t": 0.0, "z": [0.0], "y": [1.0]}\n', ""),
] + [("coupling-0.jsonl", text, where) for _, text, where in _MALFORMED_COUPLING],
    ids=["coupling-record-without-x", "coupling-header-array", "dual-record-without-absorbed"]
    + [name for name, _, _ in _MALFORMED_COUPLING])
def test_plot_data_refuses_a_malformed_record(tmp_path, capsys, artifact, text, where):
    (tmp_path / artifact).write_text(text())
    assert main(["plot-data", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("model error: malformed artifact ") and artifact in err
    assert f"{artifact}: {where}" in err
    assert not (tmp_path / artifact).with_suffix(".csv").exists()


def test_plot_data_refuses_a_ragged_dual_artifact(tmp_path, capsys):
    (tmp_path / "dual-0.jsonl").write_text(
        '{"t": 0.0, "z": [0.0], "y": [1.0], "absorbed": false}\n'
        '{"t": 1.0, "z": [0.0, 1.0], "y": [1.0, 2.0], "absorbed": false}\n')
    assert main(["plot-data", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("model error: malformed artifact ") and "dual-0.jsonl" in err
    assert not (tmp_path / "dual-0.csv").exists()


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


@pytest.mark.parametrize("name", ["pitman", "plot-data"])
def test_main_calls_the_handler_bound_on_the_module(tmp_path, monkeypatch, name):
    # a wrapper set on the module after import, as a tracer sets one, is
    # the handler main dispatches to
    from dualflow import cli

    calls = []
    attr = "cmd_" + name.replace("-", "_")
    monkeypatch.setattr(cli, attr, lambda config, *extra: calls.append(extra) or 7)
    extra = [str(tmp_path)] if name == "plot-data" else []
    assert main([name, "--out", str(tmp_path), *extra]) == 7
    assert calls == [tuple(extra)]


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
    "dual-slab": "ec792b349f3c5e398f6cea6278dfa10d50d8ee97179cfce0e1472cbe53b09f70",
    "couple-interval": "2341853968c1b67b0a1ef9751e8e21ad6449b18a608bbe6b1f624b58f89d1d14",
    "couple-entrance": "7dfd33860e2b8680bd7aa4eb64d6e761020dad06eed08d3ef15b0a9b4e999ec3",
    "couple-wedge": "956b650c2b24a3c6f8c7306064a66cd4c4426162fe4a4728300973aa57a4094f",
    "couple-slab": "10558805440e435bb95c578296f5bcc5c198f81312fd070ab901bd235f1e3dc9",
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


# ---------------------------------------------------------------------------
# artifact writers: the bytes of json.dumps per record and of
# format(v, ".17g") per cell, on values that stress both formats

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 1 / 3]
_SPECIAL_GRID = TimeGrid(1.0, len(_SPECIAL) - 1)


def _special(n, shift=0):
    """(8, n) values; every column holds each special value once."""
    return np.stack([np.roll(_SPECIAL, shift + i) for i in range(n)], axis=1)


def _special_trajectory(family):
    n = 1 if family == "interval" else 2
    path = lambda shift: SamplePath(_SPECIAL_GRID, _special(n, shift))
    return CouplingTrajectory(
        family=family, grid=_SPECIAL_GRID, primal=path(0), z_path=path(1), y_path=path(2),
        sigma=SamplePath(_SPECIAL_GRID, _special(1, 3)), gamma_flags=np.arange(8) % 3 == 0,
        wiener=path(4), noise=path(5), reflected=path(6),
        u_path=_special(2, 7) if family == "wedge" else None,
        normal=np.array([0.6, 0.8]) if family == "slab" else None)


def _row(*cells):
    """One CSV line: a float cell as format(v, ".17g"), a str cell as it is."""
    return ",".join(c if isinstance(c, str) else format(c, ".17g") for c in cells) + "\n"


def _head(traj):
    head = {"family": traj.family, "T": traj.grid.T, "N": traj.grid.N}
    if traj.normal is not None:
        head["normal"] = traj.normal.tolist()
    return head


def _jsonl_oracle(traj):
    lines = [json.dumps(_head(traj))]
    for j, t in enumerate(traj.grid.times):
        rec = {
            "t": float(t),
            "x": traj.primal.values[j].tolist(),
            "z": traj.z_path.values[j].tolist(),
            "y": traj.y_path.values[j].tolist(),
            "sigma": float(traj.sigma.values[j, 0]),
            "gamma": bool(traj.gamma_flags[j]),
            "w": traj.wiener.values[j].tolist(),
            "omega": traj.noise.values[j].tolist(),
            "xi": traj.reflected.values[j].tolist(),
        }
        if traj.u_path is not None:
            rec["u"] = traj.u_path[j].tolist()
        lines.append(json.dumps(rec))
    return "".join(line + "\n" for line in lines)


def _coupling_csv_oracle(traj):
    n = traj.primal.dim
    names = lambda p: [p] if n == 1 else [f"{p}_{i + 1}" for i in range(n)]
    cols = (["t"] + names("Z") + names("Y") + names("X") + ["sigma", "gamma"]
            + names("W") + names("omega") + names("xi"))
    u = np.empty((traj.grid.N + 1, 0)) if traj.u_path is None else traj.u_path
    cols += [f"u_{i + 1}" for i in range(u.shape[1])]
    out = "# " + json.dumps(_head(traj)) + "\n" + ",".join(cols) + "\n"
    for j, t in enumerate(traj.grid.times):
        out += _row(t, *traj.z_path.values[j], *traj.y_path.values[j], *traj.primal.values[j],
                    traj.sigma.values[j, 0], "1" if traj.gamma_flags[j] else "0",
                    *traj.wiener.values[j], *traj.noise.values[j], *traj.reflected.values[j],
                    *u[j])
    return out


@pytest.mark.parametrize("family", ["interval", "wedge", "slab"])
def test_coupling_writers_match_json_dumps_and_format(family):
    traj = _special_trajectory(family)
    buf = io.StringIO()
    write_coupling_jsonl(buf, traj)
    assert buf.getvalue() == _jsonl_oracle(traj)
    buf = io.StringIO()
    write_coupling_csv(buf, traj)
    assert buf.getvalue() == _coupling_csv_oracle(traj)


def test_path_and_region_csv_match_format():
    path = SamplePath(_SPECIAL_GRID, _special(2))
    buf = io.StringIO()
    write_path_csv(buf, path)
    assert buf.getvalue() == "t,x_1,x_2\n" + "".join(
        _row(t, *row) for t, row in zip(_SPECIAL_GRID.times, path.values))

    for samples, stop_times, cols in [(_special(2), _special(1, 5)[:, 0], "x_1,x_2,stop_time"),
                                      (np.empty((0, 2)), np.asarray([]), "stop_time")]:
        result = RegionSamples(samples=samples, accepted=len(samples), attempts=9, covered=8,
                               stop_times=stop_times, truncated=False, meta={"region": [0, 1]})
        buf = io.StringIO()
        write_region_csv(buf, result)
        assert buf.getvalue() == (
            f"# accepted={len(samples)} attempts=9 covered=8 truncated=False\n"
            '# meta={"region": [0, 1]}\n' + cols + "\n"
            + "".join(_row(*row, t) for row, t in zip(samples, stop_times)))


def test_pitman_and_dual_csv_match_format(tmp_path, monkeypatch):
    v = _special(1)[:, 0]
    monkeypatch.setattr("dualflow.cli.pitman_construct", lambda w, mu: SamplePath(w.grid, v))
    assert main(["pitman", "--seed", "2", "--replicas", "1", "--out", str(tmp_path / "p"),
                 "--override", f"grid.N={len(v) - 1}"]) == EXIT_OK
    run = next((tmp_path / "p").iterdir())
    traj = run_entrance_coupling(0.0, ConstantDrift(DEFAULTS["model"]["mu"]), _SPECIAL_GRID,
                                 RngSpec(2, 0))
    half = 0.5 * (traj.y_path.values[:, 0] - traj.z_path.values[:, 0])
    assert (run / "pitman-0.csv").read_text() == "t,v,half_gap,abs_diff\n" + "".join(
        _row(t, v[j], half[j], abs(v[j] - half[j])) for j, t in enumerate(traj.grid.times))

    z, y = _special(2, 1), _special(2, 2)
    recs = [{"t": float(t), "z": z[j].tolist(), "y": y[j].tolist(), "absorbed": j % 2 == 1}
            for j, t in enumerate(_SPECIAL_GRID.times)]
    (tmp_path / "dual-0.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert main(["plot-data", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "dual-0.csv").read_text() == "t,z_1,z_2,y_1,y_2,absorbed\n" + "".join(
        _row(r["t"], *r["z"], *r["y"], "1" if r["absorbed"] else "0") for r in recs)


_CSV_TO_JSONL = {"t": "t", "Z": "z", "Y": "y", "X": "x", "sigma": "sigma", "gamma": "gamma",
                 "W": "w", "omega": "omega", "xi": "xi", "u": "u"}


@pytest.mark.parametrize("name", ["couple-wedge", "couple-slab"])
def test_plot_data_csv_equals_the_jsonl_cell_by_cell(tmp_path, name):
    assert main(GOLDEN_RUNS[name] + ["--out", str(tmp_path)]) == EXIT_OK
    run = next(tmp_path.iterdir())
    assert main(["plot-data", str(run)]) == EXIT_OK
    for src in sorted(run.glob("coupling-*.jsonl")):
        with open(src) as fp:
            head, *records = [json.loads(line) for line in fp]
        with open(src.with_suffix(".csv"), newline="") as fp:
            assert json.loads(fp.readline().removeprefix("# ")) == head
            header, *body = list(csv.reader(fp))
        assert ("normal" in head) == (name == "couple-slab")
        assert ("u_1" in header and "u_2" in header) == (name == "couple-wedge")
        assert {_CSV_TO_JSONL[col.partition("_")[0]] for col in header} == set(records[0])
        assert len(body) == len(records)
        for row, rec in zip(body, records):
            assert len(row) == len(header)
            for col, cell in zip(header, row):
                base, _, idx = col.partition("_")
                value = rec[_CSV_TO_JSONL[base]]
                if isinstance(value, list):
                    value = value[int(idx) - 1 if idx else 0]
                if base == "gamma":
                    assert cell == ("1" if value else "0")
                else:
                    assert repr(float(cell)) == repr(float(value)), (col, cell, value)
