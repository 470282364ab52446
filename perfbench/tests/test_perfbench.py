"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench/tests)."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import harness, tracing, workloads  # noqa: E402

PROG = harness.load_program(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace, seconds=1):
    args = harness.parse_args(["--workload", workload, "--seed", "3", "--seconds",
                               str(seconds), "--trace", str(trace), "--smoke"])
    return harness.run(PROG, args, 0.5, "test", tmp_path)


def _bindings():
    """Every name bound in dualflow.*, plus the tracer's other targets."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "dualflow" or modname.startswith("dualflow.")):
            out.update({(modname, k): v for k, v in vars(mod).items()})
    out[("RngSpec", "generator")] = PROG.core.RngSpec.generator
    return out


def _wrapped():
    return sorted(key for key, obj in _bindings().items()
                  if getattr(obj, "perfbench_wrapper", False))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(tmp_path, workload, trace):
    report = _run(tmp_path, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(report["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = report["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert report["correct"], report["failures"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    if not trace:
        assert all(report["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    seen = []
    atom = workloads.DualityMC.atom

    def checked_atom(self, i):
        seen.append(_wrapped())
        return atom(self, i)

    def no_install(self, drifts=()):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(workloads.DualityMC, "atom", checked_atom)
    monkeypatch.setattr(tracing.Tracer, "install", no_install)
    report = _run(tmp_path, "duality-mc", 0)
    assert report["correct"]
    assert seen and all(s == [] for s in seen)


def test_traced_run_restores_every_wrapped_name(tmp_path, monkeypatch):
    before = _bindings()
    seen = []
    atom = workloads.CoupleScalar.atom

    def checked_atom(self, i):
        seen.append((_wrapped(), [vars(d).get("beta") for d in self.drifts()]))
        return atom(self, i)

    monkeypatch.setattr(workloads.CoupleScalar, "atom", checked_atom)
    report = _run(tmp_path, "couple-scalar", 1)
    assert report["spans"] > 0 and report["absent_names"] == []
    # the replay ran wrapped, with beta counters on the drift instances
    wrapped_during = [w for w, _ in seen if w]
    assert wrapped_during and ("dualflow.duals", "implicit_step") in wrapped_during[0]
    assert any(all(b is not None for b in betas) for _, betas in seen)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _wrapped() == []


def test_failed_statistical_check_is_counted_not_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.DualityMC, "_failures",
                        lambda self, name, est: ["lhs", "rhs", "two_sided"])
    report = _run(tmp_path, "duality-mc", 0)
    assert not report["correct"]
    assert report["failed"] == 4 and report["statistical_first_trial_failures"] == 4
    assert report["error_ratio"] == report["failed"] / report["attempted"]


def test_raised_numerical_error_is_counted_not_raised(tmp_path, monkeypatch):
    atom = workloads.CoupleScalar.atom

    def failing_atom(self, i):
        if i == 1:
            raise PROG.core.NumericalError("injected")
        return atom(self, i)

    monkeypatch.setattr(workloads.CoupleScalar, "atom", failing_atom)
    report = _run(tmp_path, "couple-scalar", 0, seconds=2)
    assert not report["correct"] and report["failed"] == 1
    assert "injected" in report["failures"][0]
    assert report["metrics"]["units_per_s"]["value"] > 0


def test_a_single_statistical_tail_draw_is_confirmed_away(tmp_path, monkeypatch):
    first = {}

    def fail_first_trial(self, name, est):
        if name not in first:
            first[name] = est
            return ["lhs", "rhs"] if name == "interval" else ["two_sided"]
        return []

    monkeypatch.setattr(workloads.DualityMC, "_failures", fail_first_trial)
    report = _run(tmp_path, "duality-mc", 0)
    assert report["correct"] and report["statistical_first_trial_failures"] == 4


def test_layer_self_time_subtracts_only_other_layers():
    tr = tracing.Tracer("t")
    ids = {name: tr._name_id(name) for name in ("core.a", "core.d", "duals.b", "duals.e")}
    # core.a [0,100] > duals.b [10,40] > core.d [20,30]; core.a > core.d [50,90] > duals.e [60,70]
    tr.spans = [
        [0, ids["core.a"], -1, 0, 100, 1, None],
        [0, ids["duals.b"], 0, 10, 40, 1, None],
        [0, ids["core.d"], 1, 20, 30, 1, None],
        [0, ids["core.d"], 0, 50, 90, 1, None],
        [0, ids["duals.e"], 3, 60, 70, 1, None],
    ]
    by_name, _, _, _, root_ns = tr.aggregate()
    assert by_name["core.a"].self == 100 - 30 - 10
    assert by_name["duals.b"].self == 30 - 10
    assert by_name["core.d"].self == 10 + 30
    assert by_name["duals.e"].self == 10
    assert root_ns == 100


def test_every_layer_metric_is_declared():
    values = tracing.layer_metrics(tracing.Tracer("t"), {})
    values.update(dict.fromkeys(
        ["bench.trace_overhead_ratio", "bench.unattributed_ratio", "bench.error_ratio"]))
    assert sorted(values) == sorted(m["name"] for m in SPEC["per_layer"])


def test_workload_records_match_the_benchmark():
    info = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS) == sorted(info["workloads"])
    declared = {m["name"] for m in SPEC["per_layer"]} | {m["name"] for m in SPEC["end_to_end"]}
    for pred in info["predictions"]:
        assert set(pred["layer_metrics"]) <= declared
        assert pred["moves"] in (None, *declared)
    assert set(info["north_star"].values()) <= declared


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "duality-mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "dualflow" in proc.stderr
