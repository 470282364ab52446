"""Set up a workload, time it, check it, and print its metrics.

With ``--trace 0`` a run reports the end-to-end metrics: units finished
per second (median over atoms), set-up time, and peak RSS; the two
timings are rescaled to the nominal host speed (see host_probe).  With
``--trace 1`` it runs every atom twice in a row, untraced and then with
the tracer installed, and reports the per-layer metrics of the traced
runs, including the tracing overhead between the two.
Every run prints a provenance block and writes its report, and in traced
runs its spans, under perfbench/out/.  The last line of standard output
is the JSON result; the exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import uuid
from pathlib import Path

import numpy as np

from perfbench import THREAD_VARS
from perfbench.tracing import LAYERS, Tracer, layer_metrics
from perfbench.workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
# the default workload seed; gains are claimed on it and confirmed on
# the held-out seed, which is not used while a change is written
FROZEN_SEED = 0
HELD_OUT_SEED = 907559


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path):
    """Import dualflow from root/src, and only from there."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        mods = {layer: importlib.import_module(f"dualflow.{layer}") for layer in LAYERS}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import dualflow from {src}: {exc}") from exc
    found = Path(mods["core"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise ProgramMissing(f"dualflow was imported from {found}, not from {src}")
    return argparse.Namespace(**mods)


class Ledger:
    """Checks attempted and failed; a failed check is counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_trial_failed = 0
        self.failures: list[str] = []

    def add(self, checks: list[Check]) -> None:
        for c in checks:
            self.attempted += 1
            self.first_trial_failed += not c.first_trial_passed
            if not c.passed:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{c.name}: {c.detail}")
                print(f"CHECK FAILED {c.name}: {c.detail}", file=sys.stderr)


# what host_probe() takes on the 2-vCPU x86 host the benchmark was tuned
# on, when that host runs at full speed
PROBE_NOMINAL_S = 0.010
_PROBE_X = np.linspace(-1.0, 1.0, 8)


def host_probe() -> float:
    """Seconds a fixed mix of interpreter, small-numpy and json work takes now.

    The host the benchmark was tuned on changes speed by up to 2x for
    seconds to minutes at a time, and a pure-Python loop slows with it.
    Timings are rescaled by this probe, taken right before and right
    after the timed work, so runs made at different host speeds compare.
    """
    t = time.perf_counter()
    v, acc = _PROBE_X.copy(), 0.0
    for i in range(1500):
        v = np.maximum(v * 0.999, -0.5) + 0.001
        acc += float(v.sum()) * (i % 3)
        json.dumps({"t": acc, "x": [acc, i]})
    return time.perf_counter() - t


def at_nominal_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """The time `seconds` of work would take with the host at full speed."""
    return seconds * PROBE_NOMINAL_S / (0.5 * (probe_before + probe_after))


def _run_atom(wl, i, errors, tracer=None):
    """Time atom i, with the tracer installed around it if one is given."""
    if tracer is not None:
        tracer.request = i
        tracer.install(wl.drifts())
    try:
        t = time.perf_counter()
        try:
            out, error = wl.atom(i), None
        except errors as exc:
            out, error = None, exc
        wall = time.perf_counter() - t
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, out, error


def _settle(wl, i, out, error, ledger) -> int:
    """Check atom i's output, untimed; return the units it finished."""
    if error is not None:
        units, checks = 0, [Check("atom_raised", False,
                                  detail=f"atom {i}: {type(error).__name__}: {error}")]
    else:
        try:
            units, checks = wl.finish(i, out)
        except Exception as exc:  # a malformed artifact fails its check, not the run
            units, checks = 0, [Check("check_raised", False, detail="".join(
                traceback.format_exception_only(type(exc), exc)).strip())]
    ledger.add(checks)
    return units


def timed_atoms(wl, ledger, prog, budget_s, tracer=None):
    """Run atoms while the next one is expected to end inside budget_s.

    Only the atom itself is timed; the host probe runs between atoms and
    the checks after the probe.  With a tracer, every atom is run twice
    in a row, untraced and then traced, so both see the host in the same
    state; the budget covers both.  Returns the untraced atoms' walls,
    the same rescaled to the nominal host speed, their units, and the
    traced walls.
    """
    errors = (prog.core.NumericalError, prog.core.ModelError)
    walls, scaled, units, traced = [], [], [], []
    probe = host_probe()
    while True:
        i = len(walls)
        wall, out, error = _run_atom(wl, i, errors)
        after = host_probe()
        walls.append(wall)
        scaled.append(at_nominal_speed(wall, probe, after))
        probe = after
        units.append(_settle(wl, i, out, error, ledger))
        if tracer is not None:
            wall, out, error = _run_atom(wl, i, errors, tracer)
            _settle(wl, i, out, error, ledger)
            traced.append(wall)
        spent = sum(walls) + sum(traced)
        if spent + spent / len(walls) > budget_s:
            return walls, scaled, units, traced


def _median_rate(units, walls) -> float:
    rates = [u / w for u, w in zip(units, walls) if u]
    return statistics.median(rates) if rates else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": "unknown"}


def provenance(args, run_id: str) -> dict:
    import scipy

    return {
        "run_id": run_id,
        "git_commit": _git_commit(ROOT),
        "src_sha256": _src_digest(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "frozen_seed": FROZEN_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
    }


# ---------------------------------------------------------------------------


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(prog, args, import_s: float, run_id: str, workdir: Path) -> dict:
    """One benchmark run; returns the full report."""
    wl = WORKLOADS[args.workload](prog, args.seed, args.seconds, args.smoke, workdir)
    setups, raw_setups = [], []
    first = probe = host_probe()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        raw_setups.append(time.perf_counter() - t)
        after = host_probe()
        setups.append(at_nominal_speed(raw_setups[-1], probe, after))
        probe = after
    setup_s = at_nominal_speed(import_s, first, first) + statistics.median(setups)
    ledger = Ledger()
    declared = declared_metrics()
    info = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"][wl.name]
    report = {"workload": wl.name, "unit": info["unit"], "import_s": import_s,
              "raw_setup_runs_s": raw_setups, "setup_runs_s": setups}

    if not args.trace:
        walls, scaled, done, _ = timed_atoms(wl, ledger, prog, args.seconds)
        values = {
            "units_per_s": _median_rate(done, scaled),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = declared["end_to_end"]
        report["raw_units_per_s"] = _median_rate(done, walls)
        report["raw_setup_s"] = import_s + statistics.median(raw_setups)
        report["scaled_atom_walls_s"] = scaled
    else:
        tracer = Tracer(run_id)
        walls, _, _, traced = timed_atoms(wl, ledger, prog, args.seconds, tracer)
        values = layer_metrics(tracer, wl.stats)
        root_s = tracer.aggregate()[4] / 1e9
        values["bench.trace_overhead_ratio"] = sum(traced) / sum(walls) - 1.0
        values["bench.unattributed_ratio"] = max(sum(traced) - root_s, 0.0) / sum(traced)
        units = declared["per_layer"]
        report["traced_atom_walls_s"] = traced
        report["absent_names"] = tracer.absent()
        report["extract_errors"] = dict(tracer.extract_errors)
        report["spans"] = len(tracer.spans)
        report["trace_file"] = write_spans(tracer, args, run_id)
    report["atom_walls_s"] = walls
    values["bench.error_ratio"] = ledger.failed / max(ledger.attempted, 1)

    metrics, absent = {}, []
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            absent.append(name)
            value = 0
        metrics[name] = {"value": value, "unit": unit}
    report.update({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_ratio": values["bench.error_ratio"],
        "statistical_first_trial_failures": ledger.first_trial_failed,
        "failures": ledger.failures,
        "metrics": metrics,
        "absent_metrics": absent,
    })
    return report


def out_dir() -> Path:
    path = ROOT / "perfbench" / "out"
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_spans(tracer: Tracer, args, run_id: str) -> str:
    path = out_dir() / f"{args.workload}-seed{args.seed}-{run_id}-spans.json.gz"
    with gzip.open(path, "wt") as fp:
        json.dump(tracer.to_json(), fp)
    return str(path.relative_to(ROOT))


def print_report(report: dict, prov: dict) -> None:
    print(f"perfbench {report['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"run={prov['run_id']} unit={report['unit']!r} atoms={len(report['atom_walls_s'])}")
    for name, m in report["metrics"].items():
        mark = "  (absent)" if name in report["absent_metrics"] else ""
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}{mark}")
    print(f"  {'error_ratio':<44} {report['error_ratio']:>16.6g} ratio "
          f"({report['failed']} of {report['attempted']} checks failed; "
          f"{report['statistical_first_trial_failures']} first-trial statistical failures)")
    print("provenance " + json.dumps(prov, sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=FROZEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny atoms, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv, t0: float) -> int:
    args = parse_args(argv)
    try:
        prog = load_program(ROOT)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    run_id = uuid.uuid4().hex[:12]
    workdir = ROOT / "perfbench" / ".work" / run_id
    workdir.mkdir(parents=True)
    try:
        report = run(prog, args, import_s, run_id, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = provenance(args, run_id)
    report["provenance"] = prov
    path = out_dir() / f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_report(report, prov)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1
