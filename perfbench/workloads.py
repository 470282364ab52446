"""The four frozen workloads: inputs from the seed, timed atoms, and their checks.

A workload's timed work comes in atoms; the harness times each call to
``atom(i)`` and then hands its output to ``finish(i, out)``, untimed,
which counts the units the atom finished and checks them.  duality-mc and
cli-io repeat one input in every atom; they check the first atom in full
and every later one for being identical to it, since a replica is fixed
by its (seed, stream) and CLI runs are byte-stable for a fixed (config,
seed).  Units, reasons and checks of each workload are listed in
workloads.json.

Statistical checks (3-SE bands, KS p > 0.01) fail a correct program now
and then, and the benchmark runs about a hundred times per change.  The
README's rule for them applies: a failed statistical check is re-run on
independent seeds, ``seed + j * CONFIRM_OFFSET`` for j = 1, 2, and counts
as failed only if it fails on all of them.  A correct program then fails
a KS check about once in 10**5 atoms instead of once in 30; a biased one
still fails all three.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIRM_OFFSET = 2**32
CONFIRMATIONS = 2
EXIT_STATISTICAL = 4


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    first_trial_passed: bool = True


class Workload:
    """Base: ``prog`` holds the imported dualflow modules by layer name."""

    name = ""

    def __init__(self, prog, seed: int, seconds: float, smoke: bool, workdir: Path):
        self.p = prog
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.workdir = workdir
        self.reference = None
        self.stats: dict = {}

    def drifts(self) -> list:
        """Drift objects this workload built, whose beta the tracer counts."""
        return []

    def setup(self) -> None:
        """Build the inputs and warm up; may be called several times."""

    def atom(self, i: int):
        raise NotImplementedError

    def finish(self, i: int, out) -> tuple[int, list[Check]]:
        raise NotImplementedError


def _persistent(first, trial) -> set:
    """The failed checks in `first` that also fail on every confirmation trial(j)."""
    failed = set(first)
    for j in range(1, CONFIRMATIONS + 1):
        if not failed:
            break
        failed &= set(trial(j))
    return failed


def _toy_logistic(core):
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return core.LogisticDrift(inputs, labels)


# ---------------------------------------------------------------------------


class DualityMC(Workload):
    """liggett_identity_mc on three families, called the way suite_duality calls it."""

    name = "duality-mc"

    def setup(self):
        core, duals, verify = self.p.core, self.p.duals, self.p.verify
        d = np.array([1.0, -1.0]) / math.sqrt(2.0)
        self.paths = 100 if self.smoke else 1000
        # (family, suite_duality's stream, start, state, grid, drift)
        self.families = [
            ("interval", 0, np.array([0.0]), duals.IntervalState(-1.0, 1.0),
             core.TimeGrid(1.0, 2000), core.ConstantDrift(0.5)),
            ("wedge", 3, np.array([0.2, 0.0]),
             duals.WedgeState(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([0.5, 0.0])),
             core.TimeGrid(0.5, 250), core.BilinearDrift()),
            ("slab", 4, np.array([0.0, 0.0]), duals.SlabState(-0.4 * d, 0.4 * d, d),
             core.TimeGrid(0.5, 250), _toy_logistic(core)),
        ]
        self.oracle = verify.reflection_probabilities(1.0, 0.0, -1.0, 1.0, 0.5)["p_identity"]
        for fam in self.families:
            self._estimate(fam, 20, self.seed)

    def drifts(self):
        return [fam[5] for fam in self.families]

    def _estimate(self, fam, paths, seed):
        _, k, x, state, grid, drift = fam
        return self.p.duals.liggett_identity_mc(
            x, state, grid, paths, drift, self.p.core.RngSpec(seed, k))

    def atom(self, i):
        return [self._estimate(fam, self.paths, self.seed) for fam in self.families]

    def _failures(self, name, est):
        """Names of the failed statistical checks for one family's estimate."""
        if name == "interval":
            return [side for side, val, se in (("lhs", est.lhs, est.lhs_se),
                                               ("rhs", est.rhs, est.rhs_se))
                    if not abs(val - self.oracle) <= max(3.0 * se, 0.01)]
        return [] if est.difference <= 3.0 * est.pooled_se else ["two_sided"]

    def finish(self, i, out):
        units = len(out) * self.paths
        if self.reference is not None:
            return units, [Check(f"{fam[0]}_repeatable", est == ref)
                           for fam, est, ref in zip(self.families, out, self.reference)]
        self.reference = out
        checks = []
        for fam, est in zip(self.families, out):
            name = fam[0]
            sides = ["lhs", "rhs"] if name == "interval" else ["two_sided"]
            failed = self._failures(name, est)
            confirmed = _persistent(failed, lambda j: self._failures(name, self._estimate(
                fam, self.paths, self.seed + j * CONFIRM_OFFSET)))
            detail = f"lhs={est.lhs:.5f} rhs={est.rhs:.5f} pooled_se={est.pooled_se:.5f}"
            if name == "interval":
                detail += f" oracle={self.oracle:.5f}"
            checks.extend(Check(f"{name}_{side}", side not in confirmed, detail=detail,
                                first_trial_passed=side not in failed) for side in sides)
        return units, checks


# ---------------------------------------------------------------------------


class CoupleScalar(Workload):
    """run_coupling alternating the criterion-10 wedge and slab, one stream per run."""

    name = "couple-scalar"

    def setup(self):
        core, duals = self.p.core, self.p.duals
        d = np.array([1.0, -1.0]) / math.sqrt(2.0)
        self.runs = 2 if self.smoke else 10
        self.families = [
            ("wedge", duals.WedgeState(np.array([1.0, 2.0]), np.array([0.0, 0.0]),
                                       np.array([1.0, 0.0])),
             core.BilinearDrift(), core.TimeGrid(1.0, 200)),
            ("slab", duals.SlabState(-0.4 * d, 0.4 * d, d), _toy_logistic(core),
             core.TimeGrid(1.0, 100)),
        ]
        for _, state, drift, grid in self.families:
            # a stream far above the timed ones, so warm-up reuses no input
            self.p.coupling.run_coupling(state, drift, grid, core.RngSpec(self.seed, 2**40))

    def drifts(self):
        return [fam[2] for fam in self.families]

    def atom(self, i):
        out = []
        for k in range(i * self.runs, (i + 1) * self.runs):
            name, state, drift, grid = self.families[k % 2]
            out.append((name, k, self.p.coupling.run_coupling(
                state, drift, grid, self.p.core.RngSpec(self.seed, k))))
        return out

    def finish(self, i, out):
        return len(out), [Check(f"{name}_flags", bool(np.all(traj.gamma_flags)),
                                detail=f"stream={k}") for name, k, traj in out]


# ---------------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str

    @property
    def run_dir(self):
        """The run directory the command printed as its last line, if any."""
        lines = self.stdout.strip().splitlines()
        return Path(lines[-1]) if lines and Path(lines[-1]).is_dir() else None


def _cli(prog, argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = prog.cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def _tree_digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class PosteriorSlab(Workload):
    """The posterior command on the bundled logistic data, in-process.

    Each atom is one call with its own CLI seed, so a run's rate averages
    over several acceptance draws; a traced replay of atom i must
    reproduce its samples byte for byte.
    """

    name = "posterior-slab"

    def setup(self):
        # the smallest count the KS reports accept: about 1.5 s per atom at
        # the parent commit on a 2-core x86 box, so a run has about a dozen
        self.count = 20
        self.seen = {}
        self._remove(_cli(self.p, self._argv(self._seed(0), 1, oracle=False)))

    def _seed(self, i):
        return self.seed * 2**20 + i

    def _argv(self, seed, count, oracle=True):
        return ["posterior", "--seed", str(seed), "--out", str(self.workdir),
                "--override", "model.family=logistic",
                "--override", "posterior.region=[-0.6, 0.6]",
                "--override", "posterior.dt=0.002",
                "--override", "posterior.horizon=8.0",
                "--override", f"posterior.oracle={json.dumps(oracle)}",
                "--override", f"posterior.count={count}"]

    @staticmethod
    def _remove(run: CliRun):
        if run.run_dir is not None:
            shutil.rmtree(run.run_dir)

    def atom(self, i):
        return _cli(self.p, self._argv(self._seed(i), self.count))

    def _confirm(self, i, j):
        again = _cli(self.p, self._argv(self._seed(i) + j * CONFIRM_OFFSET, self.count))
        self._remove(again)
        return set() if again.code == 0 else {"exit"}

    def finish(self, i, out):
        run_dir = out.run_dir
        samples = b""
        accepted = 0
        if run_dir is not None and (run_dir / "samples.csv").exists():
            samples = (run_dir / "samples.csv").read_bytes()
            rows = [r for r in csv.reader(io.StringIO(samples.decode()))
                    if r and not r[0].startswith("#")]
            accepted = max(len(rows) - 1, 0)
        self._remove(out)
        if i in self.seen:
            return accepted, [Check("repeatable", self.seen[i] == (out.code, samples),
                                    detail=f"atom={i} exit={out.code}")]
        self.seen[i] = (out.code, samples)
        code_ok = out.code == 0
        if out.code == EXIT_STATISTICAL:
            code_ok = not _persistent({"exit"}, lambda j: self._confirm(i, j))
        return accepted, [
            Check("exit_code", code_ok, detail=f"atom={i} exit={out.code} {out.stderr.strip()}",
                  first_trial_passed=out.code == 0),
            Check("accepted_count", accepted == self.count,
                  detail=f"atom={i} accepted={accepted} requested={self.count}"),
        ]


# ---------------------------------------------------------------------------

_CSV_TO_JSONL = {"t": "t", "Z": "z", "Y": "y", "X": "x", "sigma": "sigma", "gamma": "gamma",
                 "W": "w", "omega": "omega", "xi": "xi", "u": "u"}


def _csv_matches_jsonl(csv_path: Path, records: list) -> bool:
    """Every CSV cell equals its JSONL value exactly, read with the stdlib only."""
    with open(csv_path, newline="") as fp:
        fp.readline()  # metadata comment
        rows = list(csv.reader(fp))
    header, body = rows[0], rows[1:]
    if len(body) != len(records):
        return False
    for row, rec in zip(body, records):
        for col, cell in zip(header, row):
            base, _, idx = col.partition("_")
            value = rec[_CSV_TO_JSONL[base]]
            if isinstance(value, list):
                value = value[int(idx) - 1 if idx else 0]
            if base == "gamma":
                if (cell == "1") != value:
                    return False
            elif float(cell) != float(value):
                return False
    return True


class CliIO(Workload):
    """The README's entrance-coupling example, then plot-data on its run directory."""

    name = "cli-io"

    def setup(self):
        self.replicas = 1 if self.smoke else 5
        self.N = 4000
        self.stats = {"jsonl_bytes": 0, "jsonl_records": 0}
        run = _cli(self.p, self._couple_argv(1, 400))
        if run.run_dir is not None:
            _cli(self.p, ["plot-data", str(run.run_dir), "--out", str(self.workdir)])
            shutil.rmtree(run.run_dir)

    def _couple_argv(self, replicas, N):
        return ["couple", "--seed", str(self.seed), "--replicas", str(replicas),
                "--out", str(self.workdir),
                "--override", "couple.entrance=true", "--override", f"grid.N={N}"]

    def atom(self, i):
        couple = _cli(self.p, self._couple_argv(self.replicas, self.N))
        plot = None
        if couple.run_dir is not None:
            plot = _cli(self.p, ["plot-data", str(couple.run_dir), "--out", str(self.workdir)])
        return couple, plot

    def finish(self, i, out):
        couple, plot = out
        run_dir = couple.run_dir
        codes_ok = couple.code == 0 and plot is not None and plot.code == 0
        expected = self.replicas * (self.N + 1)
        if run_dir is None:
            return 0, [Check("couple_exit", False, detail=couple.stderr.strip())]
        try:
            jsonl = sorted(run_dir.glob("coupling-*.jsonl"))
            self.stats["jsonl_bytes"] += sum(p.stat().st_size for p in jsonl)
            self.stats["jsonl_records"] += expected
            units = expected if codes_ok else 0
            digest = _tree_digest(run_dir)
            if self.reference is not None:
                return units, [Check("repeatable", codes_ok and digest == self.reference)]
            self.reference = digest
            return units, [
                Check("couple_exit", couple.code == 0, detail=couple.stderr.strip()),
                Check("plot_data_exit", plot is not None and plot.code == 0),
                *self._check_files(run_dir, jsonl, expected),
            ]
        finally:
            shutil.rmtree(run_dir)

    def _check_files(self, run_dir, jsonl, expected):
        core, coupling = self.p.core, self.p.coupling
        mu = float(json.loads((run_dir / "config.json").read_text())["model"]["mu"])
        checks = []
        total = 0
        for path in jsonl:
            lines = path.read_text().splitlines()
            head, records = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
            total += len(records)
            csv_path = path.with_suffix(".csv")
            checks.append(Check(f"csv_equals_jsonl.{path.stem}",
                                csv_path.exists() and _csv_matches_jsonl(csv_path, records)))
            grid = core.TimeGrid(float(head["T"]), int(head["N"]))
            w = np.array([rec["w"][0] for rec in records])
            half_gap = np.array([0.5 * (rec["y"][0] - rec["z"][0]) for rec in records])
            v = coupling.pitman_construct(core.SamplePath(grid, w), mu).values[:, 0]
            err = float(np.max(np.abs(v - half_gap)))
            checks.append(Check(f"half_gap_is_pitman.{path.stem}", err <= 1e-10,
                                detail=f"max_abs_err={err:.3g}"))
        checks.append(Check("record_count", total == expected and len(jsonl) == self.replicas,
                            detail=f"records={total} expected={expected}"))
        return checks


WORKLOADS = {w.name: w for w in (DualityMC, CoupleScalar, PosteriorSlab, CliIO)}
