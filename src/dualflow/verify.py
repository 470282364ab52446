"""Statistical verification harness.

Closed-form probability oracles, KS wrappers, and the packaged suites:
region-hitting duality against the reflection-principle formula, Wiener
law of the reflection flow's output noise, and the time-reversal identity
under the invariant weight.  Every suite is
deterministic given its seed, emits machine-readable reports, and uses
the documented tolerance 3*SE + 2*dt for identity checks against closed
forms (the stepwise schemes carry O(dt) weak bias).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate, stats
from scipy.special import ndtr

from .core import (
    BilinearDrift,
    ConstantDrift,
    LogisticDrift,
    ModelError,
    RngSpec,
    SamplePath,
    TimeGrid,
    brownian_increments,
    euler_backward_values,
    euler_forward_implicit,
    partial_sums,
    sample_brownian,
    sample_brownian_batch,
    uniforms,
)
from .duals import IntervalState, SlabState, WedgeState, liggett_identity_mc
from .reflection import flow_trigger_1d, forward_flow, impute_noise
from .surfaces import Surface


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class TestReport:
    """Outcome of one verification check.

    Exactly one of p_value and residual is set; passed means
    p_value > threshold for p-value kinds and residual <= threshold for
    residual kinds.
    """

    name: str
    statistic: float
    threshold: float
    passed: bool
    sample_size: int
    seeds: dict
    p_value: Optional[float] = None
    residual: Optional[float] = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.p_value is None) == (self.residual is None):
            raise ModelError("exactly one of p_value and residual must be set")
        if bool(self.passed) != _passes(self.p_value, self.residual, self.threshold):
            raise ModelError(f"inconsistent pass flag for {self.name}")

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "sample_size": self.sample_size,
            "seeds": self.seeds,
        }
        if self.p_value is not None:
            out["p_value"] = self.p_value
        if self.residual is not None:
            out["residual"] = self.residual
        if self.detail:
            out["detail"] = self.detail
        return out


def _passes(p_value, residual, threshold) -> bool:
    return bool(p_value > threshold if p_value is not None else residual <= threshold)


def report_p(name, statistic, p_value, threshold, sample_size, seeds, **detail):
    return _report(name, statistic, threshold, sample_size, seeds, detail, p_value=float(p_value))


def report_residual(name, statistic, residual, threshold, sample_size, seeds, **detail):
    return _report(name, statistic, threshold, sample_size, seeds, detail,
                   residual=float(residual))


def _report(name, statistic, threshold, sample_size, seeds, detail, p_value=None, residual=None):
    return TestReport(
        name=name,
        statistic=float(statistic),
        threshold=float(threshold),
        passed=_passes(p_value, residual, threshold),
        sample_size=int(sample_size),
        seeds=dict(seeds),
        p_value=p_value,
        residual=residual,
        detail=detail,
    )


def write_reports_jsonl(fp, reports: Sequence[TestReport]) -> None:
    for r in reports:
        fp.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")


def summarize_reports(reports: Sequence[TestReport]) -> str:
    lines = []
    width = max((len(r.name) for r in reports), default=4)
    for r in reports:
        mark = "PASS" if r.passed else "FAIL"
        if r.p_value is not None:
            val = f"p={r.p_value:.4f} (>{r.threshold:g})"
        else:
            val = f"residual={r.residual:.3e} (<={r.threshold:.3e})"
        lines.append(f"{mark}  {r.name:<{width}}  {val}  n={r.sample_size}")
    total = sum(r.passed for r in reports)
    lines.append(f"{total}/{len(reports)} checks passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# elementary tests


def ks_test(
    samples: np.ndarray,
    cdf: Callable[[np.ndarray], np.ndarray],
    name: str = "ks_test",
    threshold: float = 0.01,
    seeds: Optional[dict] = None,
) -> TestReport:
    """Two-sided one-sample Kolmogorov-Smirnov with asymptotic p-value."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 20:
        raise ModelError(f"need at least 20 samples, got {samples.size}")
    if np.all(samples == samples[0]):
        raise ModelError("degenerate samples: all values equal")
    res = stats.kstest(samples, cdf, mode="asymp")
    return report_p(name, res.statistic, res.pvalue, threshold,
                    samples.size, seeds or {})


def ks_two_sample(
    a: np.ndarray,
    b: np.ndarray,
    name: str = "ks_two_sample",
    threshold: float = 0.01,
    seeds: Optional[dict] = None,
) -> TestReport:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if min(a.size, b.size) < 20:
        raise ModelError("need at least 20 samples on each side")
    res = stats.ks_2samp(a, b, mode="asymp")
    return report_p(name, res.statistic, res.pvalue, threshold,
                    a.size + b.size, seeds or {})


def reflection_probabilities(T: float, x: float, z: float, y: float, mu: float) -> dict:
    """Closed-form region-hitting probability and its reflected-mass terms.

    For the constant-drift primal from x, the chance of landing in (z, y]
    at time T is Phi((y-x+mu T)/sqrt(T)) - Phi((z-x+mu T)/sqrt(T)); the
    reflected-mass terms are the upcrossing tails P(W(T) > z-x+mu T) and
    P(W(T) > y-x+mu T) that the reflection argument combines.
    """
    if not z < y:
        raise ModelError(f"need z < y, got z={z}, y={y}")
    if not T > 0.0:
        raise ModelError(f"need T > 0, got T={T}")
    rt = math.sqrt(T)
    a = (z - x + mu * T) / rt
    b = (y - x + mu * T) / rt
    return {
        "p_identity": float(ndtr(b) - ndtr(a)),
        "p_absorbed_terms": {
            "above_z": float(ndtr(-a)),
            "above_y": float(ndtr(-b)),
        },
    }


# ---------------------------------------------------------------------------
# suites


def suite_duality(seed: int = 0, paths: int = 10000, threshold: float = 0.01) -> list:
    """Region-hitting duality: MC on both sides against the closed form."""
    reports = []

    # constant drift on an interval, against the normal-CDF oracle
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 500)
    state = IntervalState(-1.0, 1.0)
    oracle = reflection_probabilities(1.0, 0.0, -1.0, 1.0, 0.5)["p_identity"]
    est = liggett_identity_mc(np.array([0.0]), state, grid, paths, drift,
                              RngSpec(seed, 0))
    for side, val, se in (("lhs", est.lhs, est.lhs_se), ("rhs", est.rhs, est.rhs_se)):
        tol = 3.0 * se + 2.0 * grid.dt
        reports.append(report_residual(
            f"duality_interval_{side}", val, abs(val - oracle), tol, paths,
            {"seed": seed}, oracle=oracle, se=se, dt=grid.dt))

    # short horizon: both sides continuous at zero, interior start
    short_grid = TimeGrid(1e-6, 1)
    est0 = liggett_identity_mc(np.array([0.0]), state, short_grid, 2000, drift,
                               RngSpec(seed, 1))
    tol0 = 3.0 * est0.pooled_se + 2.0 * short_grid.dt
    reports.append(report_residual(
        "duality_short_time", est0.lhs, max(abs(est0.lhs - 1.0), abs(est0.rhs - 1.0)),
        tol0, 2000, {"seed": seed}, dt=short_grid.dt))

    # start outside the region: small hitting mass, still matching
    oracle_out = reflection_probabilities(1.0, 4.0, -1.0, 1.0, 0.5)["p_identity"]
    est_out = liggett_identity_mc(np.array([4.0]), state, grid, paths, drift,
                                  RngSpec(seed, 2))
    tol_out = 3.0 * est_out.pooled_se + 2.0 * grid.dt
    reports.append(report_residual(
        "duality_outside_start", est_out.lhs,
        max(abs(est_out.lhs - oracle_out), abs(est_out.rhs - oracle_out)),
        tol_out, paths, {"seed": seed}, oracle=oracle_out))

    # strip between lines under the bilinear drift, and slab under the
    # logistic drift: two-estimator agreement
    d = np.array([1.0, -1.0]) / math.sqrt(2.0)
    planar_grid = TimeGrid(0.5, 250)
    planar = (
        ("wedge", np.array([0.2, 0.0]), BilinearDrift(),
         WedgeState(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([0.5, 0.0]))),
        ("slab", np.array([0.0, 0.0]), _toy_logistic_drift(), SlabState(-0.4 * d, 0.4 * d, d)),
    )
    for stream, (family, x, planar_drift, region) in enumerate(planar, start=3):
        est = liggett_identity_mc(x, region, planar_grid, paths, planar_drift,
                                  RngSpec(seed, stream))
        reports.append(report_residual(
            f"duality_{family}_two_sided", est.lhs, est.difference, 3.0 * est.pooled_se,
            paths, {"seed": seed}, lhs=est.lhs, rhs=est.rhs, dt=planar_grid.dt))
    return reports


def _toy_logistic_drift() -> LogisticDrift:
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return LogisticDrift(inputs, labels)


def flow_noise_terminal_1d(
    mu: float, y: float, x: float, T: float, N: int, seed: int, replicas: int,
    stream0: int = 0,
) -> np.ndarray:
    """Terminal reflected noise of the flow over replicated reversed paths.

    Each replica builds the backward path from x with fresh noise, reverses
    it into a forward path with the reversed noise, and reflects that pair
    at the level surface through y; returned are xi(T) values.
    """
    grid = TimeGrid(T, N)
    hat = sample_brownian_batch(grid, 1, seed, range(stream0, stream0 + replicas))
    what = hat[:, :, 0]
    # reversed backward path: starts at x - mu T + hat W(T), driven by the
    # reversed noise, and ends at x.  The stepwise trigger flow bounces each
    # crossing increment, so the output law is clean at any resolution; the
    # running-record form would understate the compensator by a root-dt
    # deficit and shift the terminal noise on the reflected branch.
    omega = what[::-1] - what[-1]
    x0 = x - mu * T + what[-1]
    out = flow_trigger_1d(y, mu, x0, omega, grid.times)
    return out["xi"][-1]


def suite_flow_wiener(seed: int = 0, replicas: int = 4000,
                      threshold: float = 0.01) -> list:
    """Wiener law of the flow's output noise, plus the outside branch."""
    reports = []
    for T in (0.25, 1.0):
        N = max(int(round(T * 500)), 1)
        xi_T = flow_noise_terminal_1d(0.5, 0.3, 0.0, T, N, seed, replicas)
        reports.append(ks_test(
            xi_T / math.sqrt(T), ndtr, name=f"flow_wiener_1d_T{T:g}",
            threshold=threshold, seeds={"seed": seed}))

    # outside start: the flow flips the noise wholesale, no reflection
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 64)
    w = sample_brownian(grid, 1, RngSpec(seed, 977))
    x_path = euler_forward_implicit(np.array([0.8]), w, drift)
    noise = impute_noise(x_path, drift)
    flow = forward_flow(x_path, Surface.level(0.3), noise, drift)
    if not flow.outside:
        raise ModelError("outside-branch check started inside the surface")
    residual = float(np.max(np.abs(flow.reflected_noise.values + noise.values)))
    reports.append(report_residual(
        "flow_outside_branch_exact", residual, residual, 0.0, grid.N + 1,
        {"seed": seed}))

    # planar drift in two dimensions, reflected at a line
    reports.append(_flow_wiener_bilinear(seed, min(replicas, 1000), threshold))
    return reports


def _flow_wiener_bilinear(seed: int, replicas: int, threshold: float) -> TestReport:
    drift = BilinearDrift()
    T, N = 0.5, 250
    grid = TimeGrid(T, N)
    x = np.array([0.0, 0.0])
    hat = sample_brownian_batch(grid, 2, seed + 1, range(replicas))
    # backward paths from x, all replicas at once
    vals = euler_backward_values(grid, x, hat, drift)
    surface = Surface(np.array([0.4, 0.0]), u=np.array([1.0, 2.0]))
    xi_T = np.empty(replicas)
    for i in range(replicas):
        x_path = SamplePath(grid, vals[::-1, i, :])
        omega = SamplePath(grid, hat[::-1, i, :] - hat[-1, i, :])
        flow = forward_flow(x_path, surface, omega, drift)
        xi_T[i] = flow.reflected_noise.values[-1, 0]
    return ks_test(xi_T / math.sqrt(T), ndtr, name="flow_wiener_bilinear_2d",
                   threshold=threshold, seeds={"seed": seed + 1})


def suite_reversal(seed: int = 0, paths: int = 20000,
                   threshold_quad: float = 1e-8) -> list:
    """Time-reversal identity under the invariant weight, on a window.

    The invariant function is not integrable on the line, so starts are
    importance-sampled uniformly on a window with explicit weight nu; path
    functionals are chosen to vanish unless the whole comparison lives
    inside the window.
    """
    mu = 0.3
    T, N = 1.0, 200
    a = 2.0
    grid = TimeGrid(T, N)
    gen = RngSpec(seed, 11).generator()
    x0 = (2.0 * a) * uniforms(gen, (paths,)) - a
    w = partial_sums(brownian_increments(gen, grid, (paths,)))
    X = x0[None, :] - mu * grid.times[:, None] + w
    weight = (2.0 * a) * np.exp(-2.0 * mu * x0)

    # three time-stamped gates, asymmetric under reversal
    half = N // 2
    def gate(path_vals):
        return (
            (np.abs(path_vals[0]) <= a)
            & (path_vals[half] > 0.0) & (path_vals[half] <= a)
            & (path_vals[N] > -a) & (path_vals[N] <= 0.5)
        )

    f_fwd = weight * gate(X)
    f_rev = weight * gate(X[::-1])
    diff = f_fwd - f_rev
    lhs = float(np.mean(f_fwd))
    rhs = float(np.mean(f_rev))
    se = float(np.std(diff, ddof=1) / math.sqrt(paths))
    tol = 3.0 * se + 2.0 * grid.dt
    reports = [report_residual(
        "reversal_path_gates", lhs, abs(lhs - rhs), tol, paths,
        {"seed": seed}, lhs=lhs, rhs=rhs, dt=grid.dt)]

    # constant functional: the weights alone estimate the window mass of nu
    reports.append(window_mass_report(weight, mu, a, seed))

    # endpoint functional against the closed-form density oracle
    b0, b1 = (0.0, 1.0), (-1.0, 0.0)
    hit = (
        (x0 > b0[0]) & (x0 <= b0[1]) & (X[N] > b1[0]) & (X[N] <= b1[1])
    )
    mc = float(np.mean(weight * hit))

    def band_mass(lo, hi, x):
        return reflection_probabilities(T, x, lo, hi, mu)["p_identity"]

    oracle, _ = integrate.quad(
        lambda x: math.exp(-2.0 * mu * x) * band_mass(b1[0], b1[1], x),
        b0[0], b0[1], epsabs=1e-12, epsrel=1e-10)
    se_mc = float(np.std(weight * hit, ddof=1) / math.sqrt(paths))
    reports.append(report_residual(
        "reversal_endpoint_mc", mc, abs(mc - oracle), 3.0 * se_mc + 2.0 * grid.dt,
        paths, {"seed": seed}, oracle=float(oracle)))

    # the oracle itself is symmetric when the bands are swapped
    swapped, _ = integrate.quad(
        lambda x: math.exp(-2.0 * mu * x) * band_mass(b0[0], b0[1], x),
        b1[0], b1[1], epsabs=1e-12, epsrel=1e-10)
    reports.append(report_residual(
        "reversal_nu_symmetry_quadrature", float(oracle),
        abs(float(oracle) - float(swapped)), threshold_quad, 1,
        {"seed": seed}, swapped=float(swapped)))
    return reports


def window_mass_report(weight: np.ndarray, mu: float, a: float, seed: int) -> TestReport:
    """Mean weight against the window mass sinh(2 mu a) / mu of nu, within 3 SE."""
    mass = math.sinh(2.0 * mu * a) / mu
    mean = float(np.mean(weight))
    se = float(np.std(weight, ddof=1) / math.sqrt(weight.size))
    return report_residual("reversal_constant_mass", mean, abs(mean - mass), 3.0 * se,
                           weight.size, {"seed": seed}, mass=mass, se=se)


SUITES = {
    "duality": suite_duality,
    "flow_wiener": suite_flow_wiener,
    "reversal": suite_reversal,
}
