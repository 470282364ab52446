"""End-to-end acceptance checks for the coupling library.

One test per criterion, in a fixed order, each with frozen seeds and
workload so a rerun reproduces the same numbers.  Every test prints a
one-line summary of its measured statistics (visible with ``pytest -s``
or on failure); under ``pytest -v`` each criterion reports exactly one
PASS/FAIL line.

The heavier tests state their runtime budgets explicitly and assert
them; on a single modern core the whole module takes about a minute
and a half, half of it the reclocked entrance gap (criterion 4).
"""

import math
import time

import numpy as np
from scipy import stats
from scipy.special import ndtr

from dualflow import (
    BilinearDrift,
    ConstantDrift,
    IntervalState,
    LogisticDrift,
    RngSpec,
    SamplePath,
    SlabState,
    Surface,
    TimeGrid,
    WedgeState,
    backward_flow,
    bessel_time_change,
    euler_backward,
    euler_forward_implicit,
    flow_from_path,
    forward_flow,
    impute_noise,
    intertwining_residual,
    liggett_identity_mc,
    mc_region_sampler,
    pitman_construct,
    reversed_noise,
    run_coupling,
    run_entrance_coupling,
    sample_brownian,
    truncated_exp_mean,
)
from dualflow.cli import _posterior_reports, build_drift
from dualflow.verify import reflection_probabilities


def test_criterion_01_duality_identity_interval():
    """Both sides of the conditioning identity match the reflection oracle.

    Interval (-1, 1), drift 0.5, start 0, horizon 1, 2000 steps, 2e5
    paths per side; each Monte Carlo estimate must fall within
    max(3 SE, 0.01) of the closed-form reflection probability, inside a
    300 s budget.
    """
    t0 = time.monotonic()
    drift = ConstantDrift(np.array([0.5]))
    est = liggett_identity_mc(
        np.array([0.0]),
        IntervalState(-1.0, 1.0),
        TimeGrid(1.0, 2000),
        200000,
        drift,
        RngSpec(8801, 0),
    )
    oracle = reflection_probabilities(1.0, 0.0, -1.0, 1.0, 0.5)["p_identity"]
    elapsed = time.monotonic() - t0
    dl = abs(est.lhs - oracle)
    dr = abs(est.rhs - oracle)
    tol_l = max(3.0 * est.lhs_se, 0.01)
    tol_r = max(3.0 * est.rhs_se, 0.01)
    print(
        f"criterion 01: lhs={est.lhs:.5f} rhs={est.rhs:.5f} oracle={oracle:.5f} "
        f"|lhs-oracle|={dl:.5f} (tol {tol_l:.5f}) |rhs-oracle|={dr:.5f} "
        f"(tol {tol_r:.5f}) time={elapsed:.0f}s"
    )
    assert abs(oracle - 0.62465) < 1e-4
    assert dl <= tol_l
    assert dr <= tol_r
    assert elapsed < 300.0


def test_criterion_02_flow_noise_is_wiener():
    """The reflected noise of the level flow ends Gaussian at two horizons.

    Drift 0.5, level 0.3, start 0, 1000 steps, 1e4 replicas at T = 1 and
    T = 0.5; the terminal value scaled by 1/sqrt(T) must pass a KS test
    against the standard normal at p > 0.01, inside a 120 s budget.
    """
    from dualflow.verify import flow_noise_terminal_1d

    t0 = time.monotonic()
    pvals = {}
    for T, stream0 in ((1.0, 0), (0.5, 10000)):
        xi = flow_noise_terminal_1d(0.5, 0.3, 0.0, T, 1000, 8802, 10000, stream0)
        ks = stats.kstest(xi / math.sqrt(T), ndtr)
        pvals[T] = ks.pvalue
    elapsed = time.monotonic() - t0
    print(
        f"criterion 02: p(T=1)={pvals[1.0]:.4f} p(T=0.5)={pvals[0.5]:.4f} "
        f"time={elapsed:.1f}s"
    )
    assert pvals[1.0] > 0.01
    assert pvals[0.5] > 0.01
    assert elapsed < 120.0


def test_criterion_03_half_gap_is_pitman_transform():
    """The entrance coupling's half gap is the 2M-W transform of its noise.

    For drifts 0 and 0.5: grid-exact identity (within 1e-10) on 1000
    seeds, then distributional agreement (two-sample KS, p > 0.01) at
    t = 1 between the direct transform of a fresh Wiener path and the
    coupling's half gap, 1e4 seeds per sample, disjoint stream blocks.
    """
    grid = TimeGrid(1.0, 500)
    for mu in (0.0, 0.5):
        drift = ConstantDrift(np.array([mu]))
        worst = 0.0
        for s in range(1000):
            traj = run_entrance_coupling(0.0, drift, grid, RngSpec(8803, s))
            half = 0.5 * (traj.y_path.values[:, 0] - traj.z_path.values[:, 0])
            v = pitman_construct(traj.wiener, mu).values[:, 0]
            worst = max(worst, float(np.max(np.abs(half - v))))
        a = np.empty(10000)
        for s in range(10000):
            w = sample_brownian(grid, 1, RngSpec(8803, 20000 + s))
            a[s] = pitman_construct(w, mu).values[-1, 0]
        b = np.empty(10000)
        for s in range(10000):
            traj = run_entrance_coupling(0.0, drift, grid, RngSpec(8803, 40000 + s))
            b[s] = 0.5 * (traj.y_path.values[-1, 0] - traj.z_path.values[-1, 0])
        ks = stats.ks_2samp(a, b)
        print(
            f"criterion 03 mu={mu}: grid-exact worst={worst:.3e} "
            f"KS={ks.statistic:.4f} p={ks.pvalue:.4f}"
        )
        assert worst <= 1e-10
        assert ks.pvalue > 0.01


def test_criterion_04_entrance_gap_is_bessel3():
    """The reclocked entrance gap at time 1 is chi with 3 degrees of freedom.

    1e4 driftless entrance runs, simulation horizon 0.26 with 52000
    steps (so the reclocked horizon covers t = 1 exactly on-grid);
    KS of H(1) against the chi(3) law at p > 0.01; the gap must be
    strictly positive after the first step on every run; and H(1) must
    agree with the gap read directly at a quarter of the simulation
    clock (the reclocking is time * 4 here).
    """
    t0 = time.monotonic()
    drift0 = ConstantDrift(np.array([0.0]))
    grid = TimeGrid(0.26, 52000)
    j_quarter = round(0.25 / grid.dt)
    H1 = np.empty(10000)
    min_gap = np.inf
    worst_consistency = 0.0
    for i in range(10000):
        traj = run_entrance_coupling(0.0, drift0, grid, RngSpec(8804, 1000 + i))
        diag = bessel_time_change(traj, drift0, eval_times=np.array([0.0, 1.0]))
        H1[i] = diag.H_path.values[-1, 0]
        g = traj.gap()
        min_gap = min(min_gap, float(g[1:].min()))
        worst_consistency = max(worst_consistency, abs(H1[i] - float(g[j_quarter])))
    ks = stats.kstest(H1, stats.chi(3).cdf)
    elapsed = time.monotonic() - t0
    print(
        f"criterion 04: KS={ks.statistic:.4f} p={ks.pvalue:.4f} "
        f"min_gap={min_gap:.2e} reclock_consistency={worst_consistency:.2e} "
        f"time={elapsed:.0f}s"
    )
    assert ks.pvalue > 0.01
    assert min_gap > 0.0
    assert worst_consistency <= 1e-8


def test_criterion_05_generators_commute_with_conditioning():
    """Averaging the primal generator equals the dual generator of the average.

    f in {x, x^2, sin x}, drifts 0.3 and 0.5, twenty interval states
    sweeping both endpoint location and width; the quadrature/finite-
    difference residual must stay below 1e-4 * (1 + |lhs|) in every one
    of the 120 cases.
    """
    functions = [
        ("x", lambda x: x, lambda x: 1.0, lambda x: 0.0),
        ("x^2", lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0),
        ("sin", math.sin, math.cos, lambda x: -math.sin(x)),
    ]
    states = [
        IntervalState(-1.5 + 0.15 * i, -1.5 + 0.15 * i + 0.3 + 0.12 * (i % 5))
        for i in range(20)
    ]
    worst_ratio = 0.0
    cases = 0
    for mu in (0.3, 0.5):
        drift = ConstantDrift(np.array([mu]))
        for name, f, df, d2f in functions:
            for state in states:
                res = intertwining_residual(f, df, d2f, state, drift)
                ratio = res["residual"] / (1e-4 * res["scale"])
                worst_ratio = max(worst_ratio, ratio)
                cases += 1
                assert res["residual"] <= 1e-4 * res["scale"], (name, mu, state)
    print(
        f"criterion 05: {cases} cases, worst residual at "
        f"{worst_ratio:.2e} of tolerance"
    )
    assert cases == 120


def test_criterion_06_reflection_converges_with_refinement():
    """Coarse-grid reflection magnitudes converge to the fine-grid record.

    One driftless level flow per seed (level 0.3, start 0): the sup
    difference between the coarse-grid compensator and the 16000-step
    reference, read on 250 shared nodes, must decrease monotonically
    over N in {250, 500, 1000, 2000} on at least 95% of 200 seeds, and
    the mean final difference at N = 2000 must be at most 0.05.
    """
    from dualflow.core import normals

    t0 = time.monotonic()
    NF = 16000
    T = 1.0
    level = 0.3
    drift0 = ConstantDrift(np.array([0.0]))
    Ns = (250, 500, 1000, 2000)
    errs = np.empty((200, len(Ns)))
    fine_grid = TimeGrid(T, NF)
    for s in range(200):
        gen = RngSpec(8806, 1000 + s).generator()
        inc = normals(gen, (NF, 1)) * math.sqrt(T / NF)
        om = np.zeros((NF + 1, 1))
        np.cumsum(inc, axis=0, out=om[1:])
        ref = flow_from_path(
            Surface.level(level), SamplePath(fine_grid, om), drift0
        ).sigma.values[:, 0]
        for k, N in enumerate(Ns):
            sub = om[:: NF // N]
            sig = flow_from_path(
                Surface.level(level), SamplePath(TimeGrid(T, N), sub), drift0
            ).sigma.values[:, 0]
            errs[s, k] = np.max(np.abs(sig[:: N // 250] - ref[:: NF // 250]))
    monotone = np.all(np.diff(errs, axis=1) <= 0.0, axis=1)
    frac_monotone = float(np.mean(monotone))
    mean_final = float(np.mean(errs[:, -1]))
    elapsed = time.monotonic() - t0
    print(
        f"criterion 06: monotone on {int(np.sum(monotone))}/200 seeds, "
        f"mean final error={mean_final:.4f}, per-N means="
        f"{np.mean(errs, axis=0).round(4).tolist()} time={elapsed:.0f}s"
    )
    assert frac_monotone >= 0.95
    assert mean_final <= 0.05


def test_criterion_07_conditional_mean_factorization():
    """E[g(dual) f(primal)] matches E[g(dual) (conditional mean of f)].

    Interval (-1, 1), drift 0.5, f(x) = x, g the indicator that the dual
    stays inside (-3, 3); 1e4 coupled paths; at t = 0.5 and t = 1 the
    paired difference of the two averages must sit within three standard
    errors of zero.
    """
    t0 = time.monotonic()
    drift = ConstantDrift(np.array([0.5]))
    state0 = IntervalState(-1.0, 1.0)
    grid = TimeGrid(1.0, 1000)
    m = 10000
    pairs = {0.5: [], 1.0: []}
    for i in range(m):
        traj = run_coupling(state0, drift, grid, RngSpec(8807, i))
        for t in (0.5, 1.0):
            j = round(t / grid.dt)
            Z = traj.z_path.values[j, 0]
            Y = traj.y_path.values[j, 0]
            X = traj.primal.values[j, 0]
            g = float((Z > -3.0) and (Y < 3.0))
            pairs[t].append((g * X, g * truncated_exp_mean(Z, Y, 0.5)))
    elapsed = time.monotonic() - t0
    for t in (0.5, 1.0):
        arr = np.asarray(pairs[t])
        diff = arr[:, 0] - arr[:, 1]
        gap = abs(float(np.mean(diff)))
        se = float(np.std(diff, ddof=1) / math.sqrt(m))
        print(
            f"criterion 07 t={t}: |mean diff|={gap:.5f} 3se={3.0 * se:.5f} "
            f"time={elapsed:.1f}s"
        )
        assert gap <= 3.0 * se


def test_criterion_08_posterior_region_sampler():
    """The slab stopping rule reproduces the bundled logistic posterior.

    Bundled two-dimensional logistic model (four training points),
    region (-0.6, 0.6) along the bundle direction: at least 2000
    accepted samples; per-coordinate KS against a direct rejection
    sampler at p > 0.01; offsets along the bundle direction uniform
    (KS p > 0.01); all inside a 600 s budget.
    """
    t0 = time.monotonic()
    ldrift, d = build_drift({"model": {"family": "logistic", "data": None}})
    result = mc_region_sampler(
        (-0.6, 0.6),
        None,
        ldrift,
        RngSpec(8808, 0),
        count=2000,
        max_attempts=200000,
        horizon=8.0,
        dt=0.002,
    )
    reports = _posterior_reports(result, ldrift, d, (-0.6, 0.6), 8808)
    elapsed = time.monotonic() - t0
    lines = ", ".join(f"{r.name}: p={r.p_value:.4f}" for r in reports)
    print(
        f"criterion 08: accepted={result.accepted} attempts={result.attempts} "
        f"{lines} time={elapsed:.0f}s"
    )
    assert result.accepted >= 2000
    for r in reports:
        assert r.p_value > 0.01, r.name
    assert elapsed < 600.0


def test_criterion_09_schemes_and_flows_invert():
    """Forward schemes and reflection flows invert exactly under reversal.

    1000 seeds per configuration, horizon 1 with 64 steps, tolerance
    1e-10 throughout.  Schemes: implicit forward then explicit backward
    on the reversed noise retraces the path (constant drift in 1-D,
    bilinear in 2-D).  Flows: running the backward flow from the
    forward flow's terminal state, reversed surfaces, and reversed
    reflected noise recovers the reversed trajectory, the reversed
    compensator increments, and the reversed input noise; the
    compensator must actually move on an aggregate of seeds.
    """
    grid = TimeGrid(1.0, 64)
    drift1 = ConstantDrift(np.array([0.5]))
    drift2 = BilinearDrift()

    worst = {"1d": 0.0, "2d": 0.0}
    for tag, drift, x0, block in (
        ("1d", drift1, np.array([0.2]), 0),
        ("2d", drift2, np.array([0.1, -0.2]), 10000),
    ):
        for s in range(1000):
            w = sample_brownian(grid, drift.n, RngSpec(8809, block + s))
            xp = euler_forward_implicit(x0, w, drift)
            back = euler_backward(xp.values[-1], reversed_noise(w), drift)
            err = float(np.max(np.abs(back.values - xp.values[::-1])))
            worst[tag] = max(worst[tag], err)
    print(
        f"criterion 09 schemes: worst 1d={worst['1d']:.2e} "
        f"worst 2d={worst['2d']:.2e}"
    )
    assert worst["1d"] <= 1e-10
    assert worst["2d"] <= 1e-10

    for tag, drift, x0, y0, block in (
        ("1d level", drift1, np.array([0.0]), Surface.level(0.1), 20000),
        (
            "2d line",
            drift2,
            np.array([0.0, 0.0]),
            Surface(np.array([0.15, 0.0]), u=np.array([1.0, 2.0])),
            30000,
        ),
    ):
        worst_traj = worst_sig = worst_noise = 0.0
        crossings = 0
        for s in range(1000):
            w = sample_brownian(grid, drift.n, RngSpec(8809, block + s))
            x_path = euler_forward_implicit(x0, w, drift)
            omega = impute_noise(x_path, drift)
            ff = forward_flow(x_path, y0, omega, drift)
            assert not ff.outside
            bf = backward_flow(
                x_path.values[-1],
                ff.surfaces.reversed(),
                reversed_noise(ff.reflected_noise),
                drift,
            )
            sig = ff.sigma.values[:, 0]
            bsig = bf.sigma.values[:, 0]
            worst_traj = max(
                worst_traj,
                float(np.max(np.abs(bf.trajectory.values - x_path.values[::-1]))),
            )
            worst_sig = max(
                worst_sig, float(np.max(np.abs(bsig - (sig[-1] - sig[::-1]))))
            )
            worst_noise = max(
                worst_noise,
                float(
                    np.max(
                        np.abs(
                            bf.reflected_noise.values - reversed_noise(omega).values
                        )
                    )
                ),
            )
            crossings += int(np.sum(np.diff(sig) != 0.0))
        print(
            f"criterion 09 flow {tag}: traj={worst_traj:.2e} "
            f"sigma={worst_sig:.2e} noise={worst_noise:.2e} "
            f"crossings={crossings}"
        )
        assert worst_traj <= 1e-10
        assert worst_sig <= 1e-10
        assert worst_noise <= 1e-10
        assert crossings > 0


def test_criterion_10_region_flags_hold_on_every_run():
    """The containment flags are identically true along coupled runs.

    1000 runs per family: interval (constant drift, 500 steps), wedge
    (bilinear drift, 200 steps), slab (bundled logistic drift, 100
    steps).  Every run must report its flag true at every node.
    """
    t0 = time.monotonic()
    interval = IntervalState(-1.0, 1.0)
    drift_i = ConstantDrift(np.array([0.5]))
    wedge = WedgeState(
        np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([1.0, 0.0])
    )
    drift_w = BilinearDrift()
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    drift_s = LogisticDrift(inputs, labels)
    d = np.array([1.0, -1.0]) / math.sqrt(2.0)
    slab = SlabState(-0.4 * d, 0.4 * d, d)

    configs = (
        ("interval", interval, drift_i, TimeGrid(1.0, 500), 0),
        ("wedge", wedge, drift_w, TimeGrid(1.0, 200), 10000),
        ("slab", slab, drift_s, TimeGrid(1.0, 100), 20000),
    )
    family_s = []
    for name, state, drift, grid, block in configs:
        t_family = time.monotonic()
        for s in range(1000):
            traj = run_coupling(state, drift, grid, RngSpec(8810, block + s))
            assert np.all(traj.gamma_flags), (name, s)
        family_s.append(f"{name}={time.monotonic() - t_family:.1f}s")
    elapsed = time.monotonic() - t0
    print(f"criterion 10: 3000/3000 runs with all flags true, time={elapsed:.0f}s "
          f"({', '.join(family_s)})")
