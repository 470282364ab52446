"""Linked couplings, entrance laws, path transforms, reclocking, region MC."""

import hashlib
import io
import math

import numpy as np
import pytest
from scipy import stats

from dualflow import (
    BilinearDrift,
    ConstantDrift,
    IntervalState,
    LogisticDrift,
    ModelError,
    NumericalError,
    RngSpec,
    SamplePath,
    SlabState,
    TimeGrid,
    WedgeState,
    bessel_time_change,
    euler_backward,
    impute_noise,
    mc_region_sampler,
    pitman_construct,
    run_coupling,
    run_entrance_coupling,
    truncated_exp_mean,
)
from dualflow import coupling, duals
from dualflow.cli import build_drift
from dualflow.core import brownian_increments, partial_sums
from dualflow.coupling import _slab_region_attempt, read_coupling_jsonl, write_coupling_jsonl
from dualflow.duals import _plane_density_sampler, plane_density, span_normal


def toy_logistic():
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return LogisticDrift(inputs, labels)


SLAB_NORMAL = np.array([1.0, -1.0]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# pitman transform


def test_pitman_frozen_examples():
    grid = TimeGrid(2.0, 2)
    w = SamplePath(grid, np.array([0.0, 1.0, -1.0]))
    v = pitman_construct(w, 0.0)
    assert np.allclose(v.values[:, 0], [0.0, 1.0, 3.0], atol=0.0)

    grid2 = TimeGrid(1.0, 4)
    flat = SamplePath(grid2, np.zeros(5))
    v2 = pitman_construct(flat, 0.5)
    # with W = 0 the transform grows linearly at rate 2 mu
    assert np.allclose(v2.values[:, 0], grid2.times, atol=1e-15)

    with pytest.raises(ModelError):
        pitman_construct(SamplePath(grid2, np.zeros((5, 2))), 0.5)


# ---------------------------------------------------------------------------
# coupled runs, interval


def test_interval_coupling_grid_identities():
    state0 = IntervalState(-1.0, 1.0)
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 200)
    traj = run_coupling(state0, drift, grid, RngSpec(81, 0))
    t = grid.times
    w = traj.wiener.values[:, 0]
    x = traj.primal.values[:, 0]
    om = traj.noise.values[:, 0]
    sig = traj.sigma.values[:, 0]
    z = traj.z_path.values[:, 0]
    y = traj.y_path.values[:, 0]

    assert np.allclose(x, x[0] - 0.5 * t + w, atol=1e-12)
    assert np.allclose(om, w - 2.0 * 0.5 * t, atol=1e-12)
    assert np.allclose(y, 1.0 + 0.5 * t - om + sig, atol=1e-12)
    assert np.allclose(z, -1.0 + 0.5 * t + traj.reflected.values[:, 0], atol=1e-12)
    assert np.all(np.diff(sig) >= 0.0)
    assert np.all(traj.gamma_flags)
    # the region always brackets the primal point, half-open at z
    assert np.all((z < x) & (x <= y + 1e-12))


def test_interval_coupling_sandwich_and_flags():
    state0 = IntervalState(-1.0, 1.0)
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 500)
    for stream in range(5):
        traj = run_coupling(state0, drift, grid, RngSpec(81, 10 + stream))
        x = traj.primal.values[:, 0]
        z = traj.z_path.values[:, 0]
        y = traj.y_path.values[:, 0]
        assert np.all(traj.gamma_flags)
        assert np.all((z < x) & (x <= y + 1e-12))
        assert np.all(np.diff(traj.sigma.values[:, 0]) >= -1e-15)


def test_coupling_rejects_absorbed_start():
    with pytest.raises(ModelError):
        run_coupling(IntervalState(0.0, 0.0, absorbed=True), ConstantDrift(0.5),
                     TimeGrid(1.0, 10), RngSpec(0, 0))


def test_coupling_jsonl_round_trip():
    traj = run_coupling(IntervalState(-1.0, 1.0), ConstantDrift(0.5),
                        TimeGrid(1.0, 20), RngSpec(82, 0))
    buf = io.StringIO()
    write_coupling_jsonl(buf, traj)
    buf.seek(0)
    back = read_coupling_jsonl(buf)
    assert back.family == traj.family
    assert np.array_equal(back.primal.values, traj.primal.values)
    assert np.array_equal(back.z_path.values, traj.z_path.values)
    assert np.array_equal(back.y_path.values, traj.y_path.values)
    assert np.array_equal(back.sigma.values, traj.sigma.values)
    assert np.array_equal(back.gamma_flags, traj.gamma_flags)


def test_wedge_coupling_runs_with_flags():
    u = np.array([1.0, 2.0])
    state0 = WedgeState(u, np.zeros(2), np.array([1.0, 0.0]))
    grid = TimeGrid(1.0, 200)
    traj = run_coupling(state0, BilinearDrift(), grid, RngSpec(83, 0))
    assert traj.family == "wedge"
    assert np.all(traj.gamma_flags)
    assert traj.u_path is not None
    assert np.all(np.diff(traj.sigma.values[:, 0]) >= -1e-15)
    # jsonl round trip keeps the direction path
    buf = io.StringIO()
    write_coupling_jsonl(buf, traj)
    buf.seek(0)
    back = read_coupling_jsonl(buf)
    assert np.array_equal(back.u_path, traj.u_path)


def test_slab_coupling_runs_with_flags():
    d = SLAB_NORMAL
    state0 = SlabState(-0.4 * d, 0.4 * d, d)
    grid = TimeGrid(1.0, 100)
    traj = run_coupling(state0, toy_logistic(), grid, RngSpec(84, 0))
    assert traj.family == "slab"
    assert np.all(traj.gamma_flags)


# ---------------------------------------------------------------------------
# entrance couplings


def test_slab_coupling_never_computes_the_start_density(monkeypatch):
    # run_coupling takes only the conditional draw's point, so the in-plane
    # normalizer (a quadrature) must not run
    def no_quadrature(pd):
        raise AssertionError("the in-plane normalizer ran")

    monkeypatch.setattr(duals, "_plane_log_normalizer", no_quadrature)
    slab = SlabState(-0.4 * SLAB_NORMAL, 0.4 * SLAB_NORMAL, SLAB_NORMAL)
    for s in range(3):
        traj = run_coupling(slab, toy_logistic(), TimeGrid(1.0, 100), RngSpec(8810, 20000 + s))
        assert np.all(traj.gamma_flags)


def test_interval_entrance_matches_pitman_gap():
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 100)
    for stream in range(5):
        traj = run_entrance_coupling(0.0, drift, grid, RngSpec(85, stream))
        v = pitman_construct(traj.wiener, 0.5).values[:, 0]
        half_gap = 0.5 * traj.gap()
        assert np.max(np.abs(v - half_gap)) < 1e-12
        assert np.all(traj.gap()[1:] > 0.0)
        assert traj.gap()[0] == 0.0


def test_wedge_entrance_leaves_boundary():
    u = np.array([1.0, 2.0])
    anchor = np.array([0.3, 0.1])
    state0 = WedgeState(u, anchor, anchor)
    grid = TimeGrid(0.5, 100)
    traj = run_entrance_coupling(state0, BilinearDrift(), grid, RngSpec(86, 0))
    # the primal start sits on the shared boundary line
    nvec = WedgeState.normal_of(u)
    x0 = traj.primal.values[0]
    assert abs(float(nvec @ (x0 - anchor))) < 1e-9
    assert traj.gap()[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(traj.gap()[1:] > 0.0)

    with pytest.raises(ModelError):
        run_entrance_coupling(
            WedgeState(u, np.zeros(2), np.array([1.0, 0.0])),
            BilinearDrift(), grid, RngSpec(86, 1))

    # a direction with non-representable ratios still enters cleanly
    for stream in range(5):
        rough = run_entrance_coupling(
            WedgeState(np.array([1.1, 1.7]), anchor, anchor),
            BilinearDrift(), grid, RngSpec(86, 10 + stream))
        assert np.all(rough.gap()[1:] > 0.0)


def test_slab_entrance_leaves_boundary():
    d = SLAB_NORMAL
    state0 = SlabState(0.1 * d, 0.1 * d, d)
    grid = TimeGrid(0.5, 100)
    traj = run_entrance_coupling(state0, toy_logistic(), grid, RngSpec(87, 0))
    assert traj.gap()[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(traj.gap()[1:] > 0.0)

    with pytest.raises(ModelError):
        run_entrance_coupling(state0, ConstantDrift(np.zeros(2)), grid, RngSpec(87, 1))


# ---------------------------------------------------------------------------
# reclocking


def test_reclock_interval_driftless():
    drift = ConstantDrift(0.0)
    grid = TimeGrid(0.26, 520)
    traj = run_entrance_coupling(0.0, drift, grid, RngSpec(88, 0))
    diag = bessel_time_change(traj, drift)
    # the rate is the constant 2, so R(t) = 4 t
    assert np.allclose(diag.R_path.values[:, 0], 4.0 * grid.times, atol=1e-12)
    assert not diag.truncated
    # H at reclocked time t equals the gap at t / 4
    H = bessel_time_change(traj, drift, eval_times=np.array([0.0, 1.0]))
    j = round(0.25 / grid.dt)
    assert H.H_path.values[-1, 0] == pytest.approx(traj.gap()[j], abs=1e-9)


def test_reclock_slab_rate():
    d = SLAB_NORMAL
    drift = toy_logistic()
    state0 = SlabState(0.1 * d, 0.1 * d, d)
    grid = TimeGrid(0.5, 200)
    traj = run_entrance_coupling(state0, drift, grid, RngSpec(88, 1))
    diag = bessel_time_change(traj, drift)
    # the rate is 2 d_1, so R(t) = 4 d_1^2 t
    assert np.allclose(diag.R_path.values[:, 0], 4.0 * d[0] ** 2 * grid.times,
                       atol=1e-12)


def test_reclock_truncation_flag():
    drift = ConstantDrift(0.0)
    grid = TimeGrid(0.1, 100)  # R_total = 0.4 < 1
    traj = run_entrance_coupling(0.0, drift, grid, RngSpec(88, 2))
    diag = bessel_time_change(traj, drift, eval_times=np.array([0.2, 1.0]))
    assert diag.truncated
    assert np.isfinite(diag.H_path.values[0, 0])
    assert np.isnan(diag.H_path.values[1, 0])


def test_reclock_wedge_unsupported():
    u = np.array([1.0, 2.0])
    anchor = np.array([0.3, 0.1])
    traj = run_entrance_coupling(WedgeState(u, anchor, anchor), BilinearDrift(),
                                 TimeGrid(0.2, 50), RngSpec(88, 3))
    with pytest.raises(ModelError):
        bessel_time_change(traj, BilinearDrift())


# ---------------------------------------------------------------------------
# region sampler


def test_region_sampler_interval_law():
    drift = ConstantDrift(0.3)
    rng = RngSpec(89, 0)
    out = mc_region_sampler((-0.5, 0.5), None, drift, rng, count=400,
                            max_attempts=100000, horizon=8.0, dt=0.01)
    assert out.accepted == 400
    assert not out.truncated
    pts = out.samples[:, 0]
    assert np.all((pts > -0.5) & (pts <= 0.5))
    assert 0.0 < out.acceptance_rate <= 1.0
    # accepted points follow the region-conditional invariant law
    mu = 0.3
    mass = (math.exp(2 * mu * 0.5) - math.exp(-2 * mu * 0.5)) / (2 * mu)

    def cdf(x):
        return (math.exp(2 * mu * 0.5) - np.exp(-2 * mu * np.asarray(x))) / (2 * mu * mass)

    res = stats.kstest(pts, cdf)
    assert res.pvalue > 1e-3
    # reruns are reproducible
    again = mc_region_sampler((-0.5, 0.5), None, drift, rng, count=400,
                              max_attempts=100000, horizon=8.0, dt=0.01)
    assert np.array_equal(again.samples, out.samples)


def test_region_sampler_truncation():
    drift = ConstantDrift(0.3)
    out = mc_region_sampler((-0.5, 0.5), None, drift, RngSpec(89, 1), count=50,
                            max_attempts=3, horizon=8.0, dt=0.01)
    assert out.truncated
    assert out.accepted < 50


def test_region_sampler_validation():
    with pytest.raises(ModelError):
        mc_region_sampler((0.5, -0.5), None, ConstantDrift(0.3), RngSpec(0, 0))
    with pytest.raises(ModelError):
        mc_region_sampler((-0.5, 0.5), None, BilinearDrift(), RngSpec(0, 0))
    for dt in (0.0, -0.002, math.inf, math.nan):
        with pytest.raises(ModelError, match=r"^time step must be positive and finite"):
            mc_region_sampler((-0.5, 0.5), None, ConstantDrift(0.3), RngSpec(0, 0), dt=dt)
    for count, max_attempts in ((0, 10), (-1, 10), (5, 0)):
        with pytest.raises(ModelError, match=r"^count and max_attempts must be >= 1"):
            mc_region_sampler((-0.5, 0.5), None, ConstantDrift(0.3), RngSpec(0, 0),
                              count=count, max_attempts=max_attempts)


def test_region_sampler_rejects_a_slab_start_with_a_gap(bundled_slab):
    drift, h1, _ = bundled_slab
    wide = SlabState(h1.z - 0.1 * h1.normal, h1.y, h1.normal)
    with pytest.raises(ModelError, match=r"^slab region sampling needs a degenerate slab start$"):
        mc_region_sampler((-0.6, 0.6), wide, drift, RngSpec(8808, 0), count=1)


# ---------------------------------------------------------------------------
# slab region attempts stop at their first cover


def _full_horizon_slab_attempt(lo, hi, start, grid, spec, pd):
    """The slab attempt before early stopping: simulate the whole horizon,
    then scan it for the first covering node."""
    d = start.normal
    drift = pd.drift
    gen = spec.generator()
    w0 = _plane_density_sampler(pd, gen, 1)[0]
    x0 = pd.basis @ w0 + float(d @ start.y) * d

    wiener = partial_sums(brownian_increments(gen, grid, (drift.n,)))
    x_path = euler_backward(x0, SamplePath(grid, wiener), drift)
    omega = impute_noise(x_path, drift)

    X = x_path.values
    om_inc = omega.increments()
    d1 = float(d[0])
    pX = X @ d
    pA = float(d @ start.y)
    pZ = pA
    for j in range(1, grid.N + 1):
        po = float(om_inc[j - 1] @ d)
        po1 = float(om_inc[j - 1][0])
        crossing = pX[j - 1] + d1 * (po1 + abs(po1)) > pA
        dsig = 2.0 * po1 if crossing else 0.0
        pA = pA + po + d1 * (dsig - 2.0 * po1)
        pZ = pZ + po - d1 * dsig
        if pZ < lo and hi <= pA:
            return X[j].copy(), float(grid.times[j]), bool(lo < pX[j] <= hi)
    return None


@pytest.fixture(scope="module")
def bundled_slab():
    """The bundled logistic model and the sampler's default slab start."""
    drift, _ = build_drift({"model": {"family": "logistic", "data": None}})
    d, _ = span_normal(drift.inputs)
    return drift, SlabState(0.0 * d, 0.0 * d, d), plane_density(drift, d)


# 500 and 449 steps are not multiples of the 64-step block; 449 leaves a
# one-step final block
@pytest.mark.parametrize("horizon, steps, streams", [(8.0, 4000, 200), (1.0, 500, 300),
                                                     (1.0, 449, 100)])
def test_slab_attempt_matches_full_horizon_bits(bundled_slab, horizon, steps, streams):
    _, h1, pd = bundled_slab
    grid = TimeGrid(horizon, steps)
    never = 0
    for s in range(streams):
        spec = RngSpec(8808, s)
        want = _full_horizon_slab_attempt(-0.6, 0.6, h1, grid, spec, pd)
        got = _slab_region_attempt(-0.6, 0.6, h1, grid, spec, pd)
        if want is None:
            never += 1
            assert got is None, s
        else:
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:], s
    if horizon == 1.0:
        assert never > 0


def test_region_sampler_samples_do_not_depend_on_count(bundled_slab):
    drift = bundled_slab[0]
    few = mc_region_sampler((-0.6, 0.6), None, drift, RngSpec(8808, 0), count=5, horizon=1.0)
    many = mc_region_sampler((-0.6, 0.6), None, drift, RngSpec(8808, 0), count=15,
                             horizon=1.0)
    assert many.accepted == 15
    assert many.samples[:5].tobytes() == few.samples.tobytes()
    assert many.stop_times[:5].tobytes() == few.stop_times.tobytes()


# sha256 of samples, stop times, attempts and covered (int64) for count 40
# on the bundled slab, recorded before the explicit kernel and the attempt
# loop were made cheaper
_SAMPLER_DIGESTS = {
    8808: "3a35889d814b04ba2190d3a1c0d93c2ec808f1c98a6da73a1d248eb5d7830e4a",
    907559: "4652abab351fd41edd9a064e06bcb624b4c156f33aed9edb52963a2901044db6",
}


@pytest.mark.parametrize("seed", sorted(_SAMPLER_DIGESTS))
def test_region_sampler_bits_are_pinned(bundled_slab, seed):
    out = mc_region_sampler((-0.6, 0.6), None, bundled_slab[0], RngSpec(seed, 0), count=40)
    h = hashlib.sha256()
    h.update(out.samples.tobytes())
    h.update(out.stop_times.tobytes())
    h.update(np.array([out.attempts, out.covered], dtype=np.int64).tobytes())
    assert h.hexdigest() == _SAMPLER_DIGESTS[seed]


def test_region_attempt_divergence_names_step_and_stream(bundled_slab, monkeypatch):
    drift, h1, pd = bundled_slab
    grid = TimeGrid(8.0, 4000)
    # stream 5 first covers at t = 2.724, past the failing step 1000
    assert _slab_region_attempt(-0.6, 0.6, h1, grid, RngSpec(8808, 5), pd)[1] > 2.0
    beta = LogisticDrift.beta
    explicit_steps = [0]

    def blowup(self, x):
        out = beta(self, x)
        if np.ndim(x) == 1:  # the explicit scheme steps one point at a time
            explicit_steps[0] += 1
            if explicit_steps[0] == 1000:
                return np.full_like(out, np.inf)
        return out

    monkeypatch.setattr(coupling, "plane_density", lambda drift, normal: pd)
    monkeypatch.setattr(LogisticDrift, "beta", blowup)
    with pytest.raises(NumericalError) as err:
        mc_region_sampler((-0.6, 0.6), h1, drift, RngSpec(8808, 5), count=1)
    assert str(err.value) == (
        "region attempt (seed 8808, stream 5): explicit scheme diverged at step 1000 (t=2)"
    )
