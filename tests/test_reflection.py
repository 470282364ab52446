"""Skorohod solver, imputation, forward/backward reflection flows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualflow import (
    BilinearDrift,
    ConstantDrift,
    ModelError,
    RngSpec,
    SamplePath,
    Surface,
    SurfaceTrajectory,
    TimeGrid,
    backward_flow,
    euler_forward_implicit,
    flow_constant_1d,
    flow_from_path,
    flow_trigger_1d,
    forward_flow,
    impute_noise,
    reversed_noise,
    sample_brownian,
    sample_brownian_batch,
    solve_skorohod_1d,
)


# ---------------------------------------------------------------------------
# skorohod solver


def test_skorohod_frozen_example():
    out = solve_skorohod_1d(np.array([0.0, -1.0, 0.5, -2.0]))
    assert np.allclose(out.ell, [0.0, 1.0, 1.0, 2.0], atol=0.0)
    assert np.allclose(out.eta, [0.0, 0.0, 1.5, 0.0], atol=0.0)
    assert out.complementarity() == 0.0


def test_skorohod_validation():
    with pytest.raises(ValueError):
        solve_skorohod_1d(np.array([-0.1, 0.0]))
    with pytest.raises(ValueError):
        solve_skorohod_1d(np.zeros((3, 2)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=30))
def test_skorohod_is_minimal_nonnegative_solution(tail):
    kappa = np.array([0.0] + tail)
    out = solve_skorohod_1d(kappa)
    # constraints of the reflection problem
    assert np.all(out.eta >= 0.0)
    assert out.ell[0] == 0.0
    assert np.all(np.diff(out.ell) >= 0.0)
    assert np.allclose(out.eta, kappa + out.ell, atol=0.0)
    # push only at contact: complementarity holds exactly in the discrete form
    assert out.complementarity() == 0.0
    # minimality against the brute-force record
    brute = np.maximum.accumulate(np.maximum(-kappa, 0.0))
    assert np.allclose(out.ell, brute, atol=0.0)


# ---------------------------------------------------------------------------
# record flow form (closed form at every node)


def test_flow_from_path_uses_record_form():
    mu = 0.5
    grid = TimeGrid(1.0, 200)
    w = sample_brownian(grid, 1, RngSpec(61, 0))
    x_path = SamplePath(grid, 0.0 + mu * grid.times + w.values[:, 0])
    flow = flow_from_path(Surface.level(0.3), x_path, ConstantDrift(mu))
    omega = impute_noise(x_path, ConstantDrift(mu)).values[:, 0]
    record = solve_skorohod_1d(0.3 - 2.0 * omega).ell
    assert np.max(np.abs(flow.sigma.values[:, 0] - record)) < 1e-12
    # sigma + reflected noise reproduces omega
    assert np.allclose(flow.reflected_noise.values[:, 0] + flow.sigma.values[:, 0],
                       omega, atol=1e-12)
    # the surface stays above the path at every node
    levels = flow.surfaces.anchors[:, 0]
    assert np.all(levels - x_path.values[:, 0] >= -1e-12)


def test_flow_outside_start_is_exactly_doubled_noise():
    mu = 0.5
    grid = TimeGrid(1.0, 50)
    w = sample_brownian(grid, 1, RngSpec(61, 1))
    x_path = SamplePath(grid, 1.0 + mu * grid.times + w.values[:, 0])
    flow = flow_from_path(Surface.level(0.3), x_path, ConstantDrift(mu))
    assert flow.outside
    omega = impute_noise(x_path, ConstantDrift(mu)).values[:, 0]
    assert np.allclose(flow.sigma.values[:, 0], 2.0 * omega, atol=1e-12)
    assert np.allclose(flow.reflected_noise.values[:, 0], -omega, atol=1e-12)


def test_flow_constant_batch_matches_scalar_form():
    grid = TimeGrid(1.0, 100)
    gen = RngSpec(62, 0).generator()
    m = 20
    inc = gen.standard_normal((grid.N, m)) * math.sqrt(grid.dt)
    omega = np.zeros((grid.N + 1, m))
    np.cumsum(inc, axis=0, out=omega[1:])
    x0 = np.linspace(-0.5, 0.6, m)  # straddles the level
    out = flow_constant_1d(0.3, 0.5, x0, omega, grid.times)
    for c in range(m):
        x_path = SamplePath(grid, x0[c] + 0.5 * grid.times + omega[:, c])
        flow = flow_from_path(Surface.level(0.3), x_path, ConstantDrift(0.5))
        assert np.allclose(out["sigma"][:, c], flow.sigma.values[:, 0], atol=1e-12)
        assert np.allclose(out["xi"][:, c], flow.reflected_noise.values[:, 0], atol=1e-12)
        assert out["outside"][c] == flow.outside
        if not flow.outside:
            # independent oracle: the compensator is the Skorohod pushing
            # term of the initial gap less twice the noise
            ell = solve_skorohod_1d((0.3 - x0[c]) - 2.0 * omega[:, c]).ell
            assert np.array_equal(out["sigma"][:, c], ell)


# ---------------------------------------------------------------------------
# trigger flow form (stepwise crossing rule)


def _assert_trigger_flow_matches_forward_flow(grid, x0, omega, mu=0.5, level=0.3):
    out = flow_trigger_1d(level, mu, x0, omega, grid.times)
    # inside the level, the compensator only accrues twice an upward increment
    assert (np.diff(out["sigma"][:, ~out["outside"]], axis=0) >= 0.0).all()
    for c in range(len(x0)):
        x_path = SamplePath(grid, x0[c] + mu * grid.times + omega[:, c])
        noise = SamplePath(grid, omega[:, c])
        flow = forward_flow(x_path, Surface.level(level), noise, ConstantDrift(mu))
        assert np.allclose(out["sigma"][:, c], flow.sigma.values[:, 0], atol=1e-12)
        assert np.allclose(out["xi"][:, c], flow.reflected_noise.values[:, 0], atol=1e-12)
        levels = flow.surfaces.anchors[:, 0]
        assert np.allclose(out["levels"][:, c], levels, atol=1e-12)


def test_trigger_flow_matches_stepwise_flow_columnwise():
    grid = TimeGrid(1.0, 100)
    gen = RngSpec(63, 0).generator()
    m = 30
    inc = gen.standard_normal((grid.N, m)) * math.sqrt(grid.dt)
    omega = np.zeros((grid.N + 1, m))
    np.cumsum(inc, axis=0, out=omega[1:])
    x0 = np.concatenate([np.linspace(-0.4, 0.25, m - 5), np.linspace(0.35, 0.8, 5)])
    _assert_trigger_flow_matches_forward_flow(grid, x0, omega)
    # columns started on the level, where a crossing is a rounding tie:
    # without the upward-increment guard, streams 58 and 108 at N = 100
    # and 25 and 51 at N = 400 reflect a downward increment
    for N, m in ((100, 120), (400, 60)):
        grid = TimeGrid(1.0, N)
        omega = sample_brownian_batch(grid, 1, 71, range(m))[:, :, 0]
        _assert_trigger_flow_matches_forward_flow(grid, np.full(m, 0.3), omega)


def test_trigger_and_record_forms_differ_pathwise():
    # the stepwise rule can overshoot the running record after a crossing
    times = np.array([0.0, 1.0, 2.0, 3.0])
    omega = np.array([[0.0], [1.0], [0.5], [2.0]])
    trig = flow_trigger_1d(0.0, 0.0, np.array([0.0]), omega, times)
    rec = flow_constant_1d(0.0, 0.0, np.array([0.0]), omega, times)
    assert np.allclose(rec["sigma"][:, 0], [0.0, 2.0, 2.0, 4.0], atol=0.0)
    assert np.allclose(trig["sigma"][:, 0], [0.0, 2.0, 2.0, 5.0], atol=0.0)


# ---------------------------------------------------------------------------
# forward/backward flow inversion


def one_d_flow(stream, mu=0.5, level=0.1, N=64):
    drift = ConstantDrift(mu)
    grid = TimeGrid(1.0, N)
    w = sample_brownian(grid, 1, RngSpec(65, stream))
    x_path = euler_forward_implicit(np.zeros(1), w, drift)
    omega = impute_noise(x_path, drift)
    flow = forward_flow(x_path, Surface.level(level), omega, drift)
    return drift, x_path, omega, flow


def test_flow_reversal_inversion_small():
    crossings = 0
    for stream in range(20):
        drift, x_path, omega, flow = one_d_flow(stream)
        crossings += int(np.sum(np.diff(flow.sigma.values[:, 0]) > 0))
        back = backward_flow(
            x_path.values[-1],
            flow.surfaces.reversed(),
            reversed_noise(flow.reflected_noise),
            drift,
        )
        assert np.max(np.abs(back.trajectory.values - x_path.values[::-1])) < 1e-12
        sig = flow.sigma.values[:, 0]
        assert np.max(np.abs(back.sigma.values[:, 0] - (sig[-1] - sig[::-1]))) < 1e-12
        rev_om = reversed_noise(omega)
        assert np.max(np.abs(back.reflected_noise.values - rev_om.values)) < 1e-12
    assert crossings > 0  # the identity was not tested vacuously


def test_backward_flow_outside_start():
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 32)
    w = sample_brownian(grid, 1, RngSpec(66, 0))
    traj = SurfaceTrajectory.constant(grid, Surface.level(-1.0))
    flow = backward_flow(np.zeros(1), traj, w, drift)
    assert flow.outside
    assert np.allclose(flow.sigma.values[:, 0], 2.0 * w.values[:, 0], atol=0.0)
    assert np.allclose(flow.reflected_noise.values[:, 0], -w.values[:, 0], atol=0.0)


def test_flow_grid_mismatch_rejected():
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 32)
    other = TimeGrid(1.0, 16)
    w = sample_brownian(grid, 1, RngSpec(66, 1))
    x_path = euler_forward_implicit(np.zeros(1), w, drift)
    bad_noise = sample_brownian(other, 1, RngSpec(66, 2))
    with pytest.raises(ModelError):
        forward_flow(x_path, Surface.level(0.3), bad_noise, drift)


def test_two_dimensional_flow_runs_and_reflects():
    drift = BilinearDrift()
    grid = TimeGrid(1.0, 64)
    w = sample_brownian(grid, 2, RngSpec(67, 5))
    x_path = euler_forward_implicit(np.zeros(2), w, drift)
    omega = impute_noise(x_path, drift)
    y0 = Surface(np.array([0.15, 0.0]), u=np.array([1.0, 2.0]))
    flow = forward_flow(x_path, y0, omega, drift)
    assert np.all(np.diff(flow.sigma.values[:, 0]) >= 0.0)
    # reflected noise differs from the raw noise only in coordinate 1
    assert np.allclose(flow.reflected_noise.values[:, 1], omega.values[:, 1], atol=0.0)
