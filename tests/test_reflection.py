"""Skorohod solver, imputation, forward/backward reflection flows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualflow import (
    BilinearDrift,
    ConstantDrift,
    IntervalState,
    LogisticDrift,
    ModelError,
    ProductDrift,
    RngSpec,
    SamplePath,
    SlabState,
    Surface,
    SurfaceTrajectory,
    TimeGrid,
    WedgeState,
    backward_flow,
    euler_forward_implicit,
    flow_constant_1d,
    flow_from_path,
    flow_trigger_1d,
    forward_flow,
    impute_noise,
    reversed_noise,
    run_coupling,
    run_entrance_coupling,
    sample_brownian,
    sample_brownian_batch,
    solve_skorohod_1d,
    step_surface,
)
from dualflow import coupling
from dualflow.core import flip_first
from dualflow.surfaces import _height, _normal_of


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
    traj = SurfaceTrajectory.start(grid, Surface.level(-1.0))
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


def test_line_direction_leaving_its_cone_names_the_step():
    # a step of dt = 2 rotates (1, 2) to (5, 4), outside |u_1| < u_2
    grid = TimeGrid(4.0, 2)
    y0, flat = Surface(np.array([0.4, 0.0]), u=np.array([1.0, 2.0])), ConstantDrift(np.zeros(2))
    zeros = SamplePath(grid, np.zeros((3, 2)))
    where = r"^line direction left its cone at step 1 \(t=2\): .*got u=\[5\.0, 4\.0\]$"
    with pytest.raises(ModelError, match=where):
        forward_flow(zeros, y0, zeros, flat)


# ---------------------------------------------------------------------------
# forward flow against its stepwise form


def _forward_flow_reference(x_path, y0, noise, drift):
    """The inside branch of forward_flow as one drift call and one
    step_surface per step, as it was first written; the shipped flow must
    match it bit for bit.  The shipped crossing test reads one batched
    beta, which for LogisticDrift can differ from a row's by one ulp, so
    a run with an exact tie at the face could tell the two apart; none of
    the runs below has one.  Returns sigma, the reflected noise, the
    anchors and the direction path (None for a fixed normal)."""
    grid = x_path.grid
    dt = grid.dt
    inc = noise.increments()
    X = x_path.values
    sigma = np.zeros(grid.N + 1)
    anchors = np.tile(y0.anchor, (grid.N + 1, 1))
    u = None if y0.u is None else np.tile(y0.u, (grid.N + 1, 1))
    normal = y0.normal
    for j in range(1, grid.N + 1):
        d1 = inc[j - 1, 0]
        b = drift.beta(X[j])
        near_height = _height(anchors[j - 1], normal, X[j - 1, 1:])
        crossing = d1 > 0.0 and X[j, 0] - b[0] * dt + abs(d1) > near_height
        dsig = 2.0 * d1 if crossing else 0.0
        sigma[j] = sigma[j - 1] + dsig
        dxi = inc[j - 1].copy()
        dxi[0] -= dsig
        anchors[j] = step_surface(anchors[j - 1], drift, dt, flip_first(dxi),
                                  y0.normal if u is None else None)
        if u is not None:
            # one Euler substep of du = (u_2, u_1) dt
            u[j] = u[j - 1] + dt * u[j - 1, ::-1]
            normal = _normal_of(u[j])
    reflected = noise.values.copy()
    reflected[:, 0] -= sigma
    return sigma, reflected, anchors, u


def _slab3_logistic():
    """Inputs orthogonal to D3, each row labelled 1 and 0."""
    rows = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]]
    return LogisticDrift(np.repeat(rows, 2, axis=0), np.tile([1.0, 0.0], 4))


D2 = np.array([1.0, -1.0]) / math.sqrt(2.0)
D3 = np.ones(3) / math.sqrt(3.0)
_TOY = LogisticDrift(np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]]),
                     np.array([1.0, 1.0, 0.0, 0.0]))
_WEDGE = WedgeState(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([1.0, 0.0]))
_TANH_LEVEL = ProductDrift(n=1, beta1=np.tanh, k_lipschitz=1.0)

# 30 couplings per case, each calling forward_flow once
FLOW_CASES = {
    "wedge-bilinear": lambda s: run_coupling(_WEDGE, BilinearDrift(), TimeGrid(1.0, 200),
                                             RngSpec(8810, 10000 + s)),
    "slab-toy-logistic": lambda s: run_coupling(SlabState(-0.4 * D2, 0.4 * D2, D2), _TOY,
                                                TimeGrid(1.0, 100), RngSpec(8810, 20000 + s)),
    "slab3-logistic": lambda s: run_coupling(SlabState(-0.4 * D3, 0.4 * D3, D3), _slab3_logistic(),
                                             TimeGrid(1.0, 100), RngSpec(84, s)),
    "level-product": lambda s: run_coupling(IntervalState(-0.5, 0.2), _TANH_LEVEL,
                                            TimeGrid(1.0, 100), RngSpec(91, s), x0=np.zeros(1)),
    # not orthogonal_to the normal, so the tilt check evaluates beta
    "slab-zero-constant": lambda s: run_coupling(SlabState(-0.4 * D2, 0.2 * D2, D2),
                                                 ConstantDrift(np.zeros(2)), TimeGrid(1.0, 100),
                                                 RngSpec(92, s), x0=np.zeros(2)),
    "entrance-wedge": lambda s: run_entrance_coupling(
        WedgeState(np.array([1.0, 2.0]), np.array([0.3, 0.1]), np.array([0.3, 0.1])),
        BilinearDrift(), TimeGrid(1.0, 100), RngSpec(5, s)),
    "entrance-slab": lambda s: run_entrance_coupling(SlabState(0.1 * D2, 0.1 * D2, D2), _TOY,
                                                     TimeGrid(1.0, 100), RngSpec(5, s)),
    "entrance-slab3": lambda s: run_entrance_coupling(SlabState(0.1 * D3, 0.1 * D3, D3),
                                                      _slab3_logistic(), TimeGrid(1.0, 100),
                                                      RngSpec(5, s)),
}


@pytest.mark.parametrize("case", FLOW_CASES)
def test_forward_flow_matches_its_stepwise_form(case, monkeypatch):
    flows = []

    def recorded(x_path, y0, noise, drift):
        out = forward_flow(x_path, y0, noise, drift)
        flows.append((out, _forward_flow_reference(x_path, y0, noise, drift)))
        return out

    monkeypatch.setattr(coupling, "forward_flow", recorded)
    for s in range(30):
        FLOW_CASES[case](s)
    assert len(flows) == 30 and not any(out.outside for out, _ in flows)
    crossings = 0
    for out, (sigma, reflected, anchors, u) in flows:
        assert np.array_equal(out.sigma.values[:, 0], sigma)
        assert np.array_equal(out.reflected_noise.values, reflected)
        assert np.array_equal(out.surfaces.anchors, anchors)
        assert (u is None and out.surfaces.u is None) or np.array_equal(out.surfaces.u, u)
        crossings += int(np.count_nonzero(np.diff(sigma)))
    assert crossings > 0  # the crossing branch was compared too


def test_forward_flow_refuses_a_tilted_slab_drift():
    grid = TimeGrid(1.0, 20)
    tilted = ConstantDrift(np.array([1.0, 0.0]))
    w = sample_brownian(grid, 2, RngSpec(93, 0))
    x_path = euler_forward_implicit(np.zeros(2), w, tilted)
    with pytest.raises(ModelError, match="tilted"):
        forward_flow(x_path, Surface(0.3 * D2, normal=D2), impute_noise(x_path, tilted), tilted)
