"""Dual regions: masses, conditional laws, dual dynamics, identity estimators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dualflow import (
    ConstantDrift,
    IntervalState,
    LogisticDrift,
    ModelError,
    NumericalError,
    ProductDrift,
    RngSpec,
    SlabState,
    TimeGrid,
    WedgeState,
    contains_batch,
    dual_drift,
    dual_step,
    intertwining_residual,
    liggett_identity_mc,
    nu_mass,
    sample_conditional,
    truncated_exp_mean,
)
from dualflow import duals
from dualflow.core import normals
from dualflow.duals import (
    _plane_density_sampler,
    _wedge_conditional_batch,
    covers,
    dual_terminal_batch,
    plane_density,
    primal_terminal_batch,
)


def toy_logistic():
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return LogisticDrift(inputs, labels)


SLAB_NORMAL = np.array([1.0, -1.0]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# states


def test_interval_state_half_open():
    s = IntervalState(-1.0, 1.0)
    assert not s.contains(-1.0)  # open at z
    assert s.contains(1.0)  # closed at y
    assert s.contains(0.0)
    with pytest.raises(ModelError):
        IntervalState(1.0, -1.0)


def test_wedge_state_geometry():
    u = np.array([1.0, 2.0])
    s = WedgeState(u, np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(s.normal, WedgeState.normal_of(u))
    assert np.allclose(s.normal, [2.0, -1.0])
    assert s.contains(np.array([0.5, 0.0]))
    assert not s.contains(np.array([1.5, 0.0]))
    with pytest.raises(ModelError):
        WedgeState(u, np.array([1.0, 0.0]), np.zeros(2))  # y below z


def test_slab_state_geometry():
    d = SLAB_NORMAL
    s = SlabState(-0.4 * d, 0.4 * d, d)
    assert s.contains(np.zeros(2))
    assert s.contains(0.4 * d)  # closed at y-face
    assert not s.contains(-0.4 * d)  # open at z-face
    with pytest.raises(ModelError):
        SlabState(np.zeros(2), np.ones(2), np.array([1.0, 1.0]))  # not unit


@pytest.mark.parametrize("make", [
    lambda: IntervalState(0.0, math.inf),
    lambda: IntervalState(math.nan, math.nan),
    lambda: IntervalState(math.nan, 0.0, absorbed=True),
    lambda: WedgeState(np.array([1.0, 2.0]), np.array([math.nan, 0.0]), np.array([1.0, 0.0])),
    lambda: WedgeState(np.array([1.0, math.inf]), np.zeros(2), np.array([1.0, 0.0])),
    lambda: SlabState(np.array([math.nan, 0.0]), 0.4 * SLAB_NORMAL, SLAB_NORMAL),
    lambda: SlabState(np.zeros(2), np.array([0.0, math.inf]), SLAB_NORMAL, absorbed=True),
], ids=["interval-inf", "interval-nan", "interval-absorbed-nan", "wedge-nan-anchor",
        "wedge-inf-direction", "slab-nan-anchor", "slab-absorbed-inf"])
def test_states_refuse_non_finite_values(make):
    with pytest.raises(ModelError):
        make()


def test_contains_batch_matches_scalar():
    pts = np.linspace(-2.0, 2.0, 9)
    s = IntervalState(-1.0, 1.0)
    batch = contains_batch(s, pts[:, None])
    assert np.array_equal(batch, [s.contains(p) for p in pts])

    w = WedgeState(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 0.0]))
    grid_pts = np.array([[0.5, 0.0], [1.5, 0.0], [-0.5, 0.0], [0.5, 1.0]])
    assert np.array_equal(contains_batch(w, grid_pts),
                          [w.contains(p) for p in grid_pts])


# ---------------------------------------------------------------------------
# masses and conditional means


def test_interval_mass_oracle():
    # integral of e^{-2 mu x} over (-1, 1) at mu = 1/2 is e - 1/e
    drift = ConstantDrift(0.5)
    assert nu_mass(IntervalState(-1.0, 1.0), drift) == pytest.approx(
        math.e - 1.0 / math.e, rel=1e-12)
    assert nu_mass(IntervalState(-1.0, 1.0), ConstantDrift(0.0)) == pytest.approx(2.0)


def test_interval_mass_product_drift_matches_constant():
    mu = 0.5
    drift = ProductDrift(n=1, beta1=lambda x: np.full_like(np.asarray(x, float), mu),
                         k_lipschitz=0.1, gamma1=lambda x: mu * np.asarray(x, float))
    a = nu_mass(IntervalState(-1.0, 1.0), drift)
    assert a == pytest.approx(math.e - 1.0 / math.e, rel=1e-9)


def test_wedge_mass_series_oracle():
    # in the normal frame the mass is sqrt(2 pi) * int_a^b exp(eta^2) d eta
    u = np.array([1.0, 2.0])
    state = WedgeState(u, np.zeros(2), np.array([0.5, 0.0]))
    val = nu_mass(state, None)

    def antideriv(x, terms=40):  # series for int_0^x exp(t^2) dt
        return sum(x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
                   for k in range(terms))

    b = (u[1] * 0.5 - u[0] * 0.0) / math.sqrt(2.0 * u[0] * u[1])
    expect = math.sqrt(2.0 * math.pi) * (antideriv(b) - antideriv(0.0))
    assert val == pytest.approx(expect, rel=1e-10)


def test_wedge_mass_rejects_far_states():
    u = np.array([1.0, 2.0])
    with pytest.raises(ModelError):
        nu_mass(WedgeState(u, np.zeros(2), np.array([30.0, 0.0])), None)


def test_absorbed_state_has_no_mass_or_law():
    s = IntervalState(0.0, 0.0, absorbed=True)
    with pytest.raises(ModelError):
        nu_mass(s, ConstantDrift(0.5))
    with pytest.raises(ModelError):
        sample_conditional(s, ConstantDrift(0.5), RngSpec(1, 0).generator())


def test_truncated_exp_mean_oracle():
    # mean of the exp(-2 mu x) weight on (-1, 1) at mu = 1/2: 1 - coth(1)
    val = truncated_exp_mean(-1.0, 1.0, 0.5)
    assert val == pytest.approx(1.0 - 1.0 / math.tanh(1.0), abs=1e-12)
    # symmetric at mu = 0
    assert truncated_exp_mean(-1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    # the series branch joins the closed form continuously
    a = truncated_exp_mean(0.0, 1.0, 2e-9)
    b = truncated_exp_mean(0.0, 1.0, 1e-7)
    quad_oracle = 0.5 - 2.0 * 1e-7 / 12.0  # z + d/2 - q d^2 / 12 + O(q^2)
    assert b == pytest.approx(quad_oracle, abs=1e-10)
    assert a == pytest.approx(0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# conditional sampling


def test_interval_conditional_law():
    state = IntervalState(-1.0, 1.0)
    drift = ConstantDrift(0.5)
    gen = RngSpec(71, 0).generator()
    pts = np.array([sample_conditional(state, drift, gen).point[0]
                    for _ in range(4000)])
    assert np.all((pts > -1.0) & (pts <= 1.0))
    mass = math.e - 1.0 / math.e

    def cdf(x):
        return (math.e - np.exp(-np.asarray(x))) / mass

    res = stats.kstest(pts, cdf)
    assert res.pvalue > 1e-3
    # empirical mean against the closed form
    assert np.mean(pts) == pytest.approx(truncated_exp_mean(-1.0, 1.0, 0.5),
                                         abs=5 * np.std(pts) / math.sqrt(pts.size))


def test_wedge_conditional_law():
    u = np.array([1.0, 2.0])
    state = WedgeState(u, np.zeros(2), np.array([0.5, 0.0]))
    gen = RngSpec(71, 1).generator()
    pts = np.array([sample_conditional(state, None, gen).point for _ in range(1500)])
    assert all(state.contains(p) for p in pts)
    # the normal-frame coordinate has density proportional to exp(eta^2)
    eta = (u[1] * pts[:, 0] - u[0] * pts[:, 1]) / math.sqrt(2.0 * u[0] * u[1])

    def antideriv(x, terms=40):
        x = np.asarray(x, dtype=float)
        return sum(x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
                   for k in range(terms))

    b = (u[1] * 0.5) / math.sqrt(2.0 * u[0] * u[1])
    res = stats.kstest(eta, lambda x: antideriv(np.clip(x, 0.0, b)) / antideriv(b))
    assert res.pvalue > 1e-3


def test_slab_conditional_law():
    drift = toy_logistic()
    d = SLAB_NORMAL
    state = SlabState(-0.4 * d, 0.4 * d, d)
    gen = RngSpec(71, 2).generator()
    pts = np.array([sample_conditional(state, drift, gen).point for _ in range(1500)])
    assert all(state.contains(p) for p in pts)
    # offsets from the z-face along the normal are uniform on (0, h]
    offs = (pts - (-0.4 * d)) @ d
    res = stats.kstest(offs, lambda v: np.clip(np.asarray(v) / 0.8, 0.0, 1.0))
    assert res.pvalue > 1e-3


def test_slab_draws_build_the_plane_density_once(monkeypatch):
    builds, basis = [], duals.plane_basis
    monkeypatch.setattr(duals, "plane_basis", lambda *a: builds.append(1) or basis(*a))
    d = SLAB_NORMAL
    state, drift = SlabState(-0.4 * d, 0.4 * d, d), toy_logistic()
    first = sample_conditional(state, drift, RngSpec(75, 0)).point
    again = sample_conditional(state, drift, RngSpec(75, 0)).point
    assert len(builds) == 1
    assert again.tobytes() == first.tobytes()
    # another drift object builds its own density, to the same bits
    fresh = sample_conditional(state, toy_logistic(), RngSpec(75, 0)).point
    assert len(builds) == 2 and fresh.tobytes() == first.tobytes()
    # the kept density is shared, so its arrays refuse writes
    with pytest.raises(ValueError):
        plane_density(drift, d).mode[0] = 0.0


def test_plane_sampler_keeps_a_raised_envelope_local():
    # an envelope far below the target forces a raise on the first batch
    pd = replace(plane_density(toy_logistic(), SLAB_NORMAL), log_envelope=-50.0)
    first = _plane_density_sampler(pd, RngSpec(72, 0).generator(), 50)
    assert first.shape == (50, 1)
    # the shared density is untouched, so an equal generator draws equally
    assert pd.log_envelope == -50.0
    second = _plane_density_sampler(pd, RngSpec(72, 0).generator(), 50)
    assert np.array_equal(first, second)


def _log_proposal_reference(pd, w):
    """PlaneDensity.log_proposal as first written: it inverted the Cholesky
    factor and summed its log-diagonal on every call."""
    diff = (w - pd.mode) @ np.linalg.inv(pd.chol_cov).T
    k = pd.basis.shape[1]
    nu = pd.dof
    logdet = 2.0 * float(np.sum(np.log(np.diag(pd.chol_cov))))
    q = np.sum(diff**2, axis=-1)
    const = (
        math.lgamma(0.5 * (nu + k))
        - math.lgamma(0.5 * nu)
        - 0.5 * k * math.log(nu * math.pi)
        - 0.5 * logdet
    )
    return const - 0.5 * (nu + k) * np.log1p(q / nu)


def test_log_proposal_keeps_its_bits():
    inputs = np.array([[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [0, 1, 1], [0, -1, -1]])
    plane = LogisticDrift(inputs, np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
    for drift, normal in ((toy_logistic(), SLAB_NORMAL), (plane, np.array([1.0, 0.0, 0.0]))):
        pd = plane_density(drift, normal)
        k = pd.basis.shape[1]
        w = pd.mode + normals(RngSpec(76, k).generator(), (40, k))
        want = _log_proposal_reference(pd, w)
        assert pd.log_proposal(w).tobytes() == want.tobytes()
        # a replaced envelope keeps the precomputed factor of its source
        moved = replace(pd, log_envelope=-50.0)
        assert moved.log_proposal(w).tobytes() == want.tobytes()


# sample_conditional(SLAB, toy_logistic(), RngSpec(71, s)).log_density for
# s = 0, 1, 2, as computed when the slab density was still evaluated with
# every draw
_SLAB_LOG_DENSITIES = ("-0x1.17cb9cb85eebbp-1", "-0x1.ce0db97652746p-2",
                       "-0x1.3a7ba890f9029p+0")


def test_slab_log_density_is_lazy_and_keeps_its_bits(monkeypatch):
    drift = toy_logistic()
    state = SlabState(-0.4 * SLAB_NORMAL, 0.4 * SLAB_NORMAL, SLAB_NORMAL)
    for s, want in enumerate(_SLAB_LOG_DENSITIES):
        assert sample_conditional(state, drift, RngSpec(71, s)).log_density == float.fromhex(want)

    def no_quadrature(pd):
        raise AssertionError("the in-plane normalizer ran")

    monkeypatch.setattr(duals, "_plane_log_normalizer", no_quadrature)
    sample = sample_conditional(state, drift, RngSpec(71, 0))
    assert state.contains(sample.point)
    with pytest.raises(AssertionError, match="normalizer ran"):
        sample.log_density


def test_plane_sampler_fills_a_two_dimensional_span():
    # inputs span the (x_2, x_3) plane of R^3, so each draw has two coordinates
    inputs = np.array([[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [0, 1, 1], [0, -1, -1]])
    drift = LogisticDrift(inputs, np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
    pd = plane_density(drift, np.array([1.0, 0.0, 0.0]))
    w = _plane_density_sampler(pd, RngSpec(73, 0).generator(), 50)
    assert w.shape == (50, 2)
    assert np.all(np.isfinite(w))


def test_sampler_failures_name_the_sampler():
    pd = plane_density(toy_logistic(), SLAB_NORMAL)
    label = f"in-plane sampler, mode {pd.mode}"
    # an envelope e^50 above the target accepts nothing
    high = replace(pd, log_envelope=pd.log_envelope + 50.0)
    with pytest.raises(NumericalError) as err:
        _plane_density_sampler(high, RngSpec(74, 0).generator(), 1)
    assert str(err.value).startswith(f"{label}: acceptance 0/")
    with pytest.raises(NumericalError) as err:
        _plane_density_sampler(pd, RngSpec(74, 1).generator(), 1, max_rounds=0)
    assert str(err.value) == f"{label}: starved after 0 rounds"
    wedge = WedgeState(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(NumericalError, match=r"^wedge sampler, bounds \(.*\): starved"):
        _wedge_conditional_batch(wedge, RngSpec(74, 2).generator(), 1, max_rounds=0)


# ---------------------------------------------------------------------------
# dual dynamics


def test_dual_step_interval_moves_both_sides():
    drift = ConstantDrift(0.5)
    state = IntervalState(-1.0, 1.0)
    d = np.array([0.2])
    out = dual_step(state, d, 0.01, drift)
    assert out.z == pytest.approx(-1.0 + 0.005 + 0.2)
    assert out.y == pytest.approx(1.0 + 0.005 - 0.2)
    assert not out.absorbed


def test_dual_step_absorption_interpolates_zeta():
    drift = ConstantDrift(0.0)
    state = IntervalState(0.0, 0.1)
    out = dual_step(state, np.array([1.0]), 0.01, drift, t_prev=0.5)
    assert out.absorbed
    # gap goes 0.1 -> -1.9; the crossing sits at fraction 0.05 of the step
    assert out.zeta == pytest.approx(0.5 + 0.05 * 0.01)
    # an absorbed state is inert
    again = dual_step(out, np.array([1.0]), 0.01, drift)
    assert again is out


def test_dual_step_wedge_direction_rotates():
    state = WedgeState(np.array([1.0, 2.0]), np.zeros(2), np.array([0.5, 0.0]))
    out = dual_step(state, np.zeros(2), 0.01, ConstantDrift(np.zeros(2)))
    assert np.allclose(out.u, [1.0 + 0.02, 2.0 + 0.01])


def test_dual_drift_interval_oracle():
    # correction 2 mu coth(mu g) at mu = 1/2, g = 2: coth(1)
    drift = ConstantDrift(0.5)
    dz, dy = dual_drift(IntervalState(-1.0, 1.0), drift)
    coth1 = 1.0 / math.tanh(1.0)
    assert dz[0] == pytest.approx(0.5 - coth1, rel=1e-12)
    assert dy[0] == pytest.approx(0.5 + coth1, rel=1e-12)


def test_dual_drift_interval_product_matches_constant():
    mu = 0.5
    prod = ProductDrift(n=1, beta1=lambda x: np.full_like(np.asarray(x, float), mu),
                        k_lipschitz=0.1, gamma1=lambda x: mu * np.asarray(x, float))
    a = dual_drift(IntervalState(-1.0, 1.0), ConstantDrift(mu))
    b = dual_drift(IntervalState(-1.0, 1.0), prod)
    assert a[0][0] == pytest.approx(b[0][0], rel=1e-8)
    assert a[1][0] == pytest.approx(b[1][0], rel=1e-8)


def test_dual_drift_small_gap_series_branch():
    drift = ConstantDrift(2e-4)
    g = 1.3
    dz, _ = dual_drift(IntervalState(0.0, g), drift)
    # the correction tends to 2/g as mu -> 0
    mu = 2e-4
    exact = 2.0 * mu / math.tanh(mu * g)
    assert dz[0] == pytest.approx(mu - exact, rel=1e-6)


def test_dual_drift_slab_oracle():
    drift = toy_logistic()
    d = SLAB_NORMAL
    state = SlabState(-0.4 * d, 0.4 * d, d)
    dz, dy = dual_drift(state, drift)
    h = float(d @ (state.y - state.z))
    corr = 2.0 * d[0] / h
    base_z = drift.beta(state.z)
    base_y = drift.beta(state.y)
    assert dz[0] == pytest.approx(base_z[0] - corr * 1.0, rel=1e-10)
    assert dy[0] == pytest.approx(base_y[0] + corr * 1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# intertwining


def test_intertwining_residual_spot():
    out = intertwining_residual(
        lambda x: x**2, lambda x: 2.0 * x, lambda x: np.full_like(np.asarray(x, float), 2.0),
        IntervalState(-0.5, 0.7), ConstantDrift(0.3))
    assert out["residual"] <= 1e-6 * out["scale"]
    with pytest.raises(NotImplementedError):
        intertwining_residual(
            lambda x: x, lambda x: 1.0, lambda x: 0.0,
            SlabState(-0.4 * SLAB_NORMAL, 0.4 * SLAB_NORMAL, SLAB_NORMAL),
            toy_logistic())


# ---------------------------------------------------------------------------
# batch estimators


def test_primal_terminal_batch_matches_construction():
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 100)
    out = primal_terminal_batch(np.array([0.2]), drift, grid, 77, [0, 1, 2, 3])
    from dualflow import sample_brownian

    for k, stream in enumerate([0, 1, 2, 3]):
        w = sample_brownian(grid, 1, RngSpec(77, stream))
        assert out[k, 0] == pytest.approx(0.2 - 0.5 + w.values[-1, 0], abs=1e-12)


def test_dual_terminal_batch_fast_and_generic_agree():
    # the closed-form interval branch and the generic stepped branch consume
    # identical noise and uniforms, so their outputs coincide
    mu = 0.5
    grid = TimeGrid(1.0, 100)
    state = IntervalState(-1.0, 1.0)
    streams = list(range(200))
    fast = dual_terminal_batch(state, ConstantDrift(mu), grid, 78, streams)
    prod = ProductDrift(n=1, beta1=lambda x: np.full_like(np.asarray(x, float), mu),
                        k_lipschitz=0.1, gamma1=lambda x: mu * np.asarray(x, float))
    gen = dual_terminal_batch(state, prod, grid, 78, streams)
    assert np.array_equal(fast["alive"], gen["alive"])
    alive = fast["alive"]
    assert np.allclose(fast["z"][alive], gen["z"][alive], atol=1e-9)
    assert np.allclose(fast["y"][alive], gen["y"][alive], atol=1e-9)
    # survival must not be certain nor impossible in this regime
    assert 0 < int(alive.sum()) < len(streams)


def test_liggett_identity_estimate_reproducible():
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 100)
    state = IntervalState(-1.0, 1.0)
    a = liggett_identity_mc(np.array([0.0]), state, grid, 400, drift, RngSpec(79, 0))
    b = liggett_identity_mc(np.array([0.0]), state, grid, 400, drift, RngSpec(79, 0))
    assert (a.lhs, a.rhs) == (b.lhs, b.rhs)
    assert a.paths == 400
    assert a.pooled_se == pytest.approx(math.hypot(a.lhs_se, a.rhs_se))
    assert a.difference == abs(a.lhs - a.rhs)
    # chunking must not change the compensated reductions
    c = liggett_identity_mc(np.array([0.0]), state, grid, 400, drift,
                            RngSpec(79, 0), chunk=64)
    assert (c.lhs, c.rhs) == (a.lhs, a.rhs)


def test_liggett_identity_honours_stream():
    drift = ConstantDrift(0.5)
    grid = TimeGrid(1.0, 100)
    state = IntervalState(-1.0, 1.0)
    x = np.array([0.0])
    paths = 300
    ests = [liggett_identity_mc(x, state, grid, paths, drift, RngSpec(80, k)) for k in (0, 1)]
    assert (ests[0].lhs, ests[0].rhs) != (ests[1].lhs, ests[1].rhs)
    # stream k draws path i from streams (k << 32) + 2i and (k << 32) + 2i + 1
    for k, est in enumerate(ests):
        base = k << 32
        lhs_streams = [base + 2 * i for i in range(paths)]
        rhs_streams = [base + 2 * i + 1 for i in range(paths)]
        hits = contains_batch(state, primal_terminal_batch(x, drift, grid, 80, lhs_streams))
        duals = dual_terminal_batch(state, drift, grid, 80, rhs_streams)
        covered = duals["alive"] & covers(duals["normal"], duals["z"], duals["y"], x)
        assert est.lhs == math.fsum(hits.astype(float)) / paths
        assert est.rhs == math.fsum(covered.astype(float)) / paths
    with pytest.raises(ModelError):
        liggett_identity_mc(x, state, grid, 2**31, drift, RngSpec(80, 0))
