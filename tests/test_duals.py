"""Dual regions: masses, conditional laws, dual dynamics, identity estimators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtr

from dualflow import (
    BilinearDrift,
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
    bessel_time_change,
    contains_batch,
    dual_drift,
    dual_step,
    intertwining_residual,
    liggett_identity_mc,
    nu_mass,
    run_coupling,
    sample_conditional,
    step_surface,
    truncated_exp_mean,
    wedge_probabilities,
)
from dualflow import duals
from dualflow.core import flip_first, normals, stream_increments
from dualflow.duals import (
    _plane_density_sampler,
    covers,
    dual_terminal_batch,
    face_gap,
    plane_density,
    primal_terminal_batch,
)
from dualflow.surfaces import _direction_path, _normal_of


def toy_logistic():
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return LogisticDrift(inputs, labels)


SLAB_NORMAL = np.array([1.0, -1.0]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# states


def test_interval_state_half_open():
    s = IntervalState(-1.0, 1.0)
    # open at z, closed at y
    assert contains_batch(s, [-1.0, 1.0, 0.0]).tolist() == [False, True, True]
    with pytest.raises(ModelError):
        IntervalState(1.0, -1.0)


def test_wedge_state_geometry():
    u = np.array([1.0, 2.0])
    s = WedgeState(u, np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(s.normal, _normal_of(u))
    assert np.allclose(s.normal, [2.0, -1.0])
    assert contains_batch(s, [[0.5, 0.0], [1.5, 0.0]]).tolist() == [True, False]
    with pytest.raises(ModelError):
        WedgeState(u, np.array([1.0, 0.0]), np.zeros(2))  # y below z


def test_slab_state_geometry():
    d = SLAB_NORMAL
    s = SlabState(-0.4 * d, 0.4 * d, d)
    # closed at the y-face, open at the z-face
    assert contains_batch(s, [np.zeros(2), 0.4 * d, -0.4 * d]).tolist() == [True, True, False]
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
    assert batch.tolist() == [False, False, False, True, True, True, True, False, False]
    assert not contains_batch(IntervalState(-1.0, 1.0, absorbed=True), pts).any()

    w = WedgeState(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 0.0]))
    grid_pts = np.array([[0.5, 0.0], [1.5, 0.0], [-0.5, 0.0], [0.5, 1.0]])
    # 2 x_1 - x_2 must lie in (0, 2]
    assert contains_batch(w, grid_pts).tolist() == [True, False, False, False]


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
    # a strip of width 1e-9 at eta = 1, where erfi(b) - erfi(a) cancels:
    # int_a^b exp(eta^2) = exp(a^2) (d + a d^2 + O(d^3)), d = b - a
    narrow = WedgeState(u, np.array([1.0, 0.0]), np.array([1.0 + 1e-9, 0.0]))
    a, b = duals._wedge_bounds(narrow)
    assert a == 1.0 and 0.0 < b - a < 2e-9
    d = float(b - a)
    expect = math.sqrt(2.0 * math.pi) * math.exp(a * a) * d * (1.0 + a * d)
    assert nu_mass(narrow, None) == pytest.approx(expect, rel=1e-10)


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
    pts = np.array([sample_conditional(state, drift, gen)[0] for _ in range(4000)])
    assert np.all((pts > -1.0) & (pts <= 1.0))
    mass = math.e - 1.0 / math.e

    def cdf(x):
        return (math.e - np.exp(-np.asarray(x))) / mass

    res = stats.kstest(pts, cdf)
    assert res.pvalue > 1e-3
    # empirical mean against the closed form
    assert np.mean(pts) == pytest.approx(truncated_exp_mean(-1.0, 1.0, 0.5),
                                         abs=5 * np.std(pts) / math.sqrt(pts.size))


def test_interval_table_sampler_matches_the_exact_inverse():
    # a 1-d potential mu x through the numeric table: the same uniform per
    # draw lands where the constant drift's exact inverse CDF puts it
    mu = 0.5
    drift = ProductDrift(n=1, beta1=lambda x: np.full_like(np.asarray(x, float), mu),
                         k_lipschitz=0.1, gamma1=lambda x: mu * np.asarray(x, float))
    state = IntervalState(-1.0, 1.0)
    gens = RngSpec(77, 0).generator(), RngSpec(77, 0).generator()
    for _ in range(200):
        table = sample_conditional(state, drift, gens[0])
        exact = sample_conditional(state, ConstantDrift(mu), gens[1])
        assert -1.0 < table[0] <= 1.0 and abs(table[0] - exact[0]) < 1e-7


def test_wedge_conditional_law():
    u = np.array([1.0, 2.0])
    state = WedgeState(u, np.zeros(2), np.array([0.5, 0.0]))
    gen = RngSpec(71, 1).generator()
    pts = np.array([sample_conditional(state, None, gen) for _ in range(1500)])
    assert contains_batch(state, pts).all()
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
    pts = np.array([sample_conditional(state, drift, gen) for _ in range(1500)])
    assert contains_batch(state, pts).all()
    # offsets from the z-face along the normal are uniform on (0, h]
    offs = (pts - (-0.4 * d)) @ d
    res = stats.kstest(offs, lambda v: np.clip(np.asarray(v) / 0.8, 0.0, 1.0))
    assert res.pvalue > 1e-3


def test_slab_draws_build_the_plane_density_once(monkeypatch):
    builds, basis = [], duals.plane_basis
    monkeypatch.setattr(duals, "plane_basis", lambda *a: builds.append(1) or basis(*a))
    d = SLAB_NORMAL
    state, drift = SlabState(-0.4 * d, 0.4 * d, d), toy_logistic()
    first = sample_conditional(state, drift, RngSpec(75, 0).generator())
    again = sample_conditional(state, drift, RngSpec(75, 0).generator())
    assert len(builds) == 1
    assert again.tobytes() == first.tobytes()
    # another drift object builds its own density, to the same bits
    fresh = sample_conditional(state, toy_logistic(), RngSpec(75, 0).generator())
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
    nu = duals._DOF
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


def test_plane_sampler_fills_a_two_dimensional_span():
    # inputs span the (x_2, x_3) plane of R^3, so each draw has two coordinates
    inputs = np.array([[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [0, 1, 1], [0, -1, -1]])
    drift = LogisticDrift(inputs, np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
    pd = plane_density(drift, np.array([1.0, 0.0, 0.0]))
    w = _plane_density_sampler(pd, RngSpec(73, 0).generator(), 50)
    assert w.shape == (50, 2)
    assert np.all(np.isfinite(w))


def test_sampler_failures_name_the_sampler(monkeypatch):
    pd = plane_density(toy_logistic(), SLAB_NORMAL)
    label = f"in-plane sampler, mode {pd.mode}"
    # an envelope e^50 above the target accepts nothing
    high = replace(pd, log_envelope=pd.log_envelope + 50.0)
    with pytest.raises(NumericalError) as err:
        _plane_density_sampler(high, RngSpec(74, 0).generator(), 1)
    assert str(err.value).startswith(f"{label}: acceptance 0/")
    monkeypatch.setattr(duals, "_MAX_ROUNDS", 0)
    with pytest.raises(NumericalError) as err:
        _plane_density_sampler(pd, RngSpec(74, 1).generator(), 1)
    assert str(err.value) == f"{label}: starved after 0 rounds"
    wedge = WedgeState(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(NumericalError, match=r"^wedge sampler, bounds \(.*\): starved"):
        sample_conditional(wedge, BilinearDrift(), RngSpec(74, 2).generator())


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


@pytest.mark.parametrize("family", ["interval", "wedge", "slab"])
def test_dual_step_moves_each_face_as_step_surface(family):
    # the z-face steps with the increment, the y-face with its coordinate 1
    # negated, bit for bit as step_surface moves a lone face
    drift, inc, dt = toy_logistic(), np.array([0.13, -0.07]), 0.01
    if family == "interval":
        drift = ProductDrift(n=1, beta1=lambda x: 0.5 * np.tanh(x), k_lipschitz=0.5)
        state, inc = IntervalState(-0.3, 0.4), inc[:1]
    elif family == "wedge":
        state = WedgeState(np.array([1.0, 2.0]), np.zeros(2), np.array([0.5, 0.0]))
    else:
        state = SlabState(-0.4 * SLAB_NORMAL, 0.4 * SLAB_NORMAL, SLAB_NORMAL)
    u = getattr(state, "u", None)
    fixed = state.normal if u is None else None
    z = step_surface(np.atleast_1d(state.z), drift, dt, inc, fixed)
    y = step_surface(np.atleast_1d(state.y), drift, dt, flip_first(inc), fixed)
    out = dual_step(state, inc, dt, drift)
    assert not out.absorbed
    assert np.atleast_1d(out.z).tobytes() == z.tobytes()
    assert np.atleast_1d(out.y).tobytes() == y.tobytes()
    if u is not None:
        assert out.u.tobytes() == _direction_path(u, dt, 1)[1].tobytes()


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
    with pytest.raises(ModelError, match="slab"):
        intertwining_residual(
            lambda x: x, lambda x: 1.0, lambda x: 0.0,
            SlabState(-0.4 * SLAB_NORMAL, 0.4 * SLAB_NORMAL, SLAB_NORMAL),
            toy_logistic())


_WEDGE = WedgeState(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([1.0, 0.0]))
_SLAB = SlabState(-0.4 * SLAB_NORMAL, 0.4 * SLAB_NORMAL, SLAB_NORMAL)


def _residual(state, drift):
    return intertwining_residual(lambda x: x, lambda x: 1.0, lambda x: 0.0, state, drift)


# a piece that a family lacks raises one ModelError that names the family
@pytest.mark.parametrize("family, missing", [
    ("wedge", lambda: dual_drift(_WEDGE, BilinearDrift())),
    ("slab", lambda: _residual(_SLAB, toy_logistic())),
    ("wedge", lambda: _residual(_WEDGE, BilinearDrift())),
    ("wedge", lambda: bessel_time_change(
        run_coupling(_WEDGE, BilinearDrift(), TimeGrid(0.5, 10), RngSpec(87, 0)), BilinearDrift())),
    ("interval", lambda: dual_drift(IntervalState(-0.5, 0.5), BilinearDrift())),
], ids=["wedge-dual-drift", "slab-residual", "wedge-residual", "wedge-bessel-clock",
        "interval-dual-drift-under-a-bilinear-drift"])
def test_a_missing_piece_raises_one_model_error_naming_the_family(family, missing):
    with pytest.raises(ModelError, match=family):
        missing()


# ---------------------------------------------------------------------------
# batch estimators


def test_primal_terminal_batch_matches_construction():
    # a constant drift telescopes, so the terminal value is x - mu T + W_T
    # with W_T drawn in one step of length T, whatever the caller's grid
    drift = ConstantDrift(0.5)
    out = primal_terminal_batch(np.array([0.2]), drift, TimeGrid(1.0, 100), 77, [0, 1, 2, 3])
    from dualflow import sample_brownian

    for k, stream in enumerate([0, 1, 2, 3]):
        w = sample_brownian(TimeGrid(1.0, 1), 1, RngSpec(77, stream))
        assert out[k, 0] == 0.2 - 0.5 + w.values[-1, 0]


def test_dual_terminal_batch_fast_and_generic_agree():
    # the grid-free interval and the generic loop stepping the same drift
    # through ProductDrift on 100 steps, on disjoint streams: both laws are
    # exact, so survival and the survivors' anchors agree in law
    mu, m = 0.5, 20000
    grid = TimeGrid(1.0, 100)
    state = IntervalState(-1.0, 1.0)
    fast = dual_terminal_batch(state, ConstantDrift(mu), grid, 78, list(range(m)))
    prod = ProductDrift(n=1, beta1=lambda x: np.full_like(np.asarray(x, float), mu),
                        k_lipschitz=0.1, gamma1=lambda x: mu * np.asarray(x, float))
    gen = dual_terminal_batch(state, prod, grid, 78, list(range(m, 2 * m)))
    p_fast, p_gen = float(np.mean(fast["alive"])), float(np.mean(gen["alive"]))
    pooled = (p_fast + p_gen) / 2.0
    assert abs(p_fast - p_gen) <= 3.0 * math.sqrt(2.0 * pooled * (1.0 - pooled) / m)
    for key in ("z", "y"):
        a, b = fast[key][fast["alive"], 0], gen[key][gen["alive"], 0]
        assert stats.ks_2samp(a, b).pvalue > 1e-3
    for out in (fast, gen):
        assert np.isnan(out["z"][~out["alive"]]).all() and np.isnan(out["y"][~out["alive"]]).all()


@pytest.mark.parametrize("N, family", [(1, "logistic"), (4, "logistic"), (16, "logistic"),
                                       (16, "zero-product")],
                         ids=["1", "4", "16", "16-zero-product"])
def test_slab_survival_is_exact_at_every_resolution(N, family):
    # the slab gap is g0 - 2 d_1 W_1, so with the bridge draw the survival
    # is the reflection-principle P(max W_1 < h) = 2 Phi(h / sqrt(T)) - 1,
    # h = g0 / (2 d_1), on every grid.  A ProductDrift is never orthogonal
    # to d everywhere as far as orthogonal_to can tell, so the zero one
    # runs the gridded loop, whose per-step bridge kill is exact as well
    d = SLAB_NORMAL
    state, T, m = SlabState(-0.4 * d, 0.4 * d, d), 0.5, 20000
    drift = toy_logistic() if family == "logistic" else ProductDrift(
        n=2, beta1=np.zeros_like, k_lipschitz=0.0, beta_rest=np.zeros_like)
    out = dual_terminal_batch(state, drift, TimeGrid(T, N), 8821, list(range(m)))
    h = state.gap() / (2.0 * d[0])
    p = 2.0 * float(ndtr(h / math.sqrt(T))) - 1.0
    se = math.sqrt(p * (1.0 - p) / m)
    assert abs(float(np.mean(out["alive"])) - p) <= 3.0 * se


@pytest.mark.parametrize("N", [1, 4, 16])
def test_interval_survival_is_exact_at_every_resolution(N):
    # a constant drift moves both endpoints alike, so the gap is g0 - 2 W_1
    # and with the bridge draw the survival is P(max W_1 < g0 / 2) =
    # 2 Phi(g0 / (2 sqrt(T))) - 1 on every grid
    state, T, m = IntervalState(-1.0, 1.0), 0.5, 20000
    out = dual_terminal_batch(state, ConstantDrift(0.5), TimeGrid(T, N), 8821, list(range(m)))
    g0 = state.y - state.z
    p = 2.0 * float(ndtr(g0 / (2.0 * math.sqrt(T)))) - 1.0
    se = math.sqrt(p * (1.0 - p) / m)
    assert abs(float(np.mean(out["alive"])) - p) <= 3.0 * se


def _wedge_clock(u, T):
    """tau_2 = int_0^T u_2(t)^2 dt along u(t) = e^{Jt} u, by quadrature."""
    val, _ = quad(lambda t: (u[0] * math.sinh(t) + u[1] * math.cosh(t)) ** 2, 0.0, T,
                  epsabs=1e-14, epsrel=1e-12)
    return val


@pytest.mark.parametrize("N", [1, 4, 16])
def test_wedge_survival_is_exact_at_every_resolution(N):
    # under the bilinear drift the strip gap is G_0 - 2P, P = int u_2 dW_1 a
    # Brownian motion on the clock tau_2, so with the bridge draw the
    # survival is P(max P < G_0 / 2) = 2 Phi(G_0 / (2 sqrt(tau_2))) - 1
    _, state, _, drift = _identity_family("wedge")
    T, m = 0.5, 20000
    out = dual_terminal_batch(state, drift, TimeGrid(T, N), 8824, list(range(m)))
    p = 2.0 * float(ndtr(state.gap() / (2.0 * math.sqrt(_wedge_clock(state.u, T))))) - 1.0
    se = math.sqrt(p * (1.0 - p) / m)
    assert abs(float(np.mean(out["alive"])) - p) <= 3.0 * se


def test_wedge_closed_form_and_gridded_loop_agree(monkeypatch):
    # the grid-free wedge and the gridded loop at N = 200 (reached by
    # closing the gate), on disjoint streams: survival agrees, and so does
    # the law of the survivors' offsets along n_T: the z-line's n_T . z_T =
    # n_0 . z_0 + P - Q, and the gap G_0 - 2P and the sum -2Q on their own
    _, state, _, drift = _identity_family("wedge")
    grid, m = TimeGrid(0.5, 200), 40000
    fast = dual_terminal_batch(state, drift, grid, 8825, list(range(m)))
    monkeypatch.setattr(WedgeState, "_closed_form", lambda state, drift: None)
    slow = dual_terminal_batch(state, drift, grid, 8825, list(range(m, 2 * m)))
    p_fast, p_slow = float(np.mean(fast["alive"])), float(np.mean(slow["alive"]))
    pooled = (p_fast + p_slow) / 2.0
    assert abs(p_fast - p_slow) <= 3.0 * math.sqrt(2.0 * pooled * (1.0 - pooled) / m)
    # the terminal normal is e^{JT} u exactly, the gridded one its Euler product
    u_T = np.array([math.cosh(0.5) + 2.0 * math.sinh(0.5), math.sinh(0.5) + 2.0 * math.cosh(0.5)])
    assert np.allclose(fast["normal"], _normal_of(u_T), rtol=1e-15)
    assert np.allclose(slow["normal"], fast["normal"], rtol=1e-2)
    for lower, upper in (("zero", "z"), ("z", "y"), ("zero", "sum")):
        offsets = []
        for out in (fast, slow):
            z, y = out["z"][out["alive"]], out["y"][out["alive"]]
            rows = {"zero": np.zeros(2), "z": z, "y": y, "sum": z + y}
            offsets.append(face_gap(out["normal"], rows[lower], rows[upper]))
        assert stats.ks_2samp(*offsets).pvalue > 1e-3, (lower, upper)
    for out in (fast, slow):
        assert np.isnan(out["z"][~out["alive"]]).all() and np.isnan(out["y"][~out["alive"]]).all()


def test_wedge_survivors_sit_at_the_feet_of_the_normal():
    # a survivor's anchors are the points of its lines nearest the origin,
    # and the lines keep the gap G_0 - 2P > 0
    _, state, grid, drift = _identity_family("wedge")
    out = dual_terminal_batch(state, drift, grid, 8826, list(range(200)))
    alive, normal = out["alive"], out["normal"]
    assert 0 < int(alive.sum()) < 200
    for key in ("z", "y"):
        v = out[key][alive]
        assert np.allclose(v[:, 0] * normal[1] - v[:, 1] * normal[0], 0.0, atol=1e-12)
    assert (face_gap(normal, out["z"][alive], out["y"][alive]) > 0.0).all()


def test_wedge_identity_matches_the_closed_form_at_scale():
    x, state, grid, drift = _identity_family("wedge")
    oracle = wedge_probabilities(grid.T, x, state.u, state.z, state.y)["p_identity"]
    paths = 200_000
    est = liggett_identity_mc(x, state, grid, paths, drift, RngSpec(86, 0))
    se = math.sqrt(oracle * (1.0 - oracle) / paths)
    assert abs(est.lhs - oracle) <= 3.0 * se
    assert abs(est.rhs - oracle) <= 3.0 * se


def test_slab_faces_move_along_the_normal_in_step_and_batch():
    # the batch draws W_T in one step of length T and slides both faces as
    # dual_step does, so one dual_step of length T on the same increment
    # lands on the batch's anchors, bit for bit
    d = SLAB_NORMAL
    state, drift, T = SlabState(-0.4 * d, 0.4 * d, d), toy_logistic(), 0.5
    streams = list(range(40))
    out = dual_terminal_batch(state, drift, TimeGrid(T, 50), 8822, streams)
    inc, _ = stream_increments(TimeGrid(T, 1), 2, 8822, streams)
    assert 0 < int(out["alive"].sum()) < len(streams)
    for i in range(len(streams)):
        stepped = dual_step(state, inc[0, i], T, drift)
        if not out["alive"][i]:
            assert np.isnan(out["z"][i]).all() and np.isnan(out["y"][i]).all()
            continue
        # a batch survivor's gap stays positive at T, and the anchors lie on
        # the normal's line through the start anchors
        assert not stepped.absorbed
        assert stepped.z.tobytes() == out["z"][i].tobytes()
        assert stepped.y.tobytes() == out["y"][i].tobytes()
        for v, v0 in ((stepped.z, state.z), (stepped.y, state.y)):
            assert np.allclose(v - v0, float(d @ (v - v0)) * d, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_face_gap_and_covers_do_not_depend_on_the_row_count(n):
    # points on the y-face, where the sign of a gap is decided by rounding:
    # the rows of one call must give the bits of one call per row
    rng = np.random.default_rng(n)
    d = rng.normal(size=n)
    d[0] = abs(d[0])
    d /= np.linalg.norm(d)
    z, y = -0.3 * d, 0.5 * d
    v = rng.normal(size=(50, n))
    x = y + (v - np.outer(v @ d, d))
    rows = face_gap(d, x, y)
    assert rows.tobytes() == np.array([face_gap(d, r, y) for r in x]).tobytes()
    assert covers(d, z, y, x).tobytes() == np.array([covers(d, z, y, r) for r in x]).tobytes()


def test_slab_dual_refuses_a_tilted_drift():
    e1 = np.array([1.0, 0.0])
    state, tilted = SlabState(-0.4 * e1, 0.4 * e1, e1), ConstantDrift(np.array([1.0, 0.0]))
    with pytest.raises(ModelError, match="tilted"):
        dual_terminal_batch(state, tilted, TimeGrid(0.5, 10), 8823, [0, 1])
    with pytest.raises(ModelError, match="tilted"):
        dual_step(state, np.array([0.1, 0.0]), 0.05, tilted)


def test_liggett_identity_estimate_reproducible(monkeypatch):
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
    monkeypatch.setattr(duals, "_CHUNK", 64)
    c = liggett_identity_mc(np.array([0.0]), state, grid, 400, drift, RngSpec(79, 0))
    assert (c.lhs, c.rhs) == (a.lhs, a.rhs)


def _identity_family(family):
    """(x, state, grid, drift) of the duality suite's families, the
    interval and the wedge on coarser grids."""
    d = SLAB_NORMAL
    return {
        "interval": (np.array([0.0]), IntervalState(-1.0, 1.0), TimeGrid(1.0, 100),
                     ConstantDrift(0.5)),
        "wedge": (np.array([0.2, 0.0]),
                  WedgeState(np.array([1.0, 2.0]), np.zeros(2), np.array([0.5, 0.0])),
                  TimeGrid(0.5, 50), BilinearDrift()),
        "slab": (np.zeros(2), SlabState(-0.4 * d, 0.4 * d, d), TimeGrid(0.5, 250),
                 toy_logistic()),
    }[family]


def _offset_hits(x, state, rate, T, seed, streams):
    """The closed-form families' primal hits, written out: the offset along
    the region normal, each dot product summed coordinate by coordinate.
    Along a fixed normal it is (n . x - rate T) + n . W_T, with W_T drawn in
    one step of length T; for the wedge it is n . e^{-JT} x + s xi, with
    s^2 = n' Sigma n and xi one standard normal per stream."""
    d = state.normal
    dot = lambda v: sum((v[..., i] * d[i] for i in range(1, len(d))), v[..., 0] * d[0])
    if isinstance(state, WedgeState):
        ch, sh = math.cosh(T), math.sinh(T)
        sigma = 0.5 * np.array([[math.sinh(2 * T), 1 - math.cosh(2 * T)],
                                [1 - math.cosh(2 * T), math.sinh(2 * T)]])
        xi, _ = stream_increments(TimeGrid(1.0, 1), 1, seed, streams)
        mean, sd = dot(np.array([[ch, -sh], [-sh, ch]]) @ x), math.sqrt(dot(sigma @ d))
        offset = mean + sd * xi[0][:, 0]
    else:
        inc, _ = stream_increments(TimeGrid(T, 1), len(d), seed, streams)
        offset = (dot(x) - rate * T) + dot(inc[0])
    z, y = (np.atleast_1d(dot(np.atleast_1d(f))) for f in (state.z, state.y))
    return covers(np.ones(1), z, y, offset[:, None])


def test_liggett_identity_honours_stream():
    paths = 300
    for family, rate in (("interval", 0.5), ("slab", 0.0), ("wedge", 0.0)):
        x, state, grid, drift = _identity_family(family)
        ests = [liggett_identity_mc(x, state, grid, paths, drift, RngSpec(80, k)) for k in (0, 1)]
        assert (ests[0].lhs, ests[0].rhs) != (ests[1].lhs, ests[1].rhs)
        # stream k draws path i from streams (k << 32) + 2i and (k << 32) + 2i + 1
        for k, est in enumerate(ests):
            base = k << 32
            lhs_streams = [base + 2 * i for i in range(paths)]
            rhs_streams = [base + 2 * i + 1 for i in range(paths)]
            hits = _offset_hits(x, state, rate, grid.T, 80, lhs_streams)
            if family == "interval":
                # the offset is the constant-drift primal's x - mu T + W_T
                terminal = primal_terminal_batch(x, drift, grid, 80, lhs_streams)
                assert hits.tobytes() == contains_batch(state, terminal).tobytes()
            duals = dual_terminal_batch(state, drift, grid, 80, rhs_streams)
            covered = duals["alive"] & covers(duals["normal"], duals["z"], duals["y"], x)
            assert est.lhs == math.fsum(hits.astype(float)) / paths
            assert est.rhs == math.fsum(covered.astype(float)) / paths
        with pytest.raises(ModelError):
            liggett_identity_mc(x, state, grid, 2**31, drift, RngSpec(80, 0))


def test_closed_form_identity_skips_the_gridded_primal(monkeypatch):
    def gridded(*args):
        raise AssertionError("the gridded primal ran")

    monkeypatch.setattr(duals, "primal_terminal_batch", gridded)
    for family in ("interval", "slab", "wedge"):
        x, state, grid, drift = _identity_family(family)
        est = liggett_identity_mc(x, state, grid, 200, drift, RngSpec(81, 0))
        assert 0.0 < est.lhs < 1.0 and 0.0 < est.rhs < 1.0


def test_slab_drift_tilted_between_the_faces_runs_the_gridded_primal():
    # beta_1 = 2 sin(pi x_1) vanishes at both faces x_1 = -1 and 1, but it
    # pushes along e_1 in between: e_1 . X_T is not e_1 . W_T, so the primal
    # runs on the grid, and the dual refuses the drift at the first moved
    # anchor where it tilts (the one-step faces would read about 0.69
    # against the primal's 0.90)
    drift = ProductDrift(n=2, beta1=lambda v: 2.0 * np.sin(np.pi * v), k_lipschitz=2.0 * np.pi,
                         beta_rest=np.zeros_like)
    e1 = np.array([1.0, 0.0])
    state = SlabState(-e1, e1, e1)
    x, grid, paths = np.zeros(2), TimeGrid(1.0, 200), 2000
    lhs_streams = [2 * i for i in range(paths)]
    hits = contains_batch(state, primal_terminal_batch(x, drift, grid, 85, lhs_streams))
    assert duals._primal_hits(x, state, drift, grid, 85, lhs_streams).tobytes() == hits.tobytes()
    with pytest.raises(ModelError, match="tilted"):
        liggett_identity_mc(x, state, grid, paths, drift, RngSpec(85, 0))
    with pytest.raises(ModelError, match="tilted"):
        dual_terminal_batch(state, drift, grid, 85, [1, 3])


@pytest.mark.parametrize("family", ["interval", "wedge", "slab"])
def test_absorbed_state_is_hit_and_covered_by_nothing(family):
    # an absorbed region stays absorbed: every dual replica is killed, and
    # no primal lands in it
    x, state, grid, drift = _identity_family(family)
    dead = replace(state, absorbed=True, zeta=0.0)
    out = dual_terminal_batch(dead, drift, grid, 82, list(range(20)))
    assert not out["alive"].any()
    assert np.isnan(out["z"]).all() and np.isnan(out["y"]).all()
    assert out["z"].shape == out["y"].shape == (20, state.n)
    est = liggett_identity_mc(x, dead, grid, 200, drift, RngSpec(82, 0))
    assert est.lhs == 0.0 and est.rhs == 0.0


@pytest.mark.parametrize("paths, x, match", [
    (0, np.zeros(1), r"at least one path, got 0"),
    (-3, np.zeros(1), r"at least one path, got -3"),
    (10, np.zeros(2), r"interval's 1 coordinates, got x=\[0\.0, 0\.0\]"),
], ids=["no-paths", "negative-paths", "x-of-wrong-length"])
def test_liggett_identity_refuses_bad_inputs_before_any_draw(paths, x, match, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(duals, "stream_increments", draw)
    with pytest.raises(ModelError, match=match):
        liggett_identity_mc(x, IntervalState(-1.0, 1.0), TimeGrid(1.0, 10), paths,
                            ConstantDrift(0.5), RngSpec(83, 0))


def test_slab_identity_matches_the_closed_form_at_scale():
    # d . X_T = d . W_T under a drift orthogonal to d, so the lhs is
    # P(-0.4 < d . W_T <= 0.4) = 2 Phi(0.4 / sqrt(T)) - 1, and by duality so
    # is the rhs
    x, state, grid, drift = _identity_family("slab")
    oracle = 2.0 * float(ndtr(0.4 / math.sqrt(grid.T))) - 1.0
    paths = 200_000
    est = liggett_identity_mc(x, state, grid, paths, drift, RngSpec(84, 0))
    se = math.sqrt(oracle * (1.0 - oracle) / paths)
    assert abs(est.lhs - oracle) <= 3.0 * se
    assert abs(est.rhs - oracle) <= 3.0 * se
    # the gridded logistic scheme, on its own stream block, has that law too
    m = 20_000
    streams = [(1 << 32) + 2 * i for i in range(m)]
    hits = contains_batch(state, primal_terminal_batch(x, drift, grid, 84, streams))
    assert abs(float(np.mean(hits)) - oracle) <= 3.0 * math.sqrt(oracle * (1.0 - oracle) / m)
