"""Linked couplings, entrance laws, path transforms, reclocking, region MC."""

import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
)
from dualflow import coupling
from dualflow.cli import build_drift
from dualflow.core import brownian_increments, partial_sums
from dualflow.coupling import (
    CouplingTrajectory,
    _slab_region_attempts,
    read_coupling_jsonl,
    write_coupling_jsonl,
)
from dualflow.duals import _plane_density_sampler, plane_density, span_normal
from dualflow.surfaces import _normal_of


def toy_logistic():
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return LogisticDrift(inputs, labels)


SLAB_NORMAL = np.array([1.0, -1.0]) / math.sqrt(2.0)


def slab3_logistic():
    """Inputs orthogonal to SLAB3_NORMAL, each row labelled 1 and 0."""
    rows = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]]
    return LogisticDrift(np.repeat(rows, 2, axis=0), np.tile([1.0, 0.0], 4))


SLAB3_NORMAL = np.ones(3) / math.sqrt(3.0)


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


def _jsonl_round_trip(traj):
    buf = io.StringIO()
    write_coupling_jsonl(buf, traj)
    buf.seek(0)
    return read_coupling_jsonl(buf)


def _assert_same_bits(back, traj):
    """Every float of back has the bits of traj's (NaN as NaN, the sign of a
    zero kept); the flags, family, grid and array shapes are equal."""
    assert (back.family, back.grid) == (traj.family, traj.grid)
    assert back.gamma_flags.dtype == bool and np.array_equal(back.gamma_flags, traj.gamma_flags)
    for name in ("primal", "z_path", "y_path", "sigma", "wiener", "noise", "reflected",
                 "u_path", "normal"):
        a, b = (getattr(getattr(t, name), "values", getattr(t, name)) for t in (back, traj))
        if b is None:
            assert a is None, name
            continue
        assert a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


def test_coupling_jsonl_round_trip_is_bit_for_bit_for_wedge_and_slab():
    grid = TimeGrid(1.0, 40)
    wedge = run_coupling(WedgeState(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 0.0])),
                         BilinearDrift(), grid, RngSpec(83, 0))
    d = SLAB_NORMAL
    slab = run_coupling(SlabState(-0.4 * d, 0.4 * d, d), toy_logistic(), grid, RngSpec(84, 0))
    assert wedge.u_path is not None and slab.normal is not None
    for traj in (wedge, slab):
        _assert_same_bits(_jsonl_round_trip(traj), traj)


def test_coupling_jsonl_round_trip_keeps_nan_infinities_and_signed_zeros():
    grid = TimeGrid(1.0, 5)
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324])
    cols = lambda shift, n: np.stack([np.roll(special, shift + i) for i in range(n)], axis=1)
    path = lambda shift: SamplePath(grid, cols(shift, 2))
    traj = CouplingTrajectory(
        family="wedge", grid=grid, primal=path(0), z_path=path(1), y_path=path(2),
        sigma=SamplePath(grid, special), gamma_flags=np.arange(6) % 2 == 0, wiener=path(3),
        noise=path(4), reflected=path(5), u_path=cols(1, 2))
    _assert_same_bits(_jsonl_round_trip(traj), traj)


def test_coupling_jsonl_reader_does_not_parse_line_by_line(monkeypatch):
    """Only the header and the first record go through json.loads."""
    traj = run_entrance_coupling(0.0, ConstantDrift(0.5), TimeGrid(1.0, 4000), RngSpec(0, 0))
    calls = []
    loads = json.loads
    monkeypatch.setattr("dualflow.coupling.json.loads",
                        lambda text, **kw: calls.append(text) or loads(text, **kw))
    back = _jsonl_round_trip(traj)
    assert back.grid.N == 4000 and len(calls) <= 2


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


def test_three_dimensional_slab_coupling_holds_its_flags():
    d, drift = SLAB3_NORMAL, slab3_logistic()
    grid = TimeGrid(1.0, 100)
    for s in range(40):
        traj = run_coupling(SlabState(-0.4 * d, 0.4 * d, d), drift, grid, RngSpec(84, s))
        assert traj.primal.dim == 3 and np.all(traj.gamma_flags), s


# ---------------------------------------------------------------------------
# entrance couplings


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


# the 2M - W identity at every node of coarse grids, the closed form's
# exactness claim (ROADMAP item 5)
@pytest.mark.parametrize("mu", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("N", [1, 4, 16])
def test_interval_entrance_half_gap_is_pitman_on_coarse_grids(N, mu):
    drift, grid = ConstantDrift(mu), TimeGrid(1.0, N)
    for s in range(200):
        traj = run_entrance_coupling(0.0, drift, grid, RngSpec(8831, s))
        v = pitman_construct(traj.wiener, mu).values[:, 0]
        assert np.max(np.abs(0.5 * traj.gap() - v)) <= 1e-10, s


def test_wedge_entrance_leaves_boundary():
    u = np.array([1.0, 2.0])
    anchor = np.array([0.3, 0.1])
    state0 = WedgeState(u, anchor, anchor)
    grid = TimeGrid(0.5, 100)
    traj = run_entrance_coupling(state0, BilinearDrift(), grid, RngSpec(86, 0))
    # the primal start sits on the shared boundary line
    nvec = _normal_of(u)
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


# The entrance start sits on the upper face, so every early crossing test
# is a tie that rounding decides; without the flow's trigger guard a tie
# that reflects a downward increment pulled these gaps to <= 0 in 10, 13
# and 9 of 300 slab runs and in 13 and 7 of 100 strip runs.
@pytest.mark.parametrize("N", [100, 200, 400])
def test_slab_entrance_gap_stays_positive_on_a_ladder(N):
    d = SLAB_NORMAL
    drift, grid = toy_logistic(), TimeGrid(1.0, N)
    for s in range(300):
        traj = run_entrance_coupling(SlabState(0.1 * d, 0.1 * d, d), drift, grid, RngSpec(5, s))
        assert np.all(traj.gap()[1:] > 0.0), s


# The snap leaves a slab entrance's primal start on the upper face up to
# rounding, so its first crossing tests are ties.  Since the flow reflects
# only an upward increment, a start one ulp lower moves a run by rounding
# alone; without that guard the same change moved values by up to 3.11
# over 200 streams at N = 100 and 400.  A region flag at a node where the
# primal sits on a face is still decided by rounding.
def test_slab_entrance_does_not_hinge_on_its_start_tie(monkeypatch):
    drift, d = build_drift({"model": {"family": "logistic", "data": None}})
    state, grid = SlabState(0.1 * d, 0.1 * d, d), TimeGrid(1.0, 100)
    snapped = [run_entrance_coupling(state, drift, grid, RngSpec(5, s)) for s in range(40)]
    couple = coupling._couple

    def lowered(state0, drift, grid, x0, gen):
        x0[0] = np.nextafter(x0[0], -np.inf)
        return couple(state0, drift, grid, x0, gen)

    monkeypatch.setattr(coupling, "_couple", lowered)
    for s, a in enumerate(snapped):
        b = run_entrance_coupling(state, drift, grid, RngSpec(5, s))
        assert b.primal.values[0, 0] < a.primal.values[0, 0]
        for name in ("primal", "z_path", "y_path", "sigma", "reflected"):
            moved = np.max(np.abs(getattr(b, name).values - getattr(a, name).values))
            assert moved <= 1e-12, (s, name, moved)


# node 1's region flag is a tie that rounding decides, as above, so only
# the gap is asserted
def test_three_dimensional_slab_entrance_gap_stays_positive():
    d, drift = SLAB3_NORMAL, slab3_logistic()
    grid = TimeGrid(1.0, 100)
    for s in range(100):
        traj = run_entrance_coupling(SlabState(0.1 * d, 0.1 * d, d), drift, grid, RngSpec(5, s))
        assert np.all(traj.gap()[1:] > 0.0), s


@pytest.mark.parametrize("N", [100, 200])
def test_strip_entrance_gap_stays_positive_on_a_ladder(N):
    u, anchor = np.array([1.0, 2.0]), np.array([0.3, 0.1])
    drift, grid = BilinearDrift(), TimeGrid(1.0, N)
    for s in range(100):
        traj = run_entrance_coupling(WedgeState(u, anchor, anchor), drift, grid, RngSpec(5, s))
        assert np.all(traj.gap()[1:] > 0.0), s


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


def test_reclocked_slab_entrance_gap_is_chi3_at_time_one():
    # the reclocked gap is a three-dimensional Bessel process from 0; with
    # T = 0.5 the reclocked time 4 d_1^2 T is 1 at the horizon, where the
    # gap has the chi(3) law
    d = SLAB_NORMAL
    drift, grid = toy_logistic(), TimeGrid(0.5, 400)
    gaps = []
    for i in range(1000):
        traj = run_entrance_coupling(SlabState(0.1 * d, 0.1 * d, d), drift, grid,
                                     RngSpec(8804, 1000 + i))
        diag = bessel_time_change(traj, drift)
        assert diag.R_path.values[-1, 0] == pytest.approx(1.0, abs=1e-12)
        gaps.append(diag.H_path.values[-1, 0])
    assert stats.kstest(gaps, stats.chi(3).cdf).pvalue > 0.01


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
    with pytest.raises(ModelError, match=r"^h1 must be None or a number"):
        mc_region_sampler((-0.5, 0.5), IntervalState(0.0, 0.0), ConstantDrift(0.3), RngSpec(0, 0))


def test_region_sampler_rejects_a_slab_start_with_a_gap(bundled_slab):
    drift, h1, _ = bundled_slab
    wide = SlabState(h1.z - 0.1 * h1.normal, h1.y, h1.normal)
    with pytest.raises(ModelError, match=r"^slab region sampling needs a degenerate slab start$"):
        mc_region_sampler((-0.6, 0.6), wide, drift, RngSpec(8808, 0), count=1)


# ---------------------------------------------------------------------------
# slab region attempts stop at their first cover


def _full_horizon_slab_attempt(lo, hi, start, grid, spec, pd):
    """The slab attempt before early stopping: simulate the whole horizon,
    then scan it for the first covering node, projecting each step onto d
    and crossing only on an upward increment, as the reflection flow does."""
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
        crossing = po1 > 0.0 and pX[j - 1] + d1 * (po1 + abs(po1)) > pA
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
# one-step final block.  Stream s is outcome s of the waves run from stream 0
@pytest.mark.parametrize("horizon, steps, streams", [(8.0, 4000, 200), (1.0, 500, 300),
                                                     (1.0, 449, 100)])
def test_slab_attempt_matches_full_horizon_bits(bundled_slab, horizon, steps, streams):
    _, h1, pd = bundled_slab
    grid = TimeGrid(horizon, steps)
    never = 0
    waves = _slab_region_attempts(-0.6, 0.6, h1, grid, RngSpec(8808, 0), pd)
    for s, got in zip(range(streams), waves):
        spec = RngSpec(8808, s)
        want = _full_horizon_slab_attempt(-0.6, 0.6, h1, grid, spec, pd)
        if want is None:
            never += 1
            assert got is None, s
        else:
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:], s
    if horizon == 1.0:
        assert never > 0


def test_slab_region_attempt_is_the_first_cover_of_its_entrance_coupling(bundled_slab):
    # attempt s is the entrance coupling of RngSpec(8808, s) stopped at its
    # first node where the dual slab covers the region; the coupling snaps
    # its start onto the face by a few ulps and the sampler does not
    drift, h1, pd = bundled_slab
    d, grid, lo, hi = h1.normal, TimeGrid(2.0, 1000), -0.6, 0.6
    waves = _slab_region_attempts(lo, hi, h1, grid, RngSpec(8808, 0), pd)
    for s, got in zip(range(200), waves):
        traj = run_entrance_coupling(h1, drift, grid, RngSpec(8808, s))
        cover = (traj.z_path.values @ d < lo) & (hi <= traj.y_path.values @ d)
        if not cover.any():
            assert got is None, s
            continue
        j = int(np.argmax(cover))
        x = traj.primal.values[j]
        assert got is not None and got[1] == grid.times[j], s
        assert got[2] == (lo < float(x @ d) <= hi), s
        assert np.max(np.abs(got[0] - x)) <= 1e-12, s


def _eighths(lo, hi):
    # a coarse lattice, so that steps often tie with the faces and the region
    return st.integers(lo, hi).map(lambda k: Fraction(k, 8))


@settings(max_examples=100, deadline=None)
@given(d1=_eighths(1, 8), u0=_eighths(-2, 2), px0=_eighths(-8, 8), lo=_eighths(-8, 8),
       width=_eighths(1, 8), steps=st.lists(st.tuples(_eighths(-4, 4), _eighths(-4, 4)),
                                            min_size=1, max_size=40))
def test_slab_scan_in_face_coordinates_is_the_guarded_recursion(d1, u0, px0, lo, width, steps):
    # in exact arithmetic, step by step: the guarded recursion on the faces'
    # offsets pa and pz along d, with the primal's offset moving by dp (the
    # drift is orthogonal to d), and the sampler's (u, s) scan
    hi = lo + width
    pa = pz = px0 + u0
    px, u, s = px0, u0, Fraction(0)
    for dp, po1 in steps:
        crossing = po1 > 0 and px + d1 * (po1 + abs(po1)) > pa
        dsig = 2 * po1 if crossing else 0
        pa, pz = pa + dp + d1 * (dsig - 2 * po1), pz + dp - d1 * dsig
        j, u, s_next = coupling._first_cover(lo, hi, [px, px + dp], [2 * d1 * po1], u, s, u0)
        px += dp
        assert (s_next != s) == crossing
        s = s_next
        assert pa == px + u and pz == px + u0 - s
        assert (j == 1) == (pz < lo and hi <= pa)


def test_region_sampler_samples_do_not_depend_on_count(bundled_slab):
    drift = bundled_slab[0]
    few = mc_region_sampler((-0.6, 0.6), None, drift, RngSpec(8808, 0), count=5, horizon=1.0)
    many = mc_region_sampler((-0.6, 0.6), None, drift, RngSpec(8808, 0), count=15,
                             horizon=1.0)
    assert many.accepted == 15
    assert many.samples[:5].tobytes() == few.samples.tobytes()
    assert many.stop_times[:5].tobytes() == few.stop_times.tobytes()


# sha256 of samples, stop times, attempts and covered (int64) for count 40
# on the bundled slab, recorded when the scan took the flow's crossing guard
# (the face-coordinate scan and the live rows keep these bits)
_SAMPLER_DIGESTS = {
    8808: "0a012ed46a096c3585c262db0a41043352e275751eb8c507e2e502eee56fb0e2",
    907559: "d54c220795e3a1f05e74dcf3a1c23fa0246f63cdddf9ecb3805aeefd6cd923d5",
}


@pytest.mark.parametrize("seed", sorted(_SAMPLER_DIGESTS))
def test_region_sampler_bits_are_pinned(bundled_slab, seed):
    out = mc_region_sampler((-0.6, 0.6), None, bundled_slab[0], RngSpec(seed, 0), count=40)
    h = hashlib.sha256()
    h.update(out.samples.tobytes())
    h.update(out.stop_times.tobytes())
    h.update(np.array([out.attempts, out.covered], dtype=np.int64).tobytes())
    assert h.hexdigest() == _SAMPLER_DIGESTS[seed]


def _diverging_beta(monkeypatch, faults):
    """Make the explicit scheme's k-th step return inf in the row of stream
    s, for each (k, s) in faults.  The scheme steps the wave's pending
    attempts as the rows of one (rows, n) array, in the order they drew
    the block's noise; the noise imputation calls beta on a 3-d block."""
    beta, generator, draw = LogisticDrift.beta, RngSpec.generator, coupling.brownian_increments
    stream_of = {}  # id of an attempt's generator -> its stream
    rows = []  # the streams of the block's rows, in draw order
    last = [None]  # the block the rows drew for
    explicit_steps = [0]

    def spec_generator(self):
        gen = generator(self)
        stream_of[id(gen)] = self.stream
        return gen

    def block_draw(gen, block, shape=()):
        if block is not last[0]:
            last[0] = block
            rows.clear()
        rows.append(stream_of[id(gen)])
        return draw(gen, block, shape)

    def blowup(self, x):
        out = beta(self, x)
        if np.ndim(x) == 2:
            explicit_steps[0] += 1
            for k, stream in faults:
                if explicit_steps[0] == k and stream in rows:
                    out[rows.index(stream)] = np.inf
        return out

    monkeypatch.setattr(RngSpec, "generator", spec_generator)
    monkeypatch.setattr(coupling, "brownian_increments", block_draw)
    monkeypatch.setattr(LogisticDrift, "beta", blowup)


def test_region_attempt_divergence_names_step_and_stream(bundled_slab, monkeypatch):
    drift, h1, pd = bundled_slab
    grid = TimeGrid(8.0, 4000)
    # stream 5 first covers at t = 2.724, past the failing step 1000
    assert next(_slab_region_attempts(-0.6, 0.6, h1, grid, RngSpec(8808, 5), pd))[1] > 2.0
    monkeypatch.setattr(coupling, "plane_density", lambda drift, normal: pd)
    _diverging_beta(monkeypatch, [(1000, 5)])
    with pytest.raises(NumericalError) as err:
        mc_region_sampler((-0.6, 0.6), h1, drift, RngSpec(8808, 5), count=1)
    assert str(err.value) == (
        "region attempt (seed 8808, stream 5): explicit scheme diverged at step 1000 (t=2)"
    )


def test_region_attempt_divergence_names_the_first_attempt_in_stream_order(
        bundled_slab, monkeypatch):
    drift, h1, pd = bundled_slab
    monkeypatch.setattr(coupling, "plane_density", lambda drift, normal: pd)
    # streams 0 and 1 are accepted at steps 149 and 251; stream 2 covers at
    # step 193.  One attempt at a time, stream 1 fails at step 150 before
    # stream 2 is run, though stream 2 diverges sooner in the wave
    _diverging_beta(monkeypatch, [(100, 2), (150, 1)])
    with pytest.raises(NumericalError) as err:
        mc_region_sampler((-0.6, 0.6), h1, drift, RngSpec(8808, 0), count=5)
    assert str(err.value) == (
        "region attempt (seed 8808, stream 1): explicit scheme diverged at step 150 (t=0.3)"
    )


def test_region_attempt_divergence_that_one_attempt_at_a_time_never_runs_is_ignored(
        bundled_slab, monkeypatch):
    drift, h1, pd = bundled_slab
    clean = mc_region_sampler((-0.6, 0.6), h1, drift, RngSpec(8808, 0), count=5)
    assert clean.attempts == 7
    monkeypatch.setattr(coupling, "plane_density", lambda drift, normal: pd)
    # stream 6 has covered at step 107, so it is no longer stepped, and it
    # waits in the wave for stream 5, which covers at step 1362; stream 7
    # diverges at step 1000, but the fifth acceptance is stream 6's, so one
    # attempt at a time would not run stream 7
    _diverging_beta(monkeypatch, [(500, 6), (1000, 7)])
    out = mc_region_sampler((-0.6, 0.6), h1, drift, RngSpec(8808, 0), count=5)
    assert out.samples.tobytes() == clean.samples.tobytes()
    assert (out.attempts, out.covered) == (clean.attempts, clean.covered)


def _sampled(drift, **kwargs):
    out = mc_region_sampler((-0.6, 0.6), None, drift, RngSpec(8808, 0), **kwargs)
    return (out.samples.tobytes(), out.stop_times.tobytes(), out.attempts, out.covered,
            out.truncated)


@pytest.mark.parametrize("width", [1, 7])
def test_region_sampler_bits_do_not_depend_on_the_wave_width(bundled_slab, monkeypatch, width):
    want = _sampled(bundled_slab[0], count=40)
    monkeypatch.setattr(coupling, "_WAVE", width)
    assert _sampled(bundled_slab[0], count=40) == want


@pytest.mark.parametrize("max_attempts", [5, 37])
def test_region_sampler_budget_need_not_fill_a_wave(bundled_slab, monkeypatch, max_attempts):
    got = _sampled(bundled_slab[0], count=40, max_attempts=max_attempts)
    assert got[2] == max_attempts and got[4]
    monkeypatch.setattr(coupling, "_WAVE", 1)
    assert _sampled(bundled_slab[0], count=40, max_attempts=max_attempts) == got
