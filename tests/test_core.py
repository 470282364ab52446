"""Grids, paths, random streams, drift fields, step schemes, and path io."""

import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import dualflow
from dualflow import (
    BilinearDrift,
    ConstantDrift,
    IntervalState,
    LogisticDrift,
    ModelError,
    NumericalError,
    ProductDrift,
    RngSpec,
    SamplePath,
    Surface,
    TimeGrid,
    euler_backward,
    euler_forward_implicit,
    evolve_surface,
    explicit_step,
    flip_first,
    forward_flow,
    implicit_step,
    impute_noise,
    liggett_identity_mc,
    read_path_csv,
    reversed_noise,
    run_coupling,
    sample_brownian,
    sample_brownian_batch,
)
from dualflow.core import (
    DriftField,
    brownian_increments,
    euler_backward_values,
    normals,
    uniforms,
    write_path_csv,
)
from dualflow import cli
from dualflow.duals import dual_terminal_batch


# ---------------------------------------------------------------------------
# grids and paths


def test_grid_basic():
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0), (math.nan, 4)])
def test_grid_validation(T, N):
    with pytest.raises(ModelError):
        TimeGrid(T, N)


def test_path_shape_and_at():
    grid = TimeGrid(1.0, 2)
    path = SamplePath(grid, np.array([0.0, 2.0, 1.0]))
    assert path.values.shape == (3, 1)
    assert path.dim == 1
    inc = path.increments()
    assert np.allclose(inc[:, 0], [2.0, -1.0])
    rev = path.reversed()
    assert np.allclose(rev.values[:, 0], [1.0, 2.0, 0.0])


def test_path_validation():
    grid = TimeGrid(1.0, 2)
    with pytest.raises(ModelError):
        SamplePath(grid, np.zeros(4))


def test_flip_first():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = flip_first(arr)
    assert np.allclose(out, [[-1.0, 2.0], [-3.0, 4.0]])
    assert np.allclose(arr, [[1.0, 2.0], [3.0, 4.0]])  # input untouched


def test_reversed_noise_is_involution():
    grid = TimeGrid(1.0, 8)
    w = sample_brownian(grid, 2, RngSpec(5, 0))
    rev = reversed_noise(w)
    assert np.allclose(rev.values[0], 0.0)
    assert np.allclose(rev.values[-1], -w.values[-1])
    back = reversed_noise(rev)
    assert np.allclose(back.values, w.values, atol=1e-15)


# ---------------------------------------------------------------------------
# random streams


def test_rng_reproducible_and_stream_separated():
    a = normals(RngSpec(7, 3).generator(), (5,))
    b = normals(RngSpec(7, 3).generator(), (5,))
    c = normals(RngSpec(7, 4).generator(), (5,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_open_interval():
    u = uniforms(RngSpec(1, 0).generator(), (10000,))
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_brownian_batch_matches_single_streams():
    grid = TimeGrid(1.0, 16)
    batch = sample_brownian_batch(grid, 2, 42, [0, 5, 9])
    for col, stream in enumerate([0, 5, 9]):
        single = sample_brownian(grid, 2, RngSpec(42, stream))
        assert np.array_equal(batch[:, col, :], single.values)


def test_brownian_increment_scale():
    grid = TimeGrid(4.0, 1)
    vals = np.array([sample_brownian(grid, 1, RngSpec(3, s)).values[-1, 0]
                     for s in range(4000)])
    assert abs(np.std(vals) - 2.0) < 0.1  # sqrt(T) scaling


# ---------------------------------------------------------------------------
# drift fields


def test_constant_drift():
    drift = ConstantDrift(0.5)
    assert drift.n == 1
    x = np.array([[1.0], [2.0]])
    assert np.allclose(drift.beta(x), 0.5)
    assert np.allclose(drift.gamma(x), [0.5, 1.0])
    with pytest.raises(ModelError):
        ConstantDrift(np.array([np.inf]))


def test_bilinear_drift():
    drift = BilinearDrift()
    x = np.array([1.0, 3.0])
    assert np.allclose(drift.beta(x), [3.0, 1.0])  # gradient of x1*x2
    assert drift.gamma(x) == pytest.approx(3.0)


def test_logistic_drift():
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 0.0])
    drift = LogisticDrift(inputs, labels)
    assert drift.n == 2
    assert drift.k_lipschitz == pytest.approx(2.0 / 4 + 2.0 / 4)
    x = np.zeros(2)
    # at the origin every sigmoid is 1/2
    expect = 0.5 * (inputs[0] * (0.5 - 1.0) + inputs[1] * (0.5 - 0.0))
    assert np.allclose(drift.beta(x), expect)
    # finite-difference consistency: beta is the gradient of gamma
    h = 1e-6
    p = np.array([0.3, -0.4])
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (drift.gamma(p + e) - drift.gamma(p - e)) / (2 * h)
        assert drift.beta(p)[i] == pytest.approx(float(fd), abs=1e-6)
    with pytest.raises(ModelError):
        LogisticDrift(inputs, np.array([2.0, 0.0]))


def test_product_drift_requires_rest():
    with pytest.raises(ModelError):
        ProductDrift(n=2, beta1=lambda x: x, k_lipschitz=1.0)
    drift = ProductDrift(n=1, beta1=lambda x: -x, k_lipschitz=1.0)
    assert np.allclose(drift.beta(np.array([2.0])), [-2.0])
    assert drift.gamma(np.array([2.0])) is None


# ---------------------------------------------------------------------------
# step schemes


def test_explicit_step_constant():
    out = explicit_step(np.array([1.0]), 0.1, np.array([-0.05]), ConstantDrift(0.5))
    assert out[0] == pytest.approx(1.0 - 0.05 - 0.05, abs=1e-15)


def test_implicit_step_linear_fixed_point():
    # beta(x) = -x gives w = (prev + d) / (1 + dt) exactly
    drift = ProductDrift(n=1, beta1=lambda x: -x, k_lipschitz=1.0)
    w = implicit_step(np.array([1.0]), np.array([0.0]), 0.25, drift)
    assert w[0] == pytest.approx(0.8, abs=1e-12)


def test_backward_scheme_linear_exact():
    # beta(x) = x, zero noise: x_j = x0 (1 - dt)^j
    drift = ProductDrift(n=1, beta1=lambda x: x, k_lipschitz=1.0)
    grid = TimeGrid(1.0, 10)
    noise = SamplePath(grid, np.zeros(11))
    path = euler_backward(np.array([1.0]), noise, drift)
    assert path.values[-1, 0] == pytest.approx(0.9**10, rel=1e-12)


def test_forward_scheme_linear_exact():
    # implicit with beta(x) = x, zero noise: x_j = x0 / (1 - dt)^j
    drift = ProductDrift(n=1, beta1=lambda x: x, k_lipschitz=1.0)
    grid = TimeGrid(1.0, 10)
    noise = SamplePath(grid, np.zeros(11))
    path = euler_forward_implicit(np.array([1.0]), noise, drift)
    assert path.values[-1, 0] == pytest.approx(0.9**-10, rel=1e-10)


def test_forward_scheme_step_size_guard():
    drift = ProductDrift(n=1, beta1=lambda x: 10.0 * x, k_lipschitz=10.0)
    grid = TimeGrid(1.0, 10)
    noise = SamplePath(grid, np.zeros(11))
    with pytest.raises(NumericalError):
        euler_forward_implicit(np.array([1.0]), noise, drift)


def test_backward_scheme_divergence_detected():
    drift = ProductDrift(n=1, beta1=lambda x: -(x**3), k_lipschitz=1.0)
    grid = TimeGrid(1.0, 4)
    noise = SamplePath(grid, np.zeros(5))
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        euler_backward(np.array([1e200]), noise, drift)


class _BlowUp(DriftField):
    """Zero drift whose beta returns `value` (inf by default) on its `at`-th call."""

    n = 1
    k_lipschitz = 0.0

    def __init__(self, at: int, value: float = np.inf):
        self.at, self.value, self.calls = at, value, 0

    def beta(self, x):
        self.calls += 1
        return np.full_like(x, self.value if self.calls == self.at else 0.0)


def test_backward_scheme_divergence_names_step_and_time():
    grid = TimeGrid(1.0, 8)
    with pytest.raises(NumericalError, match=r"diverged at step 5 \(t=0\.625\)$"):
        euler_backward(np.zeros(1), SamplePath(grid, np.zeros(9)), _BlowUp(5))
    # a block counts its steps from the whole grid's start
    block = grid.block(4, 4)
    with pytest.raises(NumericalError, match=r"diverged at step 7 \(t=0\.875\)$"):
        euler_backward_values(block, np.zeros(1), np.zeros((5, 1)), _BlowUp(3))


# Under the zero drift an implicit solve makes two beta calls (the
# predictor and one converged iteration); a forward-flow step adds the
# crossing test's call before its surface solve.  A nan from the chosen
# call never clears, so that solve exhausts its iterations.
_SOLVE_FAILED = r"implicit step failed to reach residual 1\.0e-13 \(last nan\)$"


def test_implicit_failures_name_step_and_time():
    grid = TimeGrid(1.0, 8)
    zeros = SamplePath(grid, np.zeros(9))
    with pytest.raises(NumericalError, match=r"^implicit scheme failed at step 5 \(t=0\.625\): "
                       + _SOLVE_FAILED):
        euler_forward_implicit(np.zeros(1), zeros, _BlowUp(9, np.nan))
    with pytest.raises(NumericalError, match=r"^surface flow failed at step 3 \(t=0\.375\): "
                       + _SOLVE_FAILED):
        evolve_surface(Surface.level(0.0), zeros, _BlowUp(5, np.nan))
    with pytest.raises(NumericalError, match=r"^reflection flow failed at step 4 \(t=0\.5\): "
                       + _SOLVE_FAILED):
        forward_flow(zeros, Surface.level(1.0), zeros, _BlowUp(11, np.nan))


# a coupling run makes 8 explicit-scheme calls and one imputation call,
# then 3 calls per reflection-flow step and 2 per lower-side step
@pytest.mark.parametrize("at, where", [
    (14, r"reflection flow failed at step 2 \(t=0\.25\)"),
    (44, r"implicit scheme failed at step 6 \(t=0\.75\)"),
], ids=["reflection-flow", "lower-side"])
def test_coupling_failure_names_seed_stream_and_step(at, where):
    with pytest.raises(NumericalError, match=r"^coupling \(seed 3, stream 7\): " + where + ": "
                       + _SOLVE_FAILED):
        run_coupling(IntervalState(-1.0, 1.0), _BlowUp(at, np.nan), TimeGrid(1.0, 8),
                     RngSpec(3, 7), x0=np.zeros(1))


# The dual flows make two zero-drift solves per step, four beta calls in
# all; liggett_identity_mc runs the primal first, one call per step.
_DUAL_STEP_3 = r"dual flow failed at step 3 \(t=0\.375\): " + _SOLVE_FAILED


def test_dual_failures_name_step_and_time():
    grid = TimeGrid(1.0, 8)
    with pytest.raises(NumericalError, match="^" + _DUAL_STEP_3):
        dual_terminal_batch(IntervalState(-1.0, 1.0), _BlowUp(9, np.nan), grid, 5, [0, 1, 2])
    with pytest.raises(NumericalError, match=r"^duality \(seed 5, stream block 2\): " + _DUAL_STEP_3):
        liggett_identity_mc(np.zeros(1), IntervalState(-1.0, 1.0), grid, 3,
                            _BlowUp(8 + 9, np.nan), RngSpec(5, 2))


def test_dual_command_failure_names_replica_and_step(tmp_path, monkeypatch, capsys):
    # a wide interval never absorbs, so replica 0 makes all 8 steps' calls
    monkeypatch.setattr(cli, "build_drift", lambda config: (_BlowUp(4 * 8 + 9, np.nan), None))
    code = cli.main(["dual", "--seed", "4", "--replicas", "2", "--out", str(tmp_path),
                     "--override", "grid.N=8", "--override", "grid.T=1.0", "--override",
                     'dual.state={"family": "interval", "z": -50.0, "y": 50.0}'])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err.strip()
    assert re.fullmatch(r"numeric failure: dual \(seed 4, replica 1\): " + _DUAL_STEP_3, err)


def _implicit_step_reference(prev, dnoise, dt, drift, tol=1e-13, max_iter=100):
    """implicit_step as first written, before the per-iteration overhead
    was cut; the shipped solve must match it bit for bit."""
    prev = np.asarray(prev, dtype=float)
    c = prev + np.asarray(dnoise, dtype=float)
    w = c + drift.beta(prev) * dt
    alpha = 1.0
    last = np.inf
    for _ in range(max_iter):
        target = c + drift.beta(w) * dt
        res = float(np.max(np.abs(target - w)))
        if res <= tol:
            return target
        if res >= last:
            alpha = 0.5 * alpha
        last = res
        w = w + alpha * (target - w)
    raise NumericalError(f"implicit step failed to reach residual {tol:.1e} (last {last:.3e})")


class _Counted(DriftField):
    """A drift that counts its beta calls."""

    def __init__(self, inner: DriftField):
        self.inner, self.calls = inner, 0
        self.n, self.k_lipschitz = inner.n, inner.k_lipschitz

    def beta(self, x):
        self.calls += 1
        return self.inner.beta(x)


def _toy_logistic():
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    return LogisticDrift(inputs, np.array([1.0, 1.0, 0.0, 0.0]))


_SOLVE_DRIFTS = {
    "constant-1d": ConstantDrift(0.5),
    "constant-2d": ConstantDrift(np.array([0.5, -1.25])),
    "toy-logistic": _toy_logistic(),
    "logistic-3d": LogisticDrift(
        np.array([[1.0, 0.5, -0.2], [0.3, -1.0, 0.8], [-0.7, 0.2, 0.4], [0.1, 0.9, -0.6]]),
        np.array([1.0, 0.0, 1.0, 0.0])),
    "product": ProductDrift(n=3, beta1=np.tanh, k_lipschitz=1.0, beta_rest=lambda r: 0.5 * r),
    # plain iteration multiplies the error by -1.5 at dt = 0.5, so only
    # the damping converges
    "damped": ProductDrift(n=1, beta1=lambda x: -3.0 * x, k_lipschitz=3.0),
}


@pytest.mark.parametrize("name", sorted(_SOLVE_DRIFTS))
@pytest.mark.parametrize("rows", [(), (7,)], ids=["one-row", "batched"])
def test_implicit_step_matches_reference_bits(name, rows):
    drift = _SOLVE_DRIFTS[name]
    gen = RngSpec(4242, len(rows)).generator()
    prev = normals(gen, (*rows, drift.n))
    if isinstance(drift, ConstantDrift):
        # the closed form c + mu dt keeps the loop's bits, with no iteration
        for dt in (1e-3, 0.05, 0.3):
            dnoise = normals(gen, (*rows, drift.n)) * math.sqrt(dt)
            want = _implicit_step_reference(prev, dnoise, dt, drift)
            assert implicit_step(prev, dnoise, dt, drift).tobytes() == want.tobytes()
        return
    dt = 0.5 if name == "damped" else 0.05
    dnoise = normals(gen, (*rows, drift.n)) * math.sqrt(dt)
    ref, lean = _Counted(drift), _Counted(drift)
    want = _implicit_step_reference(prev, dnoise, dt, ref)
    got = implicit_step(prev, dnoise, dt, lean)
    assert got.tobytes() == want.tobytes()
    assert lean.calls == ref.calls
    if name == "damped":
        assert np.allclose(got, (prev + dnoise) / 2.5, rtol=0.0, atol=1e-12)
    # too few iterations: the same failure, word for word
    with pytest.raises(NumericalError) as want_err:
        _implicit_step_reference(prev, dnoise, dt, drift, max_iter=2)
    with pytest.raises(NumericalError) as got_err:
        implicit_step(prev, dnoise, dt, drift, max_iter=2)
    assert str(got_err.value) == str(want_err.value)


def _exact_affine_solve(drift, c, dt):
    """w = c + dt beta(w) in exact rational arithmetic, one row at a time."""
    dt = Fraction(dt)
    rows = []
    for row in np.atleast_2d(c):
        c1 = [Fraction(float(v)) for v in row]
        if isinstance(drift, ConstantDrift):
            rows.append([v + dt * Fraction(float(m)) for v, m in zip(c1, drift.mu)])
        else:
            det = 1 - dt * dt
            rows.append([(c1[0] + dt * c1[1]) / det, (c1[1] + dt * c1[0]) / det])
    return np.array([[float(v) for v in row] for row in rows]).reshape(np.shape(c))


_AFFINE_DRIFTS = {
    "constant": lambda: ConstantDrift(np.array([0.5, -1.25])),
    "bilinear": BilinearDrift,
}


@pytest.mark.parametrize("name", sorted(_AFFINE_DRIFTS))
@pytest.mark.parametrize("rows", [(), (7,)], ids=["one-row", "batched"])
def test_affine_drifts_solve_in_closed_form(name, rows):
    drift = _AFFINE_DRIFTS[name]()
    dt = 0.05
    gen = RngSpec(4243, len(rows)).generator()
    prev = 3.0 * normals(gen, (*rows, 2))
    dnoise = normals(gen, (*rows, 2)) * math.sqrt(dt)
    # count beta calls through an instance attribute, as a tracer does
    calls, beta = [], drift.beta
    object.__setattr__(drift, "beta", lambda x: calls.append(1) or beta(x))
    w = implicit_step(prev, dnoise, dt, drift)
    assert calls == []
    assert w.shape == prev.shape
    c = prev + dnoise
    assert np.all(np.abs(w - c - dt * drift.beta(w)) <= 1e-15 * (1.0 + np.abs(w)))
    assert np.all(np.abs(w - _exact_affine_solve(drift, c, dt)) <= 1e-15 * (1.0 + np.abs(c).max()))
    # a row's solve does not depend on the rows beside it
    if rows:
        alone = [implicit_step(p, d, dt, drift) for p, d in zip(prev, dnoise)]
        assert np.stack(alone).tobytes() == w.tobytes()
    bad = prev.copy()
    bad[..., 0] = np.nan
    with pytest.raises(NumericalError, match=r"^implicit step failed"):
        implicit_step(bad, dnoise, dt, drift)


def _euler_backward_reference(grid, x_start, noise_values, drift):
    """euler_backward_values as written before its steps moved in place
    and its finiteness check moved to the end of the call; the shipped
    kernel must match it bit for bit and message for message."""
    dt = grid.dt
    beta = drift.beta
    dnoise = np.diff(noise_values, axis=0)
    out = np.empty_like(noise_values)
    out[0] = x_start
    for k in range(1, grid.N + 1):
        cur = out[k - 1]
        out[k] = cur - beta(cur) * dt + dnoise[k - 1]
        if not np.isfinite(out[k]).all():
            step = grid.first + k
            raise NumericalError(f"explicit scheme diverged at step {step} (t={step * dt:.6g})")
    return out


_EXPLICIT_DRIFTS = {
    "constant": ConstantDrift(np.array([0.5, -1.25])),
    "bilinear": BilinearDrift(),
    "bundled-logistic": cli.build_drift({"model": {"family": "logistic", "data": None}})[0],
    "logistic-3d": _SOLVE_DRIFTS["logistic-3d"],
    "product": _SOLVE_DRIFTS["product"],
}


@pytest.mark.parametrize("name", sorted(_EXPLICIT_DRIFTS))
@pytest.mark.parametrize("rows", [(), (7,)], ids=["one-row", "batched"])
@pytest.mark.parametrize("span", ["grid", "block"])
def test_explicit_scheme_matches_reference_bits(name, rows, span):
    drift = _EXPLICIT_DRIFTS[name]
    grid = TimeGrid(2.0, 400)
    if span == "block":
        grid = grid.block(130, 64)
    gen = RngSpec(4244, len(rows)).generator()
    x0 = normals(gen, (*rows, drift.n))
    noise = np.cumsum(normals(gen, (grid.N + 1, *rows, drift.n)) * math.sqrt(grid.dt), axis=0)
    want = _euler_backward_reference(grid, x0, noise, drift)
    got = euler_backward_values(grid, x0, noise, drift)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# the divergence lands mid-block: step 1000 of a 4000-step grid is step 40
# of the block after node 960
_STEP_1000 = r"^explicit scheme diverged at step 1000 \(t=2\)$"


# the steps after the divergence run on before it is named, and warn no
# more than the reference, which stops at it
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("rows", [(), (7,)], ids=["one-row", "batched"])
def test_explicit_divergence_inside_a_block_names_its_step(value, rows):
    block = TimeGrid(8.0, 4000).block(960, 64)
    for kernel in (_euler_backward_reference, euler_backward_values):
        with pytest.raises(NumericalError, match=_STEP_1000):
            kernel(block, np.zeros((*rows, 1)), np.zeros((65, *rows, 1)), _BlowUp(40, value))


# an infinite increment is followed by its negative, so the shipped kernel,
# which runs the block out before it looks, computes inf - inf once
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_explicit_divergence_of_one_replica_names_its_step(value):
    block = TimeGrid(8.0, 4000).block(960, 64)
    noise = np.zeros((65, 7, 2))
    noise[40, 3, 1] = value
    for kernel in (_euler_backward_reference, euler_backward_values):
        with pytest.raises(NumericalError, match=_STEP_1000):
            kernel(block, np.zeros((7, 2)), noise, ConstantDrift(np.array([0.5, -1.0])))


def test_grid_blocks_keep_the_grid_step_and_draws():
    grid = TimeGrid(1.0, 500)
    blocks = [grid.block(first, 64) for first in range(0, grid.N, 64)]
    assert [b.N for b in blocks] == [64] * 7 + [52]
    assert all(b.dt == grid.dt for b in blocks)
    whole = brownian_increments(RngSpec(5, 1).generator(), grid, (2,))
    gen = RngSpec(5, 1).generator()
    parts = np.concatenate([brownian_increments(gen, b, (2,)) for b in blocks])
    assert parts.tobytes() == whole.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_schemes_invert_under_time_reversal(stream, dim):
    drift = ConstantDrift(0.5) if dim == 1 else BilinearDrift()
    grid = TimeGrid(1.0, 32)
    w = sample_brownian(grid, dim, RngSpec(1234, stream))
    fwd = euler_forward_implicit(np.zeros(dim), w, drift)
    back = euler_backward(fwd.values[-1], reversed_noise(w), drift)
    assert np.max(np.abs(back.values - fwd.values[::-1])) < 1e-10


@pytest.mark.parametrize("N", [1, 4, 16])
@pytest.mark.parametrize("name", ["constant", "bilinear", "toy-logistic"])
def test_schemes_invert_on_coarse_grids(N, name):
    # T = 0.2 keeps even the one-step grid inside every drift's step-size bound
    drift = {"constant": ConstantDrift(0.5), "bilinear": BilinearDrift(),
             "toy-logistic": _toy_logistic()}[name]
    grid = TimeGrid(0.2, N)
    for stream in range(5):
        w = sample_brownian(grid, drift.n, RngSpec(1235, stream))
        fwd = euler_forward_implicit(np.full(drift.n, 0.3), w, drift)
        back = euler_backward(fwd.values[-1], reversed_noise(w), drift)
        assert np.max(np.abs(back.values - fwd.values[::-1])) < 1e-10


def test_impute_noise_inverts_forward_scheme():
    drift = BilinearDrift()
    grid = TimeGrid(1.0, 32)
    w = sample_brownian(grid, 2, RngSpec(88, 2))
    path = euler_forward_implicit(np.array([0.1, -0.2]), w, drift)
    om = impute_noise(path, drift)
    rebuilt = euler_forward_implicit(path.values[0], om, drift)
    assert np.max(np.abs(rebuilt.values - path.values)) < 1e-10
    assert np.max(np.abs(om.values - w.values)) < 1e-10


# ---------------------------------------------------------------------------
# io round trips


def test_csv_round_trip_exact():
    grid = TimeGrid(1.0, 8)
    path = sample_brownian(grid, 2, RngSpec(13, 1))
    buf = io.StringIO()
    write_path_csv(buf, path)
    buf.seek(0)
    back = read_path_csv(buf)
    assert np.array_equal(back.values, path.values)
    assert back.grid.N == 8 and back.grid.T == pytest.approx(1.0)


def test_every_public_name_resolves():
    assert len(set(dualflow.__all__)) == len(dualflow.__all__)
    for name in dualflow.__all__:
        assert getattr(dualflow, name) is not None, name
