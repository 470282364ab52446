"""Paths, drift fields, and Euler schemes for drifting Brownian motion.

The processes simulated here are n-dimensional diffusions

    dX(t) = -beta(X(t)) dt + dW(t)

whose drift is the gradient of a potential, beta = grad gamma, so that
nu(x) = exp(-2 gamma(x)) is an invariant density.  Two discrete schemes
are provided: an explicit scheme stepping away from a terminal anchor
point, and an implicit scheme stepping forward with the opposite drift
sign.  On a shared grid the two are exact mutual inverses under time
reversal of the driving noise, which downstream modules rely on to
machine precision.

All scheme kernels accept stacked paths: a noise array of shape
(N+1, ..., n) carries arbitrary batch axes between the time axis and the
coordinate axis, and every drift field broadcasts over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import expit, ndtri


class ModelError(ValueError):
    """A model object violates its construction contract."""


class NumericalError(RuntimeError):
    """A scheme or solver left its validity envelope."""


class SchemeDivergence(NumericalError):
    """The explicit scheme reached a non-finite value at a grid step.

    values is the scheme's output; a batch row stays non-finite from its
    own first bad step on, so rows stepped together can be told apart.
    """

    def __init__(self, step: int, dt: float, values: Optional[np.ndarray] = None):
        super().__init__(f"explicit scheme diverged at step {step} (t={step * dt:.6g})")
        self.values = values


# ---------------------------------------------------------------------------
# time grid and sample paths


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N steps; nodes are derived, never stored."""

    T: float
    N: int

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise ModelError(f"horizon must be positive and finite, got T={self.T}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ModelError(f"step count must be an integer >= 1, got N={self.N}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)

    @property
    def first(self) -> int:
        """Index of the node the steps start from; a GridBlock's may be later."""
        return 0

    def block(self, first: int, steps: int) -> "GridBlock":
        """Steps first+1 .. first+steps of the grid, cut off at its end."""
        return GridBlock(self.dt, min(steps, self.N - first), first)


@dataclass(frozen=True)
class GridBlock:
    """A run of N consecutive grid steps after node `first`, with the grid's dt.

    The scheme kernels and brownian_increments take one in place of a
    TimeGrid.  A TimeGrid over the same span would derive its step as
    (N dt)/N, which can round away from the parent grid's dt.
    """

    dt: float
    N: int
    first: int


@dataclass(frozen=True)
class SamplePath:
    """Piecewise-linear path on a TimeGrid; values has shape (N+1, n)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.N + 1:
            raise ModelError(
                f"values must have shape (N+1, n) = ({self.grid.N + 1}, n), got {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)


def flip_first(values: np.ndarray) -> np.ndarray:
    """Negate coordinate 1; used to drive the upper and lower sides of a dual pair."""
    out = np.array(values, dtype=float, copy=True)
    out[..., 0] = -out[..., 0]
    return out


def reversed_noise(noise: SamplePath) -> SamplePath:
    """Noise of the time-reversed path: omega_hat(s) = omega(T-s) - omega(T)."""
    vals = noise.values[::-1] - noise.values[-1]
    return SamplePath(noise.grid, vals.copy())


# ---------------------------------------------------------------------------
# random numbers

_TWO53 = float(2**53)


@dataclass(frozen=True)
class RngSpec:
    """Counter-based generator identity: (seed, stream) fixes every draw.

    The stream is a Philox generator keyed by (seed, stream) mod 2**64
    with its counter at zero.  Streams with the same seed are independent,
    may be generated in any order, and any one of them can be regenerated
    in isolation, so replica loops are embarrassingly parallel; the batch
    layer (stream_increments) rekeys one Philox per stream instead of
    building a generator, and reads the same words.  Normal variates are
    produced by applying the inverse normal CDF to 53-bit uniforms, which
    keeps the draw count deterministic.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([int(self.seed) % 2**64, int(self.stream) % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _raw_uniforms(raw: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Uniforms on (0, 1) from the top 53 bits of raw 64-bit words.

    This is integers(0, 2**53) without the call: for a power-of-two range
    Lemire's bounded draw never rejects and returns exactly raw >> 11.
    raw is shifted in place; out, if given, receives the uniforms.
    """
    raw >>= 11
    return np.divide(np.add(raw, 0.5, out=out), _TWO53, out=out)


def uniforms(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniforms on the open interval (0, 1) from 53-bit integers."""
    return _raw_uniforms(gen.bit_generator.random_raw(shape))


def normals(gen: np.random.Generator, shape) -> np.ndarray:
    return ndtri(uniforms(gen, shape))


def brownian_increments(
    gen: np.random.Generator, grid: Union[TimeGrid, GridBlock], shape=()
) -> np.ndarray:
    """Standard Brownian increments over the grid steps, shape (N, *shape).

    Drawing a grid's blocks in order gives the same values as one draw.
    """
    return normals(gen, (grid.N, *shape)) * math.sqrt(grid.dt)


def partial_sums(increments: np.ndarray) -> np.ndarray:
    """Node values of a path that starts at zero and moves by the increments."""
    vals = np.zeros((increments.shape[0] + 1,) + increments.shape[1:])
    np.cumsum(increments, axis=0, out=vals[1:])
    return vals


def sample_brownian(grid: TimeGrid, dim: int, rng: RngSpec) -> SamplePath:
    """Standard Brownian path on the grid; value at t=0 is the origin."""
    return SamplePath(grid, partial_sums(brownian_increments(rng.generator(), grid, (dim,))))


# words converted to normals at once, which bounds stream_increments'
# temporaries to a few MB whatever the batch size
_CONVERT_WORDS = 2**19


def stream_increments(
    grid: TimeGrid, dim: int, seed: int, streams: Sequence[int], step_uniforms: bool = False
):
    """Per-stream Brownian increments, shape (N, m, dim), and crossing uniforms.

    Stream i draws from RngSpec(seed, streams[i]) alone, so each column is
    a deterministic function of its id, bit for bit the draws of that
    spec's generator.  With step_uniforms, one uniform per step, shape
    (N, m), is drawn from the same stream after the increments; otherwise
    the second result is None.

    Both results are transposed views over per-stream rows: stream i's
    draws fill row i of (m, N, dim) and (m, N) storage contiguously.  The
    raw words are converted a bounded block of streams at a time, so the
    only memory that grows with m is the result itself.
    """
    m = len(streams)
    n_inc = grid.N * dim
    width = n_inc + (grid.N if step_uniforms else 0)
    inc = np.empty((m, grid.N, dim))
    uni = np.empty((m, grid.N)) if step_uniforms else None
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    state = bitgen.state
    key = state["state"]["key"]
    key[0] = int(seed) % 2**64
    scale = math.sqrt(grid.dt)
    block = max(1, _CONVERT_WORDS // width)
    raw = np.empty((min(block, m), width), dtype=np.uint64)
    buf = np.empty(raw.shape)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        for r, s in enumerate(streams[lo:hi]):
            # a fresh key with a zero counter is the stream's generator state
            key[1] = int(s) % 2**64
            bitgen.state = state
            raw[r] = bitgen.random_raw(width)
        u = _raw_uniforms(raw[: hi - lo], out=buf[: hi - lo])
        rows = inc[lo:hi].reshape(hi - lo, n_inc)
        ndtri(u[:, :n_inc], out=rows)
        rows *= scale
        if step_uniforms:
            uni[lo:hi] = u[:, n_inc:]
    return inc.transpose(1, 0, 2), (uni.T if step_uniforms else None)


def sample_brownian_batch(
    grid: TimeGrid, dim: int, seed: int, streams: Sequence[int]
) -> np.ndarray:
    """Stack per-stream Brownian paths into shape (N+1, m, n).

    Column i is bit-identical to sample_brownian(grid, dim, RngSpec(seed, streams[i])).
    """
    return partial_sums(stream_increments(grid, dim, seed, streams)[0])


# ---------------------------------------------------------------------------
# drift fields


# the fixed-point solve stops at this residual, or fails after _MAX_ITER iterations
_TOL = 1e-13
_MAX_ITER = 100


class DriftField:
    """Drift beta with a Lipschitz bound.

    Each family also defines gamma, its potential with beta = grad gamma;
    a ProductDrift's gamma is None unless it was given its potentials.
    The implicit step has two entry points: solve_implicit on arrays of
    any row count, and step_floats on one row of Python floats, which the
    per-step loops call.  A family with a closed-form solve overrides
    both, to the same bits.
    """

    n: int
    k_lipschitz: float

    def beta(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def orthogonal_to(self, normal: np.ndarray) -> bool:
        """True only if beta has no component along the normal anywhere."""
        return False

    def solve_implicit(self, prev: np.ndarray, dnoise: np.ndarray, dt: float) -> np.ndarray:
        """Solve w = c + beta(w) dt, with c = prev + dnoise, by damped
        fixed-point iteration from the explicit guess c + beta(prev) dt, to
        residual _TOL.

        The step-size precondition makes the map a contraction, so plain
        iteration converges geometrically; the damping only engages if the
        residual ever fails to shrink.  ConstantDrift and BilinearDrift
        override this with their closed-form solves.
        """
        beta, peak = self.beta, np.maximum.reduce
        c = prev + dnoise
        w = c + beta(prev) * dt
        alpha = 1.0
        last = np.inf
        for _ in range(_MAX_ITER):
            target = c + beta(w) * dt
            diff = target - w
            res = float(peak(abs(diff), axis=None))
            if res <= _TOL:
                return target
            if res >= last:
                alpha = 0.5 * alpha
            last = res
            # 1.0 * diff is diff, so the undamped update skips the product
            w = w + diff if alpha == 1.0 else w + alpha * diff
        raise NumericalError(f"implicit step failed to reach residual {_TOL:.1e} (last {last:.3e})")

    def step_floats(self, prev: list, dnoise: list, dt: float) -> list:
        """implicit_step on one row of Python floats, returned as a list.

        This generic form goes through implicit_step, with its bits and
        its failures; ConstantDrift and BilinearDrift override it with
        their closed forms in numpy's order of operations.
        """
        return implicit_step(prev, dnoise, dt, self).tolist()


_NOT_FINITE = "implicit step failed: the closed-form solve is not finite"


def _finite_solve(w: np.ndarray) -> np.ndarray:
    """A closed-form implicit solve, refused when it is not finite."""
    if not np.isfinite(w).all():
        raise NumericalError(_NOT_FINITE)
    return w


def _pairs(a: list, b: list):
    """The entries of two rows paired as numpy broadcasts them: a
    one-entry row repeats, and other unequal lengths raise ValueError."""
    if len(a) == len(b):
        return zip(a, b)
    if len(b) == 1:
        return zip(a, b * len(a))
    if len(a) == 1:
        return zip(a * len(b), b)
    raise ValueError(f"operands could not be broadcast together with shapes ({len(a)},) ({len(b)},)")


@dataclass(frozen=True)
class ConstantDrift(DriftField):
    """beta(x) = mu with potential gamma(x) = <mu, x>."""

    mu: np.ndarray

    def __post_init__(self) -> None:
        m = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if m.ndim != 1 or not np.all(np.isfinite(m)):
            raise ModelError(f"mu must be a finite vector, got {self.mu}")
        object.__setattr__(self, "mu", m)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def k_lipschitz(self) -> float:
        return 0.0

    def beta(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.mu, x.shape).copy()

    def gamma(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.mu

    def solve_implicit(self, prev, dnoise, dt) -> np.ndarray:
        """w = (prev + dnoise) + mu dt: the bits of the fixed-point loop,
        with no iteration.  An overflow is refused as not finite, with
        floating-point warnings off."""
        with np.errstate(all="ignore"):
            w = prev + dnoise + self.mu * dt
        return _finite_solve(w)

    def step_floats(self, prev, dnoise, dt) -> list:
        """solve_implicit's w = (prev + dnoise) + mu dt on Python floats."""
        dt = float(dt)
        c = [p + d for p, d in _pairs(prev, dnoise)]
        w = [ci + m * dt for ci, m in _pairs(c, self.mu.tolist())]
        if not all(map(math.isfinite, w)):
            raise NumericalError(_NOT_FINITE)
        return w


@dataclass(frozen=True)
class BilinearDrift(DriftField):
    """Two-dimensional field beta(x) = (x_2, x_1), the gradient of x_1 x_2.

    The drift is globally Lipschitz (constant 1) but unbounded, and
    nu = exp(-2 x_1 x_2) is not integrable; simulations in this family are
    restricted to finite horizons, where pathwise bounds still hold.
    """

    n: int = 2

    @property
    def k_lipschitz(self) -> float:
        return 1.0

    def beta(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 2:
            raise ModelError(f"bilinear drift needs 2 coordinates, got {x.shape[-1]}")
        return x[..., ::-1].copy()

    def gamma(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x[..., 0] * x[..., 1]

    def solve_implicit(self, prev, dnoise, dt) -> np.ndarray:
        """w = c + dt (w_2, w_1), c = prev + dnoise, is linear:
        w = (c + dt (c_2, c_1)) / (1 - dt^2).

        Elementwise, so a row's bits do not depend on the rows beside it.
        An overflow is refused as not finite, with floating-point warnings
        off.
        """
        with np.errstate(all="ignore"):
            c = prev + dnoise
            if c.shape[-1] != 2:
                raise ModelError(f"bilinear drift needs 2 coordinates, got {c.shape[-1]}")
            w = (c + dt * c[..., ::-1]) / (1.0 - dt * dt)
        return _finite_solve(w)

    def step_floats(self, prev, dnoise, dt) -> list:
        """solve_implicit on Python floats, c = prev + dnoise first; a zero
        1 - dt^2 leaves no finite solve, as numpy's division does."""
        dt = float(dt)
        c = [p + d for p, d in _pairs(prev, dnoise)]
        if len(c) != 2:
            raise ModelError(f"bilinear drift needs 2 coordinates, got {len(c)}")
        c1, c2 = c
        det = 1.0 - dt * dt
        if det == 0.0:
            raise NumericalError(_NOT_FINITE)
        w1, w2 = (c1 + dt * c2) / det, (c2 + dt * c1) / det
        if not (math.isfinite(w1) and math.isfinite(w2)):
            raise NumericalError(_NOT_FINITE)
        return [w1, w2]


@dataclass(frozen=True)
class LogisticDrift(DriftField):
    """Gradient of the negative half log-likelihood of logistic data.

    With rows a_j of `inputs` and labels b_j in {0, 1},
        gamma(x) = -1/2 sum_j [b_j log S(<a_j, x>) + (1-b_j) log(1 - S(<a_j, x>))]
        beta(x)  = 1/2 sum_j a_j (S(<a_j, x>) - b_j)
    where S is the standard logistic function.  beta takes values in the
    span of the inputs, and its Lipschitz constant is bounded by
    sum_j ||a_j||^2 / 4.
    """

    inputs: np.ndarray
    labels: np.ndarray
    # duals.plane_density's result per normal bytes, built once
    _planes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # orthogonal_to's answer per normal bytes
    _flat: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        b = np.atleast_1d(np.asarray(self.labels, dtype=float))
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise ModelError("inputs must be (M, n) with matching labels (M,)")
        if not np.all(np.isfinite(a)):
            raise ModelError("inputs must be finite")
        if not np.all((b == 0.0) | (b == 1.0)):
            raise ModelError(f"labels must be 0 or 1, got {sorted(set(b.tolist()))}")
        object.__setattr__(self, "inputs", a)
        object.__setattr__(self, "labels", b)

    @property
    def n(self) -> int:
        return self.inputs.shape[1]

    @property
    def k_lipschitz(self) -> float:
        return float(np.sum(self.inputs**2)) / 4.0

    def beta(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = x @ self.inputs.T
        return 0.5 * (expit(z) - self.labels) @ self.inputs

    def orthogonal_to(self, normal: np.ndarray) -> bool:
        """beta combines the input rows with weights in [-1/2, 1/2], so it
        has no component along a normal whose products with the rows sum
        to at most 1e-8 in absolute value.  Cached per normal."""
        key = np.asarray(normal, dtype=float).tobytes()
        if key not in self._flat:
            self._flat[key] = float(np.abs(self.inputs @ normal).sum()) <= 1e-8
        return self._flat[key]

    def gamma(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = x @ self.inputs.T
        # -log S(z) = log(1 + exp(-z)), evaluated stably
        log_s = -np.logaddexp(0.0, -z)
        log_1ms = -np.logaddexp(0.0, z)
        return -0.5 * (self.labels * log_s + (1.0 - self.labels) * log_1ms).sum(axis=-1)


@dataclass(frozen=True)
class ProductDrift(DriftField):
    """Separable field: coordinate 1 depends on x_1 only, the rest on the rest.

    beta1 and (optionally) gamma1 are vectorized scalar callables.  beta_rest
    maps the remaining coordinates to their drift; omit it for n = 1.
    """

    n: int
    beta1: Callable[[np.ndarray], np.ndarray]
    k_lipschitz: float
    gamma1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    beta_rest: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gamma_rest: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelError("dimension must be >= 1")
        if self.n > 1 and self.beta_rest is None:
            raise ModelError("beta_rest is required when n > 1")
        probe = float(np.asarray(self.beta1(np.zeros(()))))
        if not np.isfinite(probe):
            raise ModelError("beta1 is not finite at 0")

    def beta(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = self.beta1(x[..., 0])
        if self.n > 1:
            out[..., 1:] = self.beta_rest(x[..., 1:])
        return out

    def gamma(self, x: np.ndarray) -> Optional[np.ndarray]:
        if self.gamma1 is None:
            return None
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.gamma1(x[..., 0]), dtype=float)
        if self.n > 1:
            if self.gamma_rest is None:
                return None
            g = g + self.gamma_rest(x[..., 1:])
        return g


# ---------------------------------------------------------------------------
# scheme kernels


def explicit_step(z: np.ndarray, u: float, dnoise: np.ndarray, drift: DriftField) -> np.ndarray:
    """One explicit step away from the anchor: z - beta(z) u + increment."""
    z = np.asarray(z, dtype=float)
    return z - drift.beta(z) * u + np.asarray(dnoise, dtype=float)


def _check_step_size(grid: TimeGrid, drift: DriftField) -> None:
    if drift.k_lipschitz > 0.0 and grid.dt >= 0.5 / drift.k_lipschitz:
        raise NumericalError(
            f"dt={grid.dt:.3g} too large for Lipschitz bound {drift.k_lipschitz:.3g}; "
            f"need dt < {0.5 / drift.k_lipschitz:.3g}"
        )


def implicit_step(
    prev: np.ndarray,
    dnoise: np.ndarray,
    dt: float,
    drift: DriftField,
) -> np.ndarray:
    """Solve w = prev + beta(w) dt + increment.

    The drift chooses the method (DriftField.solve_implicit): a closed form
    for constant and bilinear drifts, damped fixed-point iteration to
    residual _TOL for every other drift.  The per-step loops call
    DriftField.step_floats instead, which gives one row's bits on Python
    floats.
    """
    return drift.solve_implicit(np.asarray(prev, dtype=float), np.asarray(dnoise, dtype=float), dt)


def euler_backward_values(
    grid: Union[TimeGrid, GridBlock],
    x_start: np.ndarray,
    noise_values: np.ndarray,
    drift: DriftField,
) -> np.ndarray:
    """Explicit scheme from an anchor point, batched over middle axes.

    Each step is written in place into its row, with the operations of
    cur - beta(cur) dt + increment in that order.  Finiteness is checked
    once per call, after the last step: a divergence raises
    SchemeDivergence, which names the first non-finite step, by index and
    time on the whole grid when grid is a GridBlock (whose run starts at
    x_start), and carries the output.  The steps after it run on
    non-finite values first, with floating-point warnings off, so the
    divergence is reported by the check alone.
    """
    dt = grid.dt
    beta = drift.beta
    mul, sub, add = np.multiply, np.subtract, np.add
    dnoise = np.diff(noise_values, axis=0)
    out = np.empty_like(noise_values)
    out[0] = x_start
    with np.errstate(all="ignore"):
        for cur, row, dn in zip(out[: grid.N], out[1 : grid.N + 1], dnoise):
            mul(beta(cur), dt, out=row)
            sub(cur, row, out=row)
            add(row, dn, out=row)
    finite = np.isfinite(out[1 : grid.N + 1])
    if not finite.all():
        step = grid.first + 1 + int(np.argmin(finite.reshape(grid.N, -1).all(axis=1)))
        raise SchemeDivergence(step, dt, out)
    return out


def euler_backward(x_start: np.ndarray, noise: SamplePath, drift: DriftField) -> SamplePath:
    """Explicit Euler path of dX = -beta(X) dt + dW on the noise grid."""
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x_start, dtype=float)), (noise.dim,))
    vals = euler_backward_values(noise.grid, x0, noise.values, drift)
    return SamplePath(noise.grid, vals)


def euler_forward_implicit_values(
    grid: TimeGrid, x_start: np.ndarray, noise_values: np.ndarray, drift: DriftField
) -> np.ndarray:
    """Implicit scheme with drift +beta on one path's (N+1, n) node values;
    exact inverse of the explicit one.

    The steps run on Python floats through DriftField.step_floats, with
    implicit_step's bits.  A failed solve names the step index and time
    on the grid.
    """
    _check_step_size(grid, drift)
    dt = grid.dt
    step = drift.step_floats
    out = np.empty_like(noise_values)
    out[0] = x_start
    row = out[0].tolist()
    rows = []
    try:
        for j, dn in enumerate(np.diff(noise_values, axis=0).tolist(), 1):
            row = step(row, dn, dt)
            rows.append(row)
    except NumericalError as err:
        raise NumericalError(f"implicit scheme failed at step {j} (t={j * dt:.6g}): {err}") from err
    out[1:] = rows
    return out


def euler_forward_implicit(x_start: np.ndarray, noise: SamplePath, drift: DriftField) -> SamplePath:
    """Implicit Euler path of dX = beta(X) dt + dW on the noise grid.

    Each step solves X(t_j) = X(t_{j-1}) + beta(X(t_j)) dt + dW_j, so a path
    produced by the explicit scheme from the terminal value with reversed
    noise is recovered node by node to solver precision.
    """
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x_start, dtype=float)), (noise.dim,))
    vals = euler_forward_implicit_values(noise.grid, x0, noise.values, drift)
    return SamplePath(noise.grid, vals)


# ---------------------------------------------------------------------------
# serialization


# rows formatted per write, which bounds the text and floats held at once
_BLOCK = 256


def _write_rows(fp, fmt, columns, tokens=()) -> None:
    """Write the rows of the stacked columns through the %-template fmt, a
    block of rows at a time, replacing each (old, new) of tokens in the
    block's text."""
    for lo in range(0, len(columns[0]), _BLOCK):
        rows = np.column_stack([c[lo:lo + _BLOCK] for c in columns]).tolist()
        text = "".join([fmt % tuple(row) for row in rows])
        for old, new in tokens:
            text = text.replace(old, new)
        fp.write(text)


def _write_csv(fp, cols, columns, flags=()) -> None:
    """Write the header cols, then the rows of the stacked columns: a column
    named in flags as 0 or 1, every other value as %.17g, which is
    format(v, ".17g") and round-trips a float exactly."""
    fp.write(",".join(cols) + "\n")
    _write_rows(fp, ",".join("%d" if c in flags else "%.17g" for c in cols) + "\n", columns)


def write_path_csv(fp, path: SamplePath) -> None:
    """Columns t, x_1..x_n with round-trip-exact float formatting."""
    cols = ["t"] + [f"x_{i + 1}" for i in range(path.dim)]
    _write_csv(fp, cols, [path.grid.times, path.values])
