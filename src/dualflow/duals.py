"""Dual states, duality indicators, conditional laws, and identity checks.

A dual state carves out a region of path space: an interval on the line, a
strip between two parallel lines rotating with a direction vector, or a
slab between two parallel hyperplanes.  The indicator of that region is in
Monte Carlo duality with the primal diffusion: the chance that the primal,
run for time T, lands in the fixed region equals the chance that the
region, evolved for time T under its own stochastic flow with absorption
at degeneracy, still covers the primal's fixed starting point.

The region's invariant mass nu_mass plays the role of a harmonic function
for the absorbed region dynamics; dividing it out turns the absorbed
dynamics into a conservative process whose drift gains a log-derivative
term, and the region-conditional law sample_conditional ties the two
levels together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import erfi

from .core import (
    ConstantDrift,
    DriftField,
    LogisticDrift,
    ModelError,
    NumericalError,
    ProductDrift,
    RngSpec,
    TimeGrid,
    flip_first,
    implicit_step,
    normals,
    stream_increments,
    uniforms,
)
from .surfaces import Surface, _check_direction, _check_unit_normal, _normal_of, _rotate

_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-10, limit=200)


# ---------------------------------------------------------------------------
# dual states


def face_gap(normal: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Separation normal . (upper - lower) along the last axis.

    normal is one vector, or one per row of upper - lower (a rotating
    normal read along a path).
    """
    diff = np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float)
    if np.ndim(normal) == 1:
        return diff @ normal
    return np.sum(normal * diff, axis=-1)


def covers(normal: np.ndarray, z: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Indicator of the half-space pair {n . (x - z) > 0, n . (y - x) >= 0}."""
    return (face_gap(normal, x, y) >= 0.0) & (face_gap(normal, z, x) > 0.0)


def _check_finite(z, y) -> None:
    """Refuse a non-finite face anchor, which every later step would carry."""
    if not (np.isfinite(z).all() and np.isfinite(y).all()):
        raise ModelError(f"z and y must be finite, got z={z}, y={y}")


class _FacePair:
    """Geometry shared by the dual regions.

    Every region is the half-space pair between a z-face and a y-face with
    a common normal: e_1 for an interval, (u_2, -u_1) for a strip, d for a
    slab.  The gap is the y-face's height above the z-face along it.
    """

    @property
    def n(self) -> int:
        return len(self.normal)

    def gap(self) -> float:
        return float(face_gap(self.normal, np.atleast_1d(self.z), np.atleast_1d(self.y)))

    def contains(self, x) -> bool:
        if self.absorbed:
            return False
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(covers(self.normal, self.z, self.y, x))

    def upper_face(self) -> Surface:
        """The hypograph below the y-face, with the region's fixed normal."""
        return Surface(self.y, normal=self.normal)


@dataclass(frozen=True)
class IntervalState(_FacePair):
    """Half-open interval (z, y] on the line; degenerate z == y only as an
    entrance start, from which the pair separates immediately."""

    family = "interval"
    z: float
    y: float
    absorbed: bool = False
    zeta: Optional[float] = None

    def __post_init__(self) -> None:
        # endpoints are plain floats; one-element arrays are unwrapped
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float).item())
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).item())
        _check_finite(self.z, self.y)
        if not self.absorbed and self.z > self.y:
            raise ModelError(f"need z <= y, got z={self.z}, y={self.y}")

    @property
    def normal(self) -> np.ndarray:
        return np.ones(1)


@dataclass(frozen=True)
class WedgeState(_FacePair):
    """Strip between two parallel lines with direction u, |u_1| < u_2.

    The strip normal is [u_2, -u_1]; the y-line must lie on or above the
    z-line along that normal.  Mass and conditional-law operations are
    restricted to the cone 0 < u_1 < u_2.
    """

    family = "wedge"
    u: np.ndarray
    z: np.ndarray
    y: np.ndarray
    absorbed: bool = False
    zeta: Optional[float] = None

    def __post_init__(self) -> None:
        u = _check_direction(self.u)
        z = np.asarray(self.z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if z.shape != (2,) or y.shape != (2,):
            raise ModelError("z and y must be 2-vectors")
        _check_finite(z, y)
        if not self.absorbed and self.normal_of(u) @ (y - z) < 0.0:
            raise ModelError("y-line must not lie below the z-line")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    normal_of = staticmethod(_normal_of)
    rotate = staticmethod(_rotate)

    @property
    def normal(self) -> np.ndarray:
        return _normal_of(self.u)

    def upper_face(self) -> Surface:
        """The hypograph below the y-line, rotating with the direction u."""
        return Surface(self.y, u=self.u)


@dataclass(frozen=True)
class SlabState(_FacePair):
    """Region between two parallel hyperplanes with shared unit normal."""

    family = "slab"
    z: np.ndarray
    y: np.ndarray
    normal: np.ndarray
    absorbed: bool = False
    zeta: Optional[float] = None

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        d = _check_unit_normal(self.normal)
        if z.shape != d.shape or y.shape != d.shape:
            raise ModelError("z, y, normal must be vectors of equal length")
        _check_finite(z, y)
        if not self.absorbed and d @ (y - z) < 0.0:
            raise ModelError("y-face must not lie below the z-face")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "normal", d)


DualState = Union[IntervalState, WedgeState, SlabState]


def contains_batch(state: DualState, x: np.ndarray) -> np.ndarray:
    """Vectorized region indicator over rows of x."""
    x = np.asarray(x, dtype=float).reshape(-1, state.n)
    if state.absorbed:
        return np.zeros(x.shape[0], dtype=bool)
    return covers(state.normal, state.z, state.y, x)


# ---------------------------------------------------------------------------
# invariant mass of a dual region


def _interval_mass(z, y, mu: float):
    """Mass of exp(-2 mu x) over (z, y]; stable in mu near zero."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - z
    if mu == 0.0:
        return d
    return np.exp(-2.0 * mu * z) * (-np.expm1(-2.0 * mu * d)) / (2.0 * mu)


def _wedge_bounds(state: WedgeState):
    """Normal coordinates of the two lines in the exp(eta^2) frame.

    The frame needs a direction in the entrance cone 0 < u_1 < u_2, and
    coordinates beyond 25 would overflow the weight.
    """
    u, z, y = state.u, state.z, state.y
    if not 0.0 < u[0] < u[1]:
        raise ModelError(f"direction outside the entrance cone: u={u.tolist()}")
    root = np.sqrt(2.0 * u[0] * u[1])
    a = (u[1] * z[0] - u[0] * z[1]) / root
    b = (u[1] * y[0] - u[0] * y[1]) / root
    if max(abs(a), abs(b)) > 25.0:
        raise ModelError(
            f"normal coordinates {a:.3g}, {b:.3g} too large for the exp(eta^2) weight"
        )
    return a, b


def nu_mass(state: DualState, drift: DriftField) -> float:
    """Invariant mass assigned to the dual region; harmonic for the
    absorbed region dynamics.

    For an interval under constant drift the mass is in closed form; a
    general one-dimensional potential is integrated adaptively.  For a
    wedge the mass reduces to a one-dimensional integral of exp(eta^2)
    between the normal coordinates of the two lines (direction restricted
    to the cone 0 < u_1 < u_2, arguments capped at 25 to stay inside
    floating-point range).  For a slab it is the face separation along the
    normal.
    """
    if state.absorbed:
        raise ModelError("absorbed state has no region")
    if isinstance(state, IntervalState):
        if isinstance(drift, ConstantDrift):
            return float(_interval_mass(state.z, state.y, float(drift.mu[0])))
        if isinstance(drift, ProductDrift) and drift.gamma1 is not None:
            val, _ = quad(
                lambda x: math.exp(-2.0 * float(drift.gamma1(np.asarray(x)))),
                state.z,
                state.y,
                **_QUAD_OPTS,
            )
            return float(val)
        raise ModelError("interval mass needs a constant drift or a 1-d potential")
    if isinstance(state, WedgeState):
        a, b = _wedge_bounds(state)
        val, _ = quad(lambda e: math.exp(e * e), a, b, **_QUAD_OPTS)
        return float(math.sqrt(2.0 * math.pi) * val)
    if isinstance(state, SlabState):
        return state.gap()
    raise ModelError(f"unknown dual state {type(state)}")


# ---------------------------------------------------------------------------
# conditional law of the primal point given the dual region


@dataclass(frozen=True)
class ConditionalSample:
    """A draw from a region-conditional law and its normalized log-density.

    log_density_fn computes the log-density at the point; log_density
    calls it when first read and keeps the value.  A slab's needs a
    quadrature of the in-plane mass, which a caller that takes only the
    point never pays for.
    """

    point: np.ndarray
    log_density_fn: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def log_density(self) -> float:
        return self.log_density_fn()


def _truncated_exp_inverse(u, z, y, mu: float):
    """Inverse CDF of the density proportional to exp(-2 mu x) on (z, y]."""
    d = y - z
    if mu == 0.0:
        return z + u * d
    return z - np.log1p(u * np.expm1(-2.0 * mu * d)) / (2.0 * mu)


def truncated_exp_mean(z: float, y: float, mu: float) -> float:
    """Mean of the density proportional to exp(-2 mu x) on (z, y]."""
    d = y - z
    q = 2.0 * mu
    if abs(q * d) < 1e-8:
        return z + d / 2.0 - q * d * d / 12.0
    return z + 1.0 / q - d / math.expm1(q * d)


def _interval_table_sampler(drift: ProductDrift, z: float, y: float, points: int = 10000):
    """Numeric inverse-CDF table for a general one-dimensional potential."""
    xs = np.linspace(z, y, points + 1)
    w = np.exp(-2.0 * np.asarray(drift.gamma1(xs), dtype=float))
    mids = 0.5 * (w[1:] + w[:-1]) * np.diff(xs)
    cdf = np.concatenate(([0.0], np.cumsum(mids)))
    mass = cdf[-1]
    return xs, cdf / mass, mass


def sample_conditional(
    state: DualState, drift: DriftField, rng: Union[RngSpec, np.random.Generator]
) -> ConditionalSample:
    """Draw the primal point from the invariant density restricted to the region.

    Interval with constant drift: exact inverse CDF of a truncated
    exponential.  Interval with a general one-dimensional potential:
    numeric inverse CDF on a 10^4-point table.  Wedge: the region in the
    frame (xi along u, eta along the normal) factorizes as an exp(eta^2)
    weight on a bounded eta-interval times an exact Gaussian in xi; eta is
    drawn by rejection from a uniform proposal with the endpoint-dominated
    weight and xi from the matched conditional Gaussian.  Slab: a uniform
    offset on (0, h] along the normal from the z-face, times the in-plane
    invariant density drawn by rejection from a Gaussian centered at its
    mode (see _plane_density_sampler).  The reported log-density is
    normalized to integrate to one over the region; it is computed when
    the sample's log_density is first read, not with the draw.
    """
    if state.absorbed:
        raise ModelError("absorbed state has no region")
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    if isinstance(state, IntervalState):
        z, y = state.z, state.y
        if isinstance(drift, ConstantDrift):
            mu = float(drift.mu[0])
            u = float(uniforms(gen, ()))
            x = float(_truncated_exp_inverse(u, z, y, mu))
            return ConditionalSample(
                np.array([x]), lambda: math.log(math.exp(-2.0 * mu * x) / _interval_mass(z, y, mu)))
        if isinstance(drift, ProductDrift) and drift.gamma1 is not None:
            xs, cdf, mass = _interval_table_sampler(drift, z, y)
            u = float(uniforms(gen, ()))
            x = float(np.interp(u, cdf, xs))
            return ConditionalSample(
                np.array([x]), lambda: -2.0 * float(drift.gamma1(np.asarray(x))) - math.log(mass))
        raise ModelError("interval sampling needs a constant drift or a 1-d potential")
    if isinstance(state, WedgeState):
        pts, logd = _wedge_conditional_batch(state, gen, 1)
        return ConditionalSample(pts[0], lambda: float(logd[0]))
    if isinstance(state, SlabState):
        if not isinstance(drift, LogisticDrift):
            raise ModelError("slab sampling requires the logistic drift family")
        pts, log_density = _slab_conditional_batch(state, drift, gen, 1)
        return ConditionalSample(pts[0], lambda: float(log_density()[0]))
    raise ModelError(f"unknown dual state {type(state)}")


def _wedge_conditional_batch(state: WedgeState, gen, count: int, max_rounds: int = 10000):
    wz, wy = _wedge_bounds(state)
    u = state.u
    norm2 = float(u @ u)
    norm = math.sqrt(norm2)
    uhat = u / norm
    nhat = state.normal / norm
    wmax2 = max(wz * wz, wy * wy)
    # conditional Gaussian in xi given eta: mean -c*eta, sd from the tilt
    c = (u[1] ** 2 - u[0] ** 2) / (2.0 * u[0] * u[1])
    sd_xi = math.sqrt(norm2 / (4.0 * u[0] * u[1]))
    eta_scale = math.sqrt(2.0 * u[0] * u[1]) / norm

    def propose(batch):
        w = wz + (wy - wz) * uniforms(gen, batch)
        return w, np.log(uniforms(gen, batch)) <= w * w - wmax2

    out_w = _rejection_fill(
        propose, count, lambda: f"wedge sampler, bounds ({wz:.3g}, {wy:.3g})", max_rounds
    )
    eta = out_w * eta_scale
    xi = -c * eta + sd_xi * normals(gen, count)
    pts = xi[:, None] * uhat + eta[:, None] * nhat
    log_mass = math.log(math.sqrt(math.pi)) + _log_erfi_diff(wz, wy)
    logd = -2.0 * pts[:, 0] * pts[:, 1] - log_mass
    return pts, logd


def _log_erfi_diff(a: float, b: float) -> float:
    val = float(erfi(b) - erfi(a)) * math.sqrt(math.pi) / 2.0
    return math.log(val)


# ---------------------------------------------------------------------------
# the in-plane density behind a slab


@dataclass(frozen=True)
class PlaneDensity:
    """Invariant density of a logistic drift restricted to its input span.

    basis columns are an orthonormal frame of the span; the density in
    those coordinates is exp(-2 gamma) with the convex potential gamma.
    The mode is found by damped Newton and the curvature there shapes a
    Student-t proposal; the potential decays at least linearly far out, so
    the polynomial t tails dominate it and the acceptance ratio peaks at a
    finite radius the envelope probes can bracket.
    """

    drift: LogisticDrift
    basis: np.ndarray
    mode: np.ndarray
    hessian: np.ndarray
    chol_cov: np.ndarray
    log_envelope: float
    scale: float = 1.6
    dof: float = 4.0
    # log_proposal's whitening map and normalizing constant, fixed per density
    inv_chol_t: np.ndarray = field(init=False, repr=False, compare=False)
    log_proposal_const: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.basis.shape[1]
        nu = self.dof
        logdet = 2.0 * float(np.sum(np.log(np.diag(self.chol_cov))))
        const = (
            math.lgamma(0.5 * (nu + k))
            - math.lgamma(0.5 * nu)
            - 0.5 * k * math.log(nu * math.pi)
            - 0.5 * logdet
        )
        object.__setattr__(self, "inv_chol_t", np.linalg.inv(self.chol_cov).T)
        object.__setattr__(self, "log_proposal_const", const)

    def log_target(self, w: np.ndarray) -> np.ndarray:
        x = w @ self.basis.T
        return -2.0 * np.asarray(self.drift.gamma(x), dtype=float)

    def log_proposal(self, w: np.ndarray) -> np.ndarray:
        diff = (w - self.mode) @ self.inv_chol_t
        k = self.basis.shape[1]
        nu = self.dof
        q = np.sum(diff**2, axis=-1)
        return self.log_proposal_const - 0.5 * (nu + k) * np.log1p(q / nu)


def _plane_curvature(drift: LogisticDrift, basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hessian of 2*gamma along the span; this is the curvature of -log density."""
    z = (basis @ w) @ drift.inputs.T
    s = 1.0 / (1.0 + np.exp(-z))
    sw = s * (1.0 - s)
    hess = basis.T @ (drift.inputs.T * sw) @ drift.inputs @ basis
    return hess + 1e-12 * np.eye(basis.shape[1])


def plane_density(drift: LogisticDrift, normal: np.ndarray, scale: float = 1.6) -> PlaneDensity:
    """The in-plane density on the orthogonal complement of the normal.

    It is built once per (drift, normal, scale) and kept on the drift, so
    every later draw reuses the mode search, factorisation and envelope
    probes.  Its arrays are read-only; a sampler that raises the envelope
    keeps the raise inside its own call.
    """
    key = (np.asarray(normal, dtype=float).tobytes(), scale)
    pd = drift._planes.get(key)
    if pd is None:
        pd = drift._planes[key] = _build_plane_density(drift, normal, scale)
    return pd


def _build_plane_density(drift: LogisticDrift, normal: np.ndarray, scale: float) -> PlaneDensity:
    basis = plane_basis(drift, normal)
    k = basis.shape[1]
    w = np.zeros(k)
    for _ in range(100):
        grad = 2.0 * basis.T @ drift.beta(basis @ w)
        if float(np.linalg.norm(grad)) < 1e-12:
            break
        step = np.linalg.solve(_plane_curvature(drift, basis, w), grad)
        # halve until the convex potential decreases
        t = 1.0
        g0 = float(drift.gamma(basis @ w))
        while t > 1e-8 and float(drift.gamma(basis @ (w - t * step))) > g0:
            t *= 0.5
        w = w - t * step
    hess = _plane_curvature(drift, basis, w)
    cov = scale**2 * np.linalg.inv(hess)
    chol = np.linalg.cholesky(cov)
    pd = PlaneDensity(drift, basis, w, hess, chol, 0.0, scale)
    # probe the acceptance ratio along eigen-directions; against the t
    # proposal it peaks at a finite radius, and the sampler re-raises the
    # envelope and discards progress if a draw ever lands above it
    probes = [w]
    evals, evecs = np.linalg.eigh(cov)
    for r in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        for i in range(k):
            step_v = evecs[:, i] * math.sqrt(evals[i]) * r
            probes.append(w + step_v)
            probes.append(w - step_v)
    probes = np.asarray(probes)
    ratios = pd.log_target(probes) - pd.log_proposal(probes)
    object.__setattr__(pd, "log_envelope", float(np.max(ratios)) + math.log(1.5))
    for a in (pd.basis, pd.mode, pd.hessian, pd.chol_cov, pd.inv_chol_t):
        a.flags.writeable = False
    return pd


def _plane_density_sampler(pd: PlaneDensity, gen, count: int, max_rounds: int = 10000):
    if pd.dof != 4.0:
        raise ModelError("the rejection sampler draws its mixing variable for dof 4 only")
    k = pd.basis.shape[1]
    env = pd.log_envelope

    def propose(batch):
        nonlocal env
        z = normals(gen, (batch, k))
        # chi-square with dof 4, via two unit exponentials per draw
        g = -(np.log(uniforms(gen, batch)) + np.log(uniforms(gen, batch))) / 2.0
        w = pd.mode + (z @ pd.chol_cov.T) / np.sqrt(g)[:, None]
        logr = pd.log_target(w) - pd.log_proposal(w)
        worst = float(np.max(logr))
        if worst > env:
            # envelope violation: raise it for the rest of this call and
            # void the batch; the shared density keeps its own envelope
            env = worst + math.log(1.5)
            return None
        return w, np.log(uniforms(gen, batch)) <= logr - env

    return _rejection_fill(propose, count, lambda: f"in-plane sampler, mode {pd.mode}",
                           max_rounds)


def _rejection_fill(propose, count: int, what: Callable[[], str], max_rounds: int) -> np.ndarray:
    """First count accepted candidates of propose(batch) -> (candidates, accept).

    A proposal of None voids the batch and every earlier acceptance, so
    accepted draws always came from a validated envelope.  what() labels
    the sampler in a failure message; it runs only when one is raised.
    """
    out = None
    filled = drawn = accepted = 0
    for _ in range(max_rounds):
        batch = max(64, 2 * (count - filled))
        proposal = propose(batch)
        if proposal is None:
            filled = 0
            continue
        cand, acc = proposal
        if out is None:
            out = np.empty((count,) + cand.shape[1:])
        drawn += batch
        accepted += int(np.sum(acc))
        take = cand[acc][: count - filled]
        out[filled : filled + len(take)] = take
        filled += len(take)
        if filled == count:
            return out
        if drawn >= 20000 and accepted / drawn < 1e-4:
            raise NumericalError(f"{what()}: acceptance {accepted}/{drawn} below 1e-4")
    raise NumericalError(f"{what()}: starved after {max_rounds} rounds")


def span_normal(inputs: np.ndarray):
    """Unit normal to the span of the rows of inputs, and a basis of the span.

    The span must have codimension one.  The normal has a positive first
    entry; the basis is returned as orthonormal rows.
    """
    n = inputs.shape[1]
    _, s, vt = np.linalg.svd(inputs)
    rank = int(np.sum(s > 1e-10 * max(s[0], 1e-300)))
    if rank == n:
        raise ModelError(
            "inputs span the full space; no orthogonal direction exists, "
            "which is out of scope for the slab construction"
        )
    if rank != n - 1:
        raise ModelError(f"inputs span a rank-{rank} subspace, need exactly {n - 1}")
    d = vt[n - 1]
    if abs(d[0]) < 1e-12:
        raise ModelError("span normal has vanishing first coordinate")
    if d[0] < 0.0:
        d = -d
    return d / np.linalg.norm(d), vt[: n - 1]


def plane_basis(drift: LogisticDrift, normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the input span, the orthogonal complement of the normal."""
    n = drift.n
    d = np.asarray(normal, dtype=float)
    proj = np.eye(n) - np.outer(d, d)
    q, r = np.linalg.qr(proj)
    cols = [q[:, i] for i in range(n) if abs(r[i, i]) > 1e-10]
    basis = np.stack(cols, axis=1)
    if basis.shape[1] != n - 1:
        raise ModelError("normal does not leave an (n-1)-dimensional span")
    return basis


def _plane_log_normalizer(pd: PlaneDensity) -> float:
    """Log of the in-plane mass; exact quadrature when the span is a line,
    otherwise a curvature approximation at the mode."""
    k = pd.basis.shape[1]
    if k == 1:
        sd = math.sqrt(pd.chol_cov[0, 0] ** 2) / pd.scale
        lo = float(pd.mode[0] - 60.0 * sd)
        hi = float(pd.mode[0] + 60.0 * sd)
        peak = float(pd.log_target(pd.mode[None, :])[0])
        val, _ = quad(
            lambda w: math.exp(float(pd.log_target(np.array([[w]]))[0]) - peak),
            lo,
            hi,
            **_QUAD_OPTS,
        )
        return peak + math.log(val)
    sign, logdet = np.linalg.slogdet(pd.hessian)
    peak = float(pd.log_target(pd.mode[None, :])[0])
    return peak + 0.5 * (k * math.log(2.0 * math.pi) - logdet)


def _slab_conditional_batch(state: SlabState, drift: LogisticDrift, gen, count: int):
    d = state.normal
    h = state.gap()
    if h <= 0.0:
        raise ModelError("slab has no interior")
    pd = plane_density(drift, d)
    w = _plane_density_sampler(pd, gen, count)
    offs = h * uniforms(gen, count)  # uniform on (0, h] from the z-face
    base = float(d @ state.z)
    pts = w @ pd.basis.T + (base + offs)[:, None] * d

    def log_density():
        return pd.log_target(w) - _plane_log_normalizer(pd) - math.log(h)

    return pts, log_density


# ---------------------------------------------------------------------------
# dual dynamics


def dual_step(
    state: DualState,
    dnoise: np.ndarray,
    dt: float,
    drift: DriftField,
    t_prev: float = 0.0,
) -> DualState:
    """One implicit step of the dual region flow.

    The z-side anchor consumes the noise increment as given; the y-side
    consumes it with coordinate 1 negated.  A wedge direction advances by
    one deterministic Euler substep.  If the updated region degenerates,
    the state absorbs, with the hitting time placed by linear interpolation
    of the defining functional across the step.
    """
    if state.absorbed:
        return state
    d = np.atleast_1d(np.asarray(dnoise, dtype=float))
    z_new = implicit_step(np.atleast_1d(state.z), d, dt, drift)
    y_new = implicit_step(np.atleast_1d(state.y), flip_first(d), dt, drift)
    frame = {}
    normal = state.normal
    if isinstance(state, WedgeState):
        frame["u"] = WedgeState.rotate(state.u, dt)
        normal = WedgeState.normal_of(frame["u"])
    g_old = state.gap()
    g_new = float(face_gap(normal, z_new, y_new))
    if g_new <= 0.0:
        frac = g_old / (g_old - g_new) if g_old > g_new else 0.0
        return replace(state, z=z_new, y=y_new, absorbed=True, zeta=t_prev + frac * dt, **frame)
    return replace(state, z=z_new, y=y_new, **frame)


def dual_drift(state: DualState, drift: DriftField):
    """Drift pair (z-side, y-side) of the mass-conditioned dual dynamics.

    The base region flow moves both anchors with the primal drift; the
    conditioning adds the log-derivative of nu_mass along the separation
    direction, pushing the anchors apart.  For an interval under constant
    drift the correction is 2 mu coth(mu (y - z)), evaluated by series near
    mu = 0; for a slab it is 2 d_1 / h on coordinate 1.  The wedge family
    is not supported here.
    """
    if state.absorbed:
        raise ModelError("absorbed state has no drift")
    if isinstance(state, IntervalState):
        gap = state.y - state.z
        if isinstance(drift, ConstantDrift):
            mu = float(drift.mu[0])
            c = _coth_correction(mu, gap)
            return np.array([mu - c]), np.array([mu + c])
        if isinstance(drift, ProductDrift) and drift.gamma1 is not None:
            nu_z = math.exp(-2.0 * float(drift.gamma1(np.asarray(state.z))))
            nu_y = math.exp(-2.0 * float(drift.gamma1(np.asarray(state.y))))
            c = (nu_y + nu_z) / nu_mass(state, drift)
            bz = float(drift.beta(np.array([state.z]))[0])
            by = float(drift.beta(np.array([state.y]))[0])
            return np.array([bz - c]), np.array([by + c])
        raise ModelError("interval dual drift needs a constant drift or a 1-d potential")
    if isinstance(state, SlabState):
        h = state.gap()
        corr = np.zeros(state.n)
        corr[0] = 2.0 * state.normal[0] / h
        return drift.beta(state.z) - corr, drift.beta(state.y) + corr
    raise NotImplementedError(f"dual drift not available for {type(state).__name__}")


def _coth_correction(mu: float, gap: float) -> float:
    a = mu * gap
    if abs(a) < 1e-4:
        # 2 mu coth(mu g) = 2/g + (2/3) mu^2 g + O(mu^4)
        return 2.0 / gap + (2.0 / 3.0) * mu * mu * gap
    return 2.0 * mu / math.tanh(a)


# ---------------------------------------------------------------------------
# intertwining residual


def intertwining_residual(
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    d2f: Callable[[np.ndarray], np.ndarray],
    state: IntervalState,
    drift: DriftField,
    fd_step: float = 1e-4,
) -> dict:
    """Check that conditioning commutes with the generators on an interval.

    The left route applies the primal generator to f analytically and
    averages under the conditional law by quadrature; the right route
    applies the dual generator to the conditional average by central
    differences in (z, y).  Both routes are independent of the simulation
    code, so their difference isolates the conditioning algebra.
    """
    if not isinstance(state, IntervalState):
        raise NotImplementedError("residual check is interval-only")

    if isinstance(drift, ConstantDrift):
        mu = float(drift.mu[0])
        nu = lambda x: np.exp(-2.0 * mu * np.asarray(x, dtype=float))
        beta1 = lambda x: np.full_like(np.asarray(x, dtype=float), mu)
    elif isinstance(drift, ProductDrift) and drift.gamma1 is not None:
        nu = lambda x: np.exp(-2.0 * np.asarray(drift.gamma1(np.asarray(x)), dtype=float))
        beta1 = lambda x: np.asarray(drift.beta(np.asarray(x, dtype=float)[..., None]))[..., 0]
    else:
        raise ModelError("residual check needs a constant drift or a 1-d potential")

    def mass(z, y):
        val, _ = quad(lambda x: float(nu(x)), z, y, **_QUAD_OPTS)
        return val

    def avg(g, z, y):
        val, _ = quad(lambda x: float(nu(x)) * float(g(x)), z, y, **_QUAD_OPTS)
        return val / mass(z, y)

    z, y = state.z, state.y
    generator_f = lambda x: 0.5 * d2f(x) - beta1(x) * df(x)
    lhs = avg(generator_f, z, y)

    G = lambda zz, yy: avg(f, zz, yy)
    h = fd_step
    dz, dy = dual_drift(state, drift)
    g_y = (G(z, y + h) - G(z, y - h)) / (2.0 * h)
    g_z = (G(z + h, y) - G(z - h, y)) / (2.0 * h)
    g_sep = (G(z - h, y + h) - 2.0 * G(z, y) + G(z + h, y - h)) / (h * h)
    rhs = float(dz[0]) * g_z + float(dy[0]) * g_y + 0.5 * g_sep

    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "residual": abs(float(lhs) - float(rhs)),
        "scale": 1.0 + abs(float(lhs)),
    }


# ---------------------------------------------------------------------------
# batched simulation and the Monte Carlo duality identity


def primal_terminal_batch(
    x: np.ndarray,
    drift: DriftField,
    grid: TimeGrid,
    seed: int,
    streams: Sequence[int],
    chunk: int = 4096,
) -> np.ndarray:
    """Terminal values of the explicit scheme from a fixed start, one per stream."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]
    out = np.empty((len(streams), n))
    dt = grid.dt
    for lo in range(0, len(streams), chunk):
        hi = min(lo + chunk, len(streams))
        inc, _ = stream_increments(grid, n, seed, streams[lo:hi])
        if isinstance(drift, ConstantDrift):
            # the stepwise scheme telescopes for a state-free drift; the
            # steps are added one at a time, in order, so the sum keeps its
            # bits whatever the storage order or the chunk size
            total = inc[0].copy()
            for step in inc[1:]:
                total += step
            out[lo:hi] = x - drift.mu * grid.T + total
            continue
        cur = np.broadcast_to(x, (hi - lo, n)).copy()
        for j in range(grid.N):
            cur += -drift.beta(cur) * dt + inc[j]
        out[lo:hi] = cur
    return out


def dual_terminal_batch(
    state: DualState,
    drift: DriftField,
    grid: TimeGrid,
    seed: int,
    streams: Sequence[int],
    chunk: int = 4096,
) -> dict:
    """Terminal dual anchors and survival mask over independent streams.

    Returns arrays z, y (m, n), the shared terminal direction u for wedges
    (None otherwise), the shared terminal normal, and alive (m,), with
    absorbed replicas frozen at their last surviving node.  Absorption is
    resolved inside each step, not just at the nodes:
    a replica whose gap is positive at both endpoints is still killed with
    the bridge crossing probability exp(-2 g_prev g / s2), where s2 is the
    step variance of the gap along the current normal.  For the constant
    drift interval pair the gap is an exact Brownian functional, so the
    corrected survival law is exact at every grid resolution; in general
    the correction removes the leading root-dt under-detection of
    absorption.
    """
    m = len(streams)
    n = state.n
    z0 = np.atleast_1d(np.asarray(state.z, dtype=float))
    y0 = np.atleast_1d(np.asarray(state.y, dtype=float))
    dt = grid.dt
    z_out = np.empty((m, n))
    y_out = np.empty((m, n))
    alive_out = np.empty(m, dtype=bool)
    u = None
    nvec = state.normal
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        inc, uni = stream_increments(grid, n, seed, streams[lo:hi], step_uniforms=True)
        mc = hi - lo
        if isinstance(state, IntervalState) and isinstance(drift, ConstantDrift):
            # implicit steps are exact for constant drift, so the pair is
            # (z, y) + mu t +/- omega and absorption is a running-max event;
            # the bridge draw catches maxima between the nodes
            mu = float(drift.mu[0])
            half = (y0[0] - z0[0]) / 2.0
            # one row per stream: omega[:, j] is the node value after step
            # j + 1 and prev[:, j] the one before it, a shifted slice of the
            # same storage that starts at zero
            nodes = np.zeros((mc, grid.N + 1))
            np.cumsum(inc[:, :, 0].T, axis=1, out=nodes[:, 1:])
            omega, prev = nodes[:, 1:], nodes[:, :-1]
            node_cross = omega >= half
            below = ~node_cross & (prev < half)
            pbridge = np.where(
                below, np.exp(-2.0 * (half - prev) * (half - omega) / dt), 1.0
            )
            cross = node_cross | (uni.T < pbridge)
            alive = ~np.any(cross, axis=1)
            first = np.argmax(cross, axis=1)
            # a replica killed in step first + 1 freezes at node first
            om_term = np.where(alive, omega[:, -1], nodes[np.arange(mc), first])
            t_term = np.where(alive, grid.T, first * dt)
            z_out[lo:hi, 0] = z0[0] + mu * t_term + om_term
            y_out[lo:hi, 0] = y0[0] + mu * t_term - om_term
            alive_out[lo:hi] = alive
            continue
        z = np.broadcast_to(z0, (mc, n)).copy()
        y = np.broadcast_to(y0, (mc, n)).copy()
        alive = np.ones(mc, dtype=bool)
        u = state.u if isinstance(state, WedgeState) else None
        g_prev = np.full(mc, state.gap())
        try:
            for j in range(grid.N):
                d = inc[j]
                z_new = implicit_step(z, d, dt, drift)
                y_new = implicit_step(y, flip_first(d), dt, drift)
                if u is not None:
                    u = WedgeState.rotate(u, dt)
                    nvec = WedgeState.normal_of(u)
                g = face_gap(nvec, z_new, y_new)
                n1 = float(nvec[0])
                # the y-z gap receives the flipped-minus-straight noise, whose
                # variance along the normal is (2 n1)^2 dt per step
                s2 = max(4.0 * n1 * n1 * dt, 1e-300)
                pbridge = np.exp(-2.0 * np.maximum(g_prev, 0.0) * np.maximum(g, 0.0) / s2)
                newly_dead = alive & ((g <= 0.0) | (uni[j] < pbridge))
                keep = alive & ~newly_dead
                z[keep] = z_new[keep]
                y[keep] = y_new[keep]
                g_prev = np.where(keep, g, g_prev)
                alive = keep
        except NumericalError as err:
            step = j + 1
            raise NumericalError(f"dual flow failed at step {step} (t={step * dt:.6g}): {err}") from err
        z_out[lo:hi] = z
        y_out[lo:hi] = y
        alive_out[lo:hi] = alive
    return {"z": z_out, "y": y_out, "alive": alive_out, "u": u, "normal": nvec}


@dataclass(frozen=True)
class IdentityEstimate:
    """Two-sided Monte Carlo estimate of the duality identity."""

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    paths: int

    @property
    def difference(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def pooled_se(self) -> float:
        return math.sqrt(self.lhs_se**2 + self.rhs_se**2)


def liggett_identity_mc(
    x: np.ndarray,
    state: DualState,
    grid: TimeGrid,
    paths: int,
    drift: DriftField,
    rng: RngSpec,
    chunk: int = 4096,
) -> IdentityEstimate:
    """Estimate both sides of the region-hitting duality identity.

    The left side runs the primal forward from x and asks whether it lands
    in the fixed region; the right side evolves the region with absorption
    and asks whether it still covers x.  Path i draws from streams
    (rng.stream << 32) + 2i and + 2i + 1, so both sides and all rng.stream
    values are independent.  Compensated sums make the estimate's
    summation order irrelevant, and interval and wedge terminal bytes do
    not depend on chunk; slab terminal bytes may, by a few ulps, because
    the logistic drift and its fixed-point solve are not row-count
    invariant.
    """
    if paths >= 2**31:
        raise ModelError(f"need fewer than 2**31 paths per stream block, got {paths}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    base = rng.stream << 32
    lhs_streams = [base + 2 * i for i in range(paths)]
    rhs_streams = [base + 2 * i + 1 for i in range(paths)]

    try:
        terminal = primal_terminal_batch(x, drift, grid, rng.seed, lhs_streams, chunk)
        duals = dual_terminal_batch(state, drift, grid, rng.seed, rhs_streams, chunk)
    except NumericalError as err:
        raise NumericalError(f"duality (seed {rng.seed}, stream block {rng.stream}): {err}") from err
    hits = contains_batch(state, terminal).astype(float)
    lhs = math.fsum(hits) / paths
    lhs_se = math.sqrt(max(lhs * (1.0 - lhs), 1e-300) / paths)

    alive = duals["alive"]
    covered = np.zeros(paths)
    covered[alive] = covers(duals["normal"], duals["z"][alive], duals["y"][alive], x)
    rhs = math.fsum(covered) / paths
    rhs_se = math.sqrt(max(rhs * (1.0 - rhs), 1e-300) / paths)
    return IdentityEstimate(lhs, lhs_se, rhs, rhs_se, paths)
