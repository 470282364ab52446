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
term, and sample_conditional, a draw of the primal point from the
region-conditional law, ties the two levels together.

Each family's pieces are methods of its state class (IntervalState,
WedgeState, SlabState): the mass, the conditional draw, the dual drift,
the closed form, the entrance point, the Bessel clock and the drift check.
The module functions (nu_mass, sample_conditional, dual_drift, ...) call
them; a piece that a family lacks raises one ModelError naming the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import erfi, ndtri

from .core import (
    BilinearDrift,
    ConstantDrift,
    DriftField,
    LogisticDrift,
    ModelError,
    NumericalError,
    ProductDrift,
    RngSpec,
    SchemeDivergence,
    TimeGrid,
    flip_first,
    normals,
    stream_increments,
    uniforms,
)
from .surfaces import (
    Surface,
    _along,
    _check_direction,
    _check_unit_normal,
    _check_untilted,
    _direction_path,
    _normal_of,
    _slide,
    step_surface,
)

_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-10, limit=200)
_TABLE_POINTS = 10000  # steps of the numeric inverse-CDF table of a 1-d potential
_MAX_ROUNDS = 10000  # proposal batches a rejection sampler may draw
# the in-plane proposal: a Student-t with _DOF degrees of freedom, and
# _SCALE**2 times the inverse curvature at the mode as its scale matrix
_SCALE = 1.6
_DOF = 4.0
_FD_STEP = 1e-4  # central-difference step of intertwining_residual
_CHUNK = 4096  # streams the batched kernels simulate at once


# ---------------------------------------------------------------------------
# dual states


def face_gap(normal: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Separation normal . (upper - lower) along the last axis.

    normal is one vector, or one per row of upper - lower (a rotating
    normal read along a path); no row count changes a bit (_along).
    """
    return _along(normal, np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float))


def covers(normal: np.ndarray, z: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Indicator of the half-space pair {n . (x - z) > 0, n . (y - x) >= 0}."""
    return (face_gap(normal, x, y) >= 0.0) & (face_gap(normal, z, x) > 0.0)


def _check_finite(z, y) -> None:
    """Refuse a non-finite face anchor, which every later step would carry."""
    if not (np.isfinite(z).all() and np.isfinite(y).all()):
        raise ModelError(f"z and y must be finite, got z={z}, y={y}")


class _FacePair:
    """Geometry shared by the dual regions, and the defaults of the family
    pieces; a piece that a family lacks raises one ModelError naming both.

    Every region is the half-space pair between a z-face and a y-face with
    a common normal: e_1 for an interval, (u_2, -u_1) for a strip, d for a
    slab.  The gap is the y-face's height above the z-face along it.
    """

    _rotating = False  # whether the normal turns with a direction u (a strip's does)

    @property
    def n(self) -> int:
        return len(self.normal)

    def gap(self) -> float:
        return float(face_gap(self.normal, np.atleast_1d(self.z), np.atleast_1d(self.y)))

    def upper_face(self) -> Surface:
        """The hypograph below the y-face, with the region's fixed normal."""
        return Surface(self.y, normal=self.normal)

    @classmethod
    def _missing(cls, piece: str) -> ModelError:
        return ModelError(f"the {cls.family} family has no {piece}")

    def _mu(self, drift: DriftField, piece: str) -> Optional[float]:
        """The drift law of the interval's pieces (IntervalState._mu)."""
        raise self._missing(piece)

    def _dual_drift(self, drift: DriftField) -> tuple:
        raise self._missing("dual drift")

    @classmethod
    def _mass_clock(cls, traj, drift: DriftField) -> tuple:
        """The Bessel clock's rate m = (d/dy - d/dz) nu and the mass nu at
        each node of a coupling trajectory of the family."""
        raise cls._missing("Bessel clock")

    def _check_drift(self, drift: DriftField, sampled: bool = False) -> None:
        """Refuse a drift under which the faces cannot move or, if sampled,
        the family's points cannot be drawn; only a slab refuses one."""

    def _check_coincident(self) -> None:
        if abs(self.gap()) > 1e-12:
            raise ModelError(f"entrance {self.family} must have coincident faces")

    def _closed_form(self, drift: DriftField) -> bool:
        """Whether the dual's law at T (_terminal) and the primal's offset
        along the normal (_offsets) are in closed form under drift: by default
        when the faces slide along the fixed normal at a _rate (mu or 0)."""
        return self._rate(drift) is not None

    def _terminal(self, drift: DriftField, T: float, w: np.ndarray, uni: np.ndarray) -> tuple:
        """The dual at T from W_T (m, n) and one bridge uniform per row:
        anchors z, y (m, n), alive (m,) and the terminal normal.

        The faces drift by rate T along n and slide as dual_step slides them,
        the z-face by n . W and the y-face by n . flip(W), so the gap is
        g0 - 2 n_1 W_1, the driftless interval gap in the coordinate n . x.
        A replica survives to T iff the continuous maximum of W_1 stays below
        h = g0 / (2 n_1) (_bridge_survives), and a survivor's faces depend on
        W_T alone.
        """
        nvec, rate = self.normal, self._rate(drift)
        z0, y0 = (np.atleast_1d(np.asarray(f, dtype=float)) for f in (self.z, self.y))
        alive = _bridge_survives(w[:, 0], self.gap() / (2.0 * float(nvec[0])), T, uni)
        drifted = rate * T * nvec
        return _slide(z0 + drifted, nvec, w), _slide(y0 + drifted, nvec, flip_first(w)), alive, nvec

    def _offsets(self, drift: DriftField, x: np.ndarray, T: float, seed: int,
                 streams: Sequence[int]) -> np.ndarray:
        """n . X_T, one per stream, for a primal whose drift along the fixed
        normal n is -rate on the whole path: n . x - rate T + n . W_T on every
        grid, each stream drawing W_T in one step of length T.  For an
        interval under a constant drift this is bit for bit the x - mu T +
        W_T of primal_terminal_batch."""
        nvec, rate = self.normal, self._rate(drift)
        inc, _ = stream_increments(TimeGrid(T, 1), self.n, seed, streams)
        return (_along(nvec, x) - rate * T) + _along(nvec, inc[0])


@dataclass(frozen=True)
class IntervalState(_FacePair):
    """Half-open interval (z, y] on the line; degenerate z == y only as an
    entrance start, from which the pair separates immediately."""

    family = "interval"
    _dim = 1
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

    def _mu(self, drift: DriftField, piece: str) -> Optional[float]:
        """mu for a constant drift, None for a one-dimensional potential (a
        ProductDrift with gamma1): the interval's pieces are known for these
        two drifts alone."""
        mu = self._rate(drift)
        if mu is None and not (isinstance(drift, ProductDrift) and drift.gamma1 is not None):
            raise ModelError(f"interval {piece} needs a constant drift or a 1-d potential")
        return mu

    def _mass(self, drift: DriftField) -> float:
        mu = self._mu(drift, "mass")
        if mu is not None:
            return float(_interval_mass(self.z, self.y, mu))
        val, _ = quad(
            lambda x: math.exp(-2.0 * float(drift.gamma1(np.asarray(x)))),
            self.z,
            self.y,
            **_QUAD_OPTS,
        )
        return float(val)

    def _conditional(self, drift: DriftField, gen) -> np.ndarray:
        u = float(uniforms(gen, ()))
        mu = self._mu(drift, "sampling")
        if mu is not None:
            return np.array([float(_truncated_exp_inverse(u, self.z, self.y, mu))])
        xs, cdf = _interval_table_sampler(drift, self.z, self.y)
        return np.array([float(np.interp(u, cdf, xs))])

    def _dual_drift(self, drift: DriftField) -> tuple:
        mu = self._mu(drift, "dual drift")
        if mu is not None:
            c = _coth_correction(mu, self.y - self.z)
            return np.array([mu - c]), np.array([mu + c])
        nu_z = math.exp(-2.0 * float(drift.gamma1(np.asarray(self.z))))
        nu_y = math.exp(-2.0 * float(drift.gamma1(np.asarray(self.y))))
        c = (nu_y + nu_z) / self._mass(drift)
        bz = float(drift.beta(np.array([self.z]))[0])
        by = float(drift.beta(np.array([self.y]))[0])
        return np.array([bz - c]), np.array([by + c])

    @staticmethod
    def _rate(drift: DriftField) -> Optional[float]:
        return float(drift.mu[0]) if isinstance(drift, ConstantDrift) else None

    def _entrance_point(self, drift: DriftField, gen) -> np.ndarray:
        if self.y != self.z:
            raise ModelError("entrance interval must be degenerate (z == y)")
        return np.array([self.z])

    @classmethod
    def _mass_clock(cls, traj, drift: DriftField) -> tuple:
        mu = cls._rate(drift)
        if mu is None:
            raise ModelError("closed-form rate needs constant drift on intervals")
        z, y = traj.z_path.values[:, 0], traj.y_path.values[:, 0]
        return np.exp(-2.0 * mu * y) + np.exp(-2.0 * mu * z), _interval_mass(z, y, mu)


@dataclass(frozen=True)
class WedgeState(_FacePair):
    """Strip between two parallel lines with direction u, |u_1| < u_2.

    The strip normal is [u_2, -u_1]; the y-line must lie on or above the
    z-line along that normal.  Mass and conditional-law operations are
    restricted to the cone 0 < u_1 < u_2.
    """

    family = "wedge"
    _dim = 2
    _rotating = True
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
        if not self.absorbed and face_gap(_normal_of(u), z, y) < 0.0:
            raise ModelError("y-line must not lie below the z-line")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    @property
    def normal(self) -> np.ndarray:
        return _normal_of(self.u)

    def upper_face(self) -> Surface:
        """The hypograph below the y-line, rotating with the direction u."""
        return Surface(self.y, u=self.u)

    def _mass(self, drift: DriftField) -> float:
        a, b = _wedge_bounds(self)
        ea, eb = erfi(a), erfi(b)
        if 8.0 * abs(eb - ea) >= max(abs(ea), abs(eb)):
            # sqrt(2 pi) int_a^b exp(eta^2) d eta, with int exp(eta^2) = (sqrt(pi) / 2) erfi
            return float(math.pi / math.sqrt(2.0) * (eb - ea))
        # a narrow strip off eta = 0, where the difference of erfi cancels
        val, _ = quad(lambda e: math.exp(e * e), a, b, **_QUAD_OPTS)
        return float(math.sqrt(2.0 * math.pi) * val)

    def _conditional(self, drift: DriftField, gen) -> np.ndarray:
        wz, wy = _wedge_bounds(self)
        u = self.u
        norm2 = float(u @ u)
        norm = math.sqrt(norm2)
        uhat = u / norm
        nhat = self.normal / norm
        wmax2 = max(wz * wz, wy * wy)
        # conditional Gaussian in xi given eta: mean -c*eta, sd from the tilt
        c = (u[1] ** 2 - u[0] ** 2) / (2.0 * u[0] * u[1])
        sd_xi = math.sqrt(norm2 / (4.0 * u[0] * u[1]))
        eta_scale = math.sqrt(2.0 * u[0] * u[1]) / norm

        def propose(batch):
            w = wz + (wy - wz) * uniforms(gen, batch)
            return w, np.log(uniforms(gen, batch)) <= w * w - wmax2

        w = _rejection_fill(propose, 1, lambda: f"wedge sampler, bounds ({wz:.3g}, {wy:.3g})")[0]
        eta = w * eta_scale
        xi = -c * eta + sd_xi * normals(gen, ())
        return xi * uhat + eta * nhat

    def _closed_form(self, drift: DriftField) -> bool:
        return isinstance(drift, BilinearDrift)

    def _terminal(self, drift: DriftField, T: float, w: np.ndarray, uni: np.ndarray) -> tuple:
        """A wedge dual under the bilinear drift at T, from W_T (m, 2) and one
        bridge uniform per row: anchors z, y (m, 2), alive (m,) and the normal.

        Each line's offset along n = (u_2, -u_1) is a martingale, so along
        n_T the z-line sits at n_0 . z_0 + P - Q and the y-line at
        n_0 . y_0 - P - Q, with P = int u_2 dW_1 and Q = int u_1 dW_2
        independent normals on the clocks tau_2 and tau_1.  The gap G_0 - 2P
        is a Brownian motion on the clock tau_2, killed by _bridge_survives at
        h = G_0 / 2.  Only the pair of lines has this law, so each anchor is
        the foot of the normal from the origin on its line.
        """
        u_T, tau1, tau2 = _wedge_clocks(self.u, T)
        p = math.sqrt(tau2 / T) * w[:, 0]
        q = math.sqrt(tau1 / T) * w[:, 1]
        alive = _bridge_survives(p, self.gap() / 2.0, tau2, uni)
        n0, n_T = self.normal, _normal_of(u_T)
        foot = n_T / _along(n_T, n_T)
        z = (_along(n0, self.z) + p - q)[:, None] * foot
        y = (_along(n0, self.y) - p - q)[:, None] * foot
        return z, y, alive, n_T

    def _offsets(self, drift: DriftField, x: np.ndarray, T: float, seed: int,
                 streams: Sequence[int]) -> np.ndarray:
        """n_0 . X_T for the bilinear primal dX = -JX dt + dW from x, one
        standard normal per stream: X_T is normal with mean e^{-JT} x and
        covariance Sigma = (1/2) [[sinh 2T, 1 - cosh 2T], [1 - cosh 2T, sinh 2T]]."""
        nvec = self.normal
        ch, sh = math.cosh(T), math.sinh(T)
        mean = float(_along(nvec, np.array([ch * x[0] - sh * x[1], ch * x[1] - sh * x[0]])))
        # 1 - cosh 2T = -2 sinh^2 T
        var = 0.5 * math.sinh(2.0 * T) * float(_along(nvec, nvec)) - 2.0 * sh * sh * nvec[0] * nvec[1]
        # one standard normal per stream: a grid of one step of length 1
        inc, _ = stream_increments(TimeGrid(1.0, 1), 1, seed, streams)
        return mean + math.sqrt(var) * inc[0][:, 0]

    def _entrance_point(self, drift: DriftField, gen) -> np.ndarray:
        """The primal start on the y-line, density proportional to nu: a
        Gaussian in the line coordinate, drawn by its exact quantile."""
        self._check_coincident()
        u = self.u
        if not 0.0 < u[0] < u[1]:
            raise ModelError(f"direction outside the entrance cone: u={u.tolist()}")
        uhat = u / math.sqrt(float(u @ u))
        y = self.y
        # exponent of nu along y + s*uhat: -2(y1 + s u1)(y2 + s u2) = -2a s^2 - 2b s + const,
        # a Gaussian in s with mean -b/(2a) and sd 1/sqrt(4a)
        a = uhat[0] * uhat[1]
        b = y[0] * uhat[1] + y[1] * uhat[0]
        s = -b / (2.0 * a) + float(ndtri(uniforms(gen, ()))) / math.sqrt(4.0 * a)
        return y + s * uhat


@dataclass(frozen=True)
class SlabState(_FacePair):
    """Region between two parallel hyperplanes with shared unit normal."""

    family = "slab"
    _dim = None  # the length of its normal
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
        if not self.absorbed and face_gap(d, z, y) < 0.0:
            raise ModelError("y-face must not lie below the z-face")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "normal", d)

    def _logistic(self, drift: DriftField) -> LogisticDrift:
        """The drift, refused unless logistic: a slab draws its points from
        the logistic drift's in-plane density (plane_density)."""
        if not isinstance(drift, LogisticDrift):
            raise ModelError("slab sampling requires the logistic drift family")
        return drift

    def _mass(self, drift: DriftField) -> float:
        return self.gap()

    def _conditional(self, drift: DriftField, gen) -> np.ndarray:
        pd = plane_density(self._logistic(drift), self.normal)
        h = self.gap()
        if h <= 0.0:
            raise ModelError("slab has no interior")
        w = _plane_density_sampler(pd, gen, 1)
        off = h * uniforms(gen, ())  # uniform on (0, h] from the z-face
        return (w @ pd.basis.T)[0] + (float(_along(self.normal, self.z)) + off) * self.normal

    def _dual_drift(self, drift: DriftField) -> tuple:
        h = self.gap()
        corr = np.zeros(self.n)
        corr[0] = 2.0 * self.normal[0] / h
        return drift.beta(self.z) - corr, drift.beta(self.y) + corr

    def _rate(self, drift: DriftField) -> Optional[float]:
        return 0.0 if drift.orthogonal_to(self.normal) else None

    def _entrance_point(self, drift: DriftField, gen) -> np.ndarray:
        """The face's in-plane invariant draw, on the face."""
        self._check_coincident()
        pd = plane_density(self._logistic(drift), self.normal)
        w = _plane_density_sampler(pd, gen, 1)[0]
        return pd.basis @ w + float(_along(self.normal, self.y)) * self.normal

    def _check_drift(self, drift: DriftField, sampled: bool = False) -> None:
        """Refuse a drift tilted against the normal at either face, since
        only an orthogonal one lets the faces slide along the normal, and,
        if sampled, one that is not logistic."""
        if sampled:
            self._logistic(drift)
        _check_untilted(drift, self.z, self.normal)
        _check_untilted(drift, self.y, self.normal)

    @classmethod
    def _mass_clock(cls, traj, drift: DriftField) -> tuple:
        return np.full(traj.grid.N + 1, 2.0 * float(traj.normal[0])), traj.gap()


DualState = Union[IntervalState, WedgeState, SlabState]
# the family classes by name, all that a trajectory read back from JSONL carries
_FAMILIES = {cls.family: cls for cls in (IntervalState, WedgeState, SlabState)}


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
    wedge the mass is sqrt(2 pi) times the integral of exp(eta^2) between
    the normal coordinates a, b of the two lines, (pi / sqrt 2) (erfi(b) -
    erfi(a)), integrated adaptively instead where that difference would
    lose more than three bits to cancellation (direction restricted to the
    cone 0 < u_1 < u_2, arguments capped at 25 to stay inside
    floating-point range).  For a slab it is
    the face separation along the normal.
    """
    if state.absorbed:
        raise ModelError("absorbed state has no region")
    return state._mass(drift)


# ---------------------------------------------------------------------------
# conditional law of the primal point given the dual region


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


def _interval_table_sampler(drift: ProductDrift, z: float, y: float):
    """Numeric inverse-CDF table for a general one-dimensional potential."""
    xs = np.linspace(z, y, _TABLE_POINTS + 1)
    w = np.exp(-2.0 * np.asarray(drift.gamma1(xs), dtype=float))
    mids = 0.5 * (w[1:] + w[:-1]) * np.diff(xs)
    cdf = np.concatenate(([0.0], np.cumsum(mids)))
    return xs, cdf / cdf[-1]


def sample_conditional(
    state: DualState, drift: DriftField, gen: np.random.Generator
) -> np.ndarray:
    """Draw the primal point from the invariant density restricted to the
    region, with gen's next draws; the point is returned as an n-vector.

    Interval with constant drift: exact inverse CDF of a truncated
    exponential.  Interval with a general one-dimensional potential:
    numeric inverse CDF on a 10^4-point table.  Wedge: the region in the
    frame (xi along u, eta along the normal) factorizes as an exp(eta^2)
    weight on a bounded eta-interval times an exact Gaussian in xi; eta is
    drawn by rejection from a uniform proposal with the endpoint-dominated
    weight and xi from the matched conditional Gaussian.  Slab: a uniform
    offset on (0, h] along the normal from the z-face, times the in-plane
    invariant density drawn by rejection from a Student-t proposal centred
    at its mode (see _plane_density_sampler).
    """
    if state.absorbed:
        raise ModelError("absorbed state has no region")
    return state._conditional(drift, gen)


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
    chol_cov: np.ndarray
    log_envelope: float
    # log_proposal's whitening map and normalizing constant, fixed per density
    inv_chol_t: np.ndarray = field(init=False, repr=False, compare=False)
    log_proposal_const: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.basis.shape[1]
        nu = _DOF
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
        nu = _DOF
        q = np.sum(diff**2, axis=-1)
        return self.log_proposal_const - 0.5 * (nu + k) * np.log1p(q / nu)


def _plane_curvature(drift: LogisticDrift, basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hessian of 2*gamma along the span; this is the curvature of -log density."""
    z = (basis @ w) @ drift.inputs.T
    s = 1.0 / (1.0 + np.exp(-z))
    sw = s * (1.0 - s)
    hess = basis.T @ (drift.inputs.T * sw) @ drift.inputs @ basis
    return hess + 1e-12 * np.eye(basis.shape[1])


def plane_density(drift: LogisticDrift, normal: np.ndarray) -> PlaneDensity:
    """The in-plane density on the orthogonal complement of the normal.

    It is built once per (drift, normal) and kept on the drift, so every
    later draw reuses the mode search, factorisation and envelope probes.
    Its arrays are read-only; a sampler that raises the envelope keeps the
    raise inside its own call.
    """
    key = np.asarray(normal, dtype=float).tobytes()
    pd = drift._planes.get(key)
    if pd is None:
        pd = drift._planes[key] = _build_plane_density(drift, normal)
    return pd


def _build_plane_density(drift: LogisticDrift, normal: np.ndarray) -> PlaneDensity:
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
    cov = _SCALE**2 * np.linalg.inv(hess)
    chol = np.linalg.cholesky(cov)
    pd = PlaneDensity(drift, basis, w, chol, 0.0)
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
    for a in (pd.basis, pd.mode, pd.chol_cov, pd.inv_chol_t):
        a.flags.writeable = False
    return pd


def _plane_density_sampler(pd: PlaneDensity, gen, count: int):
    k = pd.basis.shape[1]
    env = pd.log_envelope

    def propose(batch):
        nonlocal env
        z = normals(gen, (batch, k))
        # chi-square with _DOF = 4, via two unit exponentials per draw
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

    return _rejection_fill(propose, count, lambda: f"in-plane sampler, mode {pd.mode}")


def _rejection_fill(propose, count: int, what: Callable[[], str]) -> np.ndarray:
    """First count accepted candidates of propose(batch) -> (candidates, accept).

    A proposal of None voids the batch and every earlier acceptance, so
    accepted draws always came from a validated envelope.  what() labels
    the sampler in a failure message; it runs only when one is raised.
    """
    out = None
    filled = drawn = accepted = 0
    for _ in range(_MAX_ROUNDS):
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
    raise NumericalError(f"{what()}: starved after {_MAX_ROUNDS} rounds")


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


# ---------------------------------------------------------------------------
# dual dynamics


def dual_step(
    state: DualState,
    dnoise: np.ndarray,
    dt: float,
    drift: DriftField,
    t_prev: float = 0.0,
) -> DualState:
    """One step of the dual region flow.

    Each face takes one step_surface: the z-face with the noise increment
    as given, the y-face with its coordinate 1 negated.  Slab faces need a
    drift orthogonal to their normal d (a tilted drift is refused) and
    move along d by d . increment in closed form, so the gap moves by
    -2 d_1 times the coordinate-1 increment, the rule under which
    dual_terminal_batch's slab survival is exact at every grid resolution.
    Interval and wedge anchors take one implicit step, and a wedge
    direction advances by one deterministic Euler substep
    (_direction_path).  If the updated region degenerates, the state
    absorbs, with the hitting time placed by linear interpolation of the
    defining functional across the step.
    """
    if state.absorbed:
        return state
    d = np.atleast_1d(np.asarray(dnoise, dtype=float))
    fixed = None if state._rotating else state.normal
    z_new = step_surface(np.atleast_1d(state.z), drift, dt, d, fixed)
    y_new = step_surface(np.atleast_1d(state.y), drift, dt, flip_first(d), fixed)
    frame = {"u": _direction_path(state.u, dt, 1)[1]} if state._rotating else {}
    normal = _normal_of(frame["u"]) if state._rotating else state.normal
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
    has none (ModelError).
    """
    if state.absorbed:
        raise ModelError("absorbed state has no drift")
    return state._dual_drift(drift)


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
) -> dict:
    """Check that conditioning commutes with the generators on an interval.

    The left route applies the primal generator to f analytically and
    averages under the conditional law by quadrature; the right route
    applies the dual generator to the conditional average by central
    differences in (z, y).  Both routes are independent of the simulation
    code, so their difference isolates the conditioning algebra.
    """
    mu = state._mu(drift, "intertwining residual")
    if mu is not None:
        nu = lambda x: np.exp(-2.0 * mu * np.asarray(x, dtype=float))
        beta1 = lambda x: np.full_like(np.asarray(x, dtype=float), mu)
    else:
        nu = lambda x: np.exp(-2.0 * np.asarray(drift.gamma1(np.asarray(x)), dtype=float))
        beta1 = lambda x: np.asarray(drift.beta(np.asarray(x, dtype=float)[..., None]))[..., 0]

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
    h = _FD_STEP
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
) -> np.ndarray:
    """Terminal values of the explicit scheme from a fixed start, one per stream.

    Under a constant drift mu the scheme telescopes to x - mu T + W_T on
    every grid, so each stream draws W_T in one step of length T.  Any
    other drift steps a block of streams at a time, in place, with
    floating-point warnings off: the first step that leaves a value
    non-finite raises SchemeDivergence.  The loop keeps only the current
    row, where core.euler_backward_values would hold every step's.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if isinstance(drift, ConstantDrift):
        inc, _ = stream_increments(TimeGrid(grid.T, 1), n, seed, streams)
        return x - drift.mu * grid.T + inc[0]
    out = np.empty((len(streams), n))
    dt = grid.dt
    for lo in range(0, len(streams), _CHUNK):
        hi = min(lo + _CHUNK, len(streams))
        inc, _ = stream_increments(grid, n, seed, streams[lo:hi])
        cur = np.broadcast_to(x, (hi - lo, n)).copy()
        with np.errstate(all="ignore"):
            for j in range(grid.N):
                cur += -drift.beta(cur) * dt + inc[j]
                if not np.isfinite(cur).all():
                    raise SchemeDivergence(j + 1, dt)
        out[lo:hi] = cur
    return out


def _bridge_survives(p: np.ndarray, h: float, clock: float, uni: np.ndarray) -> np.ndarray:
    """Whether a Brownian motion from 0 on the given clock, ending at p,
    stays below h: p < h, and the uniform is at or above
    exp(-2 h (h - p) / clock), the chance that its bridge reaches h."""
    # the clamp keeps exp from overflowing once p >= h
    reach = np.exp(-2.0 * h * np.maximum(h - p, 0.0) / clock)
    return (p < h) & (uni >= reach)


def _wedge_clocks(u: np.ndarray, T: float) -> tuple:
    """The direction u(T) = e^{JT} u of a line under the bilinear drift,
    J = [[0, 1], [1, 0]], and the clocks tau_1 = int_0^T u_1^2 and
    tau_2 = int_0^T u_2^2 of its path u(t) = e^{Jt} u."""
    a, b = float(u[0]), float(u[1])
    ch, sh = math.cosh(T), math.sinh(T)
    # int cosh^2, int sinh^2 and int cosh sinh over [0, T]
    quarter = math.sinh(2.0 * T) / 4.0
    i_cc, i_ss, i_cs = quarter + T / 2.0, quarter - T / 2.0, sh * sh / 2.0
    tau1 = a * a * i_cc + 2.0 * a * b * i_cs + b * b * i_ss
    tau2 = a * a * i_ss + 2.0 * a * b * i_cs + b * b * i_cc
    return np.array([a * ch + b * sh, a * sh + b * ch]), tau1, tau2


def dual_terminal_batch(
    state: DualState,
    drift: DriftField,
    grid: TimeGrid,
    seed: int,
    streams: Sequence[int],
) -> dict:
    """Terminal dual anchors and survival mask over independent streams.

    Returns arrays z, y (m, n), the shared terminal normal, and alive
    (m,); a killed replica's z and y are NaN.  An absorbed state stays
    absorbed, so every replica of it is killed.

    Three families have a closed form (_closed_form): each stream draws
    W_T and one uniform from a grid of one step of length T, whatever the
    caller's grid, and the law at T is exact; no implicit step is solved.
    An interval under constant drift mu and a slab whose drift is
    orthogonal to n everywhere slide their faces along the fixed normal n
    as dual_step slides them (_FacePair._terminal).  A wedge under the
    bilinear drift draws its two lines along the terminal normal
    n_T = (u_2(T), -u_1(T)), u(T) = e^{JT} u (WedgeState._terminal); a
    survivor's z and y are the feet of the normal from the origin on its
    lines, not points the gridded flow would reach, since only the lines
    have the exact law.  In each family the gap is a Brownian motion on a
    deterministic clock, and a replica dies if it ends at the kill level
    or beyond, or if its uniform falls below the chance that the Brownian
    bridge reaches that level (_bridge_survives).

    The other models step every face on the caller's grid, with
    absorption resolved inside each step, not just at the nodes: a
    replica whose gap is positive at both endpoints is still killed with
    the bridge crossing probability exp(-2 g_prev g / s2), where s2 is
    the step variance of the gap along the current normal.  This removes
    the leading root-dt under-detection of absorption.
    """
    m = len(streams)
    n = state.n
    z0 = np.atleast_1d(np.asarray(state.z, dtype=float))
    y0 = np.atleast_1d(np.asarray(state.y, dtype=float))
    nvec = state.normal
    if state.absorbed:
        # an absorbed region stays absorbed, as in dual_step
        z = np.full((m, n), np.nan)
        return {"z": z, "y": z.copy(), "alive": np.zeros(m, dtype=bool), "normal": nvec}
    if state._closed_form(drift):
        inc, uni = stream_increments(TimeGrid(grid.T, 1), n, seed, streams, step_uniforms=True)
        z, y, alive, nvec = state._terminal(drift, grid.T, inc[0], uni[0])
        z[~alive] = y[~alive] = np.nan
        return {"z": z, "y": y, "alive": alive, "normal": nvec}
    dt = grid.dt
    fixed = None if state._rotating else nvec
    # a wedge's direction at every node
    u = None if fixed is not None else _direction_path(state.u, dt, grid.N)
    z_out = np.empty((m, n))
    y_out = np.empty((m, n))
    alive_out = np.empty(m, dtype=bool)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        inc, uni = stream_increments(grid, n, seed, streams[lo:hi], step_uniforms=True)
        mc = hi - lo
        z = np.broadcast_to(z0, (mc, n)).copy()
        y = np.broadcast_to(y0, (mc, n)).copy()
        alive = np.ones(mc, dtype=bool)
        g_prev = np.full(mc, state.gap())
        try:
            for j in range(grid.N):
                d = inc[j]
                z_new = step_surface(z, drift, dt, d, fixed)
                y_new = step_surface(y, drift, dt, flip_first(d), fixed)
                if u is not None:
                    nvec = _normal_of(u[j + 1])
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
        z[~alive] = y[~alive] = np.nan
        z_out[lo:hi] = z
        y_out[lo:hi] = y
        alive_out[lo:hi] = alive
    return {"z": z_out, "y": y_out, "alive": alive_out, "normal": nvec}


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


def _primal_hits(
    x: np.ndarray,
    state: DualState,
    drift: DriftField,
    grid: TimeGrid,
    seed: int,
    streams: Sequence[int],
) -> np.ndarray:
    """Whether the primal from x lands in the region at T, one per stream.

    The offset n . X_T along the region's normal n alone decides a hit,
    and the closed-form families (_closed_form) draw it without a grid:
    n . x - rate T + n . W_T from one step of length T where the faces
    move along a fixed normal (_FacePair._offsets), and one normal per
    stream for the wedge's linear primal (WedgeState._offsets).  Every other
    model runs primal_terminal_batch on the caller's grid.  No
    primal lands in an absorbed region.
    """
    if state.absorbed:
        return np.zeros(len(streams), dtype=bool)
    if not state._closed_form(drift):
        return contains_batch(state, primal_terminal_batch(x, drift, grid, seed, streams))
    offset = state._offsets(drift, x, grid.T, seed, streams)
    # the region along n is the interval (n . z, n . y] of covers
    nvec = state.normal
    z, y = (np.atleast_1d(_along(nvec, np.atleast_1d(f))) for f in (state.z, state.y))
    return covers(np.ones(1), z, y, offset[:, None])


def liggett_identity_mc(
    x: np.ndarray,
    state: DualState,
    grid: TimeGrid,
    paths: int,
    drift: DriftField,
    rng: RngSpec,
) -> IdentityEstimate:
    """Estimate both sides of the region-hitting duality identity.

    The left side runs the primal forward from x and asks whether it lands
    in the fixed region; the right side evolves the region with absorption
    and asks whether it still covers x.  Path i draws from streams
    (rng.stream << 32) + 2i and + 2i + 1, so both sides and all rng.stream
    values are independent.  For an interval under a constant drift, a
    slab whose drift is orthogonal to n everywhere and a wedge under the
    bilinear drift (_closed_form), both sides draw one step of length T
    (see _primal_hits and dual_terminal_batch), so their bytes depend on
    T alone, not on the grid's step count; every other model runs both
    sides on the grid.  Compensated sums make the estimate's summation
    order irrelevant; a side's bytes depend on _CHUNK only through a
    gridded drift whose batched kernels are not row-count invariant.
    """
    if paths < 1:
        raise ModelError(f"need at least one path, got {paths}")
    if paths >= 2**31:
        raise ModelError(f"need fewer than 2**31 paths per stream block, got {paths}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (state.n,):
        raise ModelError(
            f"x must have the {state.family}'s {state.n} coordinates, got x={x.tolist()}"
        )
    base = rng.stream << 32
    lhs_streams = [base + 2 * i for i in range(paths)]
    rhs_streams = [base + 2 * i + 1 for i in range(paths)]

    try:
        hits = _primal_hits(x, state, drift, grid, rng.seed, lhs_streams).astype(float)
        duals = dual_terminal_batch(state, drift, grid, rng.seed, rhs_streams)
    except NumericalError as err:
        raise NumericalError(f"duality (seed {rng.seed}, stream block {rng.stream}): {err}") from err
    lhs = math.fsum(hits) / paths
    lhs_se = math.sqrt(max(lhs * (1.0 - lhs), 1e-300) / paths)

    alive = duals["alive"]
    covered = np.zeros(paths)
    covered[alive] = covers(duals["normal"], duals["z"][alive], duals["y"][alive], x)
    rhs = math.fsum(covered) / paths
    rhs_se = math.sqrt(max(rhs * (1.0 - rhs), 1e-300) / paths)
    return IdentityEstimate(lhs, lhs_se, rhs, rhs_se, paths)
