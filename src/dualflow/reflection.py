"""Skorohod reflection and the noise flows that pin paths under a surface.

The discrete flows here transform a driving noise so that the companion
path built from it stays inside an evolving hypograph.  Coordinate 1 of
the noise accumulates a nondecreasing compensator sigma: whenever an
unreflected step would cross the surface, sigma jumps by twice the
coordinate-1 noise increment and the step is retaken with the reduced
noise.  The backward variant runs from a terminal anchor with the
explicit scheme against a precomputed surface trajectory; the forward
variant runs with the implicit scheme and evolves its surface as it goes.
The two are exact pathwise inverses under time reversal: reversing the
reflected output of one and feeding it to the other reproduces paths,
compensator, and surfaces node by node to solver precision.

A deliberate asymmetry in the crossing test: the backward flow compares
against the surface at the step's far endpoint, the forward flow against
the surface at the step's near endpoint.  Both read the same surface
instant under time reversal, which is what makes the inversion exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ConstantDrift,
    DriftField,
    ModelError,
    NumericalError,
    SamplePath,
    TimeGrid,
    euler_backward_values,
    flip_first,
    partial_sums,
)
from .surfaces import Surface, SurfaceTrajectory, evolve_surface, step_surface


@dataclass(frozen=True)
class ReflectionOutput:
    """Solution (eta, ell) of a one-dimensional Skorohod problem on a grid."""

    eta: np.ndarray
    ell: np.ndarray

    def complementarity(self) -> float:
        return float(np.sum(self.eta[1:] * np.diff(self.ell)))


def solve_skorohod_1d(kappa: np.ndarray) -> ReflectionOutput:
    """Minimal nondecreasing ell with eta = kappa + ell >= 0, ell(0) = 0.

    The input must start nonnegative.  The pushing term is the running
    record of how far kappa has dipped below zero, so eta vanishes exactly
    at the nodes where ell increases.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.ndim != 1:
        raise ValueError("kappa must be a one-dimensional array of node values")
    if not kappa[0] >= 0.0:
        raise ValueError(f"kappa(0) must be nonnegative, got {kappa[0]}")
    ell = -np.minimum.accumulate(np.minimum(kappa, 0.0))
    return ReflectionOutput(eta=kappa + ell, ell=ell)


@dataclass(frozen=True)
class FlowOutput:
    """Result of a reflection flow.

    sigma is the coordinate-1 compensator as a scalar path; reflected_noise
    is the input noise with sigma subtracted from coordinate 1; trajectory
    is the path the flow pinned under the surface (the constructed one for
    backward flows, the input one for forward flows).  outside marks the
    degenerate branch where the start lies strictly above the initial
    surface, in which case sigma is exactly twice coordinate 1 of the noise
    and the reflected noise is the flipped noise.  Forward flows also carry
    the surface trajectory they evolved.
    """

    sigma: SamplePath
    reflected_noise: SamplePath
    trajectory: SamplePath
    outside: bool
    surfaces: Optional[SurfaceTrajectory] = None


def impute_noise(x_path: SamplePath, drift: DriftField) -> SamplePath:
    """Noise that makes the path satisfy the implicit scheme exactly.

    Increment j is X(t_j) - X(t_{j-1}) - beta(X(t_j)) dt, with the drift
    frozen at the step's right endpoint, so feeding the result back through
    the implicit scheme reproduces the path to solver precision regardless
    of how the path was generated.
    """
    inc = _impute_increments(x_path.values, x_path.grid.dt, drift)
    return SamplePath(x_path.grid, partial_sums(inc))


def _impute_increments(values: np.ndarray, dt: float, drift: DriftField) -> np.ndarray:
    """The imputed noise increments between consecutive node values."""
    return np.diff(values, axis=0) - drift.beta(values[1:]) * dt


def _flow_output(grid: TimeGrid, noise: SamplePath, sigma: np.ndarray, trajectory: SamplePath,
                 outside: bool = False, **evolved) -> FlowOutput:
    """Flow result whose reflected noise is the noise less sigma on
    coordinate 1; on the degenerate branch that is the flipped noise."""
    if outside:
        reflected = flip_first(noise.values)
    else:
        reflected = noise.values.copy()
        reflected[:, 0] -= sigma
    return FlowOutput(SamplePath(grid, sigma), SamplePath(grid, reflected), trajectory, outside,
                      **evolved)


def backward_flow(
    x_start: np.ndarray,
    surface_traj: SurfaceTrajectory,
    noise: SamplePath,
    drift: DriftField,
) -> FlowOutput:
    """Reflect an explicit-scheme path below a given surface trajectory.

    The surface trajectory is indexed in the flow's own time, one surface
    per node.  Each step first advances the non-first coordinates, tests
    the crossing condition against the surface at the step's far endpoint
    evaluated at those advanced coordinates, accrues sigma on a crossing,
    and then advances coordinate 1 with the reflected increment.
    """
    grid = noise.grid
    if surface_traj.grid.N != grid.N or abs(surface_traj.grid.T - grid.T) > 1e-12:
        raise ModelError("surface trajectory and noise live on different grids")
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x_start, dtype=float)), (noise.dim,)).copy()
    dt = grid.dt
    inc = noise.increments()

    if not surface_traj[0].contains(x0):
        traj = euler_backward_values(grid, x0, flip_first(noise.values), drift)
        return _flow_output(grid, noise, 2.0 * noise.values[:, 0], SamplePath(grid, traj), True)

    n = noise.dim
    y = np.empty((grid.N + 1, n))
    y[0] = x0
    sigma = np.zeros(grid.N + 1)
    for k in range(1, grid.N + 1):
        prev = y[k - 1]
        b = drift.beta(prev)
        rest = prev[1:] - b[1:] * dt + inc[k - 1, 1:]
        d1 = inc[k - 1, 0]
        crossing = prev[0] - b[0] * dt + abs(d1) > surface_traj[k].height(rest)
        dsig = 2.0 * d1 if crossing else 0.0
        sigma[k] = sigma[k - 1] + dsig
        y[k, 0] = prev[0] - b[0] * dt + (d1 - dsig)
        y[k, 1:] = rest

    return _flow_output(grid, noise, sigma, SamplePath(grid, y))


def forward_flow(
    x_path: SamplePath,
    y0: Surface,
    noise: SamplePath,
    drift: DriftField,
) -> FlowOutput:
    """Reflect the noise of a forward path so the surface stays above it.

    The path and its noise are taken as given and must be consistent with
    the implicit scheme (impute_noise arranges this for any path).  The
    crossing test compares the implicit-scheme combination at the step's
    far endpoint with the surface at the step's near endpoint; on a
    crossing, sigma accrues twice the coordinate-1 increment.  The surface
    is then advanced with the flipped reflected increment; a failed
    surface step names the step index and time.
    """
    grid = x_path.grid
    if noise.grid.N != grid.N or abs(noise.grid.T - grid.T) > 1e-12:
        raise ModelError("path and noise live on different grids")
    dt = grid.dt
    inc = noise.increments()
    X = x_path.values
    x0 = X[0]

    if not y0.contains(x0):
        # flipped reflected noise is the plain noise again
        return _flow_output(grid, noise, 2.0 * noise.values[:, 0], x_path, True,
                            surfaces=evolve_surface(y0, noise, drift))

    sigma = np.zeros(grid.N + 1)
    surfaces = [y0]
    try:
        for j in range(1, grid.N + 1):
            cur = surfaces[-1]
            d1 = inc[j - 1, 0]
            b = drift.beta(X[j])
            near_height = cur.height(X[j - 1, 1:])
            crossing = X[j, 0] - b[0] * dt + abs(d1) > near_height
            dsig = 2.0 * d1 if crossing else 0.0
            sigma[j] = sigma[j - 1] + dsig
            dxi = inc[j - 1].copy()
            dxi[0] -= dsig
            surfaces.append(step_surface(cur, drift, dt, flip_first(dxi)))
    except NumericalError as err:
        raise NumericalError(f"reflection flow failed at step {j} (t={j * dt:.6g}): {err}") from err

    return _flow_output(grid, noise, sigma, x_path,
                        surfaces=SurfaceTrajectory.stack(grid, surfaces))


def flow_from_path(y0: Surface, x_path: SamplePath, drift: DriftField) -> FlowOutput:
    """Reflected noise of the forward flow at a surface, from the path alone.

    The noise is imputed from the path, then reflected against the surface
    started at y0.  For a level surface with constant drift the compensator
    has a running-minimum closed form, exact at every node, and that form
    is used directly; other models go through the stepwise forward flow.
    """
    if y0.n == 1 and isinstance(drift, ConstantDrift):
        return _constant_level_flow(y0, x_path, drift)
    return forward_flow(x_path, y0, impute_noise(x_path, drift), drift)


def _constant_level_flow(
    y0: Surface, x_path: SamplePath, drift: ConstantDrift
) -> FlowOutput:
    grid = x_path.grid
    mu = float(drift.mu[0])
    x = x_path.values[:, 0]
    omega = x - x[0] - mu * grid.times
    out = flow_constant_1d(float(y0.anchor[0]), mu, x[:1], omega[:, None], grid.times)
    return FlowOutput(
        sigma=SamplePath(grid, out["sigma"]),
        reflected_noise=SamplePath(grid, out["xi"]),
        trajectory=x_path,
        outside=bool(out["outside"][0]),
        surfaces=SurfaceTrajectory(grid, out["levels"], y0.normal),
    )


def flow_constant_1d(
    level0: float, mu: float, x0: np.ndarray, omega: np.ndarray, times: np.ndarray
) -> dict:
    """Vectorized closed-form level flow for constant drift.

    x0 has shape (m,), omega shape (N+1, m); columns are independent
    replicas.  Returns sigma, the reflected noise xi, the level paths, and
    the outside mask, all as arrays.
    """
    gap = level0 - x0
    sigma_in = np.maximum.accumulate(np.maximum(2.0 * omega - gap, 0.0), axis=0)
    return _level_flow(level0, mu, omega, times, x0 > level0, sigma_in)


def flow_trigger_1d(
    level0: float, mu: float, x0: np.ndarray, omega: np.ndarray, times: np.ndarray
) -> dict:
    """Vectorized stepwise level flow for constant drift (trigger rule).

    Batch equivalent of forward_flow at a level surface: at each step the
    path is tested against the current level with a one-increment margin,
    and a trigger doubles the noise increment into the compensator.  Unlike
    the running-record form, the triggered reflection bounces each crossing
    increment, so the output noise keeps the increments' law at every grid
    resolution.  x0 has shape (m,), omega shape (N+1, m); returns the same
    mapping as flow_constant_1d, exactly matching forward_flow per column.
    """
    n_nodes, m = omega.shape
    outside = x0 > level0
    px = x0.copy()
    pa = np.full(m, level0, dtype=float)
    sig = np.zeros(m)
    sigma_in = np.empty((n_nodes, m))
    sigma_in[0] = 0.0
    for j in range(1, n_nodes):
        dw = omega[j] - omega[j - 1]
        trig = (px + dw + np.abs(dw) > pa) & ~outside
        sig = sig + np.where(trig, 2.0 * dw, 0.0)
        pa = pa + np.where(trig, dw, -dw)
        px = px + dw
        sigma_in[j] = sig
    return _level_flow(level0, mu, omega, times, outside, sigma_in)


def _level_flow(level0, mu, omega, times, outside, sigma_in) -> dict:
    """Both flow branches from the inside compensator; outside columns
    take the degenerate branch."""
    sigma = np.where(outside, 2.0 * omega, sigma_in)
    xi = np.where(outside, -omega, omega - sigma_in)
    drift_term = mu * times[:, None]
    levels = np.where(outside, level0 + drift_term + omega, level0 + drift_term - omega + sigma_in)
    return {"sigma": sigma, "xi": xi, "levels": levels, "outside": outside}
