"""Hypograph surfaces: the region below a moving hyperplane, and its flows.

A surface is the hypograph {x : n . (a - x) >= 0} below the hyperplane
through an anchor a with normal n, n_1 > 0.  It is a graph over the
non-first coordinates and splits R^n into the points at or below it and
the points strictly above it.  The normal is either fixed (e_1 for a level
on the line, a unit normal d for a hyperplane) or carried by a planar
direction u whose normal (u_2, -u_1) rotates as the surface steps (a line).
The anchor evolves under the same dynamics as the paths the surface
interacts with, driven by the noise with its first coordinate negated (the
"flipped" noise), so that an upper boundary and a lower path can share one
Brownian source.  A hyperplane keeps only what moves the face: its anchor
slides along the fixed normal, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    DriftField,
    ModelError,
    NumericalError,
    SamplePath,
    TimeGrid,
    implicit_step,
)


def _normal_of(u: np.ndarray) -> np.ndarray:
    """Normal (u_2, -u_1) of a direction, or of each row of a direction path."""
    return u[..., ::-1] * np.array([1.0, -1.0])


def _rotate(u: np.ndarray, dt: float) -> np.ndarray:
    """One deterministic Euler substep of du = (u_2, u_1) dt."""
    return u + dt * u[..., ::-1]


def _check_direction(u) -> np.ndarray:
    """A strip or line direction: a finite 2-vector in the cone |u_1| < u_2."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2,) or not abs(u[0]) < u[1] < np.inf:
        raise ModelError(f"need a finite 2-vector u with |u_1| < u_2, got u={u.tolist()}")
    return u


def _check_unit_normal(d) -> np.ndarray:
    """A fixed face normal: a unit vector with positive first entry."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or not abs(np.linalg.norm(d) - 1.0) <= 1e-12 or not d[0] > 0.0:
        raise ModelError("normal must be a unit vector with positive first entry")
    return d


@dataclass(frozen=True)
class Surface:
    """Hypograph below the hyperplane through an anchor.

    Give a fixed unit normal with positive first entry, or a direction u
    with |u_1| < u_2; then normal is (u_2, -u_1) and rotates with u.
    """

    anchor: np.ndarray
    normal: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.normal is None) == (self.u is None):
            raise ModelError("a surface needs exactly one of a fixed normal and a direction u")
        if self.u is not None:
            object.__setattr__(self, "u", _check_direction(self.u))
        normal = _normal_of(self.u) if self.u is not None else _check_unit_normal(self.normal)
        anchor = np.atleast_1d(np.asarray(self.anchor, dtype=float))
        if anchor.shape != normal.shape:
            raise ModelError("normal and anchor must be vectors of equal length")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "anchor", anchor)

    @classmethod
    def level(cls, level: float) -> "Surface":
        return cls(np.array([float(level)]), normal=np.ones(1))

    @property
    def n(self) -> int:
        return self.anchor.shape[0]

    def height(self, rest=()) -> float:
        rest = np.asarray(rest, dtype=float)
        a, d = self.anchor, self.normal
        return float(a[0] - (d[1:] / d[0]) @ (rest - a[1:]))

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(x[0] <= self.height(x[1:]))


def step_surface(
    surface: Surface,
    drift: DriftField,
    dt: float,
    dnoise_flipped: np.ndarray,
) -> Surface:
    """Advance a surface one step forward, driven by a flipped-noise increment.

    A hyperplane with a fixed normal n in two or more dimensions needs a
    drift orthogonal to n (a tilted drift is refused); its anchor then
    moves along n by n . increment, in closed form.  A level or a line
    moves its anchor by the implicit step with drift +beta, which the
    explicit step with drift -beta (core.explicit_step) inverts exactly;
    a line's direction takes one deterministic Euler substep.
    """
    d = np.atleast_1d(np.asarray(dnoise_flipped, dtype=float))
    if surface.u is None and surface.n > 1:
        _check_untilted(drift, surface.anchor, surface.normal)
        return _moved(surface, _slide(surface.anchor, surface.normal, d))
    anchor = implicit_step(surface.anchor, d, dt, drift)
    if surface.u is None:
        return _moved(surface, anchor)
    return Surface(anchor, u=_rotate(surface.u, dt))


def _check_untilted(drift: DriftField, anchor: np.ndarray, normal: np.ndarray) -> None:
    """Refuse a drift with a component along a fixed normal at the anchor.

    Only an orthogonal drift keeps a face with that normal planar, and
    moves it along the normal by the noise alone.  A drift that is
    orthogonal to the normal everywhere (DriftField.orthogonal_to) passes
    without evaluating beta.
    """
    if drift.orthogonal_to(normal):
        return
    b = drift.beta(anchor)
    if abs(float(normal @ b)) > 1e-8 * (1.0 + math.sqrt(float(b @ b))):
        raise ModelError(
            "drift is tilted against the hyperplane normal; the surface would not stay planar"
        )


def _slide(anchor: np.ndarray, normal: np.ndarray, dnoise: np.ndarray) -> np.ndarray:
    """The anchor of a face with a fixed normal n and a drift orthogonal to
    n, one step on: it moves along n by n . dnoise."""
    return anchor + float(normal @ dnoise) * normal


def _moved(surface: Surface, anchor: np.ndarray) -> Surface:
    """The surface at a new anchor, keeping its fixed normal unchecked:
    the normal was validated when the first surface was built."""
    if anchor.shape != surface.anchor.shape:
        raise ModelError("normal and anchor must be vectors of equal length")
    out = object.__new__(Surface)
    out.__dict__.update(anchor=anchor, normal=surface.normal, u=None)
    return out


@dataclass(frozen=True)
class SurfaceTrajectory:
    """A surface per grid node: anchors (N+1, n) with one fixed normal, or
    with the direction u (N+1, 2) of a rotating line at each node."""

    grid: TimeGrid
    anchors: np.ndarray
    normal: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.normal is None) == (self.u is None):
            raise ModelError("a trajectory needs exactly one of a fixed normal and a u path")
        if len(self.anchors) != self.grid.N + 1:
            raise ModelError(f"need {self.grid.N + 1} surfaces for the grid, got {len(self.anchors)}")

    @classmethod
    def stack(cls, grid: TimeGrid, surfaces: Sequence[Surface]) -> "SurfaceTrajectory":
        """Trajectory of per-node surfaces that share one fixed normal or all rotate."""
        first = surfaces[0]
        rotating = first.u is not None
        if any((s.u is not None) != rotating
               or not (rotating or s.normal is first.normal
                       or np.array_equal(s.normal, first.normal)) for s in surfaces):
            raise ModelError("one trajectory needs one fixed normal or rotating lines throughout")
        anchors = np.stack([s.anchor for s in surfaces])
        if rotating:
            return cls(grid, anchors, u=np.stack([s.u for s in surfaces]))
        return cls(grid, anchors, first.normal)

    @property
    def normals(self) -> np.ndarray:
        """The fixed normal, or the rotating normal at each node."""
        return self.normal if self.u is None else _normal_of(self.u)

    def __getitem__(self, k: int) -> Surface:
        if self.u is None:
            return Surface(self.anchors[k], normal=self.normal)
        return Surface(self.anchors[k], u=self.u[k])

    def reversed(self) -> "SurfaceTrajectory":
        u = None if self.u is None else self.u[::-1]
        return SurfaceTrajectory(self.grid, self.anchors[::-1], self.normal, u)


def evolve_surface(
    initial: Surface,
    flipped_noise: SamplePath,
    drift: DriftField,
) -> SurfaceTrajectory:
    """Evolve a surface along a whole grid of flipped-noise increments.

    Evolving over consecutive sub-grids and concatenating gives the same
    nodes as one pass, since each step consumes exactly one increment.
    A failed anchor solve names the step index and time.
    """
    grid = flipped_noise.grid
    inc = flipped_noise.increments()
    out = [initial]
    try:
        for k in range(grid.N):
            out.append(step_surface(out[-1], drift, grid.dt, inc[k]))
    except NumericalError as err:
        raise NumericalError(
            f"surface flow failed at step {k + 1} (t={(k + 1) * grid.dt:.6g}): {err}") from err
    return SurfaceTrajectory.stack(grid, out)

