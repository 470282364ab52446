"""Hypograph surfaces: the region below a moving hyperplane, and its steps.

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
slides along the fixed normal, in closed form.  Faces move as anchor rows
under one rule, step_surface: the dual steps call it, and the forward
reflection flow reproduces its bits on Python floats in its own step
loop, which evolves the upper face on both sides of the start.  A line's
direction path does not depend on the noise: _direction_path, the one
rule that rotates a direction, computes it whole before any anchor steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DriftField, ModelError, TimeGrid, implicit_step


def _normal_of(u: np.ndarray) -> np.ndarray:
    """Normal (u_2, -u_1) of a direction, or of each row of a direction path."""
    return u[..., ::-1] * np.array([1.0, -1.0])


def _check_direction(u) -> np.ndarray:
    """A strip or line direction: a finite 2-vector in the cone |u_1| < u_2."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2,) or not abs(u[0]) < u[1] < np.inf:
        raise ModelError(f"need a finite 2-vector u with |u_1| < u_2, got u={u.tolist()}")
    return u


def _direction_path(u0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """A line's direction at every node, (steps + 1, 2): deterministic
    Euler substeps of du = (u_2, u_1) dt from u0, on Python floats.

    No noise moves it, so the flows and dual steps compute it before their
    anchor steps.  A direction that leaves the cone |u_1| < u_2 names the
    step index and time.
    """
    a, b = u0.tolist()
    rows = [(a, b)]
    for k in range(1, steps + 1):
        a, b = a + dt * b, b + dt * a
        if not abs(a) < b < math.inf:
            raise ModelError(f"line direction left its cone at step {k} (t={k * dt:.6g}): "
                             f"need a finite 2-vector u with |u_1| < u_2, got u={[a, b]}")
        rows.append((a, b))
    return np.array(rows)


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
        return _height(self.anchor, self.normal, rest)

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(x[0] <= self.height(x[1:]))


def _height(anchor: np.ndarray, normal: np.ndarray, rest=()) -> float:
    """Coordinate 1 of the face through anchor with the given normal, over
    the non-first coordinates rest (_float_height)."""
    rest = np.asarray(rest, dtype=float)
    return _float_height(anchor.tolist(), (normal[1:] / normal[0]).tolist(), rest.tolist())


def _float_height(anchor: list, slopes: list, rest: list) -> float:
    """The height formula on Python floats, with the slopes n_i / n_1
    given: anchor_1 less the slopes times rest_i - anchor_i, summed from
    the first product coordinate by coordinate, as _along sums."""
    if not slopes:
        return anchor[0]
    dot = (rest[0] - anchor[1]) * slopes[0]
    for i in range(1, len(slopes)):
        dot = dot + (rest[i] - anchor[i + 1]) * slopes[i]
    return anchor[0] - dot


def step_surface(anchor: np.ndarray, drift: DriftField, dt: float, dnoise_flipped: np.ndarray,
                 normal: Optional[np.ndarray] = None) -> np.ndarray:
    """Advance a face's anchor one step, driven by a flipped-noise increment.

    anchor is one row, or (m, n) rows with their increments, under one
    fixed normal, or None for a line, whose direction path is
    _direction_path's.  A fixed normal n in two or more dimensions needs a
    drift orthogonal to n at the anchor (a tilted drift is refused); the
    anchor slides along n by n . increment (_slide), to the same bits
    alone or among rows.  A level or a line anchor takes the implicit step
    with drift +beta, which core.explicit_step with drift -beta inverts
    exactly.
    """
    d = np.atleast_1d(np.asarray(dnoise_flipped, dtype=float))
    if normal is not None and np.shape(anchor)[-1] > 1:
        _check_untilted(drift, anchor, normal)
        return _slide(anchor, normal, d)
    return implicit_step(anchor, d, dt, drift)


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
    if np.any(np.abs(_along(normal, b)) > 1e-8 * (1.0 + np.sqrt(np.sum(b * b, axis=-1)))):
        raise ModelError(
            "drift is tilted against the hyperplane normal; the surface would not stay planar"
        )


def _along(normal: np.ndarray, v: np.ndarray) -> np.ndarray:
    """normal . v over the last axis, summed coordinate by coordinate, so
    no row count changes a bit; normal is one vector or one per row of v."""
    out = v[..., 0] * normal[..., 0]
    for i in range(1, normal.shape[-1]):
        out = out + v[..., i] * normal[..., i]
    return out


def _slide(anchor: np.ndarray, normal: np.ndarray, dnoise: np.ndarray) -> np.ndarray:
    """The anchor rows of a face with a fixed normal n and a drift
    orthogonal to n, each slid along n by n . dnoise: one step's
    increment, or the noise's value at t for the face at t."""
    return anchor + _along(normal, dnoise)[..., None] * normal


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
    def start(cls, grid: TimeGrid, surface: Surface) -> "SurfaceTrajectory":
        """The surface's anchor at every node, which a flow fills at nodes
        1..N in place, with a line's whole direction path (_direction_path)."""
        anchors = np.tile(surface.anchor, (grid.N + 1, 1))
        if surface.u is None:
            return cls(grid, anchors, surface.normal)
        return cls(grid, anchors, u=_direction_path(surface.u, grid.dt, grid.N))

    @property
    def normals(self) -> np.ndarray:
        """The fixed normal, or the rotating normal at each node."""
        return self.normal if self.u is None else _normal_of(self.u)

    def reversed(self) -> "SurfaceTrajectory":
        u = None if self.u is None else self.u[::-1]
        return SurfaceTrajectory(self.grid, self.anchors[::-1], self.normal, u)
