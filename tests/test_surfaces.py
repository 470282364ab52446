"""Hypographical surfaces: geometry, stepping, evolution."""

import numpy as np
import pytest

from dualflow import (
    BilinearDrift,
    ConstantDrift,
    LogisticDrift,
    ModelError,
    ProductDrift,
    RngSpec,
    SamplePath,
    Surface,
    SurfaceTrajectory,
    TimeGrid,
    evolve_surface,
    explicit_step,
    sample_brownian,
    step_surface,
)


def toy_logistic():
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    return LogisticDrift(inputs, labels)


# ---------------------------------------------------------------------------
# geometry


def test_level_surface_geometry():
    s = Surface.level(0.7)
    assert s.n == 1
    assert s.height() == 0.7
    assert s.contains(np.array([0.7]))
    assert not s.contains(np.array([0.700001]))


def test_line_surface_geometry():
    s = Surface(np.array([0.4, 0.0]), u=np.array([1.0, 2.0]))
    # graph over x2 with slope u1/u2 through the anchor
    assert s.height(np.array([2.0])) == pytest.approx(0.4 + 0.5 * 2.0)
    assert s.contains(np.array([1.4, 2.0]))
    assert not s.contains(np.array([1.41, 2.0]))


def test_line_surface_needs_interior_cone_direction():
    with pytest.raises(ModelError):
        Surface(np.zeros(2), u=np.array([2.0, 1.0]))
    with pytest.raises(ModelError):
        Surface(np.zeros(2), u=np.array([1.0, -2.0]))
    with pytest.raises(ModelError):
        Surface(np.zeros(2), u=np.array([1.0, np.inf]))


def test_plane_surface_geometry():
    d = np.array([1.0, -1.0]) / np.sqrt(2.0)
    s = Surface(np.array([0.5, 0.0]), normal=d)
    # on the plane: d @ x = d @ anchor
    x2 = 1.0
    h = s.height(np.array([x2]))
    assert d @ np.array([h, x2]) == pytest.approx(d @ s.anchor)


def test_plane_surface_validation():
    with pytest.raises(ModelError):
        Surface(np.zeros(2), normal=np.array([1.0, 1.0]))  # not unit
    with pytest.raises(ModelError):
        Surface(np.zeros(2), normal=np.array([-1.0, 0.0]))  # d1 <= 0
    with pytest.raises(ModelError):
        Surface(np.zeros(2), normal=np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# stepping


def test_level_step_forward_backward_inverse():
    drift = ConstantDrift(0.5)
    s = Surface.level(0.3)
    d = np.array([0.2])
    fwd = step_surface(s, drift, 0.1, d)
    assert fwd.anchor[0] == pytest.approx(0.3 + 0.05 + 0.2)
    back = explicit_step(fwd.anchor, 0.1, -d, drift)
    assert back[0] == pytest.approx(0.3, abs=1e-15)


def test_level_step_inverts_for_state_dependent_drift():
    # beta_1(x) = x: an explicit forward step would come back to 0.277
    drift = ProductDrift(n=1, beta1=lambda x: np.asarray(x, float), k_lipschitz=1.0)
    s = Surface.level(0.3)
    d = np.array([0.2])
    fwd = step_surface(s, drift, 0.1, d)
    assert fwd.anchor[0] == pytest.approx(0.5 / 0.9, abs=1e-12)  # w = 0.3 + 0.1 w + 0.2
    back = explicit_step(fwd.anchor, 0.1, -d, drift)
    assert abs(back[0] - 0.3) < 1e-12


def test_line_step_forward_backward_inverse():
    drift = BilinearDrift()
    s = Surface(np.array([0.4, 0.1]), u=np.array([1.0, 2.0]))
    d = np.array([0.05, -0.08])
    dt = 0.01
    fwd = step_surface(s, drift, dt, d)
    # direction follows its own deterministic substep
    assert np.allclose(fwd.u, s.u + dt * np.array([s.u[1], s.u[0]]))
    # the explicit step inverts the implicit anchor step exactly
    back = explicit_step(fwd.anchor, dt, -d, drift)
    assert np.allclose(back, s.anchor, atol=1e-12)


def test_plane_step_forward_backward_inverse():
    drift = toy_logistic()
    d_normal = np.array([1.0, -1.0]) / np.sqrt(2.0)  # orthogonal to the inputs
    s = Surface(np.array([0.3, 0.0]), normal=d_normal)
    d = np.array([0.05, 0.02])
    dt = 0.01
    fwd = step_surface(s, drift, dt, d)
    # the anchor slides along the normal by the increment's share, so the
    # opposite slide takes it back
    assert np.allclose(fwd.anchor - (d_normal @ d) * d_normal, s.anchor, atol=1e-12)


def test_plane_step_rejects_tilted_drift():
    drift = ConstantDrift(np.array([1.0, 0.0]))
    s = Surface(np.zeros(2), normal=np.array([1.0, 0.0]))
    with pytest.raises(ModelError):
        step_surface(s, drift, 0.01, np.array([0.1, 0.0]))


def test_surface_needs_one_normal_source():
    with pytest.raises(ModelError):
        Surface(np.zeros(2))
    with pytest.raises(ModelError):
        Surface(np.zeros(2), normal=np.array([1.0, 0.0]), u=np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# evolution


def test_evolve_surface_concatenates():
    drift = BilinearDrift()
    grid = TimeGrid(0.5, 20)
    noise = sample_brownian(grid, 2, RngSpec(31, 0))
    s0 = Surface(np.array([0.4, 0.1]), u=np.array([1.0, 2.0]))
    full = evolve_surface(s0, noise, drift)
    assert full.anchors.shape == (grid.N + 1, 2) and full.u.shape == (grid.N + 1, 2)

    # restarting from the midpoint surface reproduces the second half
    half = grid.N // 2
    sub_grid = TimeGrid(grid.T / 2, half)
    shifted = noise.values[half:] - noise.values[half]
    sub_noise = SamplePath(sub_grid, shifted)
    second = evolve_surface(full[half], sub_noise, drift)
    assert np.allclose(second[half].anchor, full[grid.N].anchor, atol=1e-12)
    assert np.allclose(second[half].u, full[grid.N].u, atol=1e-12)


def test_trajectory_validation_and_reversal():
    grid = TimeGrid(1.0, 2)
    surfaces = (Surface.level(0.0), Surface.level(1.0), Surface.level(2.0))
    traj = SurfaceTrajectory.stack(grid, surfaces)
    assert traj[1].anchor[0] == 1.0
    rev = traj.reversed()
    assert rev[0].anchor[0] == 2.0 and rev[2].anchor[0] == 0.0
    with pytest.raises(ModelError):
        SurfaceTrajectory.stack(grid, surfaces[:2])  # wrong node count
    with pytest.raises(ModelError):
        SurfaceTrajectory.stack(
            grid, (Surface.level(0.0), Surface(np.zeros(2), u=np.array([1.0, 2.0])), Surface.level(2.0))
        )  # mixed variants


# the anchors and directions of a 3-node line and plane trajectory, as
# first written when the three surface families were separate types; the
# line's anchors are the bilinear drift's closed-form implicit solve, and
# the plane's anchor moves along its normal by the normal's share of each
# increment
GOLDEN_LINE = {
    "u": [[1.0, 2.0], [1.02, 2.01], [1.0401, 2.0202]],
    "anchor": [[0.4, 0.1], [0.45024502450245024, 0.024502450245024506],
               [0.42163221222612307, 0.13871877236728572]],
}
GOLDEN_PLANE = {
    "normal": [0.7071067811865475, -0.7071067811865475],
    "anchor": [[0.3, 0.0], [0.365, -0.06499999999999999], [0.295, 0.0050000000000000044]],
}


def test_surface_golden_anchors_and_directions():
    grid = TimeGrid(0.02, 2)
    noise = SamplePath(grid, np.array([[0.0, 0.0], [0.05, -0.08], [0.02, 0.03]]))
    line = Surface(np.array([0.4, 0.1]), u=np.array([1.0, 2.0]))
    plane = Surface(np.array([0.3, 0.0]), normal=np.array([1.0, -1.0]) / np.sqrt(2.0))
    line = evolve_surface(line, noise, BilinearDrift())
    assert line.u.tolist() == GOLDEN_LINE["u"]
    assert line.anchors.tolist() == GOLDEN_LINE["anchor"]
    plane = evolve_surface(plane, noise, toy_logistic())
    assert plane.normal.tolist() == GOLDEN_PLANE["normal"]
    assert plane.anchors.tolist() == GOLDEN_PLANE["anchor"]
