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
    explicit_step,
    forward_flow,
    step_surface,
)
from dualflow.surfaces import _along, _direction_path


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
    # a step of dt >= 1 rotates (1, 2) onto the cone's edge (3, 3)
    flat, still = ConstantDrift(np.zeros(2)), SamplePath(TimeGrid(2.0, 2), np.zeros((3, 2)))
    with pytest.raises(ModelError, match=r"\|u_1\| < u_2, got u=\[3.0, 3.0\]"):
        _direction_path(np.array([1.0, 2.0]), 1.0, 1)
    with pytest.raises(ModelError, match=r"\|u_1\| < u_2"):
        forward_flow(still, Surface(np.zeros(2), u=np.array([1.0, 2.0])), still, flat)


def test_plane_surface_geometry():
    d = np.array([1.0, -1.0]) / np.sqrt(2.0)
    s = Surface(np.array([0.5, 0.0]), normal=d)
    # on the plane: d @ x = d @ anchor
    x2 = 1.0
    h = s.height(np.array([x2]))
    assert d @ np.array([h, x2]) == pytest.approx(d @ s.anchor)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_height_is_the_along_sum_to_the_bit(n):
    # the height sums its slope products as every normal product in the
    # package does, down to the sign of a zero
    gen = RngSpec(95, n).generator()
    for k in range(200):
        anchor, rest = gen.standard_normal(n), gen.standard_normal(n - 1)
        normal = gen.standard_normal(n)
        normal[0] = abs(normal[0])
        normal /= np.linalg.norm(normal)
        if n > 1 and k % 2:
            # zero products on a -0 anchor: only the sum's order fixes
            # the height's sign
            anchor[0], rest[:] = -0.0, anchor[1:]
        h = Surface(anchor, normal=normal).height(rest)
        want = anchor[0] if n == 1 else anchor[0] - _along(normal[1:] / normal[0], rest - anchor[1:])
        assert np.array(h).tobytes() == np.array(want).tobytes()


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
    d = np.array([0.2])
    fwd = step_surface(np.array([0.3]), drift, 0.1, d, np.ones(1))
    assert fwd[0] == pytest.approx(0.3 + 0.05 + 0.2)
    back = explicit_step(fwd, 0.1, -d, drift)
    assert back[0] == pytest.approx(0.3, abs=1e-15)


def test_level_step_inverts_for_state_dependent_drift():
    # beta_1(x) = x: an explicit forward step would come back to 0.277
    drift = ProductDrift(n=1, beta1=lambda x: np.asarray(x, float), k_lipschitz=1.0)
    d = np.array([0.2])
    fwd = step_surface(np.array([0.3]), drift, 0.1, d, np.ones(1))
    assert fwd[0] == pytest.approx(0.5 / 0.9, abs=1e-12)  # w = 0.3 + 0.1 w + 0.2
    back = explicit_step(fwd, 0.1, -d, drift)
    assert abs(back[0] - 0.3) < 1e-12


def test_line_step_forward_backward_inverse():
    drift = BilinearDrift()
    anchor, u = np.array([0.4, 0.1]), np.array([1.0, 2.0])
    d = np.array([0.05, -0.08])
    dt = 0.01
    fwd = step_surface(anchor, drift, dt, d)
    # the direction follows its own deterministic substep
    assert np.allclose(_direction_path(u, dt, 1), [u, u + dt * np.array([u[1], u[0]])])
    # the explicit step inverts the implicit anchor step exactly
    back = explicit_step(fwd, dt, -d, drift)
    assert np.allclose(back, anchor, atol=1e-12)


def test_plane_step_forward_backward_inverse():
    drift = toy_logistic()
    d_normal = np.array([1.0, -1.0]) / np.sqrt(2.0)  # orthogonal to the inputs
    anchor = np.array([0.3, 0.0])
    d = np.array([0.05, 0.02])
    dt = 0.01
    fwd = step_surface(anchor, drift, dt, d, d_normal)
    # the anchor slides along the normal by the increment's share, so the
    # opposite slide takes it back
    assert np.allclose(fwd - (d_normal @ d) * d_normal, anchor, atol=1e-12)


def test_plane_step_rejects_tilted_drift():
    drift = ConstantDrift(np.array([1.0, 0.0]))
    with pytest.raises(ModelError):
        step_surface(np.zeros(2), drift, 0.01, np.array([0.1, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ModelError):
        step_surface(np.zeros((3, 2)), drift, 0.01, np.zeros((3, 2)), np.array([1.0, 0.0]))


@pytest.mark.parametrize("face", ["level", "line", "plane"])
def test_step_surface_moves_rows_as_single_anchors(face):
    rng = np.random.default_rng(7)
    n = 1 if face == "level" else 2
    anchors, inc = rng.normal(size=(5, n)), 0.1 * rng.normal(size=(5, n))
    drift, frame = {
        "level": (ConstantDrift(0.5), {"normal": np.ones(1)}),
        "line": (BilinearDrift(), {}),
        "plane": (toy_logistic(), {"normal": np.array([1.0, -1.0]) / np.sqrt(2.0)}),
    }[face]
    rows = step_surface(anchors, drift, 0.01, inc, **frame)
    single = [step_surface(a, drift, 0.01, d, **frame) for a, d in zip(anchors, inc)]
    assert rows.tobytes() == np.array(single).tobytes()


def test_surface_needs_one_normal_source():
    with pytest.raises(ModelError):
        Surface(np.zeros(2))
    with pytest.raises(ModelError):
        Surface(np.zeros(2), normal=np.array([1.0, 0.0]), u=np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# evolution


def test_trajectory_validation_and_reversal():
    grid = TimeGrid(1.0, 2)
    anchors = np.array([[0.0], [1.0], [2.0]])
    traj = SurfaceTrajectory(grid, anchors, np.ones(1))
    assert traj.anchors[1, 0] == 1.0
    rev = traj.reversed()
    assert rev.anchors[0, 0] == 2.0 and rev.anchors[2, 0] == 0.0
    u = np.array([[1.0, 2.0], [1.0, 3.0], [0.0, 1.0]])
    line = SurfaceTrajectory(grid, np.zeros((3, 2)), u=u)
    assert line.reversed().normals.tolist() == [[1.0, -0.0], [3.0, -1.0], [2.0, -1.0]]
    with pytest.raises(ModelError):
        SurfaceTrajectory(grid, anchors[:2], np.ones(1))  # wrong node count
    with pytest.raises(ModelError):
        SurfaceTrajectory(grid, anchors)  # neither a normal nor a u path
    with pytest.raises(ModelError):
        SurfaceTrajectory(grid, np.zeros((3, 2)), np.array([1.0, 0.0]), u)  # both


# the anchors and directions of a 3-node line and plane trajectory, as
# first written when the three surface families were separate types; the
# line's anchors are the bilinear drift's closed-form implicit solve, and
# the plane's anchor moves along its normal by the normal's share of each
# increment (the plane's node 2 re-recorded, by at most 5.6e-17, when that
# share became a coordinate-by-coordinate sum in place of a BLAS dot)
GOLDEN_LINE = {
    "u": [[1.0, 2.0], [1.02, 2.01], [1.0401, 2.0202]],
    "anchor": [[0.4, 0.1], [0.45024502450245024, 0.024502450245024506],
               [0.42163221222612307, 0.13871877236728572]],
}
GOLDEN_PLANE = {
    "normal": [0.7071067811865475, -0.7071067811865475],
    "anchor": [[0.3, 0.0], [0.365, -0.06499999999999999],
               [0.29500000000000004, 0.0049999999999999906]],
}


def test_surface_golden_anchors_and_directions():
    # a path that starts above both faces takes the forward flow's
    # degenerate branch, whose face steps take the plain noise
    grid = TimeGrid(0.02, 2)
    noise = SamplePath(grid, np.array([[0.0, 0.0], [0.05, -0.08], [0.02, 0.03]]))
    above = SamplePath(grid, np.tile([5.0, 0.0], (3, 1)))
    line = Surface(np.array([0.4, 0.1]), u=np.array([1.0, 2.0]))
    plane = Surface(np.array([0.3, 0.0]), normal=np.array([1.0, -1.0]) / np.sqrt(2.0))
    flow = forward_flow(above, line, noise, BilinearDrift())
    assert flow.outside
    assert flow.surfaces.u.tolist() == GOLDEN_LINE["u"]
    assert flow.surfaces.anchors.tolist() == GOLDEN_LINE["anchor"]
    flow = forward_flow(above, plane, noise, toy_logistic())
    assert flow.outside
    assert flow.surfaces.normal.tolist() == GOLDEN_PLANE["normal"]
    assert flow.surfaces.anchors.tolist() == GOLDEN_PLANE["anchor"]
