"""Hypographical surfaces: geometry, stepping, evolution, serialization."""

import io
import json

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
    sample_brownian,
    step_surface,
)
from dualflow.surfaces import read_surfaces_jsonl, write_surfaces_jsonl


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
    assert s.variant == "level"


def test_line_surface_geometry():
    s = Surface(np.array([0.4, 0.0]), u=np.array([1.0, 2.0]))
    # graph over x2 with slope u1/u2 through the anchor
    assert s.height(np.array([2.0])) == pytest.approx(0.4 + 0.5 * 2.0)
    assert s.contains(np.array([1.4, 2.0]))
    assert not s.contains(np.array([1.41, 2.0]))
    assert s.variant == "line"


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
    assert s.variant == "plane"


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
    back = step_surface(fwd, drift, 0.1, -d, backward=True)
    assert back.anchor[0] == pytest.approx(0.3, abs=1e-15)


def test_level_step_inverts_for_state_dependent_drift():
    # beta_1(x) = x: an explicit forward step would come back to 0.277
    drift = ProductDrift(n=1, beta1=lambda x: np.asarray(x, float), k_lipschitz=1.0)
    s = Surface.level(0.3)
    d = np.array([0.2])
    fwd = step_surface(s, drift, 0.1, d)
    back = step_surface(fwd, drift, 0.1, -d, backward=True)
    assert abs(back.anchor[0] - 0.3) < 1e-12


def test_line_step_forward_backward_inverse():
    drift = BilinearDrift()
    s = Surface(np.array([0.4, 0.1]), u=np.array([1.0, 2.0]))
    d = np.array([0.05, -0.08])
    dt = 0.01
    fwd = step_surface(s, drift, dt, d)
    # direction follows its own deterministic substep
    assert np.allclose(fwd.u, s.u + dt * np.array([s.u[1], s.u[0]]))
    back = step_surface(fwd, drift, dt, -d, backward=True)
    # the anchor inverts exactly (implicit/explicit pair); the direction
    # substep only inverts to second order in dt
    assert np.allclose(back.anchor, s.anchor, atol=1e-12)
    assert np.allclose(back.u, s.u, atol=5.0 * dt**2)


def test_plane_step_forward_backward_inverse():
    drift = toy_logistic()
    d_normal = np.array([1.0, -1.0]) / np.sqrt(2.0)  # orthogonal to the inputs
    s = Surface(np.array([0.3, 0.0]), normal=d_normal)
    d = np.array([0.05, 0.02])
    dt = 0.01
    fwd = step_surface(s, drift, dt, d)
    back = step_surface(fwd, drift, dt, -d, backward=True)
    assert np.allclose(back.anchor, s.anchor, atol=1e-12)


def test_plane_step_rejects_tilted_drift():
    drift = ConstantDrift(np.array([1.0, 0.0]))
    s = Surface(np.zeros(2), normal=np.array([1.0, 0.0]))
    with pytest.raises(ModelError):
        step_surface(s, drift, 0.01, np.array([0.1, 0.0]))


def test_variant_name_unknown():
    rec = {"t": 0.0, "variant": "ellipse", "params": {"normal": [1.0, 0.0], "anchor": [0.0, 0.0]}}
    with pytest.raises(ModelError):
        read_surfaces_jsonl(io.StringIO(json.dumps(rec) + "\n"))


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
    assert len(full) == grid.N + 1

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


# ---------------------------------------------------------------------------
# serialization


def test_surfaces_jsonl_round_trip():
    grid = TimeGrid(0.5, 20)
    noise = sample_brownian(grid, 2, RngSpec(31, 1))
    s0 = Surface(np.array([0.4, 0.1]), u=np.array([1.0, 2.0]))
    traj = evolve_surface(s0, noise, BilinearDrift())
    buf = io.StringIO()
    write_surfaces_jsonl(buf, traj)
    buf.seek(0)
    back = read_surfaces_jsonl(buf)
    assert len(back) == len(traj)
    for k in range(len(traj)):
        a, b = traj[k], back[k]
        assert np.allclose(a.anchor, b.anchor, atol=0.0)
        assert np.allclose(a.u, b.u, atol=0.0)


# the file format of a 3-node line and plane trajectory, as written before
# the three surface families became one type; the line's anchors are the
# bilinear drift's closed-form implicit solve
GOLDEN_LINE = (
    '{"t": 0.0, "variant": "line", "params": {"u": [1.0, 2.0], "anchor": [0.4, 0.1]}}\n'
    '{"t": 0.01, "variant": "line", "params": {"u": [1.02, 2.01], '
    '"anchor": [0.45024502450245024, 0.024502450245024506]}}\n'
    '{"t": 0.02, "variant": "line", "params": {"u": [1.0401, 2.0202], '
    '"anchor": [0.42163221222612307, 0.13871877236728572]}}\n'
)
GOLDEN_PLANE = (
    '{"t": 0.0, "variant": "plane", "params": {"normal": [0.7071067811865475, '
    '-0.7071067811865475], "anchor": [0.3, 0.0]}}\n'
    '{"t": 0.01, "variant": "plane", "params": {"normal": [0.7071067811865475, '
    '-0.7071067811865475], "anchor": [0.35135516329623984, -0.07864483670376013]}}\n'
    '{"t": 0.02, "variant": "plane", "params": {"normal": [0.7071067811865475, '
    '-0.7071067811865475], "anchor": [0.3231177402070264, 0.03311774020702644]}}\n'
)


def test_surfaces_jsonl_golden_bytes():
    grid = TimeGrid(0.02, 2)
    noise = SamplePath(grid, np.array([[0.0, 0.0], [0.05, -0.08], [0.02, 0.03]]))
    line = Surface(np.array([0.4, 0.1]), u=np.array([1.0, 2.0]))
    plane = Surface(np.array([0.3, 0.0]), normal=np.array([1.0, -1.0]) / np.sqrt(2.0))
    for s0, drift, golden in ((line, BilinearDrift(), GOLDEN_LINE),
                              (plane, toy_logistic(), GOLDEN_PLANE)):
        buf = io.StringIO()
        write_surfaces_jsonl(buf, evolve_surface(s0, noise, drift))
        assert buf.getvalue() == golden
        # reading the golden text back and writing it again keeps every byte
        again = io.StringIO()
        write_surfaces_jsonl(again, read_surfaces_jsonl(io.StringIO(golden)))
        assert again.getvalue() == golden
