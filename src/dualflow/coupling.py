"""Linked primal-dual couplings, the 2M-W construction, and region sampling.

A coupling run stitches the layers together: the primal point starts from
the region-conditional law of its dual state, the primal path runs
forward, driving noise is imputed from the path, the reflection flow pins
the path under the evolving upper surface, and the dual pair consumes the
reflected noise (lower side) and its coordinate-1 flip (upper side, which
is precisely the surface the flow evolved).  Along such a run the region
indicator is conserved: the dual interval, strip, or slab keeps covering
the primal point at every grid node.

Entrance runs start the dual degenerate with the primal point on the
shared boundary; the gap leaves zero immediately and, under the invariant
clock of the gap's quadratic variation, behaves like a three-dimensional
Bessel process.  The closing construction turns all of this into a
sampler for the invariant density restricted to a region: stop an
entrance coupling when the dual covers the region, and the primal point,
conditioned to lie in the region, has exactly the restricted law.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    ConstantDrift,
    DriftField,
    LogisticDrift,
    ModelError,
    NumericalError,
    RngSpec,
    SamplePath,
    TimeGrid,
    brownian_increments,
    euler_backward,
    euler_backward_values,
    euler_forward_implicit,
    partial_sums,
    uniforms,
)
from .duals import (
    DualState,
    IntervalState,
    SlabState,
    WedgeState,
    _interval_mass,
    covers,
    face_gap,
    plane_density,
    _plane_density_sampler,
    sample_conditional,
    span_normal,
)
from .reflection import _impute_increments, flow_constant_1d, forward_flow, impute_noise
from .surfaces import _normal_of


# ---------------------------------------------------------------------------
# the coupling trajectory


@dataclass(frozen=True)
class CouplingTrajectory:
    """Joint path of a dual region and the primal point it covers.

    z_path and y_path hold the lower and upper anchors per grid node (for
    intervals these are the endpoint paths; for strips and slabs, anchor
    points of the two boundary surfaces).  gamma_flags records the region
    indicator at each node; sigma is the reflection compensator of the
    upper side; wiener is the fresh noise that drove the primal, noise the
    imputed driving noise, and reflected the flow's transformed noise that
    drives the lower side.
    """

    family: str
    grid: TimeGrid
    primal: SamplePath
    z_path: SamplePath
    y_path: SamplePath
    sigma: SamplePath
    gamma_flags: np.ndarray
    wiener: SamplePath
    noise: SamplePath
    reflected: SamplePath
    u_path: Optional[np.ndarray] = None
    normal: Optional[np.ndarray] = None

    def gap(self) -> np.ndarray:
        """Defining separation functional of the dual pair at each node."""
        # e_1 for an interval, the slab's d, or (u_2, -u_1) per node
        normal = self.normal if self.u_path is None else _normal_of(self.u_path)
        return face_gap(np.ones(1) if normal is None else normal, self.z_path.values,
                        self.y_path.values)


# ---------------------------------------------------------------------------
# running couplings


def run_coupling(
    state0: DualState,
    drift: DriftField,
    grid: TimeGrid,
    rng: RngSpec,
    x0: Optional[np.ndarray] = None,
) -> CouplingTrajectory:
    """Run the linked coupling from a dual state.

    The primal start is drawn from the region-conditional invariant law
    unless given.  The primal runs with the explicit scheme driven by
    fresh noise; its driving noise is imputed so the path is exactly
    implicit-consistent; the upper side is the reflection flow's surface;
    the lower side is the implicit flow of the reflected noise.  For a
    constant-drift interval every ingredient has a node-space closed form
    and that form is used, making grid identities exact to float dust.
    A numerical failure names the run's (seed, stream).
    """
    if state0.absorbed:
        raise ModelError("cannot couple from an absorbed state")
    gen = rng.generator()
    try:
        if x0 is None:
            x0 = sample_conditional(state0, drift, gen).point
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        return _couple(state0, drift, grid, x0, gen)
    except NumericalError as err:
        raise NumericalError(f"coupling (seed {rng.seed}, stream {rng.stream}): {err}") from err


def _couple(
    state0: DualState,
    drift: DriftField,
    grid: TimeGrid,
    x0: np.ndarray,
    gen: np.random.Generator,
) -> CouplingTrajectory:
    """Drive the coupling with the generator's next Brownian draws."""
    wiener = SamplePath(grid, partial_sums(brownian_increments(gen, grid, (state0.n,))))
    if isinstance(state0, IntervalState) and isinstance(drift, ConstantDrift):
        return _interval_constant_coupling(state0, drift, grid, x0, wiener)
    return _general_coupling(state0, drift, grid, x0, wiener)


def _interval_constant_coupling(
    state0: IntervalState,
    drift: ConstantDrift,
    grid: TimeGrid,
    x0: np.ndarray,
    wiener: SamplePath,
) -> CouplingTrajectory:
    mu = float(drift.mu[0])
    times = grid.times
    w = wiener.values[:, 0]
    x_start = float(x0[0])
    X = x_start - mu * times + w
    omega = w - 2.0 * mu * times
    flow = flow_constant_1d(state0.y, mu, x0[:1], omega[:, None], times)
    sigma, xi, Y = (flow[key][:, 0] for key in ("sigma", "xi", "levels"))
    Z = state0.z + mu * times + xi

    if flow["outside"][0]:
        # start above the surface: degenerate flow branch
        upper = np.zeros(grid.N + 1, dtype=bool)
    else:
        # sigma >= 2 omega - gap holds exactly by the running-max construction
        upper = sigma >= 2.0 * omega - (state0.y - x_start)
    lower = (x_start - state0.z) + sigma > 0.0
    gamma = upper & lower

    return CouplingTrajectory(
        family="interval",
        grid=grid,
        primal=SamplePath(grid, X),
        z_path=SamplePath(grid, Z),
        y_path=SamplePath(grid, Y),
        sigma=SamplePath(grid, sigma),
        gamma_flags=gamma,
        wiener=wiener,
        noise=SamplePath(grid, omega),
        reflected=SamplePath(grid, xi),
    )


def _general_coupling(
    state0: DualState,
    drift: DriftField,
    grid: TimeGrid,
    x0: np.ndarray,
    wiener: SamplePath,
) -> CouplingTrajectory:
    x_path = euler_backward(x0, wiener, drift)
    omega = impute_noise(x_path, drift)
    flow = forward_flow(x_path, state0.upper_face(), omega, drift)
    xi = flow.reflected_noise
    z_path = euler_forward_implicit(np.atleast_1d(state0.z), xi, drift)
    surfaces = flow.surfaces

    return CouplingTrajectory(
        family=state0.family,
        grid=grid,
        primal=x_path,
        z_path=z_path,
        y_path=SamplePath(grid, surfaces.anchors),
        sigma=flow.sigma,
        gamma_flags=covers(surfaces.normals, z_path.values, surfaces.anchors, x_path.values),
        wiener=wiener,
        noise=omega,
        reflected=xi,
        u_path=surfaces.u,
        normal=surfaces.normal if state0.n > 1 else None,
    )


def run_entrance_coupling(
    start: Union[float, DualState],
    drift: DriftField,
    grid: TimeGrid,
    rng: RngSpec,
) -> CouplingTrajectory:
    """Run a coupling from a degenerate dual state on its own boundary.

    For an interval the start is a point x with the pair beginning at
    (x, x).  For a strip the start is a degenerate state whose two lines
    coincide, and the primal point is drawn on that line from the
    invariant density restricted to it, via a numeric inverse CDF of the
    tilted Gaussian along the line.  For a slab the two faces coincide and
    the primal point is the face's in-plane invariant draw.  The region
    indicator is false at time zero by construction (the point sits on the
    boundary).  Only the closed-form interval gap surely leaves zero at
    once and stays positive; strip and slab gaps can touch zero again.
    """
    gen = rng.generator()
    if isinstance(start, (int, float)):
        state0 = IntervalState(float(start), float(start))
        x0 = np.array([float(start)])
    elif isinstance(start, IntervalState):
        if start.y != start.z:
            raise ModelError("entrance interval must be degenerate (z == y)")
        state0 = start
        x0 = np.array([start.z])
    elif isinstance(start, (WedgeState, SlabState)) and abs(start.gap()) > 1e-12:
        raise ModelError(f"entrance {start.family} must have coincident faces")
    elif isinstance(start, WedgeState):
        state0 = start
        x0 = _entrance_point_on_line(start, gen)
    elif isinstance(start, SlabState):
        if not isinstance(drift, LogisticDrift):
            raise ModelError("slab entrance requires the logistic drift family")
        state0 = start
        pd = plane_density(drift, start.normal)
        w = _plane_density_sampler(pd, gen, 1)[0]
        x0 = pd.basis @ w + float(start.normal @ start.y) * start.normal
    else:
        raise ModelError(f"unsupported entrance start {type(start)}")

    if state0.n > 1:
        # the draw lands on the shared boundary only up to rounding, and the
        # reflection flow branches on exact containment; snap the first
        # coordinate onto the surface (an adjustment of at most a few ulps)
        x0[0] = min(x0[0], state0.upper_face().height(x0[1:]))

    return _couple(state0, drift, grid, x0, gen)


def _entrance_point_on_line(state: WedgeState, gen, points: int = 10000) -> np.ndarray:
    """Draw the primal start on the strip's boundary line, density proportional to nu.

    Along the line through y with direction u the invariant density is a
    tilted Gaussian in the line coordinate; it is inverted numerically on
    a table spanning twelve standard deviations around its mode.
    """
    u = state.u
    if not 0.0 < u[0] < u[1]:
        raise ModelError(f"direction outside the entrance cone: u={u.tolist()}")
    uhat = u / math.sqrt(float(u @ u))
    y = state.y
    # exponent of nu along y + s*uhat: -2(y1 + s u1)(y2 + s u2)
    a = uhat[0] * uhat[1]
    b = y[0] * uhat[1] + y[1] * uhat[0]
    mean = -b / (2.0 * a)
    sd = 1.0 / math.sqrt(4.0 * a)
    s_grid = np.linspace(mean - 12.0 * sd, mean + 12.0 * sd, points + 1)
    logw = -2.0 * (y[0] + s_grid * uhat[0]) * (y[1] + s_grid * uhat[1])
    wts = np.exp(logw - np.max(logw))
    mids = 0.5 * (wts[1:] + wts[:-1]) * np.diff(s_grid)
    cdf = np.concatenate(([0.0], np.cumsum(mids)))
    cdf /= cdf[-1]
    s = float(np.interp(float(uniforms(gen, ())), cdf, s_grid))
    return y + s * uhat


def pitman_construct(w: SamplePath, mu: float) -> SamplePath:
    """Twice the running maximum minus the drift-adjusted path.

    With omega(t) = W(t) - 2 mu t and M its running grid maximum, the
    output is V = 2M - omega, evaluated node by node.
    """
    if w.dim != 1:
        raise ModelError("construction needs a one-dimensional path")
    om = w.values[:, 0] - 2.0 * mu * w.grid.times
    m = np.maximum.accumulate(om)
    return SamplePath(w.grid, 2.0 * m - om)


# ---------------------------------------------------------------------------
# Bessel clock


@dataclass(frozen=True)
class BesselDiagnostics:
    """Gap of an entrance coupling under its intrinsic clock.

    m_path and R_path live on the coupling's grid; R is the running
    quadratic-variation clock sum of m^2.  tau inverts R onto an output
    grid spanning [0, R(T)], and H_path is the dual mass read along tau.
    truncated marks requested evaluation times beyond R(T).
    """

    m_path: SamplePath
    R_path: SamplePath
    tau: SamplePath
    H_path: SamplePath
    truncated: bool


def _mass_rate(traj: CouplingTrajectory, drift: DriftField) -> np.ndarray:
    """Closed-form m(X*(v)) = (d/dy - d/dz) applied to the region mass."""
    if traj.family == "interval":
        if not isinstance(drift, ConstantDrift):
            raise ModelError("closed-form rate needs constant drift on intervals")
        mu = float(drift.mu[0])
        z = traj.z_path.values[:, 0]
        y = traj.y_path.values[:, 0]
        return np.exp(-2.0 * mu * y) + np.exp(-2.0 * mu * z)
    if traj.family == "slab":
        return np.full(traj.grid.N + 1, 2.0 * float(traj.normal[0]))
    raise ModelError(f"no closed-form clock rate for the {traj.family} family")


def _mass_path(traj: CouplingTrajectory, drift: DriftField) -> np.ndarray:
    if traj.family == "interval":
        return _interval_mass(traj.z_path.values[:, 0], traj.y_path.values[:, 0],
                              float(drift.mu[0]))
    return traj.gap()


def bessel_time_change(
    traj: CouplingTrajectory,
    drift: DriftField,
    eval_times: Optional[np.ndarray] = None,
) -> BesselDiagnostics:
    """Reclock the dual mass of a coupling by its quadratic-variation rate.

    R accumulates m^2 with left-endpoint sums; tau inverts R by linear
    interpolation.  By default H is reported on a grid of the coupling's
    node count spanning [0, R(T)]; explicit eval_times beyond R(T) yield
    NaN entries and set the truncated flag.
    """
    m = _mass_rate(traj, drift)
    v_times = traj.grid.times
    dv = traj.grid.dt
    R = np.zeros(traj.grid.N + 1)
    np.cumsum(m[:-1] ** 2 * dv, out=R[1:])
    h_vals = _mass_path(traj, drift)

    R_total = float(R[-1])
    truncated = False
    if eval_times is None:
        out_grid = TimeGrid(R_total, traj.grid.N)
        t_eval = out_grid.times
    else:
        t_eval = np.asarray(eval_times, dtype=float)
        if t_eval.ndim != 1 or t_eval.shape[0] < 2:
            raise ModelError("eval_times must be a 1-d array with at least 2 entries")
        out_grid = TimeGrid(float(t_eval[-1]), t_eval.shape[0] - 1)
        truncated = bool(np.any(t_eval > R_total))

    inside = t_eval <= R_total
    tau = np.full(t_eval.shape, np.nan)
    H = np.full(t_eval.shape, np.nan)
    tau[inside] = np.interp(t_eval[inside], R, v_times)
    H[inside] = np.interp(tau[inside], v_times, h_vals)
    return BesselDiagnostics(
        m_path=SamplePath(traj.grid, m),
        R_path=SamplePath(traj.grid, R),
        tau=SamplePath(out_grid, tau),
        H_path=SamplePath(out_grid, H),
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# region sampler


@dataclass(frozen=True)
class RegionSamples:
    """Accepted draws from the invariant density restricted to a region."""

    samples: np.ndarray
    accepted: int
    attempts: int
    covered: int
    stop_times: np.ndarray
    truncated: bool
    meta: dict

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0


def mc_region_sampler(
    region: tuple,
    h1: Union[float, SlabState, None],
    drift: DriftField,
    rng: RngSpec,
    count: int = 2000,
    max_attempts: int = 200000,
    horizon: float = 8.0,
    dt: float = 0.002,
) -> RegionSamples:
    """Sample the invariant density on a region via stopped entrance couplings.

    Each attempt starts an entrance coupling on the degenerate dual state
    h1 (default: through the region midpoint), runs it until the first
    grid time at which the dual region covers the requested region, and
    accepts the primal point if it lies in the region.  The stopping rule
    depends on the dual path only, so accepted points follow the
    conditional invariant law restricted to the region: for an interval,
    the truncated-exponential density; for a slab, a uniform offset along
    the normal times the in-plane invariant density.  Attempts whose
    stopping time exceeds the horizon are discarded; if the attempt budget
    runs out before `count` acceptances, partial results return with the
    truncated flag set.  Attempt k draws from stream rng.stream + k alone,
    so the first samples do not depend on `count`.  A slab attempt runs
    in blocks of steps and ends at its stopping time, so its cost scales
    with that time, not with the horizon; only an attempt that never
    covers runs the whole horizon.  A numerical failure names the
    attempt's (seed, stream).

    ModelError is raised unless the region is an increasing pair, count
    and max_attempts are at least 1, dt is positive and finite, and the
    drift is 1-d constant or logistic; a logistic drift also needs h1 to
    be None or a degenerate SlabState (gap 0).
    """
    lo, hi = float(region[0]), float(region[1])
    if not lo < hi:
        raise ModelError(f"region must be an increasing pair, got ({lo}, {hi})")
    if not (count >= 1 and max_attempts >= 1):
        raise ModelError(f"count and max_attempts must be >= 1, got {count} and {max_attempts}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ModelError(f"time step must be positive and finite, got dt={dt}")
    grid = TimeGrid(horizon, max(int(round(horizon / dt)), 1))

    if isinstance(drift, ConstantDrift) and drift.n == 1:
        start = float(h1) if h1 is not None else 0.5 * (lo + hi)
        meta_start = start

        def attempt(spec):
            return _interval_region_attempt(lo, hi, start, drift, grid, spec)

    elif isinstance(drift, LogisticDrift):
        if h1 is None:
            anchor = 0.5 * (lo + hi)
            d, _ = span_normal(drift.inputs)
            h1 = SlabState(anchor * d, anchor * d, d)
        if not isinstance(h1, SlabState) or h1.gap() != 0.0:
            raise ModelError("slab region sampling needs a degenerate slab start")
        meta_start = {"anchor_offset": float(h1.normal @ h1.y), "normal": h1.normal.tolist()}
        pd = plane_density(drift, h1.normal)

        def attempt(spec):
            return _slab_region_attempt(lo, hi, h1, grid, spec, pd)

    else:
        raise ModelError("region sampling supports 1-d constant drift or logistic slabs")

    samples = []
    stop_times = []
    attempts = 0
    covered = 0
    while len(samples) < count and attempts < max_attempts:
        spec = RngSpec(rng.seed, rng.stream + attempts)
        attempts += 1
        try:
            hit = attempt(spec)
        except NumericalError as err:
            raise NumericalError(
                f"region attempt (seed {spec.seed}, stream {spec.stream}): {err}"
            ) from err
        if hit is None:
            continue
        covered += 1
        point, t_stop, accept = hit
        if accept:
            samples.append(point)
            stop_times.append(t_stop)
    truncated = len(samples) < count
    return RegionSamples(
        samples=np.asarray(samples) if samples else np.empty((0, drift.n)),
        accepted=len(samples),
        attempts=attempts,
        covered=covered,
        stop_times=np.asarray(stop_times),
        truncated=truncated,
        meta={
            "region": [lo, hi],
            "start": meta_start,
            "horizon": horizon,
            "dt": grid.dt,
            "seed": rng.seed,
            "stream0": rng.stream,
        },
    )


def _interval_region_attempt(lo, hi, start, drift, grid, spec):
    traj = run_entrance_coupling(start, drift, grid, spec)
    cover = (traj.z_path.values[:, 0] < lo) & (hi <= traj.y_path.values[:, 0])
    if not np.any(cover):
        return None
    j = int(np.argmax(cover))
    x_t = float(traj.primal.values[j, 0])
    return np.array([x_t]), float(grid.times[j]), bool(lo < x_t <= hi)


_BLOCK = 64  # steps a slab attempt simulates before it checks for a cover


def _slab_region_attempt(lo, hi, start, grid, spec, pd):
    d = start.normal
    drift = pd.drift
    gen = spec.generator()
    w0 = _plane_density_sampler(pd, gen, 1)[0]
    x = pd.basis @ w0 + float(d @ start.y) * d

    # projections onto the normal close on their own: the drift is
    # orthogonal to it, the far-endpoint crossing test projects to
    # pX + d1*(do1 + |do1|) > pA, the face moves with the flipped
    # reflected increment and the lower side with the reflected one.
    # The attempt runs block by block and stops at the first covering
    # node; the Wiener and imputed-noise sums carry across blocks, so
    # every value is the one a full-horizon run would compute
    d1 = float(d[0])
    pA = float(d @ start.y)
    pZ = pA
    w_end = om_end = np.zeros(drift.n)
    for first in range(0, grid.N, _BLOCK):
        block = grid.block(first, _BLOCK)
        wiener = _sums_from(w_end, brownian_increments(gen, block, (drift.n,)))
        X = euler_backward_values(block, x, wiener, drift)
        omega = _sums_from(om_end, _impute_increments(X, block.dt, drift))
        om_inc = np.diff(omega, axis=0)
        # over two or more rows, as one row can round differently; po
        # stays one row at a time, as a batched product rounds differently
        # (a row's .dot and @ run the same BLAS dot, and .dot calls it sooner)
        pX = (X @ d).tolist()
        for i, (inc, po1) in enumerate(zip(om_inc, om_inc[:, 0].tolist())):
            po = float(inc.dot(d))
            crossing = pX[i] + d1 * (po1 + abs(po1)) > pA
            dsig = 2.0 * po1 if crossing else 0.0
            pA = pA + po + d1 * (dsig - 2.0 * po1)
            pZ = pZ + po - d1 * dsig
            if pZ < lo and hi <= pA:
                j = first + i + 1
                return X[i + 1].copy(), float(grid.times[j]), lo < pX[i + 1] <= hi
        x, w_end, om_end = X[-1], wiener[-1], omega[-1]
    return None


def _sums_from(carry: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Running sums of the increments after carry, with carry as row 0."""
    return np.cumsum(np.vstack((carry, increments)), axis=0)


# ---------------------------------------------------------------------------
# serialization


def write_coupling_jsonl(fp, traj: CouplingTrajectory) -> None:
    """One record per grid node; header record carries family metadata."""
    head = {"family": traj.family, "T": traj.grid.T, "N": traj.grid.N}
    if traj.normal is not None:
        head["normal"] = traj.normal.tolist()
    fp.write(json.dumps(head) + "\n")
    for j, t in enumerate(traj.grid.times):
        rec = {
            "t": float(t),
            "x": traj.primal.values[j].tolist(),
            "z": traj.z_path.values[j].tolist(),
            "y": traj.y_path.values[j].tolist(),
            "sigma": float(traj.sigma.values[j, 0]),
            "gamma": bool(traj.gamma_flags[j]),
            "w": traj.wiener.values[j].tolist(),
            "omega": traj.noise.values[j].tolist(),
            "xi": traj.reflected.values[j].tolist(),
        }
        if traj.u_path is not None:
            rec["u"] = traj.u_path[j].tolist()
        fp.write(json.dumps(rec) + "\n")


def read_coupling_jsonl(fp) -> CouplingTrajectory:
    head = json.loads(fp.readline())
    rows = [json.loads(line) for line in fp if line.strip()]

    def col(key):
        return np.asarray([r[key] for r in rows], dtype=float)

    u_path = col("u") if rows and "u" in rows[0] else None
    return trajectory_from_columns(head, col, [r["gamma"] for r in rows], u_path)


# per-node record fields and the trajectory paths they fill
_RECORD_PATHS = (("x", "primal"), ("z", "z_path"), ("y", "y_path"), ("sigma", "sigma"),
                 ("w", "wiener"), ("omega", "noise"), ("xi", "reflected"))


def trajectory_from_columns(head: dict, column, gamma, u_path) -> CouplingTrajectory:
    """Rebuild a trajectory from its header record and per-node columns.

    column(key) returns the node values of the record field key (x, z, y,
    sigma, w, omega or xi); gamma holds the region flag of each node and
    u_path the strip direction per node (None for other families).
    """
    grid = TimeGrid(float(head["T"]), int(head["N"]))
    if len(gamma) != grid.N + 1:
        raise ValueError(f"expected {grid.N + 1} records, got {len(gamma)}")
    normal = np.asarray(head["normal"], dtype=float) if "normal" in head else None
    paths = {name: SamplePath(grid, column(key)) for key, name in _RECORD_PATHS}
    return CouplingTrajectory(family=head["family"], grid=grid,
                              gamma_flags=np.asarray(gamma, dtype=bool), u_path=u_path,
                              normal=normal, **paths)


def write_region_csv(fp, result: RegionSamples) -> None:
    """Accepted samples with acceptance metadata in leading comment lines."""
    fp.write(f"# accepted={result.accepted} attempts={result.attempts} "
             f"covered={result.covered} truncated={result.truncated}\n")
    fp.write(f"# meta={json.dumps(result.meta, sort_keys=True)}\n")
    n = result.samples.shape[1] if result.samples.size else 0
    cols = [f"x_{i + 1}" for i in range(n)] + ["stop_time"]
    fp.write(",".join(cols) + "\n")
    for row, t in zip(result.samples, result.stop_times):
        fp.write(",".join(format(v, ".17g") for v in (*row, t)) + "\n")
