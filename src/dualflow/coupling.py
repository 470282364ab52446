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

import itertools
import json
import math
import re
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
    SchemeDivergence,
    TimeGrid,
    _write_csv,
    _write_rows,
    brownian_increments,
    euler_backward,
    euler_backward_values,
    euler_forward_implicit,
    partial_sums,
)
from .duals import (
    _FAMILIES,
    DualState,
    IntervalState,
    SlabState,
    _FacePair,
    covers,
    face_gap,
    plane_density,
    sample_conditional,
    span_normal,
)
from .reflection import _impute_increments, flow_constant_1d, forward_flow, impute_noise
from .surfaces import _along, _normal_of, _slide


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
    the lower side is the implicit flow of the reflected noise, or for a
    slab its closed-form slide along the normal.  For a constant-drift
    interval every ingredient has a node-space closed form and that form
    is used, making grid identities exact to float dust.  A numerical
    failure names the run's (seed, stream).
    """
    if state0.absorbed:
        raise ModelError("cannot couple from an absorbed state")
    gen = rng.generator()
    try:
        if x0 is None:
            x0 = sample_conditional(state0, drift, gen)
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

    # inside, the upper cover sigma >= 2 omega - gap holds exactly by the
    # running maximum, so the lower side decides; outside, nothing covers
    gamma = ((x_start - state0.z) + sigma > 0.0) & ~flow["outside"][0]

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
    """Coupling through the stepwise reflection flow.

    The upper face is the surface the flow evolves.  A slab's lower face
    slides along its normal d in closed form, by d . xi over [0, t] (its
    drift is orthogonal to d, which the flow's surface steps check), so a
    slab run solves no implicit step; any other lower side is the
    implicit flow of the reflected noise xi.
    """
    x_path = euler_backward(x0, wiener, drift)
    omega = impute_noise(x_path, drift)
    flow = forward_flow(x_path, state0.upper_face(), omega, drift)
    xi = flow.reflected_noise
    if isinstance(state0, SlabState):
        z_path = SamplePath(grid, _slide(state0.z, state0.normal, xi.values))
    else:
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
    invariant density restricted to it, a Gaussian along the line.  For a
    slab the two faces coincide and the primal point is the face's
    in-plane invariant draw.  The region indicator is false at time zero
    by construction (the point sits on the boundary).  The gap then leaves
    zero at once and stays positive: the interval's in closed form, the
    strip's and slab's because the flow triggers a reflection only on a
    positive coordinate-1 increment.  A numerical failure names the run's
    (seed, stream).
    """
    gen = rng.generator()
    try:
        if isinstance(start, (int, float)):
            start = IntervalState(float(start), float(start))
        elif not isinstance(start, _FacePair):
            raise ModelError(f"unsupported entrance start {type(start)}")
        x0 = start._entrance_point(drift, gen)
        if start.n > 1:
            # the draw lands on the shared boundary only up to rounding, and the
            # reflection flow branches on exact containment; snap the first
            # coordinate onto the surface (an adjustment of at most a few ulps)
            x0[0] = min(x0[0], start.upper_face().height(x0[1:]))
        return _couple(start, drift, grid, x0, gen)
    except NumericalError as err:
        raise NumericalError(f"coupling (seed {rng.seed}, stream {rng.stream}): {err}") from err


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
    quadratic-variation clock sum of m^2.  H_path is the dual mass read
    along the inverse of R, on an output grid spanning [0, R(T)].
    truncated marks requested evaluation times beyond R(T).
    """

    m_path: SamplePath
    R_path: SamplePath
    H_path: SamplePath
    truncated: bool


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
    m, h_vals = _FAMILIES[traj.family]._mass_clock(traj, drift)
    v_times = traj.grid.times
    dv = traj.grid.dt
    R = np.zeros(traj.grid.N + 1)
    np.cumsum(m[:-1] ** 2 * dv, out=R[1:])

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
    H = np.full(t_eval.shape, np.nan)
    tau = np.interp(t_eval[inside], R, v_times)
    H[inside] = np.interp(tau, v_times, h_vals)
    return BesselDiagnostics(
        m_path=SamplePath(traj.grid, m),
        R_path=SamplePath(traj.grid, R),
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
    so the first samples do not depend on `count`.

    Slab attempts run in waves of _WAVE consecutive streams, the rows of
    one array: each 64-step block is one explicit-scheme call and one
    noise imputation for the wave's pending attempts, while each attempt
    keeps its own generator and draw order (plane point, then noise block
    by block).  A resolved attempt leaves the array: it draws no more
    noise and is no longer stepped.  The drift is orthogonal to the slab
    normal d, so an attempt's cover scan runs in face coordinates along
    d, two floats per attempt (the upper face's offset above the
    primal's, and d1 times the compensator).  Like the reflection flow,
    it crosses only on an upward coordinate-1 increment, so an attempt
    stops at the first cover of its entrance coupling.  A wave stops once
    every attempt up to the count-th acceptance, in stream order, has
    resolved; later attempts are dropped, uncounted.  Waves keep their
    full width whatever the budget, and the rows a block steps depend on
    the wave's own streams alone, so an attempt's bits do not depend on
    count or max_attempts.  On data whose products are not exact (the
    bundled +-1 data's are), its last bits may depend on the other rows
    stepped with it, as a batched beta can round differently from a
    one-row one.  A numerical failure names the (seed, stream) of the
    first attempt, in stream order, that one attempt at a time would have
    failed on.

    ModelError is raised unless the region is an increasing pair, count
    and max_attempts are at least 1, dt is positive and finite, and the
    drift is 1-d constant or logistic; a constant drift also needs h1 to
    be None or a number, and a logistic one None or a degenerate
    SlabState (gap 0).
    """
    lo, hi = float(region[0]), float(region[1])
    if not lo < hi:
        raise ModelError(f"region must be an increasing pair, got ({lo}, {hi})")
    if not (count >= 1 and max_attempts >= 1):
        raise ModelError(f"count and max_attempts must be >= 1, got {count} and {max_attempts}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ModelError(f"time step must be positive and finite, got dt={dt}")
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ModelError(f"horizon must be positive and finite, got horizon={horizon}")
    grid = TimeGrid(horizon, max(int(round(horizon / dt)), 1))

    if isinstance(drift, ConstantDrift) and drift.n == 1:
        try:
            start = float(h1) if h1 is not None else 0.5 * (lo + hi)
        except (TypeError, ValueError) as err:
            raise ModelError(f"h1 must be None or a number, got {h1!r}") from err
        meta_start = start
        outcomes = _interval_region_attempts(lo, hi, start, drift, grid, rng)

    elif isinstance(drift, LogisticDrift):
        if h1 is None:
            anchor = 0.5 * (lo + hi)
            d, _ = span_normal(drift.inputs)
            h1 = SlabState(anchor * d, anchor * d, d)
        if not isinstance(h1, SlabState) or h1.gap() != 0.0:
            raise ModelError("slab region sampling needs a degenerate slab start")
        meta_start = {"anchor_offset": float(_along(h1.normal, h1.y)), "normal": h1.normal.tolist()}
        outcomes = _slab_region_attempts(lo, hi, h1, grid, rng, plane_density(drift, h1.normal))

    else:
        raise ModelError("region sampling supports 1-d constant drift or logistic slabs")

    samples = []
    stop_times = []
    attempts = 0
    covered = 0
    for hit in outcomes:
        attempts += 1
        if hit is not None:
            covered += 1
            point, t_stop, accept = hit
            if accept:
                samples.append(point)
                stop_times.append(t_stop)
        if len(samples) == count or attempts == max_attempts:
            break
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


def _attempt_error(spec: RngSpec, err: NumericalError) -> NumericalError:
    return NumericalError(f"region attempt (seed {spec.seed}, stream {spec.stream}): {err}")


def _interval_region_attempts(lo, hi, start, drift, grid, rng):
    """Outcomes of the interval attempts, one at a time in stream order."""
    for stream in itertools.count(rng.stream):
        spec = RngSpec(rng.seed, stream)
        try:
            traj = run_entrance_coupling(start, drift, grid, spec)
        except NumericalError as err:
            raise _attempt_error(spec, err) from err
        cover = (traj.z_path.values[:, 0] < lo) & (hi <= traj.y_path.values[:, 0])
        j = int(np.argmax(cover))
        x_t = float(traj.primal.values[j, 0])
        yield (np.array([x_t]), float(grid.times[j]), bool(lo < x_t <= hi)) if cover[j] else None


_BLOCK = 64  # steps a slab wave simulates before it scans for covers
_WAVE = 32  # slab attempts stepped together, as the rows of one array
_PENDING = object()  # outcome of an attempt that has not resolved yet


def _slab_region_attempts(lo, hi, start, grid, rng, pd):
    """Outcomes of the slab attempts in stream order, _WAVE attempts at a time."""
    for stream0 in itertools.count(rng.stream, _WAVE):
        specs = [RngSpec(rng.seed, stream0 + r) for r in range(_WAVE)]
        yield from _slab_wave(lo, hi, start, grid, specs, pd)


def _slab_wave(lo, hi, start, grid, specs, pd):
    """Run one attempt per spec as the rows of one array, and yield each
    outcome in order once it and every one before it have resolved.

    A block steps only the rows still pending, so a resolved row draws no
    more noise and is no longer stepped or scanned.  The drift is
    orthogonal to the normal d, so a row's scan closes in face
    coordinates: u = pA - pX, the upper face's offset above the primal's
    (u0 at the start), and s = d1 sigma.  With t = 2 d1 do1, a step
    crosses only on an upward increment that would cross the face
    (do1 > 0 and u < t, the flow's guard) and then adds t to s, or else
    moves u by -t; the lower face's offset is pX + u0 - s.
    """
    d = start.normal
    drift = pd.drift
    n = drift.n
    rows = len(specs)
    gens = [spec.generator() for spec in specs]
    offset = float(_along(d, start.y))
    outcome = [_PENDING] * rows
    x = np.zeros((rows, n))
    for r, gen in enumerate(gens):
        try:
            x[r] = start._entrance_point(drift, gen)
        except NumericalError as err:
            outcome[r] = _attempt_error(specs[r], err)
    times = grid.times
    d1 = float(d[0])
    u0 = (offset - _along(d, x)).tolist()
    u, s = list(u0), [0.0] * rows
    live = [r for r in range(rows) if outcome[r] is _PENDING]
    x = x[live]
    w_end = np.zeros_like(x)  # the Wiener sums carry across blocks
    nxt = 0  # the first row whose outcome is not yet yielded
    for first in range(0, grid.N, _BLOCK):
        block = grid.block(first, _BLOCK)
        inc = np.empty((block.N, len(live), n))
        for k, r in enumerate(live):
            inc[:, k] = brownian_increments(gens[r], block, (n,))
        wiener = np.cumsum(np.concatenate((w_end[None], inc)), axis=0)
        try:
            X = euler_backward_values(block, x, wiener, drift)
        except SchemeDivergence as err:
            X = err.values
            bad = ~np.isfinite(X[1:]).all(axis=-1)
            for k in np.flatnonzero(bad.any(axis=0)).tolist():
                step = first + 1 + int(np.argmax(bad[:, k]))
                outcome[live[k]] = _attempt_error(specs[live[k]], SchemeDivergence(step, block.dt))
                X[:, k] = 0.0  # the row is resolved; keep its arithmetic finite
        pX = _along(d, X).T.tolist()
        t = ((2.0 * d1) * _impute_increments(X, block.dt, drift)[..., 0]).T.tolist()
        for k, r in enumerate(live):
            if outcome[r] is not _PENDING:
                continue
            j, u[r], s[r] = _first_cover(lo, hi, pX[k], t[k], u[r], s[r], u0[r])
            if j is not None:
                outcome[r] = (X[j, k].copy(), float(times[first + j]), lo < pX[k][j] <= hi)
        if first + block.N == grid.N:
            # the horizon: a row still pending never covers
            outcome = [None if o is _PENDING else o for o in outcome]
        while nxt < rows and outcome[nxt] is not _PENDING:
            hit = outcome[nxt]
            nxt += 1
            if isinstance(hit, NumericalError):
                raise hit
            yield hit
        if nxt == rows:
            return
        keep = [k for k, r in enumerate(live) if outcome[r] is _PENDING]
        live = [live[k] for k in keep]
        x, w_end = X[-1, keep], wiener[-1, keep]


def _first_cover(lo, hi, pX, t, u, s, u0):
    """Scan a row's steps in face coordinates from (u, s), given the
    primal's offsets pX per node and t = 2 d1 do1 per step.  Return the
    first node at which the faces' offsets pX + u0 - s and pX + u cover
    (lo, hi), or None, with the (u, s) reached."""
    for i, ti in enumerate(t):
        if ti > 0.0 and u < ti:
            s += ti
        else:
            u -= ti
        p = pX[i + 1]
        if p + u0 - s < lo and hi <= p + u:
            return i + 1, u, s
    return None, u, s


# ---------------------------------------------------------------------------
# serialization


# the keys of a coupling record in the order written (only a wedge's go on to u),
# and a value: a JSON number, or the NaN and +-Infinity that nan and +-inf become
_RECORD_KEYS = ("t", "x", "z", "y", "sigma", "gamma", "w", "omega", "xi", "u")
_VALUE = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|-?Infinity|NaN)"


def _record_layout(n: int, rotating: bool) -> list:
    """(key, width) per key of a coupling record in n dimensions, width None for
    the scalars t, sigma and gamma; a rotating normal adds the direction u."""
    return [(key, None if key in ("t", "sigma", "gamma") else 2 if key == "u" else n)
            for key in _RECORD_KEYS if rotating or key != "u"]


def _header_record(traj: CouplingTrajectory) -> str:
    """The JSON header of a coupling artifact: family, T, N and any fixed normal."""
    normal = {} if traj.normal is None else {"normal": traj.normal.tolist()}
    return json.dumps({"family": traj.family, "T": traj.grid.T, "N": traj.grid.N, **normal})


def _record_template(layout) -> str:
    """The line template, written and read, of a record of this layout."""
    return "{" + ", ".join(f'"{key}": ' + ("%d" if key == "gamma" else "%r" if width is None
                                          else "[" + ", ".join(["%r"] * width) + "]")
                           for key, width in layout) + "}\n"


def write_coupling_jsonl(fp, traj: CouplingTrajectory) -> None:
    """A header record of family metadata, then one record per grid node: the line
    json.dumps writes for it, from one template per file (a float is its repr, nan and
    +-inf become NaN and +-Infinity, which no key holds, and gamma 1 or 0 true or false)."""
    fp.write(_header_record(traj) + "\n")
    cols = [traj.grid.times, traj.primal.values, traj.z_path.values, traj.y_path.values,
            traj.sigma.values[:, 0], traj.gamma_flags, traj.wiener.values, traj.noise.values,
            traj.reflected.values] + ([] if traj.u_path is None else [traj.u_path])
    layout = _record_layout(traj.primal.dim, traj.u_path is not None)
    _write_rows(fp, _record_template(layout), cols,
                tokens=[("nan", "NaN"), ("inf", "Infinity"),
                        ('"gamma": 1', '"gamma": true'), ('"gamma": 0', '"gamma": false')])


def read_coupling_jsonl(fp) -> CouplingTrajectory:
    """Rebuild a trajectory from the records write_coupling_jsonl wrote, in its exact
    layout (each line matches the template of the header family's record layout), one
    float pass per column."""
    head = json.loads(fp.readline())
    grid = TimeGrid(float(head["T"]), int(head["N"]))
    family = _FAMILIES[head["family"]]
    layout = _record_layout(family._dim or len(head["normal"]), family._rotating)
    body = fp.read()
    line = re.compile("^" + re.escape(_record_template(layout)[:-1])
                      .replace("%r", _VALUE).replace("%d", "(true|false)") + "$", re.M)
    rows, count = line.findall(body), body.count("\n") + (not body.endswith("\n"))
    if len(rows) != grid.N + 1 or count != grid.N + 1:
        bad = [i + 2 for i, text in enumerate(body.split("\n")[:count]) if not line.match(text)]
        raise ValueError(f"line {bad[0]} is not a {head['family']} record as written" if bad
                         else f"expected {grid.N + 1} records, got {count}")
    cols = iter(zip(*rows))
    values = {key: [next(cols) for _ in range(width or 1)] for key, width in layout}

    def path(key):
        return SamplePath(grid, np.stack([np.fromiter(map(float, c), float, len(c))
                                          for c in values[key]], axis=1))

    return CouplingTrajectory(
        family=head["family"], grid=grid, primal=path("x"), z_path=path("z"), y_path=path("y"),
        sigma=path("sigma"), gamma_flags=np.array(values["gamma"][0]) == "true", wiener=path("w"),
        noise=path("omega"), reflected=path("xi"),
        u_path=path("u").values if family._rotating else None,
        normal=np.asarray(head["normal"], dtype=float) if "normal" in head else None)


def write_region_csv(fp, result: RegionSamples) -> None:
    """Accepted samples with acceptance metadata in leading comment lines."""
    fp.write(f"# accepted={result.accepted} attempts={result.attempts} "
             f"covered={result.covered} truncated={result.truncated}\n")
    fp.write(f"# meta={json.dumps(result.meta, sort_keys=True)}\n")
    n = result.samples.shape[1] if result.samples.size else 0
    cols = [f"x_{i + 1}" for i in range(n)] + ["stop_time"]
    _write_csv(fp, cols, [result.samples, result.stop_times])
