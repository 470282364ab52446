"""Simulation and verification of linked primal-dual drifting diffusions.

The primal object is an n-dimensional Brownian motion with gradient drift
whose invariant density is known up to scale.  Around it the package
builds: exactly invertible explicit/implicit step schemes, Skorohod
reflection flows below an evolving surface (the hypograph of a hyperplane
whose normal is fixed, or rotating for a line), region-valued dual
processes (intervals, strips between lines, slabs between hyperplanes)
with absorption, conditional samplers and region masses, linked couplings
conserving the covering indicator, the 2M - W gap representation with its
Bessel reclocking, a stopped-coupling sampler for restricted invariant
densities, and a statistical verification harness with closed-form
oracles.
"""

from .core import (
    BilinearDrift,
    ConstantDrift,
    DriftField,
    LogisticDrift,
    ModelError,
    NumericalError,
    ProductDrift,
    RngSpec,
    SamplePath,
    TimeGrid,
    euler_backward,
    euler_forward_implicit,
    explicit_step,
    flip_first,
    implicit_step,
    reversed_noise,
    sample_brownian,
    sample_brownian_batch,
    write_path_csv,
)
from .surfaces import (
    Surface,
    SurfaceTrajectory,
    step_surface,
)
from .reflection import (
    FlowOutput,
    ReflectionOutput,
    backward_flow,
    flow_constant_1d,
    flow_from_path,
    flow_trigger_1d,
    forward_flow,
    impute_noise,
    solve_skorohod_1d,
)
from .duals import (
    IntervalState,
    SlabState,
    WedgeState,
    contains_batch,
    dual_drift,
    dual_step,
    intertwining_residual,
    liggett_identity_mc,
    nu_mass,
    sample_conditional,
    truncated_exp_mean,
)
from .coupling import (
    BesselDiagnostics,
    CouplingTrajectory,
    RegionSamples,
    bessel_time_change,
    mc_region_sampler,
    pitman_construct,
    run_coupling,
    run_entrance_coupling,
)
from .verify import (
    TestReport,
    ks_test,
    reflection_probabilities,
    suite_duality,
    suite_flow_wiener,
    suite_reversal,
    wedge_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "BesselDiagnostics",
    "BilinearDrift",
    "ConstantDrift",
    "CouplingTrajectory",
    "DriftField",
    "FlowOutput",
    "IntervalState",
    "LogisticDrift",
    "ModelError",
    "NumericalError",
    "ProductDrift",
    "ReflectionOutput",
    "RegionSamples",
    "RngSpec",
    "SamplePath",
    "SlabState",
    "Surface",
    "SurfaceTrajectory",
    "TestReport",
    "TimeGrid",
    "WedgeState",
    "backward_flow",
    "bessel_time_change",
    "contains_batch",
    "dual_drift",
    "dual_step",
    "euler_backward",
    "euler_forward_implicit",
    "explicit_step",
    "flip_first",
    "flow_constant_1d",
    "flow_from_path",
    "flow_trigger_1d",
    "forward_flow",
    "implicit_step",
    "impute_noise",
    "intertwining_residual",
    "ks_test",
    "liggett_identity_mc",
    "mc_region_sampler",
    "nu_mass",
    "pitman_construct",
    "reflection_probabilities",
    "reversed_noise",
    "run_coupling",
    "run_entrance_coupling",
    "sample_brownian",
    "sample_brownian_batch",
    "sample_conditional",
    "solve_skorohod_1d",
    "step_surface",
    "suite_duality",
    "suite_flow_wiener",
    "suite_reversal",
    "truncated_exp_mean",
    "wedge_probabilities",
    "write_path_csv",
]
