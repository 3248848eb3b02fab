"""Finite-state nonlinear filtering with misspecified priors.

Library layout:

* `model`: state space, transition kernel, observation channel, priors,
  invariant density, stability coefficients, primitivity.
* `simulate`: seeded trajectory sampling and likelihood evaluation.
* `filtering`: the forward recursion, paired correct/misspecified runs,
  total variation tracking, decay-rate estimation, path-enumeration oracle.
* `backward`: the initial-state backward density, its oscillation and
  envelope, likelihood ratios, change-of-measure identities.
* `ergodicity`: geometric ergodicity report, stationary backward recursion,
  Poisson-equation solver, running conditional averages.
* `harness`: builtin scenarios, replicate orchestration, counterexample gate.
* `cli`: the ``filterstab`` command.
"""

from .errors import InvalidModelError, NumericalError
from .model import (
    Coefficients,
    Density,
    FiniteModel,
    ObservationModel,
    StateSpace,
    TransitionKernel,
    as_density,
    as_kernel,
    build_model,
    finite_observation,
    gaussian_observation,
    invariant_density,
    mixing_coefficients,
    point_mass,
    primitivity_check,
    row_minima,
    uniform_density,
    unit_space,
)
from .rng import Xoshiro256StarStar, Xoshiro256StarStarLanes, derive_seed
from .simulate import (
    Trajectory,
    likelihood_rows,
    likelihood_vector,
    sample_trajectories,
    sample_trajectory,
)
from .filtering import (
    DecayEstimate,
    FilterRun,
    PairRun,
    brute_force_posterior,
    decay_rate,
    filter_step,
    filter_step_with_likelihood,
    predict,
    run_filter,
    run_filter_pair,
    tv_norm,
)
from .backward import (
    BackwardContext,
    BackwardDensity,
    BackwardPass,
    OscillationRecord,
    backward_init,
    backward_pass,
    backward_step,
    brute_force_backward,
    change_of_measure_residual,
    likelihood_ratio,
    oscillation,
    oscillation_bound,
)
from .ergodicity import (
    ErgodicityReport,
    LlnAverage,
    PoissonSolution,
    StationaryBackward,
    geometric_ergodicity_report,
    lln_average,
    n_step_density,
    solve_poisson,
    stationary_backward,
    stationary_backward_sequence,
    stationary_bound_check,
)
from .harness import (
    KaijserConstants,
    KaijserReport,
    RunRecord,
    SCENARIO_NAMES,
    Scenario,
    builtin_scenario,
    kaijser_closed_form,
    kaijser_constants,
    kaijser_filter_recursion,
    kaijser_model,
    kaijser_verify,
    run_scenario,
)

__version__ = "0.1.0"
