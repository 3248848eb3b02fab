"""Finite-state nonlinear filtering with misspecified priors.

Library layout:

* `model`: state space, transition kernel, observation channel, priors,
  invariant density, stability coefficients, primitivity.
* `simulate`: seeded trajectory sampling and likelihood evaluation.
* `filtering`: the forward recursion, paired correct/misspecified runs,
  total variation tracking, decay-rate estimation.
* `backward`: the initial-state backward density along a filter run
  (`backward_pass`) or one step at a time (`BackwardContext`), its
  oscillation and envelope, likelihood ratios.
* `ergodicity`: geometric ergodicity report, running conditional averages.
* `harness`: builtin scenarios, replicate orchestration, counterexample gate.
* `cli`: the ``filterstab`` command.

The package ships what the commands run. The independent references that
tests hold it to (path enumeration, the scalar xoshiro256** generator, the
Kaijser posterior recursion) and the checks of the theory that no command
reports (the stationary backward bound, the Poisson equation, the
change-of-measure identities) live in ``tests/reference.py``.
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
    invariant_density,
    mixing_coefficients,
    primitivity_check,
    row_minima,
    unit_space,
)
from .rng import Xoshiro256StarStarLanes, derive_seed
from .simulate import (
    Trajectory,
    likelihood_rows,
    sample_trajectories,
    sample_trajectory,
)
from .filtering import (
    DecayEstimate,
    FilterRun,
    PairRun,
    decay_rate,
    filter_step_with_likelihood,
    run_filter,
    run_filter_pair,
)
from .backward import (
    BackwardContext,
    BackwardPass,
    OscillationRecord,
    backward_pass,
)
from .ergodicity import (
    ErgodicityReport,
    geometric_ergodicity_report,
)
from .harness import (
    KaijserReport,
    RunRecord,
    SCENARIO_NAMES,
    Scenario,
    builtin_model,
    kaijser_closed_form,
    kaijser_verify,
    run_scenario,
)

__version__ = "0.1.0"
