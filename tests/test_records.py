"""The package's records are named tuples.

No module defines a dataclass. The eight records that validate their fields
(`StateSpace`, `Density`, `TransitionKernel`, `ObservationModel`, `FiniteModel`,
`Coefficients`, `Trajectory`, `Scenario`) raise their documented error on every construction route:
positional, keyword, `_make` and `_replace`. No field of any record can be
assigned. `FilterRun.densities` and `FilterRun.log_normalizers`, and
`FiniteModel.transition_probabilities`, are computed once, on first read,
and then read from the instance's cache; every other record has no instance
dictionary.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import filterstab
from filterstab import (
    BackwardContext,
    Coefficients,
    Density,
    FilterRun,
    FiniteModel,
    InvalidModelError,
    NumericalError,
    ObservationModel,
    Scenario,
    StateSpace,
    TransitionKernel,
    Trajectory,
    backward_pass,
    builtin_model,
    decay_rate,
    finite_observation,
    geometric_ergodicity_report,
    invariant_density,
    kaijser_verify,
    mixing_coefficients,
    run_filter_pair,
    run_scenario,
    sample_trajectory,
)

MODULES = [importlib.import_module(f"filterstab.{info.name}")
           for info in pkgutil.iter_modules(filterstab.__path__)]
MIXING2 = builtin_model("mixing2")


def test_no_module_defines_a_dataclass():
    for module in [filterstab, *MODULES]:
        for name, value in vars(module).items():
            assert not (isinstance(value, type) and dataclasses.is_dataclass(value)), \
                f"{module.__name__}.{name}"


def record_instances():
    """One instance of every record of the package."""
    model = MIXING2
    invariant = invariant_density(model.kernel, model.space)
    coeffs = mixing_coefficients(model, invariant)
    trajectory = sample_trajectory(model, model.true_prior, 30, seed=2)
    pair = run_filter_pair(model, trajectory.observations)
    context = BackwardContext(model, model.wrong_prior, coeffs)
    context.step(trajectory.observations[0])
    kaijser = kaijser_verify(None, None, 20, seed=2)
    scenario = Scenario(builtin_model("mixing2"), horizon=20, replicates=1, seed=7)
    return [
        model, model.space, model.kernel, model.observation, model.true_prior, coeffs,
        trajectory, pair, pair.run_wrong, decay_rate(pair.tv),
        backward_pass(model, coeffs, pair.run_wrong.probabilities),
        context.record, geometric_ergodicity_report(model, invariant, coeffs, 5),
        kaijser, scenario, run_scenario(scenario)[0],
    ]


def test_every_public_record_is_a_named_tuple_whose_fields_cannot_be_assigned():
    instances = record_instances()
    records = {value for module in MODULES for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, tuple)
               and value.__module__ == module.__name__ and not name.startswith("_")}
    assert {type(instance) for instance in instances} == records
    assert len(records) == 16
    for instance in instances:
        for field in instance._fields:
            with pytest.raises(AttributeError):
                setattr(instance, field, getattr(instance, field))
        # only a filter run and a model cache a value in their instance
        assert hasattr(instance, "__dict__") == isinstance(instance, (FilterRun, FiniteModel))


# each validating record: valid fields, then field changes that break it,
# with the error and message they raise
VALID = {
    StateSpace: {"num_states": 2, "weights": [1.0, 2.0]},
    Density: {"values": [0.25, 0.75]},
    TransitionKernel: {"matrix": [[0.5, 0.5], [0.3, 0.7]]},
    ObservationModel: {"kind": "finite", "emission": [[0.5, 0.5], [0.2, 0.8]],
                       "symbol_weights": [1.0, 1.0], "means": None, "sigma": None},
    Coefficients: {"min_density": 0.3, "max_density": 0.7, "mixing_coefficient": 0.5,
                   "tv_decay_rate": 0.5 / 0.7, "geo_prefactor": 4.9, "geo_ratio": 2.0 / 7.0,
                   "degenerate": False},
    Trajectory: {"states": [0, 1, 0], "observations": [1, 0], "seed": 3},
    Scenario: {"model": MIXING2, "horizon": 10, "replicates": 2, "seed": 7},
    FiniteModel: MIXING2._asdict(),
}
BAD = [
    (StateSpace, {"num_states": 0}, InvalidModelError, "need at least one state"),
    (StateSpace, {"weights": [1.0]}, InvalidModelError, "dimension mismatch"),
    (StateSpace, {"weights": [1.0, 0.0]}, InvalidModelError, "finite and strictly positive"),
    (Density, {"values": [[0.25, 0.75]]}, InvalidModelError, "density must be a vector"),
    (Density, {"values": [-0.25, 1.25]}, InvalidModelError, "finite and nonnegative"),
    (TransitionKernel, {"matrix": [[0.5, 0.5]]}, InvalidModelError, "must be square"),
    (TransitionKernel, {"matrix": [[np.nan, 1.0], [0.3, 0.7]]}, InvalidModelError,
     "finite and nonnegative"),
    (ObservationModel, {"kind": "poisson"}, InvalidModelError,
     "^observation kind must be 'finite' or 'gaussian', got 'poisson'$"),
    (ObservationModel, {"emission": [[0.5, 0.7], [0.2, 0.8]]}, InvalidModelError,
     "^invalid kernel: 'observation.gamma' row 0 integrates to 1.2, not 1"),
    (ObservationModel, {"emission": [[0.25, 0.5], [0.2, 0.8]], "symbol_weights": [2.0, 1.0]},
     InvalidModelError, "row 1 integrates to 1.2"),
    (ObservationModel, {"emission": [[-0.5, 1.5], [0.2, 0.8]]}, InvalidModelError,
     "entries must be finite and nonnegative"),
    (ObservationModel, {"emission": [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]}, InvalidModelError,
     "dimension mismatch"),
    (ObservationModel, {"symbol_weights": [1.0, 0.0]}, InvalidModelError,
     "^symbol weights must be finite and strictly positive$"),
    (ObservationModel, {"kind": "gaussian", "means": [0.0, np.inf], "sigma": 1.0},
     InvalidModelError, "^gaussian means must be a finite vector$"),
    (ObservationModel, {"kind": "gaussian", "means": [0.0, 1.0], "sigma": 0.0},
     InvalidModelError, "^gaussian sigma must be positive, got 0.0$"),
    (ObservationModel, {"kind": "gaussian", "means": [0.0, 1.0]}, InvalidModelError,
     "'observation.sigma' must be numeric"),
    (Coefficients, {"mixing_coefficient": 0.8}, NumericalError, "coefficient ordering violated"),
    (Coefficients, {"min_density": -0.1}, NumericalError, "coefficient ordering violated"),
    (Trajectory, {"observations": [1]}, InvalidModelError, "trajectory shape mismatch"),
    (Scenario, {"horizon": 0}, InvalidModelError, "horizon must be at least 1"),
    (Scenario, {"replicates": 0}, InvalidModelError, "^stability needs at least one replicate$"),
    (Scenario, {"replicates": -1}, InvalidModelError, "^stability needs at least one replicate$"),
    (FiniteModel, {"kernel": TransitionKernel(np.full((3, 3), 1.0 / 3.0))}, InvalidModelError,
     "dimension mismatch"),
    (FiniteModel, {"kernel": TransitionKernel(np.array([[5.0, 5.0], [5.0, 5.0]]))},
     InvalidModelError, "^invalid kernel: 'transition' row 0 integrates to 10.0, not 1"),
    (FiniteModel, {"kernel": TransitionKernel(np.array([[0.5, 0.5], [0.25, 0.5]]))},
     InvalidModelError, "^invalid kernel: 'transition' row 1 integrates to 0.75, not 1"),
    (FiniteModel, {"observation": finite_observation(np.full((3, 2), 0.5))}, InvalidModelError,
     "dimension mismatch"),
    (FiniteModel, {"observation": ObservationModel("gaussian", means=[0.0, 1.0, 2.0], sigma=1.0)},
     InvalidModelError, "dimension mismatch"),
    (FiniteModel, {"true_prior": Density([0.2, 0.3, 0.5])}, InvalidModelError,
     "^true_prior: dimension mismatch"),
    (FiniteModel, {"true_prior": Density([0.5, 0.6])}, InvalidModelError,
     "^true_prior: density mass"),
    (FiniteModel, {"wrong_prior": Density([5.0, 5.0])}, InvalidModelError,
     "^wrong_prior: density mass"),
    (FiniteModel, {"wrong_prior": Density([1.0, 0.0])}, InvalidModelError,
     "^beta not bounded below"),
]


def routes(cls, fields):
    """Every way to build `cls` from `fields`, as zero-argument callables."""
    values = [fields[name] for name in cls._fields]
    valid = cls(**VALID[cls])
    changed = {name: fields[name] for name in cls._fields if fields[name] is not VALID[cls][name]}
    return {
        "positional": lambda: cls(*values),
        "keyword": lambda: cls(**fields),
        "_make": lambda: cls._make(values),
        "_replace": lambda: valid._replace(**changed),
    }


@pytest.mark.parametrize("route", ["positional", "keyword", "_make", "_replace"])
@pytest.mark.parametrize("cls, change, error, message", BAD,
                         ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_a_validating_record_rejects_bad_fields_on_every_route(cls, change, error, message,
                                                               route):
    build = routes(cls, {**VALID[cls], **change})[route]
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("route", ["positional", "keyword", "_make", "_replace"])
@pytest.mark.parametrize("cls", list(VALID), ids=lambda c: c.__name__)
def test_a_validating_record_converts_its_fields_on_every_route(cls, route):
    """Every route stores the same converted fields: read-only float arrays
    for the model records, read-only int64 states for a trajectory."""
    fields = {name: np.array(value) if isinstance(value, list) else value
              for name, value in VALID[cls].items()}
    reference = cls(**VALID[cls])
    record = routes(cls, fields)[route]()
    assert type(record) is cls
    for mine, theirs in zip(record, reference):
        if isinstance(theirs, np.ndarray):
            assert isinstance(mine, np.ndarray) and not mine.flags.writeable
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        else:
            assert mine is theirs


def test_log_normalizers_are_computed_once():
    trajectory = sample_trajectory(MIXING2, MIXING2.true_prior, 30, seed=2)
    run = run_filter_pair(MIXING2, trajectory.observations).run_wrong
    assert "log_normalizers" not in vars(run)
    logs = run.log_normalizers
    assert vars(run)["log_normalizers"] is logs
    # a later read is the cache's: replacing the cached value shows through
    vars(run)["log_normalizers"] = sentinel = object()
    assert run.log_normalizers is sentinel



def test_a_model_cannot_be_given_a_channel_that_is_not_a_law():
    """A channel whose emission rows integrate to 1.2, or of an unknown kind,
    fails where it is built, before a model can hold it."""
    with pytest.raises(InvalidModelError, match="row 0 integrates to 1.2"):
        MIXING2._replace(observation=ObservationModel(
            "finite", emission=np.array([[0.5, 0.7], [0.2, 0.8]]), symbol_weights=np.ones(2)))
    with pytest.raises(InvalidModelError, match="observation kind"):
        ObservationModel("poisson")
