"""Finite-state hidden Markov model data types and stability coefficients.

Conventions used throughout the package:

* The state space is a finite set of atoms ``0..d-1`` carrying strictly
  positive reference weights ``w[i]``. Distributions are stored as densities
  against these weights, so the probability of atom ``i`` is
  ``density[i] * w[i]``. With the default unit weights a density is just a
  probability vector.
* The transition law is a matrix of one-step densities: ``matrix[i, j]`` is
  the density of moving from ``i`` to ``j``, and each row integrates to one
  against the weights.
* Observations are either a finite alphabet with per-state emission densities
  (against positive symbol weights) or a Gaussian channel with state-dependent
  means and a common scale.

Essential infima/suprema over the state space reduce to minima/maxima over
atoms with positive weight; zero-weight atoms cannot occur by construction.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import InvalidModelError, NumericalError

# how far a density's mass, and a transition or emission row's integral, may miss 1
MASS_TOL = 1e-9
ROW_TOL = 1e-6
# power-iteration steps between convergence checks, also the stagnation-probe period
_POWER_BLOCK = 1000
# the power iteration's stopping tolerance, and its step budget in whole blocks
_POWER_TOL = 1e-13
_POWER_BLOCKS = 1000
# invariant densities by content key, least recently used first
_INVARIANT_MEMO: "OrderedDict[tuple, Density]" = OrderedDict()
_INVARIANT_MEMO_SIZE = 32


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class StateSpace(namedtuple("StateSpace", "num_states weights")):
    """Finite atomic state space with reference-measure weights."""

    __slots__ = ()

    def __new__(cls, num_states: int, weights: np.ndarray):
        if num_states < 1:
            raise InvalidModelError(f"need at least one state, got {num_states}")
        w = np.asarray(weights, dtype=float)
        if w.shape != (num_states,):
            raise InvalidModelError(
                f"dimension mismatch: {num_states} states but weights shape {w.shape}"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InvalidModelError("state weights must be finite and strictly positive")
        return super().__new__(cls, num_states, _frozen(w))

    # `_replace` builds through `_make`: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))


def unit_space(num_states: int) -> StateSpace:
    """State space with all-ones weights (counting reference measure)."""
    return StateSpace(num_states, np.ones(num_states))


class Density(namedtuple("Density", "values")):
    """Nonnegative density values against the state weights, total mass one."""

    __slots__ = ()

    def __new__(cls, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1:
            raise InvalidModelError(f"density must be a vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise InvalidModelError("density values must be finite and nonnegative")
        return super().__new__(cls, _frozen(v))

    _make = classmethod(lambda cls, fields: cls(*fields))


def as_density(values, space: StateSpace) -> Density:
    """Validate mass against the weights (within `MASS_TOL`) and renormalize exactly."""
    v = np.asarray(values, dtype=float)
    if v.shape != (space.num_states,):
        raise InvalidModelError(
            f"dimension mismatch: density shape {v.shape} vs {space.num_states} states"
        )
    if not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise InvalidModelError("density values must be finite and nonnegative")
    with np.errstate(over="ignore"):  # an overflowing mass is reported as inf
        mass = float(v @ space.weights)
    if abs(mass - 1.0) > MASS_TOL:
        raise InvalidModelError(f"density mass {mass!r} deviates from 1 beyond {MASS_TOL}")
    return Density(v / mass)


class TransitionKernel(namedtuple("TransitionKernel", "matrix")):
    """One-step transition densities; ``matrix[i, j]`` is the density i -> j."""

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidModelError(f"transition matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise InvalidModelError("invalid kernel: entries must be finite and nonnegative")
        return super().__new__(cls, _frozen(a))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _as_array(key: str, value, shape: tuple) -> np.ndarray:
    """`value` as a float array of `shape`; a None in `shape` matches any length."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InvalidModelError(f"invalid model document: '{key}' must be numeric")
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        def text(dims):
            return "(" + ", ".join("any" if n is None else str(n) for n in dims) + ")"
        raise InvalidModelError(
            f"dimension mismatch: '{key}' has shape {text(arr.shape)}, expected {text(shape)}"
        )
    return arr.astype(float)


def _normalized_rows(key: str, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Check that every row integrates to 1 against `weights` within `ROW_TOL`,
    then divide each row by its integral."""
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0.0):
        raise InvalidModelError(f"invalid kernel: '{key}' entries must be finite and nonnegative")
    with np.errstate(over="ignore"):  # an overflowing integral is reported as inf
        sums = matrix @ weights
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > ROW_TOL:
        raise InvalidModelError(
            f"invalid kernel: '{key}' row {worst} integrates to {float(sums[worst])!r}, "
            f"not 1 (tolerance {ROW_TOL})"
        )
    return matrix / sums[:, None]


def as_kernel(matrix, space: StateSpace) -> TransitionKernel:
    """Validate row sums against the weights (within `ROW_TOL`) and renormalize rows."""
    d = space.num_states
    rows = _as_array("transition", matrix, (d, d))
    return TransitionKernel(_normalized_rows("transition", rows, space.weights))


class ObservationModel(NamedTuple):
    """Observation channel: finite alphabet emissions or a Gaussian read-out.

    For ``kind == "finite"``, ``emission[i, k]`` is the density of symbol ``k``
    from state ``i`` against the positive ``symbol_weights``; each row
    integrates to one. For ``kind == "gaussian"``, symbol values are reals with
    density ``N(means[i], sigma**2)``.
    """

    kind: str
    emission: Optional[np.ndarray] = None
    symbol_weights: Optional[np.ndarray] = None
    means: Optional[np.ndarray] = None
    sigma: Optional[float] = None

    @property
    def num_symbols(self) -> int:
        if self.kind != "finite":
            raise InvalidModelError("num_symbols is defined for finite alphabets only")
        return self.emission.shape[1]


def finite_observation(emission, symbol_weights=None) -> ObservationModel:
    rows = _as_array("observation.gamma", emission, (None, None))
    p = rows.shape[1]
    if symbol_weights is None:
        w = np.ones(p)
    else:
        w = _as_array("observation.theta", symbol_weights, (p,))
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise InvalidModelError("symbol weights must be finite and strictly positive")
    return ObservationModel(kind="finite",
                            emission=_frozen(_normalized_rows("observation.gamma", rows, w)),
                            symbol_weights=_frozen(w))


def gaussian_observation(means, sigma: float) -> ObservationModel:
    mu = _as_array("observation.means", means, (None,))
    if not np.all(np.isfinite(mu)):
        raise InvalidModelError("gaussian means must be a finite vector")
    sigma = float(_as_array("observation.sigma", sigma, ()))
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise InvalidModelError(f"gaussian sigma must be positive, got {sigma!r}")
    return ObservationModel(kind="gaussian", means=_frozen(mu), sigma=sigma)


class FiniteModel(namedtuple("FiniteModel", "space kernel observation true_prior wrong_prior")):
    """Validated model bundle: space, dynamics, observation channel, priors.

    ``true_prior`` is the density the data generator uses for the initial
    state; ``wrong_prior`` is the (strictly positive) density a misspecified
    filter starts from. The kernel, the observation channel and both priors
    must have the state space's dimension, and each prior mass 1 within
    `MASS_TOL`. Nothing is renormalized, so `_replace` keeps every bit.
    """

    __slots__ = ()

    def __new__(cls, space: StateSpace, kernel: TransitionKernel, observation: ObservationModel,
                true_prior: Density, wrong_prior: Density):
        d = space.num_states
        obs = observation
        states = obs.emission.shape[0] if obs.kind == "finite" else obs.means.shape[0]
        if kernel.dim != d or states != d:
            raise InvalidModelError(f"dimension mismatch: {d} states but a {kernel.dim}-state "
                                    f"kernel and a {states}-state observation channel")
        for name, prior in zip(cls._fields[3:], (true_prior, wrong_prior)):
            try:
                as_density(prior.values, space)
            except InvalidModelError as exc:
                raise InvalidModelError(f"{name}: {exc}") from None
        if np.any(wrong_prior.values <= 0.0):
            raise InvalidModelError("beta not bounded below: filter prior has a zero atom")
        return super().__new__(cls, space, kernel, observation, true_prior, wrong_prior)

    _make = classmethod(lambda cls, fields: cls(*fields))


class Coefficients(namedtuple("Coefficients", "min_density max_density mixing_coefficient "
                                           "tv_decay_rate geo_prefactor geo_ratio degenerate")):
    """Stability coefficients of a transition kernel under an invariant density.

    ``min_density``/``max_density`` are the global extrema of the one-step
    density. ``mixing_coefficient`` averages the per-state row minima under
    the invariant density; its positivity is the relaxed condition under
    which the misspecified filter forgets its prior at exponential rate
    ``tv_decay_rate = mixing_coefficient / max_density``. When
    ``0 < mixing_coefficient < max_density`` the kernel is geometrically
    ergodic with explicit constants ``geo_prefactor * geo_ratio**n``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        tol = 1e-12 * max(1.0, self.max_density)  # relative to the density scale
        ok = (
            -tol <= self.min_density
            and self.min_density <= self.mixing_coefficient + tol
            and self.mixing_coefficient <= self.max_density + tol
        )
        if not ok:
            raise NumericalError(
                "coefficient ordering violated: "
                f"{self.min_density!r}, {self.mixing_coefficient!r}, {self.max_density!r}"
            )
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def applicable(self) -> bool:
        """True when the geometric bounds carry information (positive, nondegenerate)."""
        return self.mixing_coefficient > 0.0 and not self.degenerate


def row_minima(kernel: TransitionKernel) -> np.ndarray:
    """Per-state essential infimum of the outgoing transition density: the row
    minimum, since every atom has positive weight."""
    return kernel.matrix.min(axis=1)


def mixing_coefficients(model: FiniteModel, invariant: Density) -> Coefficients:
    """Compute the density extrema and the invariant-averaged row minimum.

    The averaged coefficient is ``sum_i row_min[i] * m[i] * w[i]`` where ``m``
    is the invariant density. Geometric ergodicity constants are
    ``prefactor = max**2 / (avg * (max - avg))`` and ``ratio = 1 - avg / max``,
    defined when ``0 < avg < max``. ``avg == max`` forces a constant-in-target
    kernel (one-step convergence); that case is flagged degenerate with the
    ``ratio = 0`` convention.
    """
    space, kernel = model.space, model.kernel
    lo = float(kernel.matrix.min())
    hi = float(kernel.matrix.max())
    mins = row_minima(kernel)
    with np.errstate(over="ignore"):
        # m * w is a probability vector, so weighing it first stays in range
        avg = float(np.sum(mins * (invariant.values * space.weights)))
    if np.isinf(avg):
        raise NumericalError("mixing coefficient overflows: row minimum * invariant density "
                             "exceeds the float range")
    rate = avg / hi if hi > 0.0 else 0.0
    degenerate = avg > 0.0 and abs(hi - avg) <= 1e-14 * hi
    prefactor = ratio = None
    if degenerate:
        ratio = 0.0
    elif avg > 0.0:
        spread = avg * (hi - avg)
        if spread == 0.0:
            raise NumericalError(f"geometric prefactor overflows: mixing coefficient * (max density"
                                 f" - mixing coefficient) = {avg!r} * {hi - avg!r} rounds to 0")
        prefactor = hi * hi / spread
        ratio = 1.0 - avg / hi
    return Coefficients(
        min_density=lo,
        max_density=hi,
        mixing_coefficient=avg,
        tv_decay_rate=rate,
        geo_prefactor=prefactor,
        geo_ratio=ratio,
        degenerate=degenerate,
    )


def invariant_density(kernel: TransitionKernel, space: StateSpace) -> Density:
    """Invariant density of the kernel by power iteration on the adjoint action.

    Iterates ``m[y] <- sum_x matrix[x, y] * m[x] * w[x]`` from the uniform
    density until successive iterates differ by less than ``_POWER_TOL``
    (1e-13) in max norm, then polishes a few more steps toward machine
    precision. That stopping rule bounds the error only by about
    ``1e-13 / (1 - lambda_2)``, with ``lambda_2`` the second eigenvalue of the
    kernel: a slowly mixing chain stops far from the fixed point although its
    residual is small (about 1e-11 for ``[[1-e, e], [2e, 1-2e]]`` at
    ``e = 1e-3``). A delta that shrinks by less than 1% per block for three
    blocks in a row reads as oscillation: a period-two oscillation is resolved
    by averaging two successive iterates, and anything else raises "no unique
    invariant density found". A loop that runs all ``_POWER_BLOCKS`` blocks
    (10**6 steps) without either outcome raises a slow-mixing
    `NumericalError`. The result always satisfies the fixed-point residual to
    1e-10. On the kernel above, the loop converges from ``e = 6e-6`` up; from
    about ``3.4e-6`` to ``5e-6`` it runs out of steps (the averaged iterates
    would be off by up to 6.2e-6); at and below about ``3.3e-6`` the probe
    reads the ergodic chain as oscillating (ROADMAP item 2).

    The iteration runs in blocks of ``_POWER_BLOCK`` steps written into one
    buffer, the first in runs of 1, 2, 4, ... steps, so a fast chain stops
    within twice its stopping step. The stopping test is applied to each
    run's successive differences afterwards and the stagnation probe to each
    block's, so the iterates, the stopping step and the result are those of
    a step-by-step loop.

    Results are memoized per process: a call whose kernel matrix bytes,
    shape and strides and state weight bytes all equal an earlier call's
    returns that call's (frozen, read-only) `Density` without iterating
    again. The strides are part of the key because the layout picks the
    gemv, and two gemvs need not round alike. The memo keeps the
    ``_INVARIANT_MEMO_SIZE`` most recently used results; a `NumericalError`
    is never stored, so it is raised again on every call.
    """
    matrix, weights = kernel.matrix, space.weights
    key = (matrix.tobytes(), matrix.shape, matrix.strides, weights.tobytes())
    # each step is one atomic dict operation: concurrent callers can at worst
    # run the loop twice for one key, never get a wrong entry
    density = _INVARIANT_MEMO.pop(key, None)
    if density is None:
        density = _power_iteration(matrix, weights)
    _INVARIANT_MEMO[key] = density
    if len(_INVARIANT_MEMO) > _INVARIANT_MEMO_SIZE:
        _INVARIANT_MEMO.popitem(last=False)
    return density


def _power_iteration(matrix: np.ndarray, weights: np.ndarray) -> Density:
    """The loop of `invariant_density`, run on each call that misses its memo."""
    d = weights.shape[0]
    # an F-ordered view: a contiguous copy would make numpy call another gemv,
    # which need not round alike
    with np.errstate(over="ignore"):
        adjoint = (matrix * weights[:, None]).T
    if not np.isfinite(adjoint).all():
        raise NumericalError("invariant density: a transition density times its state weight "
                             "overflows")

    def normalize(v: np.ndarray) -> np.ndarray:
        return v / float(v @ weights)

    def residual(v: np.ndarray) -> float:
        return float(np.max(np.abs(adjoint @ v - v)))

    rows = np.empty((_POWER_BLOCK + 1, d))
    views = list(rows)
    v = np.empty(d)
    dot, vdot, divide = adjoint.dot, v.dot, np.divide
    rows[0] = 1.0 / float(weights.sum())
    m = rows[0]
    stagnant_blocks = 0
    block_start_delta = np.inf
    for block in range(_POWER_BLOCKS):
        rows[0] = m
        # the first block in runs of 1, 2, 4, ... steps, later blocks whole
        done, stop = 0, 1 if not block else _POWER_BLOCK
        while True:
            # gemv, ddot and a divide per step, rounding exactly as `normalize`
            for k in range(done, stop):
                dot(views[k], out=v)
                divide(v, vdot(weights), out=views[k + 1])
            deltas = np.abs(rows[1:stop + 1] - rows[:stop]).max(axis=1)
            hits = np.flatnonzero(deltas < _POWER_TOL)
            if hits.size or stop == _POWER_BLOCK:
                break
            done, stop = stop, min(2 * stop + 1, _POWER_BLOCK)
        k = int(hits[0]) if hits.size else _POWER_BLOCK - 1
        m, prev, delta = rows[k + 1], rows[k], float(deltas[k])
        if hits.size:
            break
        # stagnation probe: a delta that barely shrinks across whole blocks
        # means oscillation, not slow mixing
        stagnant_blocks = stagnant_blocks + 1 if delta > 0.99 * block_start_delta else 0
        if stagnant_blocks >= 3:
            break
        block_start_delta = delta
    else:
        raise NumericalError(f"slow mixing: the power iteration did not converge "
                             f"in {_POWER_BLOCKS * _POWER_BLOCK} steps")

    if not hits.size:  # the probe ended the loop: average a period-two oscillation
        averaged = normalize(0.5 * (m + prev))
        if residual(averaged) > 1e-10:
            raise NumericalError("no unique invariant density found")
        m = averaged
    else:
        # polish: keep iterating while the step keeps improving
        for _ in range(500):
            if delta <= 2.3e-16:
                break
            m_next = normalize(adjoint @ m)
            new_delta = float(np.max(np.abs(m_next - m)))
            if new_delta >= delta:
                break
            m = m_next
            delta = new_delta

    if residual(m) > 1e-10:
        raise NumericalError("no unique invariant density found")
    return Density(normalize(m))


def primitivity_check(kernel: TransitionKernel) -> Optional[int]:
    """Smallest power whose multi-step density is strictly positive everywhere.

    Positivity of the r-step density depends only on the zero pattern of the
    matrix, so the search runs on the boolean adjacency. Returns None when no
    power up to ``2 d**2`` mixes every pair of states.
    """
    d = kernel.dim
    base = (kernel.matrix > 0.0).astype(np.int64)
    reach = base.copy()
    for r in range(1, 2 * d * d + 1):
        if np.all(reach > 0):
            return r
        reach = np.minimum(reach @ base, 1)
    return None


def with_priors(document, nu=None, beta=None):
    """`document` with its priors replaced where `nu` or `beta` is given.

    Prior overrides edit the document, so the model they give is built, and
    its rows renormalized, exactly once by `build_model`.
    """
    if isinstance(document, Mapping):
        document = dict(document)
        if nu is not None:
            document["nu"] = nu
        if beta is not None:
            document["beta"] = beta
    return document


def _state_count(value) -> int:
    """`states` as a positive integer; integral floats pass, booleans do not."""
    number = (int, float, np.integer, np.floating)
    if (isinstance(value, bool) or not isinstance(value, number)
            or not float(value).is_integer() or value < 1):
        raise InvalidModelError(
            f"invalid model document: 'states' must be a positive integer, got {value!r}"
        )
    return int(value)


def build_model(document: Mapping) -> FiniteModel:
    """Validate a model document and build the model: the one way in.

    Keys: ``states`` (positive integer), optional ``psi`` (state weights),
    ``transition`` (matrix), ``observation`` ({"type": "finite", "gamma": ...,
    "theta" optional} or {"type": "gaussian", "means": ..., "sigma": ...}),
    ``nu`` (data-generating prior) and ``beta`` (filter prior, strictly
    positive). Transition and emission rows whose integral misses 1 by at most
    1e-6 (`ROW_TOL`) are renormalized, once; larger misses are rejected. Both
    priors must have mass 1 within 1e-9, and are renormalized too. Every failure is an `InvalidModelError`
    whose message names the offending key.
    """
    if not isinstance(document, Mapping):
        raise InvalidModelError("invalid model document: expected a JSON object")
    for key in ("states", "transition", "observation", "nu", "beta"):
        if key not in document:
            raise InvalidModelError(f"invalid model document: missing key '{key}'")
    d = _state_count(document["states"])
    # shape-check the document's own matrix before allocating d weights
    transition = _as_array("transition", document["transition"], (d, d))
    psi = document.get("psi")
    space = unit_space(d) if psi is None else StateSpace(d, _as_array("psi", psi, (d,)))
    kernel = as_kernel(transition, space)

    obs = document["observation"]
    kind = obs.get("type") if isinstance(obs, Mapping) else None
    if kind not in ("finite", "gaussian"):
        raise InvalidModelError(
            "invalid model document: 'observation.type' must be 'finite' or 'gaussian', "
            f"got {kind!r}"
        )
    for key in ("gamma",) if kind == "finite" else ("means", "sigma"):
        if key not in obs:
            raise InvalidModelError(f"invalid model document: missing key 'observation.{key}'")
    if kind == "finite":
        gamma = _as_array("observation.gamma", obs["gamma"], (d, None))
        observation = finite_observation(gamma, obs.get("theta"))
    else:
        observation = gaussian_observation(_as_array("observation.means", obs["means"], (d,)),
                                           obs["sigma"])

    priors = []
    for key in ("nu", "beta"):
        values = _as_array(key, document[key], (d,))
        try:
            priors.append(as_density(values, space))
        except InvalidModelError as exc:
            raise InvalidModelError(f"invalid model document: '{key}': {exc}") from None
    return FiniteModel(space, kernel, observation, *priors)
