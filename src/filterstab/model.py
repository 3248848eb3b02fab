"""Finite-state hidden Markov model data types and stability coefficients.

Conventions used throughout the package: probabilities inside, densities at
the edge.

* The state space is a finite set of atoms ``0..d-1`` carrying strictly
  positive reference weights ``w[i]``. A model gives its laws as densities
  against them: atom ``i`` has probability ``density[i] * w[i]``, and each
  row of the transition densities ``matrix`` integrates to one.
* The filter, ρ, the sampler, the n-step powers and the invariant law carry
  probabilities and step with ``P = K diag(w)``, which needs no ``w`` (and
  is the kernel itself, bit for bit, at unit weights).
* Only the paper's density quantities read ``w``: row minima, extreme and
  averaged densities, the envelope, and each reported density ``p / w``.
* Observations are either a finite alphabet with per-state emission densities
  (against positive symbol weights) or a Gaussian channel with state-dependent
  means and a common scale.

Essential infima/suprema over the state space reduce to minima/maxima over
atoms with positive weight; zero-weight atoms cannot occur by construction.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict, namedtuple
from typing import Mapping, Optional

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


def validated_tuple(typename: str, field_names: str, **kwargs) -> type:
    """A `namedtuple` base whose `_make`, and so `_replace`, builds through
    ``cls(*fields)``: a subclass that validates in `__new__` validates on
    every construction route."""
    base = namedtuple(typename, field_names, **kwargs)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class StateSpace(validated_tuple("StateSpace", "num_states weights")):
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


def unit_space(num_states: int) -> StateSpace:
    """State space with all-ones weights (counting reference measure)."""
    return StateSpace(num_states, np.ones(num_states))


class Density(validated_tuple("Density", "values")):
    """Nonnegative density values against the state weights, total mass one."""

    __slots__ = ()

    def __new__(cls, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1:
            raise InvalidModelError(f"density must be a vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise InvalidModelError("density values must be finite and nonnegative")
        return super().__new__(cls, _frozen(v))


def as_density(values, space: StateSpace) -> Density:
    """Validate mass against the weights (within `MASS_TOL`) and renormalize exactly."""
    v = np.asarray(values, dtype=float)
    if v.shape != (space.num_states,):
        raise InvalidModelError(
            f"dimension mismatch: density shape {v.shape} vs {space.num_states} states"
        )
    v = Density(v).values  # finite and nonnegative
    with np.errstate(over="ignore"):  # an overflowing mass is reported as inf
        mass = float(v @ space.weights)
    if abs(mass - 1.0) > MASS_TOL:
        raise InvalidModelError(f"density mass {mass!r} deviates from 1 beyond {MASS_TOL}")
    return Density(v / mass)


class TransitionKernel(validated_tuple("TransitionKernel", "matrix")):
    """One-step transition densities; ``matrix[i, j]`` is the density i -> j."""

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidModelError(f"transition matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise InvalidModelError("invalid kernel: entries must be finite and nonnegative")
        return super().__new__(cls, _frozen(a))

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


def _row_integrals(key: str, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Check that every row integrates to 1 against `weights` within `ROW_TOL`,
    and return the integrals."""
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
    return sums


def as_kernel(matrix, space: StateSpace) -> TransitionKernel:
    """Validate row sums against the weights (within `ROW_TOL`) and renormalize rows."""
    d = space.num_states
    rows = _as_array("transition", matrix, (d, d))
    return TransitionKernel(rows / _row_integrals("transition", rows, space.weights)[:, None])


class ObservationModel(validated_tuple("ObservationModel",
                                       "kind emission symbol_weights means sigma",
                                       defaults=(None, None, None, None))):
    """Observation channel: finite alphabet emissions or a Gaussian read-out.

    For ``kind == "finite"``, ``emission[i, k]`` is the density of symbol ``k``
    from state ``i`` against the positive ``symbol_weights`` (all 1.0 when
    not given); each row integrates to one within `ROW_TOL`. For
    ``kind == "gaussian"``, symbol values are reals with density
    ``N(means[i], sigma**2)``, finite means and ``sigma > 0``. The other
    kind's fields are stored as None. The checks, their order and their
    messages are those of a model document's ``observation``; nothing is
    renormalized, so `_replace` keeps every bit.
    """

    __slots__ = ()

    def __new__(cls, kind: str, emission=None, symbol_weights=None, means=None, sigma=None):
        if kind == "finite":
            rows = _as_array("observation.gamma", emission, (None, None))
            p = rows.shape[1]
            w = (np.ones(p) if symbol_weights is None
                 else _as_array("observation.theta", symbol_weights, (p,)))
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise InvalidModelError("symbol weights must be finite and strictly positive")
            _row_integrals("observation.gamma", rows, w)
            return super().__new__(cls, kind, _frozen(rows), _frozen(w))
        if kind == "gaussian":
            mu = _as_array("observation.means", means, (None,))
            if not np.all(np.isfinite(mu)):
                raise InvalidModelError("gaussian means must be a finite vector")
            sigma = float(_as_array("observation.sigma", sigma, ()))
            if not np.isfinite(sigma) or sigma <= 0.0:
                raise InvalidModelError(f"gaussian sigma must be positive, got {sigma!r}")
            return super().__new__(cls, kind, means=_frozen(mu), sigma=sigma)
        raise InvalidModelError(f"observation kind must be 'finite' or 'gaussian', got {kind!r}")

    @property
    def num_symbols(self) -> int:
        if self.kind != "finite":
            raise InvalidModelError("num_symbols is defined for finite alphabets only")
        return self.emission.shape[1]


def finite_observation(emission, symbol_weights=None) -> ObservationModel:
    """The finite channel with each emission row divided by its integral,
    once the rows pass `ObservationModel`'s checks."""
    raw = ObservationModel("finite", emission, symbol_weights)
    return raw._replace(emission=raw.emission / (raw.emission @ raw.symbol_weights)[:, None])


class FiniteModel(validated_tuple("FiniteModel",
                                  "space kernel observation true_prior wrong_prior")):
    """Validated model bundle: space, dynamics, observation channel, priors.

    ``true_prior`` is the density the data generator uses for the initial
    state; ``wrong_prior`` is the (strictly positive) density a misspecified
    filter starts from. The kernel, the observation channel and both priors
    must have the state space's dimension, each kernel row must integrate to
    1 within `ROW_TOL` and each prior have mass 1 within `MASS_TOL`. Nothing
    is renormalized, so `_replace` keeps every bit. `transition_probabilities`
    is cached in the instance ``__dict__``.
    """

    def __new__(cls, space: StateSpace, kernel: TransitionKernel, observation: ObservationModel,
                true_prior: Density, wrong_prior: Density):
        d = space.num_states
        obs = observation
        states = obs.emission.shape[0] if obs.kind == "finite" else obs.means.shape[0]
        if kernel.dim != d or states != d:
            raise InvalidModelError(f"dimension mismatch: {d} states but a {kernel.dim}-state "
                                    f"kernel and a {states}-state observation channel")
        _row_integrals("transition", kernel.matrix, space.weights)
        for name, prior in zip(cls._fields[3:], (true_prior, wrong_prior)):
            try:
                as_density(prior.values, space)
            except InvalidModelError as exc:
                raise InvalidModelError(f"{name}: {exc}") from None
        if np.any(wrong_prior.values <= 0.0):
            raise InvalidModelError("beta not bounded below: filter prior has a zero atom")
        return super().__new__(cls, space, kernel, observation, true_prior, wrong_prior)

    @functools.cached_property
    def transition_probabilities(self) -> np.ndarray:
        """``P = K diag(w)``, read-only: ``P[i, j]`` is the probability of
        moving from ``i`` to ``j``, the step of every probability loop."""
        return _frozen(self.kernel.matrix * self.space.weights)


class Coefficients(validated_tuple("Coefficients",
                                   "min_density max_density mixing_coefficient "
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
    # m * w is a probability vector, so weighing it first keeps avg within the largest row
    # minimum, a finite entry of the validated kernel
    avg = float(np.sum(mins * (invariant.values * space.weights)))
    rate = avg / hi if hi > 0.0 else 0.0
    degenerate = avg > 0.0 and abs(hi - avg) <= 1e-14 * hi
    prefactor = ratio = None
    if degenerate:
        ratio = 0.0
    elif avg > 0.0:
        # on hi and avg times the power of two that brings hi into [0.5, 1): exact, so the
        # bits of the raw form wherever that stays in range, at any scale of the weights;
        # the spread underflows to 0 only where the prefactor, about hi / avg, overflows
        e = math.frexp(hi)[1]
        top, low = math.ldexp(hi, -e), math.ldexp(avg, -e)
        spread = low * (top - low)
        prefactor = top * top / spread if spread else math.inf
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
    """Invariant density of the kernel: the invariant law of ``P = K diag(w)``
    over the weights, ``p / w``.

    A kernel whose transition graph has more than one closed communicating
    class has one invariant density per class, so none is unique: that raises
    "no unique invariant density found", naming the classes, before any step.
    Otherwise it iterates ``p <- P^T p / sum(P^T p)`` from the uniform
    probability ``1/d`` until successive iterates differ by less than
    ``_POWER_TOL`` (1e-13) in max norm, then polishes a few more steps toward
    machine precision. That rule bounds the error only by about
    ``1e-13 / (1 - lambda_2)``, with ``lambda_2`` the second eigenvalue: on
    ``K_e = [[1-e, e], [2e, 1-2e]]`` at ``e = 1e-3`` the result is off by
    about 1e-11. When a block's largest delta stays within 1% of the previous
    block's three blocks in a row, the chain oscillates or mixes too slowly to
    finish, and the loop stops; so it does when all ``_POWER_BLOCKS`` blocks
    (10**6 steps) have run. Either way the law comes from `_gth` instead,
    exact to rounding on P's closed class, and must meet the fixed-point
    residual to 1e-10. So periodic chains of any period, near-periodic ones
    such as ``[[a, 1-a], [1-b, b]]`` with small ``a`` and ``b``, and ``K_e``
    below ``e = 6e-6`` are solved (the power iteration stays for every chain
    it solves, bit for bit; ROADMAP item 2 replaces it).

    The iteration runs in blocks of ``_POWER_BLOCK`` steps written into one
    buffer, the first in runs of 1, 2, 4, ... steps, so a fast chain stops
    within twice its stopping step. The stopping test is applied to each
    run's successive differences afterwards and the stagnation probe to each
    block's, so the iterates, the stopping step and the result are those of
    a step-by-step loop.

    Results are memoized per process: a call whose kernel matrix bytes,
    shape and strides and state weight bytes all equal an earlier call's
    returns that call's (frozen, read-only) `Density` without iterating
    again. The strides are part of the key because P keeps the kernel's
    layout, which picks the gemv, and two gemvs need not round alike. The
    memo keeps the ``_INVARIANT_MEMO_SIZE`` most recently used results; a
    `NumericalError` is never stored, so it is raised again on every call.
    """
    matrix, weights = kernel.matrix, space.weights
    key = (matrix.tobytes(), matrix.shape, matrix.strides, weights.tobytes())
    # each step is one atomic dict operation: concurrent callers can at worst
    # run the loop twice for one key, never get a wrong entry
    density = _INVARIANT_MEMO.pop(key, None)
    if density is None:
        with np.errstate(over="ignore"):  # an unvalidated pair may overflow
            probabilities = matrix * weights
        if not np.isfinite(probabilities).all():
            raise NumericalError("invariant density: a transition density times its state "
                                 "weight overflows")
        density = Density(_power_iteration(probabilities) / weights)
    _INVARIANT_MEMO[key] = density
    if len(_INVARIANT_MEMO) > _INVARIANT_MEMO_SIZE:
        _INVARIANT_MEMO.popitem(last=False)
    return density


def _power_iteration(probabilities: np.ndarray) -> np.ndarray:
    """The invariant law of `invariant_density`, on each call that misses its
    memo. A step is a gemv, a ddot against ones into a 0-d array and a divide
    by that array, each passing its output by position: numpy's cheaper call
    path, rounding exactly as ``v / float(v @ ones)``."""
    d = probabilities.shape[0]
    # a transposed view: a contiguous copy would make numpy call another gemv,
    # which need not round alike
    adjoint = probabilities.T
    states = _the_closed_class(probabilities)

    rows = np.empty((_POWER_BLOCK + 1, d))
    views = list(rows)
    v, total, ones = np.empty(d), np.empty(()), np.ones(d)
    dot, vdot, divide = adjoint.dot, v.dot, np.divide
    rows[0] = 1.0 / d
    p = rows[0]
    stagnant_blocks, last_max = 0, np.inf
    for block in range(_POWER_BLOCKS):
        rows[0] = p
        # the first block in runs of 1, 2, 4, ... steps, later blocks whole
        done, stop = 0, 1 if not block else _POWER_BLOCK
        while True:
            # gemv, ddot and a divide per step, rounding exactly as v / float(v @ ones)
            for k in range(done, stop):
                dot(views[k], v)
                vdot(ones, total)
                divide(v, total, views[k + 1])
            deltas = np.abs(rows[1:stop + 1] - rows[:stop]).max(axis=1)
            hits = np.flatnonzero(deltas < _POWER_TOL)
            if hits.size or stop == _POWER_BLOCK:
                break
            done, stop = stop, min(2 * stop + 1, _POWER_BLOCK)
        k = int(hits[0]) if hits.size else _POWER_BLOCK - 1
        p, delta = rows[k + 1], float(deltas[k])
        if hits.size:
            break
        # stagnation probe: on each block's largest delta, whatever the period
        block_max = float(deltas.max())
        stagnant_blocks = stagnant_blocks + 1 if block_max > 0.99 * last_max else 0
        last_max = block_max
        if stagnant_blocks >= 3:
            break
    if not hits.size:
        return _gth(probabilities, states, p)

    # polish: keep iterating while the step keeps improving
    for _ in range(500):
        if delta <= 2.3e-16:
            break
        v = adjoint @ p
        p_next = v / float(v @ ones)
        new_delta = float(np.max(np.abs(p_next - p)))
        if new_delta >= delta:
            break
        p, delta = p_next, new_delta
    return p / float(p @ ones)


def _gth(probabilities: np.ndarray, states: list[int], iterate: np.ndarray) -> np.ndarray:
    """The invariant law of ``P`` by Grassmann, Taksar and Heyman's state
    reduction (1985), on P's closed class `states` (read from P's own zero
    pattern, so an edge whose probability underflows to 0 is lost), with 0
    on every transient state. It never subtracts, and reads each diagonal
    entry as 1 minus the row's others, so it is exact to rounding however
    slowly the chain mixes (O'Cinneide 1993). The states are censored
    lightest first, by their probability in the power iteration's last
    `iterate` (ties by index), so the heaviest is reduced last: a fill-in
    that underflows to 0 on a light state's path is then not a divisor. The
    result must meet the fixed-point residual to 1e-10."""
    states = sorted(states, key=lambda i: (-iterate[i], i))  # heaviest first
    with np.errstate(all="ignore"):  # a fill-in lost to underflow divides by 0: the residual fails
        p = probabilities[np.ix_(states, states)]
        for k in range(len(states) - 1, 0, -1):  # censor state k out of the chain
            p[:k, k] /= p[k, :k].sum()
            p[:k, :k] += np.outer(p[:k, k], p[k, :k])
        law = np.ones(len(states))
        for k in range(1, len(states)):
            law[k] = law[:k] @ p[:k, k]
        m = np.zeros(len(probabilities))
        m[states] = law / law.sum()
        residual = float(np.max(np.abs(probabilities.T @ m - m)))
    if not residual <= 1e-10:
        raise NumericalError(f"invariant density: the GTH solution misses its fixed point by "
                             f"{residual!r} as probabilities")
    return m


def _the_closed_class(matrix: np.ndarray) -> list[int]:
    """The states of the transition graph's one closed class; two or more
    raise "no unique invariant density found", naming them."""
    classes = _closed_classes(matrix)
    if len(classes) > 1:
        named = ["{" + ", ".join(map(str, states)) + "}" for states in classes]
        raise NumericalError(f"no unique invariant density found: closed classes of states "
                             f"{', '.join(named[:-1])} and {named[-1]}")
    return classes[0]


def _closed_classes(matrix: np.ndarray) -> list[list[int]]:
    """The closed communicating classes of the transition graph, each as its
    sorted states: state ``i`` is in one when every state it reaches reaches
    ``i`` back. Reachability is the boolean closure of the zero pattern."""
    reach = (matrix > 0.0) | np.eye(matrix.shape[0], dtype=bool)
    while True:  # each squaring doubles the path length covered
        paths = reach.astype(float)  # a float product is a BLAS call, a boolean one is not
        wider = paths @ paths > 0.0
        if (wider == reach).all():
            break
        reach = wider
    mutual = reach & reach.T
    closed = (reach <= reach.T).all(axis=1)
    # each class once, listed by its lowest state
    return [np.flatnonzero(mutual[i]).tolist() for i in np.flatnonzero(closed)
            if not mutual[i, :i].any()]


def primitivity_check(kernel: TransitionKernel) -> Optional[int]:
    """Smallest power whose multi-step density is strictly positive everywhere.

    It depends only on the zero pattern. Only a kernel with one closed class
    of every state can have one, and its powers stay positive from there on,
    so squarings bracket it and a bisection finds it. A primitive d-state
    kernel is positive by power ``(d - 1)**2 + 1`` (Wielandt); others get None.
    """
    d = kernel.dim
    if len(_closed_classes(kernel.matrix)[0]) < d:
        return None
    squares = [(kernel.matrix > 0.0).astype(float)]  # the patterns of K**(2**j)
    while not squares[-1].all():
        if 2 ** (len(squares) - 1) > (d - 1) ** 2:
            return None
        squares.append((squares[-1] @ squares[-1] > 0.0).astype(float))
    # K**power is not positive and K**(power + 2**(j + 1)) is, for each j below
    power, walks = 0, np.eye(d)
    for j in range(len(squares) - 2, -1, -1):
        longer = walks @ squares[j] > 0.0
        if not longer.all():
            power, walks = power + 2 ** j, longer.astype(float)
    return power + 1


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
        means = _as_array("observation.means", obs["means"], (d,))
        observation = ObservationModel("gaussian", means=means, sigma=obs["sigma"])

    priors = []
    for key in ("nu", "beta"):
        values = _as_array(key, document[key], (d,))
        try:
            priors.append(as_density(values, space))
        except InvalidModelError as exc:
            raise InvalidModelError(f"invalid model document: '{key}': {exc}") from None
    return FiniteModel(space, kernel, observation, *priors)
