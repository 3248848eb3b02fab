"""Reference loops the engine is held to, and checks of the theory.

`reference_filter` and `reference_backward` redo one record from one prior
with plain 1-D numpy arithmetic, one step at a time, with none of the
engine's stacking, time-major buffers or chunks. Stacked products round
like these one-row ones, so the engine must agree with them exactly, not
just to a tolerance. Nothing here calls the package's own filter steps.
`log_domain_filter` is the filter in logsumexp form, an oracle that never
underflows, compared by tolerance. `reference_trajectory` samples one record
step by step from the scalar generator `Xoshiro256StarStar`, which the
time-parallel sampler must reproduce bit for bit.

The path-enumeration oracles `brute_force_posterior` and
`brute_force_backward` recompute small instances exactly by summing over
every state path, and `kaijser_filter_recursion` is the counterexample's
posterior by its explicit four-state update.

The last part holds the checks of the paper's identities that no command
reports, which the acceptance tests run: the stationary backward recursion and
its geometric bound (`stationary_backward_sequence`,
`stationary_bound_check`, which takes the ergodicity report's `_gate` and
`BOUND_FLOOR`), the Poisson equation (`solve_poisson`) and the
change-of-measure identities between a filter pair (`change_of_measure_residual`).
"""

import math
from typing import NamedTuple

import numpy as np

from filterstab import (
    Density,
    InvalidModelError,
    NumericalError,
    Trajectory,
    as_density,
    likelihood_rows,
    row_minima,
)
from filterstab.ergodicity import BOUND_FLOOR, _gate
from filterstab.filtering import UNDERFLOW_FLOOR, ZERO_LIKELIHOOD
from filterstab.rng import _DOUBLE_SCALE, _MASK64, _seed_words


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """One xoshiro256** stream, seeded as a lane of
    `Xoshiro256StarStarLanes` is and stepped in Python integers masked to
    64 bits."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed):
        self._s0, self._s1, self._s2, self._s3 = _seed_words(seed)

    def next_uint64(self):
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self):
        """Uniform double in [0, 1)."""
        return (self.next_uint64() >> 11) * _DOUBLE_SCALE

    def normal(self, mean=0.0, scale=1.0):
        """Gaussian draw via Box-Muller; consumes exactly two words."""
        u1 = ((self.next_uint64() >> 11) + 1) * _DOUBLE_SCALE  # in (0, 1]
        u2 = (self.next_uint64() >> 11) * _DOUBLE_SCALE
        return mean + scale * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def pick(self, probabilities):
        """Sample an index from a probability vector by inverse CDF.

        Atoms are scanned left to right with a running cumulative sum. If
        floating-point shortfall leaves the uniform above the total mass,
        the last positive atom is returned.
        """
        u = self.random()
        acc = 0.0
        last_positive = -1
        for i, p in enumerate(probabilities):
            if p > 0.0:
                last_positive = i
            acc += p
            if u < acc:
                return i
        if last_positive < 0:
            raise ValueError("cannot sample from an all-zero probability vector")
        return last_positive


def reference_trajectory(model, initial, horizon, seed):
    """One record drawn step by step: ``X_0`` from `initial`, then per step the
    next state and its observation, each a `Xoshiro256StarStar.pick` or
    `Xoshiro256StarStar.normal` on the one stream of `seed`."""
    stream = Xoshiro256StarStar(seed)
    weights, obs = model.space.weights, model.observation
    state_probs = model.kernel.matrix * weights[None, :]
    finite = obs.kind == "finite"
    if finite:
        symbol_probs = obs.emission * obs.symbol_weights[None, :]
    x = stream.pick(initial.values * weights)
    states, observations = [x], []
    for _ in range(horizon):
        x = stream.pick(state_probs[x])
        states.append(x)
        if finite:
            observations.append(stream.pick(symbol_probs[x]))
        else:
            observations.append(stream.normal(obs.means[x], obs.sigma))
    return Trajectory(states=np.array(states, dtype=np.int64),
                      observations=np.array(observations, dtype=np.int64 if finite else float),
                      seed=seed)


def reference_filter(model, prior, observations):
    """The forward filter on one record: ``(N+1, d)`` densities and ``N`` log
    normalizers.

    A Gaussian step whose normalizer leaves ``(UNDERFLOW_FLOOR, inf)`` is
    redone in the log domain (`log_domain_step`), as the engine does; any
    other such step raises the engine's error.
    """
    matrix, w = model.kernel.matrix, model.space.weights
    pis, logs = [np.asarray(prior, dtype=float)], []
    for y, lik in zip(observations, likelihood_rows(model.observation, observations)):
        unnormalized = lik * (matrix.T @ (pis[-1] * w))
        normalizer = float(unnormalized @ w)
        if UNDERFLOW_FLOOR < normalizer < math.inf:
            pis.append(unnormalized / normalizer)
            logs.append(math.log(normalizer))
            continue
        rescued = None
        if model.observation.kind == "gaussian":
            rescued = log_domain_step(model, pis[-1], y)
        if rescued is None:
            raise NumericalError(f"{ZERO_LIKELIHOOD} (at step {len(pis)})")
        pis.append(rescued[0])
        logs.append(rescued[1])
    return np.array(pis), np.array(logs)


def log_domain_step(model, pi, y):
    """One Gaussian filter step from density ``pi`` in the log domain.

    The log joint ``log lik[x] + log(predicted[x] w[x])`` is shifted by its
    maximum before it is exponentiated, and the shift goes back into the log
    normalizer. Returns the density and the log normalizer, or None when no
    state has positive density.
    """
    w = model.space.weights
    log_lik = log_likelihood_rows(model.observation, [y])[0]
    with np.errstate(divide="ignore"):
        log_joint = log_lik + np.log((model.kernel.matrix.T @ (pi * w)) * w)
    top = float(log_joint.max())
    if not math.isfinite(top):
        return None
    joint = np.exp(log_joint - top)
    total = float(joint.sum())
    return joint / total / w, top + math.log(total)


def reference_backward(model, coeffs, wrong):
    """Oscillations, envelope (None when vacuous) and likelihood ratios along
    one wrong-prior run ``wrong`` (its ``(N+1, d)`` densities).

    Raises where the engine records a backward error for the run: a state
    unreachable in one step, or zero predicted mass.
    """
    matrix, w = model.kernel.matrix, model.space.weights
    theta0 = model.wrong_prior.values
    ratio = model.true_prior.values / theta0
    row_min_weighted = row_minima(model.kernel) * w
    denominator = (theta0 * w) @ matrix
    if denominator.min() <= 0.0:
        raise NumericalError("state unreachable in one step: conditioning event has probability 0")
    rho = matrix * theta0[:, None] / denominator[None, :]
    rho = rho / (w @ rho)[None, :]
    oscillations, ratios, decays = [], [float((ratio * theta0) @ w)], []
    exponent = 0.0
    for k in range(1, len(wrong)):
        if k > 1:
            weighted = wrong[k - 1] * w
            denominator = weighted @ matrix
            if denominator.min() <= 0.0:
                raise NumericalError("state has zero predicted mass")
            rho = ((rho * weighted[None, :]) @ matrix) / denominator[None, :]
            rho = rho / (w @ rho)[None, :]
            exponent += float(wrong[k - 1] @ row_min_weighted)
        oscillations.append(rho.max(axis=1) - rho.min(axis=1))
        ratios.append(float(((ratio * w) @ rho) @ (wrong[k] * w)))
        decays.append(math.exp(-exponent / coeffs.max_density))
    bounds = None
    if coeffs.mixing_coefficient > 0.0:
        scale = coeffs.max_density**2 / (theta0.min() * coeffs.mixing_coefficient) * theta0
        bounds = scale[None, :] * np.array(decays)[:, None]
    return np.array(oscillations).reshape(-1, len(w)), bounds, np.array(ratios)


def log_domain_filter(model, prior, record):
    """The forward filter on a Gaussian channel computed entirely with
    logsumexp: densities and log normalizers that no float underflow can
    flush."""
    w = model.space.weights
    with np.errstate(divide="ignore"):
        log_step = np.log(model.kernel.matrix * w[None, :])
        log_alpha = np.log(prior.values * w)
    densities, log_norms = [prior.values], []
    for log_lik in log_likelihood_rows(model.observation, record):
        log_joint = _logsumexp(log_alpha[:, None] + log_step, axis=0) + log_lik
        log_norm = float(_logsumexp(log_joint))
        log_alpha = log_joint - log_norm
        densities.append(np.exp(log_alpha) / w)
        log_norms.append(log_norm)
    return np.array(densities), np.array(log_norms)


def reference_kaijser_gaps(true_prior, wrong_prior, observations):
    """Per-state absolute gaps of the Kaijser filter pair by the gap
    recursion, one step at a time on Python floats."""
    s0, s1, s2, s3 = (np.asarray(true_prior, dtype=float)
                      - np.asarray(wrong_prior, dtype=float)).tolist()
    ys = list(map(int, observations))
    gaps = [[abs(s0), abs(s1), abs(s2), abs(s3)]]
    if ys:
        y = ys[0]
        gaps.append((abs(s0 + s3) * y, abs(s1 + s0) * (1 - y),
                     abs(s2 + s1) * y, abs(s3 + s2) * (1 - y)))
    for y_prev, y in zip(ys, ys[1:]):
        g0, g1, g2, g3 = gaps[-1]
        gaps.append(((g0 * y_prev + g3 * (1 - y_prev)) * y,
                     (g1 * (1 - y_prev) + g0 * y_prev) * (1 - y),
                     (g2 * y_prev + g1 * (1 - y_prev)) * y,
                     (g3 * (1 - y_prev) + g2 * y_prev) * (1 - y)))
    return np.array(gaps)


def kaijser_filter_recursion(prior, observations):
    """Posterior trajectory of the counterexample by its explicit recursion.

    With a binary observation ``y`` the posterior permutes and merges
    adjacent masses:

        p'[0] = (p[0] + p[3]) * y        p'[1] = (p[1] + p[0]) * (1 - y)
        p'[2] = (p[2] + p[1]) * y        p'[3] = (p[3] + p[2]) * (1 - y)

    The update preserves total mass exactly; each row is renormalized to
    guard against float drift. Entirely independent of the generic filter.
    """
    p = np.asarray(prior, dtype=float)
    if p.shape != (4,):
        raise InvalidModelError(f"wrong dimension: expected 4 states, got shape {p.shape}")
    out = np.empty((len(observations) + 1, 4))
    out[0] = p
    for n, y in enumerate(observations, start=1):
        y = int(y)
        p = np.array([
            (p[0] + p[3]) * y,
            (p[1] + p[0]) * (1 - y),
            (p[2] + p[1]) * y,
            (p[3] + p[2]) * (1 - y),
        ])
        p /= p.sum()
        out[n] = p
    return out


def log_likelihood_rows(observation, observations):
    """Log observation densities of a record, row ``n`` for ``observations[n]``:
    ``-z**2/2 - log(sigma sqrt(2 pi))`` for a Gaussian channel, the log of the
    emission-table column (-inf for a zero) for a finite alphabet."""
    if observation.kind == "finite":
        with np.errstate(divide="ignore"):
            return np.log(likelihood_rows(observation, observations))
    z = (np.asarray(observations, dtype=float)[:, None] - observation.means) / observation.sigma
    return -0.5 * z * z - math.log(observation.sigma * math.sqrt(2.0 * math.pi))


def _logsumexp(values, axis=None):
    """``log(sum(exp(values)))`` along `axis`, shifted by the maximum; -inf
    where every entry is -inf."""
    top = np.max(values, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        total = np.log(np.exp(values - top).sum(axis=axis, keepdims=True)) + top
    return np.squeeze(total, axis=axis)


def _path_log_mass(model, prior, observations):
    """Log joint mass table of (x_0, x_n) by full path enumeration.

    Entry ``[u, x]`` is the log of the sum of ``prior(x0) w(x0) * prod_k
    matrix[x_{k-1}, x_k] w(x_k) * lik_k(x_k)`` over all state paths from
    ``x0 = u`` to ``x_n = x``. Each path's weight is kept as a sum of logs
    (-inf for a zero factor) and the paths are added by logsumexp, so a record
    whose path masses lie below the float range is not called impossible.
    Deliberately naive: it holds one float per path, and is guarded against
    instances beyond ``d**(N+1) > 1e7``.
    """
    d = model.space.num_states
    n = len(observations)
    if d ** (n + 1) > 10**7:
        raise InvalidModelError(f"instance too large: {d}^{n + 1} paths")
    weights = model.space.weights
    with np.errstate(divide="ignore"):
        paths = np.log(prior.values * weights)
        log_step = np.log(model.kernel.matrix * weights)
    if n == 0:
        return np.where(np.eye(d, dtype=bool), paths, -np.inf)
    # axis k of `paths` is x_k; step k adds log(matrix[x_{k-1}, x_k] w(x_k) lik_k(x_k))
    for log_lik in log_likelihood_rows(model.observation, observations):
        paths = paths[..., None] + (log_step + log_lik)
    return _logsumexp(paths.reshape(d, -1, d), axis=1)


def _shifted_mass(log_mass, message):
    """``exp(log_mass - max)`` normalized to total one; NumericalError(`message`)
    when every entry is log 0."""
    top = log_mass.max()
    if not top > -np.inf:
        raise NumericalError(message)
    mass = np.exp(log_mass - top)
    return mass / mass.sum()


def brute_force_posterior(model, prior, observations):
    """Exact posterior of the final state by full path enumeration: the
    final-state marginal of `_path_log_mass`."""
    mass = _shifted_mass(_logsumexp(_path_log_mass(model, prior, observations), axis=0),
                         "zero-likelihood observation: record impossible under this prior")
    return as_density(mass / model.space.weights, model.space)


def brute_force_backward(model, theta0, observations, conditioning_state):
    """Exact backward density column by path enumeration.

    Returns the density in ``u`` of ``P(X_0 = u | X_n = conditioning_state,
    Y_1..Y_n)`` under the prior `theta0`. Guarded against instances beyond
    ``d**(N+1) > 1e7`` paths.
    """
    if not 0 <= conditioning_state < model.space.num_states:
        raise InvalidModelError(f"conditioning state {conditioning_state} out of range")
    mass = _shifted_mass(_path_log_mass(model, theta0, observations)[:, conditioning_state],
                         "conditioning event has probability 0")
    return Density(mass / model.space.weights)


class StationaryBackward(NamedTuple):
    """Stationary-chain backward density ``matrix[u, x]`` after `step` steps,
    with its per-``u`` oscillation across conditioning states."""

    matrix: np.ndarray
    oscillation: np.ndarray
    step: int


def stationary_backward_sequence(model, invariant, n_max):
    """Yield the stationary backward densities (no observations) for steps ``1..n_max``.

    ``matrix_1[u, x] = kernel[u, x] m[u] / m[x]`` and each further step
    contracts through the kernel weighted by the invariant density.
    """
    m = invariant.values
    if np.any(m <= 0.0):
        raise NumericalError("invariant density degenerate: zero atom")
    q = model.kernel.matrix * m[:, None] / m[None, :]
    yield StationaryBackward(q.copy(), q.max(axis=1) - q.min(axis=1), 1)
    for step in range(2, n_max + 1):
        q = (q * (m * model.space.weights)[None, :]) @ model.kernel.matrix / m[None, :]
        yield StationaryBackward(q.copy(), q.max(axis=1) - q.min(axis=1), step)


class StationaryBoundCheck(NamedTuple):
    worst_ratio: float
    unresolved_max: float
    floor: float


def stationary_bound_check(sequence, invariant, coeffs):
    """Check the stationary oscillation against its geometric envelope.

    The envelope after ``n`` steps is
    ``m(u) * (max / avg) * (1 - avg / max)**(n-1)``. Entries whose envelope
    falls below `BOUND_FLOOR` are checked absolutely instead of by ratio, by
    the gate of the ergodicity report. Requires a positive averaged row
    minimum.
    """
    if coeffs.mixing_coefficient <= 0.0:
        raise NumericalError("bound inapplicable: averaged row minimum is zero")
    scale = coeffs.max_density / coeffs.mixing_coefficient
    contraction = 1.0 - coeffs.mixing_coefficient / coeffs.max_density
    sequence = list(sequence)
    envelopes = [invariant.values * scale * contraction ** (sb.step - 1) for sb in sequence]
    worst, unresolved = _gate(np.array([sb.oscillation for sb in sequence]), np.array(envelopes))
    return StationaryBoundCheck(worst_ratio=worst, unresolved_max=unresolved, floor=BOUND_FLOOR)


class PoissonSolution(NamedTuple):
    """Solution of ``g = centered + (kernel g)`` for a centered test function."""

    values: np.ndarray
    centered: np.ndarray


def solve_poisson(model, invariant, f):
    """Solve the Poisson equation ``g - (kernel g) = centered`` directly.

    With ``P = kernel * w`` and ``mu = m * w`` the stationary law, the
    solution is the one with ``mu . g = 0``, the unique solution of
    ``(I - P + 1 mu^T) g = centered`` (Kemeny & Snell's fundamental matrix).
    That system is nonsingular exactly when the chain has one closed class,
    so periodic chains are solvable too; a chain with several closed classes
    makes it singular, which raises `NumericalError`. The result is verified
    against the defining equation to 1e-10.
    """
    space = model.space
    fv = np.asarray(f, dtype=float)
    mu = invariant.values * space.weights
    centered = fv - float(fv @ mu)
    apply_kernel = model.kernel.matrix * space.weights[None, :]
    system = np.eye(space.num_states) - apply_kernel + mu[None, :]
    try:
        g = np.linalg.solve(system, centered)
    except np.linalg.LinAlgError:
        raise NumericalError("poisson equation singular: no unique invariant density") from None
    residual = float(np.abs(g - centered - apply_kernel @ g).max())
    if residual > 1e-10:
        raise NumericalError(f"poisson residual {residual!r} exceeds 1e-10")
    return PoissonSolution(values=g, centered=centered)


def change_of_measure_residual(run_wrong, run_reference, rho, prior_ratio, space):
    """Residual of the exact identities linking the two filters through `rho`.

    ``run_wrong`` is the filter from the prior that generated the record and
    initialized the ``(d, d)`` backward density `rho`; ``run_reference`` is
    the filter from the other prior on the *same* record. With ``L`` the
    likelihood ratio and ``h(x) = sum_u ratio[u] rho[u, x] w[u]``, both of

        L * reference(x)              = h(x) * wrong(x)
        L * (reference(x) - wrong(x)) = wrong(x) * (h(x) - L)

    hold exactly; the returned value is the largest absolute violation (the
    first identity is checked on probability scale, times ``w[x]``).
    """
    pi_wrong = run_wrong.densities[-1]
    pi_reference = run_reference.densities[-1]
    w = space.weights
    per_state = (np.asarray(prior_ratio, dtype=float) * w) @ rho
    value = float(per_state @ (pi_wrong * w))
    res_centered = np.abs(value * (pi_reference - pi_wrong) - pi_wrong * (per_state - value))
    res_direct = np.abs(value * pi_reference - per_state * pi_wrong) * w
    return float(max(res_centered.max(), res_direct.max()))
