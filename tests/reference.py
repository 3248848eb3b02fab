"""Reference loops the engine is held to.

`reference_filter` and `reference_backward` redo one record from one prior
with plain 1-D numpy arithmetic, one step at a time, with none of the
engine's stacking, time-major buffers or chunks. Stacked products round
like these one-row ones, so the engine must agree with them exactly, not
just to a tolerance. Nothing here calls the package's own filter steps.
`log_domain_filter` is the filter in logsumexp form, an oracle that never
underflows, compared by tolerance. `reference_trajectory` samples one record
step by step from the scalar generator, which the time-parallel sampler must
reproduce bit for bit.
"""

import math

import numpy as np

from filterstab import NumericalError, Trajectory, Xoshiro256StarStar, likelihood_rows, row_minima
from filterstab.filtering import UNDERFLOW_FLOOR, ZERO_LIKELIHOOD


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
    obs, w = model.observation, model.space.weights
    z = (float(y) - obs.means) / obs.sigma
    log_lik = -0.5 * z * z - math.log(obs.sigma * math.sqrt(2.0 * math.pi))
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
    row_min_weighted = row_minima(model.kernel, model.space) * w
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


def _logsumexp(a, axis=None):
    top = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(top + np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)), axis=axis)


def log_domain_filter(model, prior, record):
    """The forward filter on a Gaussian channel computed entirely with
    logsumexp: densities and log normalizers that no float underflow can
    flush."""
    obs, w = model.observation, model.space.weights
    with np.errstate(divide="ignore"):
        log_step = np.log(model.kernel.matrix * w[None, :])
        log_alpha = np.log(prior.values * w)
    densities, log_norms = [prior.values], []
    for y in record:
        log_pred = _logsumexp(log_alpha[:, None] + log_step, axis=0)
        z = (y - obs.means) / obs.sigma
        log_joint = log_pred - 0.5 * z * z - math.log(obs.sigma * math.sqrt(2.0 * math.pi))
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
