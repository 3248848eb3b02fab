"""Seeded random-model generators, small densities, two extreme model
documents and ρ computed three ways, shared across the test suite.

All randomness flows through the scalar reference generator
(`reference.Xoshiro256StarStar`) so the suite is platform-reproducible.
Kernels and emissions are strictly positive (entries drawn from [0.05, 1)
before row normalization), which keeps every conditioning event possible
and the averaged row minimum positive.
"""

import numpy as np

from filterstab import (
    BackwardContext,
    Density,
    FiniteModel,
    NumericalError,
    backward_pass,
    build_model,
    run_filter,
)
from filterstab.backward import _prior_ratio
from reference import Xoshiro256StarStar, reference_backward


def _positive_rows(stream, rows, cols, lo=0.05, hi=1.0):
    raw = np.array([[lo + (hi - lo) * stream.random() for _ in range(cols)]
                    for _ in range(rows)])
    return raw / raw.sum(axis=1, keepdims=True)


def random_positive_model(seed, d, n_symbols=2, gaussian=False) -> FiniteModel:
    stream = Xoshiro256StarStar(seed)
    transition = _positive_rows(stream, d, d)
    if gaussian:
        means = [2.0 * i + stream.random() for i in range(d)]
        observation = {"type": "gaussian", "means": means, "sigma": 0.5 + stream.random()}
    else:
        observation = {"type": "finite", "gamma": _positive_rows(stream, d, n_symbols).tolist()}
    nu = _positive_rows(stream, 1, d)[0]
    beta = _positive_rows(stream, 1, d)[0]
    return build_model({
        "states": d,
        "transition": transition.tolist(),
        "observation": observation,
        "nu": nu.tolist(),
        "beta": beta.tolist(),
    })


def random_kernel_matrix(seed, d, lo=0.05, hi=1.0) -> np.ndarray:
    stream = Xoshiro256StarStar(seed)
    return _positive_rows(stream, d, d, lo, hi)


def solve_exact(matrix, rhs):
    """Gauss-Jordan elimination in exact rationals (nonsingular systems only)."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


# a valid document whose posterior density leaves the float range: state 1 has
# the weight 1e-310, and the identity channel gives it probability 1 on symbol 1,
# which is the density 1e310
OVERFLOWING_DENSITY = {
    "states": 2, "psi": [1.0, 1e-310], "transition": [[0.99, 1e308], [0.99, 1e308]],
    "observation": {"type": "finite", "gamma": [[1.0, 0.0], [0.0, 1.0]]},
    "nu": [0.99, 1e308], "beta": [0.99, 1e308],
}

# a valid document on which ρ leaves the float range at step 1, and along
# every record the true chain draws a state has zero predicted mass at step 2:
# state 1 has the weight 1e-310, and state 2 is entered from state 1 alone, so
# ρ's column 2 puts all its law on state 1, whose density is 1e310; the true
# chain never visits state 1, which alone emits symbol 1, and every row has a
# zero, so the envelope is vacuous
RHO_OVERFLOWS_AT_STEP_1 = {
    "states": 3, "psi": [1.0, 1e-310, 1.0],
    "transition": [[1.0, 0.0, 0.0], [0.0, 5e307, 0.995], [1.0, 0.0, 0.0]],
    "observation": {"type": "finite", "gamma": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]},
    "nu": [0.5, 0.0, 0.5], "beta": [0.5, 1e308, 0.49],
}


def uniform_density(space) -> Density:
    return Density(np.full(space.num_states, 1.0 / float(space.weights.sum())))


def record_rho(model, record):
    """ρ along a replicate's wrong-prior run, as the commands run it."""
    return backward_pass(model, record.coeffs, record.pair.run_wrong.probabilities)


def rho_three_ways(model, coeffs, observations):
    """ρ along the wrong-prior filter's run on `observations`, which must
    pass, three ways: `backward_pass`, `BackwardContext` stepped over the
    record (its likelihood ratio read before the first step and after each)
    and `reference_backward`. Each outcome is the message of the error it
    raises, or the bytes of its oscillations, envelope (None when vacuous)
    and likelihood ratios, so that equal outcomes agree bit for bit."""
    laws = run_filter(model.wrong_prior, observations, model).probabilities

    def along():
        return backward_pass(model, coeffs, laws)

    def stepped():
        ratio = _prior_ratio(model)
        ctx = BackwardContext(model, model.wrong_prior, coeffs)
        ratios, records = [ctx.likelihood_ratio(ratio)], []
        for y in observations:
            ctx.step(y)
            records.append(ctx.record)
            ratios.append(ctx.likelihood_ratio(ratio))
        bounds = None if ctx._scale is None else np.array([r.bound for r in records])
        return np.array([r.oscillation for r in records]), bounds, np.array(ratios)

    outcomes = []
    for way in (along, stepped, lambda: reference_backward(model, coeffs, laws)):
        try:
            arrays = way()
        except NumericalError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(tuple(None if a is None else a.tobytes() for a in arrays))
    return outcomes


class LoggedNumpy:
    """numpy as `filtering` reads it, with each call of `np.matmul`,
    `np.multiply`, `np.divide` and `np.ndarray.dot` logged as its name and
    operand shapes, an ``out`` operand last."""

    def __init__(self):
        self.calls = []
        self.matmul, self.divide = self.logged("matmul", np.matmul), self.logged("divide", np.divide)
        self.multiply = self.logged("multiply", np.multiply)
        self.ndarray = type("ndarray", (), {"dot": staticmethod(self.logged("dot", np.ndarray.dot))})

    def logged(self, name, function):
        def call(*args, **kwargs):
            self.calls.append((name, [np.shape(a) for a in (*args, *kwargs.values())]))
            return function(*args, **kwargs)
        return call

    def __getattr__(self, name):
        return getattr(np, name)
