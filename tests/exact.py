"""Exact references for finite-alphabet models, to check accuracy.

Every float of a model is read as a `Fraction`: the transition
probabilities ``K[i, j] w[j]``, the emission probabilities and the prior
laws, each row scaled to sum to exactly 1, which is the law the float model
stands for. Each table is then held as integers over one common
denominator, so the filter pair, its TV gap, the likelihood ratio and ρ's
oscillation follow in integer arithmetic, unnormalized, and are rounded
once when read as floats; the stationary law is solved in `Fraction`. The
integers grow with every step, so a record has at most 60 steps.
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from helpers import solve_exact

MAX_STEPS = 60


def _laws(rows, weights):
    """Each row of `rows` times `weights`, in Fractions, scaled to sum to 1."""
    rows = [[Fraction(x) * Fraction(w) for x, w in zip(row, weights)] for row in rows]
    return [[x / sum(row) for x in row] for row in rows]


def _integers(laws):
    """`laws` times the least common multiple of their denominators."""
    scale = math.lcm(*(x.denominator for row in laws for x in row))
    return [[int(x * scale) for x in row] for row in laws]


def exact_stationary(kernel, space) -> np.ndarray:
    """The stationary density ``law / w`` of a chain with one closed class."""
    chain, d = _laws(kernel.matrix, space.weights), space.num_states
    # balance at every state but the last, and total mass 1
    balance = [[chain[i][j] - (i == j) for i in range(d)] for j in range(d - 1)]
    law = solve_exact(balance + [[Fraction(1)] * d], [Fraction(0)] * (d - 1) + [Fraction(1)])
    return np.array([float(p / Fraction(w)) for p, w in zip(law, space.weights)])


class ExactRun(NamedTuple):
    """The exact filter pair along one record, as floats: ``(N+1, d)``
    posterior laws from the true and the wrong prior, the ``N+1`` TV gaps
    and likelihood ratios, and the ``(N, d)`` oscillations of ρ's density
    from the wrong prior."""

    correct: np.ndarray
    wrong: np.ndarray
    tv: np.ndarray
    likelihood_ratios: np.ndarray
    oscillations: np.ndarray


def exact_run(model, observations) -> ExactRun:
    """`ExactRun` of a finite model with a positive kernel along a record.
    A ratio of two integers is read as a float by Python's correctly rounded
    integer division."""
    if len(observations) > MAX_STEPS:
        raise ValueError(f"at most {MAX_STEPS} steps, got {len(observations)}")
    w, d = [Fraction(v) for v in model.space.weights], model.space.num_states
    chain = _integers(_laws(model.kernel.matrix, w))
    obs = model.observation
    emission = _integers(_laws(obs.emission, obs.symbol_weights))
    # the unnormalized joint laws of the state and the record so far
    runs = [_integers(_laws([prior.values], w)) for prior in (model.true_prior, model.wrong_prior)]
    for y in map(int, observations):
        for joints in runs:
            joints.append([sum(joints[-1][i] * chain[i][j] for i in range(d)) * emission[j][y]
                           for j in range(d)])
    correct, wrong = ([[x / sum(joint) for x in joint] for joint in joints] for joints in runs)
    tv = [sum(abs(a * sum(q) - b * sum(p)) for a, b in zip(p, q)) / (sum(p) * sum(q))
          for p, q in zip(*runs)]
    # the record's probability under each prior, up to the tables' common scales
    (c0, *c), (w0, *w_) = ([sum(joint) for joint in joints] for joints in runs)
    ratios = [1.0] + [a * w0 / (b * c0) for a, b in zip(c, w_)]
    # ρ's joint laws of the initial and the current state and the record before it
    rho, oscillations = [[x if u == z else 0 for z, x in enumerate(runs[1][0])]
                         for u in range(d)], []
    for n in range(len(observations)):
        if n:
            rho = [[x * emission[z][int(observations[n - 1])] for z, x in enumerate(row)]
                   for row in rho]
        rho = [[sum(row[z] * chain[z][x] for z in range(d)) for x in range(d)] for row in rho]
        columns = [sum(row[x] for row in rho) for x in range(d)]
        spreads = []
        for row, v in zip(rho, w):  # row[x] / columns[x] compared by cross products
            key = functools.cmp_to_key(lambda x, y: row[x] * columns[y] - row[y] * columns[x])
            hi, lo = max(range(d), key=key), min(range(d), key=key)
            spreads.append((row[hi] * columns[lo] - row[lo] * columns[hi]) * v.denominator
                           / (columns[hi] * columns[lo] * v.numerator))
        oscillations.append(spreads)
    return ExactRun(np.array(correct), np.array(wrong), np.array(tv), np.array(ratios),
                    np.array(oscillations).reshape(-1, d))
