import time
from fractions import Fraction

import numpy as np
import pytest

from filterstab import (
    Density,
    InvalidModelError,
    NumericalError,
    StateSpace,
    TransitionKernel,
    as_kernel,
    build_model,
    invariant_density,
    mixing_coefficients,
    primitivity_check,
    unit_space,
)
from filterstab import model as model_module
from helpers import random_kernel_matrix, random_positive_model, solve_exact
from reference import Xoshiro256StarStar

KAIJSER_TRANSITION = [
    [0.5, 0.5, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0],
    [0.0, 0.0, 0.5, 0.5],
    [0.5, 0.0, 0.0, 0.5],
]
KAIJSER_EMISSION = [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
TWO_STATE = [[0.5, 0.5], [0.3, 0.7]]
PERIOD_THREE = [
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.3, 0.7],
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
]


def kaijser_config():
    return {
        "states": 4,
        "transition": KAIJSER_TRANSITION,
        "observation": {"type": "finite", "gamma": KAIJSER_EMISSION},
        "nu": [0.5, 0.2, 0.2, 0.1],
        "beta": [0.25, 0.25, 0.25, 0.25],
    }


def two_state_model(nu=(0.9, 0.1), beta=(0.5, 0.5)):
    return build_model({
        "states": 2,
        "transition": TWO_STATE,
        "observation": {"type": "finite", "gamma": [[0.8, 0.2], [0.2, 0.8]]},
        "nu": list(nu),
        "beta": list(beta),
    })


class TestBuildModel:
    def test_kaijser_config_is_valid(self):
        model = build_model(kaijser_config())
        assert model.space.num_states == 4
        np.testing.assert_allclose(model.kernel.matrix, KAIJSER_TRANSITION)

    def test_single_state_model(self):
        model = build_model({
            "states": 1,
            "transition": [[1.0]],
            "observation": {"type": "finite", "gamma": [[1.0]]},
            "nu": [1.0],
            "beta": [1.0],
        })
        assert model.kernel.matrix.shape == (1, 1)

    def test_row_sum_violation_rejected(self):
        config = kaijser_config()
        config["transition"] = [[0.45, 0.45, 0.0, 0.0],
                                [0.0, 0.45, 0.45, 0.0],
                                [0.0, 0.0, 0.45, 0.45],
                                [0.45, 0.0, 0.0, 0.45]]
        with pytest.raises(InvalidModelError, match="invalid kernel"):
            build_model(config)

    def test_beta_zero_atom_rejected(self):
        config = kaijser_config()
        config["beta"] = [0.5, 0.5, 0.0, 0.0]
        with pytest.raises(InvalidModelError, match="beta not bounded below"):
            build_model(config)

    def test_dimension_mismatch(self):
        config = kaijser_config()
        config["nu"] = [0.5, 0.5]
        with pytest.raises(InvalidModelError, match="dimension mismatch"):
            build_model(config)

    def test_negative_entry_rejected(self):
        config = kaijser_config()
        config["transition"] = [[1.5, -0.5, 0.0, 0.0]] + KAIJSER_TRANSITION[1:]
        with pytest.raises(InvalidModelError):
            build_model(config)

    def test_missing_key(self):
        config = kaijser_config()
        del config["beta"]
        with pytest.raises(InvalidModelError, match="beta"):
            build_model(config)


@pytest.mark.usefixtures("cold_invariant_memo")
class TestInvariantDensity:
    def test_kaijser_uniform(self):
        model = build_model(kaijser_config())
        m = invariant_density(model.kernel, model.space)
        np.testing.assert_allclose(m.values, 0.25, atol=1e-10)

    def test_uniform_kernel(self):
        space = unit_space(5)
        kernel = as_kernel(np.full((5, 5), 0.2), space)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, 0.2, atol=1e-12)

    def test_two_state_hand_solution(self):
        # stationarity: x = 0.5 x + 0.3 (1 - x)  =>  x = 0.375
        space = unit_space(2)
        kernel = as_kernel(TWO_STATE, space)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, [0.375, 0.625], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_fixed_point_property(self, seed, d):
        space = unit_space(d)
        kernel = as_kernel(random_kernel_matrix(1000 * d + seed, d), space)
        m = invariant_density(kernel, space)
        stepped = (kernel.matrix * space.weights[:, None]).T @ m.values
        assert np.abs(stepped - m.values).max() <= 1e-12

    def test_weighted_space(self):
        # flip chain with unequal weights; iterates oscillate with period two
        # and the averaged pair is exactly invariant: m = (1/2, 1/4)
        space = StateSpace(2, [1.0, 2.0])
        kernel = as_kernel([[0.0, 0.5], [1.0, 0.0]], space)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, [0.5, 0.25], atol=1e-12)

    def test_period_three_law(self):
        # three-phase block cycle: the probe hands the chain to GTH
        space = unit_space(4)
        kernel = as_kernel(PERIOD_THREE, space)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, [1 / 3, 1 / 3, 1 / 10, 7 / 30], rtol=0, atol=1e-15)

    def test_identity_kernel_has_no_unique_invariant_density(self):
        # every state is its own closed class: each point mass is invariant
        space = unit_space(3)
        kernel = as_kernel(np.eye(3), space)
        with pytest.raises(NumericalError, match=r"^no unique invariant density found: "
                           r"closed classes of states \{0\}, \{1\} and \{2\}$"):
            invariant_density(kernel, space)

    def test_a_block_kernel_names_its_closed_classes(self):
        space = StateSpace(3, [1.0, 2.0, 0.5])
        kernel = as_kernel([[1.0, 0.0, 0.0], [0.0, 0.25, 1.0], [0.0, 0.25, 1.0]], space)
        with pytest.raises(NumericalError, match=r"^no unique invariant density found: "
                           r"closed classes of states \{0\} and \{1, 2\}$"):
            invariant_density(kernel, space)

    def test_transient_states_keep_the_one_closed_class_density(self):
        # state 1 leaks into the closed class {0} and carries no mass
        space = unit_space(2)
        kernel = as_kernel([[1.0, 0.0], [0.5, 0.5]], space)
        m = invariant_density(kernel, space)
        assert m.values.tobytes() == reference_invariant_density(kernel, space).values.tobytes()
        np.testing.assert_allclose(m.values, [1.0, 0.0], atol=1e-12)

    def test_a_return_edge_lost_to_underflow_leaves_the_float_law(self):
        # one closed class by the kernel's zero pattern, but state 2's return edges,
        # density 5e-324 times weight 0.4, round to probability 0: the slow leak into
        # state 2 fires the probe, and GTH solves on the float chain's closed class
        # {2}; the exact law differs from it by about 1e-317
        leak = 1e-7
        space = StateSpace(3, [0.4, 0.4, 1.0])
        kernel = as_kernel([[0.5 * (1.0 - leak) / 0.4] * 2 + [leak]] * 2
                           + [[5e-324, 5e-324, 1.0]], space)
        assert (kernel.matrix * space.weights)[2, :2].tolist() == [0.0, 0.0]
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, [0.0, 0.0, 1.0], rtol=0, atol=1e-12)

    def test_float_probabilities_with_two_closed_classes_have_no_unique_law(self):
        # one closed class by the kernel's zero pattern; the edges out of states 0
        # and 1, density 5e-324 times weight 0.4, round to probability 0, so the float
        # chain absorbs in either, and states 2 and 3 leak into them too slowly to
        # stop the power iteration
        leak = 1e-7
        space = StateSpace(4, [1.0, 1.0, 0.4, 0.4])
        kernel = as_kernel([[1.0, 0.0, 5e-324, 0.0], [0.0, 1.0, 0.0, 5e-324],
                            [leak, 0.0, (1.0 - 2.0 * leak) / 0.4, leak / 0.4],
                            [0.0, leak, leak / 0.4, (1.0 - 2.0 * leak) / 0.4]], space)
        with pytest.raises(NumericalError, match=r"^no unique invariant density found: "
                           r"closed classes of states \{0\} and \{1\}$"):
            invariant_density(kernel, space)

    @pytest.mark.xfail(strict=True, raises=NumericalError,
                       reason="GTH divides by a censored row whose fill-in underflowed to 0 "
                              "(FOUND in CHANGES.md)")
    def test_a_fill_in_lost_to_underflow_keeps_the_law(self):
        # one closed class, also as float probabilities; censoring state 2 adds
        # 1e-300 * 1e-30 to state 1's path back to 0, which underflows, and
        # censoring state 1 then divides by 0. The law is about (1e-323, 1, 1e-300)
        space = unit_space(3)
        kernel = as_kernel([[1.0 - 1e-7, 1e-7, 0.0], [0.0, 1.0 - 1e-300, 1e-300],
                            [1e-30, 1.0, 0.0]], space)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, [0.0, 1.0, 0.0], rtol=0, atol=1e-12)


class HandOff(Exception):
    """The stepwise loop gives the chain to GTH: its stagnation probe fired,
    or it ran out of steps."""


def reference_invariant_density(kernel, space, *, max_iter=10**6):
    """The step-by-step power iteration that `invariant_density` blocks,
    kept as the reference its iterates, stopping step and bytes must match.
    `max_iter` is the step budget, `_POWER_BLOCKS` blocks of 1000 in the
    library; the stopping tolerance is its 1e-13. Differences are compared
    as probabilities, each times its state weight, as the library does.
    When a block's largest difference has shrunk by less than 1% for three
    blocks in a row, or the budget is spent, it raises `HandOff` naming the
    steps run: the library then solves by GTH."""
    d = space.num_states
    adjoint = (kernel.matrix * space.weights[:, None]).T

    def normalize(v):
        return v / float(v @ space.weights)

    m = np.full(d, 1.0 / float(space.weights.sum()))
    converged = False
    delta = np.inf
    stagnant_blocks = 0
    block_max, last_max = 0.0, np.inf
    for it in range(max_iter):
        m_next = normalize(adjoint @ m)
        delta = float(np.max(np.abs(m_next - m) * space.weights))
        m = m_next
        if delta < 1e-13:
            converged = True
            break
        block_max = max(block_max, delta)
        if (it + 1) % 1000 == 0:
            if block_max > 0.99 * last_max:
                stagnant_blocks += 1
            else:
                stagnant_blocks = 0
            block_max, last_max = 0.0, block_max
            if stagnant_blocks >= 3:
                break

    if not converged:
        raise HandOff(f"after {it + 1} steps")
    for _ in range(500):
        if delta <= 2.3e-16:
            break
        m_next = normalize(adjoint @ m)
        new_delta = float(np.max(np.abs(m_next - m) * space.weights))
        if new_delta >= delta:
            break
        m = m_next
        delta = new_delta
    return Density(normalize(m))


def slowmix_kernel(eps):
    space = unit_space(2)
    return as_kernel([[1.0 - eps, eps], [2.0 * eps, 1.0 - 2.0 * eps]], space), space


def random_weighted_kernel(seed):
    """d = 2..6, non-unit weights, about a third of the entries zero, and every
    third kernel mixed with a multiple of the identity (slow mixing)."""
    stream = Xoshiro256StarStar(seed)
    d = 2 + seed % 5
    weights = np.array([0.5 + 1.5 * stream.random() for _ in range(d)])
    raw = np.array([[stream.random() for _ in range(d)] for _ in range(d)])
    raw[raw < 0.3] = 0.0
    raw[np.arange(d), [int(d * stream.random()) for _ in range(d)]] += 0.1
    if seed % 3 == 0:
        raw += (10.0 + 300.0 * stream.random()) * np.eye(d)
    space = StateSpace(d, weights)
    return as_kernel(raw / (raw @ weights)[:, None], space), space


def assert_matches_the_stepwise_loop(kernel, space, hand_off=None, **kwargs):
    """`invariant_density` against `reference_invariant_density`: the same
    bytes where the stepwise loop converges; where it hands the chain to GTH
    (after `hand_off` steps, when given), the exact law to 1e-15."""
    m = invariant_density(kernel, space).values
    try:
        expected = reference_invariant_density(kernel, space, **kwargs).values
    except HandOff as exc:
        assert hand_off is None or str(exc) == f"after {hand_off} steps"
        np.testing.assert_allclose(m, exact_law(kernel, space), rtol=0, atol=1e-15)
    else:
        assert hand_off is None
        assert m.tobytes() == expected.tobytes()


@pytest.mark.usefixtures("cold_invariant_memo")
class TestInvariantDensityMatchesStepwiseLoop:
    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_slowmix_kernel(self, eps):
        assert_matches_the_stepwise_loop(*slowmix_kernel(eps))

    @pytest.mark.parametrize("seed", range(120))
    def test_random_kernels(self, seed):
        assert_matches_the_stepwise_loop(*random_weighted_kernel(seed))

    def test_period_three_is_solved_by_gth(self):
        # the probe fires after 4 blocks
        space = unit_space(4)
        assert_matches_the_stepwise_loop(as_kernel(PERIOD_THREE, space), space, hand_off=4000)

    def test_a_probe_firing_hands_off_to_the_exact_law(self):
        # the probe fires after 4 blocks
        assert_matches_the_stepwise_loop(*slowmix_kernel(1e-6), hand_off=4000)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_exhausted_step_budget_hands_off_to_gth(self, monkeypatch, blocks):
        # the budget rule on a budget small enough for the stepwise loop
        monkeypatch.setattr(model_module, "_POWER_BLOCKS", blocks)
        assert_matches_the_stepwise_loop(*slowmix_kernel(1e-3), hand_off=1000 * blocks,
                                         max_iter=1000 * blocks)

    def test_weighted_flip_chain_average(self):
        space = StateSpace(2, [1.0, 2.0])
        assert_matches_the_stepwise_loop(as_kernel([[0.0, 0.5], [1.0, 0.0]], space), space)


def hits_by(kernel, space, step):
    """Whether the stepwise loop's stopping test holds at or before `step`."""
    adjoint = (kernel.matrix * space.weights[:, None]).T
    m = np.full(space.num_states, 1.0 / float(space.weights.sum()))
    for _ in range(step):
        v = adjoint @ m
        m_next = v / float(v @ space.weights)
        if float(np.max(np.abs(m_next - m))) < 1e-13:
            return True
        m = m_next
    return False


def kernel_hitting_at(step):
    """A kernel ``[[1-e, e], [2e, 1-2e]]`` whose power iteration first meets
    the stopping test at `step` (a symmetric one for step 1): the smallest
    ``e`` in [1e-4, 1/3] that stops by `step`, by bisection."""
    space = unit_space(2)
    if step == 1:
        return as_kernel([[0.7, 0.3], [0.3, 0.7]], space), space
    lo, hi = 1e-4, 1.0 / 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if hits_by(*slowmix_kernel(mid), step) else (mid, hi)
    kernel, space = slowmix_kernel(hi)
    assert hits_by(kernel, space, step) and not hits_by(kernel, space, step - 1)
    return kernel, space


class CountingArray(np.ndarray):
    """An array whose ``dot`` calls are counted: one per power-iteration step."""

    calls = 0

    def dot(self, *args, **kwargs):
        CountingArray.calls += 1
        return super().dot(*args, **kwargs)


class TestPowerIterationStopsAtItsHit:
    """The first block runs 1, 2, 4, ... steps at a time (runs end after
    steps 1, 3, 7, ..., 511 and 1000) and stops after the run of its hit;
    later blocks run whole."""

    @pytest.mark.parametrize("step", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128,
                                      255, 256, 511, 512, 513, 999, 1000, 1001])
    def test_hit_on_every_run_boundary(self, step):
        kernel, space = kernel_hitting_at(step)
        assert (model_module._power_iteration(kernel.matrix, space.weights).values.tobytes()
                == reference_invariant_density(kernel, space).values.tobytes())

    @pytest.mark.parametrize("eps", np.geomspace(1e-3, 0.3, 12).tolist())
    def test_eps_sweep(self, eps):
        kernel, space = slowmix_kernel(eps)
        assert (model_module._power_iteration(kernel.matrix, space.weights).values.tobytes()
                == reference_invariant_density(kernel, space).values.tobytes())

    def test_mixing2_takes_one_short_run_per_doubling(self):
        kernel, space = as_kernel(TWO_STATE, unit_space(2)), unit_space(2)
        CountingArray.calls = 0
        m = model_module._power_iteration(kernel.matrix.view(CountingArray), space.weights)
        # the hit is at step 19, in the run of steps 16..31
        assert CountingArray.calls == 31
        assert m.values.tobytes() == reference_invariant_density(kernel, space).values.tobytes()


def exact_law(kernel, space):
    """The stationary density, from `fractions`, of the chain whose
    probabilities are the float kernel's entries times their state weights,
    each row scaled to sum to exactly 1."""
    d = space.num_states
    weights = [Fraction(w) for w in space.weights]
    rows = [[Fraction(x) * w for x, w in zip(row, weights)] for row in kernel.matrix]
    chain = [[x / sum(row) for x in row] for row in rows]
    # balance at every state but the last, and total mass 1
    balance = [[chain[i][j] - (i == j) for i in range(d)] for j in range(d - 1)]
    law = solve_exact(balance + [[Fraction(1)] * d], [Fraction(0)] * (d - 1) + [Fraction(1)])
    return np.array([float(p / w) for p, w in zip(law, weights)])


@pytest.mark.usefixtures("cold_invariant_memo")
class TestSlowMixingRegimes:
    """The kernel ``[[1-e, e], [2e, 1-2e]]`` mixes at rate ``3e``; the
    convergence near the budget takes close to 10**6 steps (about 1 s)."""

    @pytest.mark.parametrize("eps", [4e-6, 5e-6])
    def test_exhausted_budget_hands_off_to_gth(self, monkeypatch, eps):
        # these run out of the 10**6 steps, as they do of 3 000 here, before GTH
        # (`test_cli.py::test_a_chain_out_of_steps_is_solved` runs the full budget)
        monkeypatch.setattr(model_module, "_POWER_BLOCKS", 3)
        kernel, space = slowmix_kernel(eps)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, exact_law(kernel, space), rtol=0, atol=1e-15)

    def test_convergence_near_the_budget_keeps_its_bits(self):
        # the loop stops at step 956 483 of 10**6
        kernel, space = slowmix_kernel(6e-6)
        m = invariant_density(kernel, space)
        assert [x.hex() for x in m.values] == ["0x1.555555259fee3p-1", "0x1.555555b4c023bp-2"]
        np.testing.assert_allclose(m.values, exact_law(kernel, space), rtol=0, atol=6e-9)

    @pytest.mark.parametrize("eps", [1e-6, 3.3e-6])
    def test_slower_chain_is_read_as_oscillating(self, eps):
        # a block's largest delta shrinks by lambda_2**1000 > 0.99, so the probe
        # fires after 4 000 steps and GTH solves the chain
        kernel, space = slowmix_kernel(eps)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, exact_law(kernel, space), rtol=0, atol=1e-15)


def block_cyclic_kernel(period, seed):
    """A kernel of the given period: blocks of 1 or 2 states in a cycle,
    each state moving only into the next block, with non-unit weights."""
    stream = Xoshiro256StarStar(seed)
    starts = np.cumsum([0] + [1 + int(2 * stream.random()) for _ in range(period)])
    d = int(starts[-1])
    weights = np.array([0.5 + 1.5 * stream.random() for _ in range(d)])
    raw = np.zeros((d, d))
    for block in range(period):
        after = (block + 1) % period
        for i in range(starts[block], starts[block + 1]):
            for j in range(starts[after], starts[after + 1]):
                raw[i, j] = 0.1 + stream.random()
    space = StateSpace(d, weights)
    return as_kernel(raw / (raw @ weights)[:, None], space), space


# [[a, 1-a], [1-b, b]] has lambda_2 = a + b - 1, close to -1; at a = 1e-5 and
# b <= 2e-6 the oscillation outlives the 10**6-step budget without firing the
# probe, and GTH solves those three grid points after it
OUT_OF_STEPS = [(1e-5, b) for b in (2e-7, 6e-7, 2e-6)]
NEAR_FLIP = [(a, b) for a in (1e-7, 1e-6, 1e-5, 1e-4) for b in (2e-7, 6e-7, 2e-6, 6e-6, 2e-5)
             if (a, b) not in OUT_OF_STEPS]


@pytest.mark.usefixtures("cold_invariant_memo")
class TestPeriodicAndNearPeriodicChains:
    """A chain that oscillates is handed to GTH and solved to its exact law;
    the near-flip chains take up to 1 s each."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("period", range(2, 8))
    def test_block_cyclic(self, period, seed):
        kernel, space = block_cyclic_kernel(period, seed)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, exact_law(kernel, space), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a, b", NEAR_FLIP)
    def test_near_flip(self, a, b):
        space = unit_space(2)
        kernel = as_kernel([[a, 1.0 - a], [1.0 - b, b]], space)
        m = invariant_density(kernel, space)
        np.testing.assert_allclose(m.values, exact_law(kernel, space), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a, b", OUT_OF_STEPS)
    def test_near_flip_out_of_steps(self, monkeypatch, a, b):
        # the probe stays silent on these, so a budget of 5 000 steps hands them to
        # GTH as the 10**6 steps do
        monkeypatch.setattr(model_module, "_POWER_BLOCKS", 5)
        self.test_near_flip(a, b)


class TestInvariantDensityMemo:
    def test_equal_kernels_built_apart_share_one_loop(self, loop_calls):
        first, second = build_model(kaijser_config()), build_model(kaijser_config())
        assert first.kernel is not second.kernel
        a = invariant_density(first.kernel, first.space)
        b = invariant_density(second.kernel, second.space)
        assert len(loop_calls) == 1
        assert a.values.tobytes() == b.values.tobytes()

    def test_memory_layout_is_part_of_the_key(self, loop_calls):
        kernel, space = random_weighted_kernel(7)
        fortran = TransitionKernel(np.asfortranarray(kernel.matrix))
        assert fortran.matrix.flags.fnc
        np.testing.assert_array_equal(fortran.matrix, kernel.matrix)
        invariant_density(kernel, space)
        cached = invariant_density(fortran, space)
        assert len(loop_calls) == 2
        assert loop_calls[1].flags.fnc
        uncached = model_module._power_iteration(fortran.matrix, space.weights)
        assert cached.values.tobytes() == uncached.values.tobytes()

    def test_errors_are_raised_again_and_never_stored(self, loop_calls):
        space = unit_space(3)
        kernel = as_kernel(np.eye(3), space)
        texts = []
        for _ in range(2):
            with pytest.raises(NumericalError) as caught:
                invariant_density(kernel, space)
            texts.append(str(caught.value))
        assert texts == ["no unique invariant density found: closed classes of states "
                         "{0}, {1} and {2}"] * 2
        assert len(loop_calls) == 2

    def test_least_recently_used_entry_is_dropped(self, loop_calls):
        size = model_module._INVARIANT_MEMO_SIZE
        kernels = [slowmix_kernel(0.05 + 0.01 * k) for k in range(size + 1)]
        for kernel, space in kernels:
            invariant_density(kernel, space)
        assert len(loop_calls) == size + 1
        invariant_density(*kernels[-1])
        assert len(loop_calls) == size + 1
        invariant_density(*kernels[0])
        assert len(loop_calls) == size + 2
        assert len(model_module._INVARIANT_MEMO) == size

    def test_values_are_read_only(self, cold_invariant_memo):
        kernel, space = slowmix_kernel(1e-2)
        m = invariant_density(kernel, space)
        assert not m.values.flags.writeable
        with pytest.raises(ValueError):
            m.values[0] = 0.5
        assert invariant_density(kernel, space) is m


class TestMixingCoefficients:
    def test_kaijser_all_coefficients(self):
        model = build_model(kaijser_config())
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        assert coeffs.min_density == 0.0
        assert coeffs.mixing_coefficient == 0.0
        assert coeffs.max_density == 0.5
        assert coeffs.geo_prefactor is None
        assert not coeffs.degenerate
        assert not coeffs.applicable

    def test_uniform_kernel_degenerate(self):
        d = 4
        model = build_model({
            "states": d,
            "transition": np.full((d, d), 1.0 / d).tolist(),
            "observation": {"type": "finite", "gamma": [[0.5, 0.5]] * d},
            "nu": [1.0 / d] * d,
            "beta": [1.0 / d] * d,
        })
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        assert coeffs.min_density == pytest.approx(1.0 / d, abs=1e-15)
        assert coeffs.mixing_coefficient == pytest.approx(1.0 / d, abs=1e-15)
        assert coeffs.max_density == pytest.approx(1.0 / d, abs=1e-15)
        assert coeffs.degenerate
        assert coeffs.geo_ratio == 0.0

    def test_two_state_hand_values(self):
        # row minima (0.5, 0.3) averaged under m = (0.375, 0.625) give 0.375;
        # prefactor 0.49 / (0.375 * 0.325) = 784/195, ratio 13/28
        model = two_state_model()
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        assert coeffs.min_density == pytest.approx(0.3, abs=1e-15)
        assert coeffs.max_density == pytest.approx(0.7, abs=1e-15)
        assert coeffs.mixing_coefficient == pytest.approx(0.375, abs=1e-12)
        assert coeffs.tv_decay_rate == pytest.approx(15.0 / 28.0, abs=1e-12)
        assert coeffs.geo_prefactor == pytest.approx(784.0 / 195.0, abs=1e-12)
        assert coeffs.geo_ratio == pytest.approx(13.0 / 28.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_sandwich(self, seed):
        d = 2 + seed % 4
        model = random_positive_model(seed, d)
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)
        assert coeffs.mixing_coefficient <= m.values.min() + 1e-12
        assert m.values.max() <= coeffs.max_density + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_relabeling_invariance(self, seed):
        d = 4
        model = random_positive_model(seed, d)
        m = invariant_density(model.kernel, model.space)
        coeffs = mixing_coefficients(model, m)

        perm = np.array([2, 0, 3, 1])
        permuted = build_model({
            "states": d,
            "transition": model.kernel.matrix[np.ix_(perm, perm)].tolist(),
            "observation": {"type": "finite",
                            "gamma": model.observation.emission[perm].tolist()},
            "nu": model.true_prior.values[perm].tolist(),
            "beta": model.wrong_prior.values[perm].tolist(),
        })
        m_perm = invariant_density(permuted.kernel, permuted.space)
        np.testing.assert_allclose(m_perm.values, m.values[perm], atol=1e-12)
        coeffs_perm = mixing_coefficients(permuted, m_perm)
        assert coeffs_perm.min_density == pytest.approx(coeffs.min_density, abs=1e-14)
        assert coeffs_perm.max_density == pytest.approx(coeffs.max_density, abs=1e-14)
        assert coeffs_perm.mixing_coefficient == pytest.approx(
            coeffs.mixing_coefficient, abs=1e-13
        )


class TestPrimitivity:
    def test_kaijser_needs_three_steps(self):
        space = unit_space(4)
        kernel = as_kernel(KAIJSER_TRANSITION, space)
        assert primitivity_check(kernel) == 3
        # brute-force oracle: positivity of literal matrix powers
        mat = np.array(KAIJSER_TRANSITION)
        assert not np.all(mat > 0)
        assert not np.all(mat @ mat > 0)
        assert np.all(mat @ mat @ mat > 0)

    def test_identity_never_mixes(self):
        space = unit_space(3)
        kernel = as_kernel(np.eye(3), space)
        assert primitivity_check(kernel) is None

    def test_positive_kernel_immediate(self):
        space = unit_space(3)
        kernel = as_kernel(random_kernel_matrix(99, 3), space)
        assert primitivity_check(kernel) == 1

    @pytest.mark.parametrize("d", range(1, 7))
    def test_random_zero_patterns_match_literal_powers(self, d):
        # the literal powers run past Wielandt's (d - 1)**2 + 1, to 2 d**2, so
        # they check that bound rather than repeat it
        stream = Xoshiro256StarStar(d)
        for _ in range(100):
            zeros = 0.2 + 0.7 * stream.random()
            pattern = np.array([[stream.random() >= zeros for _ in range(d)] for _ in range(d)])
            pattern[np.arange(d), [int(d * stream.random()) for _ in range(d)]] = True
            expected, power = None, pattern.copy()
            for r in range(1, 2 * d * d + 1):
                if power.all():
                    expected = r
                    break
                power = (power.astype(int) @ pattern.astype(int)) > 0
            kernel = as_kernel(pattern / pattern.sum(axis=1, keepdims=True), unit_space(d))
            assert primitivity_check(kernel) == expected, pattern.astype(int)

    def test_a_long_cycle_never_mixes(self):
        d = 40
        kernel = as_kernel(np.roll(np.eye(d), 1, axis=1), unit_space(d))
        assert primitivity_check(kernel) is None

    @pytest.mark.parametrize("d", range(2, 13))
    def test_wielandt_kernel_takes_the_whole_bound(self, d):
        # a d-cycle with one chord from d - 1 to 1 is first positive at (d - 1)**2 + 1
        pattern = np.roll(np.eye(d), 1, axis=1)
        pattern[d - 1, 1] = 1.0
        kernel = as_kernel(pattern / pattern.sum(axis=1, keepdims=True), unit_space(d))
        assert primitivity_check(kernel) == (d - 1) ** 2 + 1

    def test_a_large_period_two_chain_is_fast(self):
        # a bipartite walk on 200 states: the closure and a few squarings, not a
        # search through (d - 1)**2 + 1 products, so both take well under a second
        d = 200
        stream = np.random.default_rng(200)
        matrix = np.zeros((d, d))
        matrix[:d // 2, d // 2:] = 0.1 + stream.random((d // 2, d // 2))
        matrix[d // 2:, :d // 2] = 0.1 + stream.random((d // 2, d // 2))
        space = unit_space(d)
        kernel = as_kernel(matrix / matrix.sum(axis=1, keepdims=True), space)
        start = time.perf_counter()
        m = invariant_density(kernel, space)
        assert primitivity_check(kernel) is None
        assert time.perf_counter() - start < 2.0
        np.testing.assert_allclose(m.values @ kernel.matrix, m.values, rtol=0, atol=1e-15)
