from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulktree.pipes import (
    GAMMA,
    AlphaVector,
    Pipe,
    PipeSchedule,
    alpha_to_pipes,
    is_gamma_regular,
    is_power_of_two,
    make_schedule,
    pipes_to_alpha,
    significance_point,
    thresholds,
)
from bulktree.regularize import cap_capacity, regularize, regularize_delta, regularize_sigma

from conftest import random_alpha


def as_pairs(p: PipeSchedule):
    return [(pipe.fixed, pipe.rate) for pipe in p.pipes]


def reference_alpha_to_pipes(a: AlphaVector) -> PipeSchedule:
    """alpha_to_pipes as first written: every rate and fixed cost re-summed."""
    levels = a.levels()
    weights = [a.alpha[i] for i in levels]
    pipes = []
    for k in range(len(levels)):
        rate = sum(weights[k:], F(0))
        fixed = sum((weights[j] * (1 << levels[j]) for j in range(k)), F(0))
        pipes.append(Pipe(fixed, rate))
    plateau = sum((w * (1 << i) for i, w in zip(levels, weights)), F(0))
    pipes.append(Pipe(plateau, F(0)))
    return PipeSchedule(tuple(pipes))


# Small rationals, and the ratios of floats that separation_oracle builds
# from a scaled dual point and a level bound.
WEIGHTS = st.one_of(
    st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
    st.builds(
        lambda y, t: F(y) / F(t),
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1e6),
    ),
)


@st.composite
def alpha_vectors(draw, max_levels: int = 14):
    log_d = draw(st.integers(0, max_levels - 1))
    levels = draw(st.sets(st.integers(0, log_d), min_size=1))
    return AlphaVector(alpha={lvl: draw(WEIGHTS) for lvl in sorted(levels)}, D=1 << log_d)


def is_exact(p: PipeSchedule) -> bool:
    return all(isinstance(x, F) for pipe in p.pipes for x in (pipe.fixed, pipe.rate))


class TestAlphaToPipes:
    def test_two_level_example(self):
        a = AlphaVector(alpha={0: F(1), 2: F(1)}, D=8)
        assert as_pairs(alpha_to_pipes(a)) == [(0, 2), (1, 1), (5, 0)]

    def test_single_atomic(self):
        a = AlphaVector(alpha={0: F(1)}, D=1)
        assert as_pairs(alpha_to_pipes(a)) == [(0, 1), (1, 0)]

    def test_pure_linear_top_level(self):
        c, D = F(3), 8
        a = AlphaVector(alpha={3: c}, D=D)
        assert as_pairs(alpha_to_pipes(a)) == [(0, c), (c * D, 0)]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            AlphaVector(alpha={0: F(0)}, D=2)


class TestPipesToAlpha:
    def test_inverse_of_example(self):
        p = make_schedule([(0, 2), (1, 1), (5, 0)])
        a = pipes_to_alpha(p, D=8)
        assert a.alpha == {0: F(1), 2: F(1)}

    def test_single_pipe_pair(self):
        a = pipes_to_alpha(make_schedule([(0, 1), (1, 0)]))
        assert a.alpha == {0: F(1)} and a.D == 1

    def test_non_power_breakpoint_rejected(self):
        p = make_schedule([(0, 2), (3, 1), (9, 0)])  # g_0 = 3
        with pytest.raises(ValueError, match="breakpoint not a power of 2"):
            pipes_to_alpha(p)

    def test_nonzero_start_rejected(self):
        p = make_schedule([(1, 2), (2, 1), (6, 0)])
        with pytest.raises(ValueError, match="fixed cost 0"):
            pipes_to_alpha(p)

    def test_missing_flat_pipe_rejected(self):
        p = make_schedule([(0, 2), (1, 1)])
        with pytest.raises(ValueError, match="flat pipe"):
            pipes_to_alpha(p)


class TestThresholds:
    def test_worked_example(self):
        th = thresholds(make_schedule([(0, 4), (1, 1), (9, 0)]))
        assert th.capacities[0] == 0 and th.capacities[1] == 1
        assert th.capacities[2] is None
        assert th.indifference[0] == F(1, 3)
        assert th.significance[0] == 1

    def test_lemma_bound_on_worked_example(self):
        th = thresholds(make_schedule([(0, 4), (1, 1), (9, 0)]))
        bound = (1 - 2 * GAMMA**2) / GAMMA  # = 3.5
        assert th.indifference[0] <= th.significance[0] <= bound * th.indifference[0]

    def test_two_pipe_closed_form(self):
        th = thresholds(make_schedule([(0, 1), (1, 0)]))
        assert th.indifference[0] == 1
        assert th.significance[0] == 2  # 1 / (2*gamma)

    def test_undefined_significance_raises(self):
        schedule = make_schedule([(0, 1), (1, F(9, 10)), (10, 0)])
        assert significance_point(*schedule.pipes[:2]) is None
        with pytest.raises(ValueError, match="significance point undefined at pipe 0"):
            thresholds(schedule)

    def test_gamma_range_validated(self):
        # The oracle's guarantee needs gamma in (0, 1/2); GAMMA is that constant.
        assert 0 < GAMMA < F(1, 2)


class TestRegularity:
    def test_single_level_always_regular(self):
        assert is_gamma_regular(AlphaVector(alpha={0: F(1)}, D=4))

    def test_adjacent_equal_weights_irregular(self):
        chk = is_gamma_regular(AlphaVector(alpha={0: F(1), 1: F(1)}, D=2))
        assert not chk
        assert chk.constraint == "rate" and chk.index == 0

    def test_rate_fine_fixed_caught(self):
        # rates separated (0.01 < 1.01/4) but sigma_1 = 1 >= gamma * sigma_2
        chk = is_gamma_regular(AlphaVector(alpha={0: F(1), 3: F(1, 100)}, D=8))
        assert not chk
        assert chk.constraint == "fixed"

    def test_regular_two_level(self):
        a = AlphaVector(alpha={0: F(16), 4: F(4)}, D=16)
        assert is_gamma_regular(a)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_identity(seed):
    a = random_alpha(np.random.default_rng(seed))
    back = pipes_to_alpha(alpha_to_pipes(a), D=a.D)
    assert back == a


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_function_equality_exact(seed):
    a = random_alpha(np.random.default_rng(seed))
    p = alpha_to_pipes(a)
    for x in range(a.D + 1):
        assert a.value(x) == p.value(x)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_envelope_concave_nondecreasing(seed):
    a = random_alpha(np.random.default_rng(seed))
    p = alpha_to_pipes(a)
    vals = [p.value(x) for x in range(a.D + 1)]
    assert p.value(0) == 0
    assert all(b >= a_ for a_, b in zip(vals, vals[1:]))
    diffs = [b - a_ for a_, b in zip(vals, vals[1:])]
    assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_regular_vector_weight_decay(seed):
    # On regular vectors: alpha_{p(k)} > (1-gamma) delta_k and
    # alpha_{p(k)} > ((1-gamma)/gamma) alpha_{p(k+1)}.
    a = random_alpha(np.random.default_rng(seed))
    reg, _ = regularize(a)
    pipes = alpha_to_pipes(reg).pipes
    levels = reg.levels()
    for k, lvl in enumerate(levels):
        weight = reg.alpha[lvl]
        assert weight > (1 - GAMMA) * pipes[k].rate
        if k + 1 < len(levels):
            assert weight > ((1 - GAMMA) / GAMMA) * reg.alpha[levels[k + 1]]


@settings(max_examples=150, deadline=None)
@given(a=alpha_vectors())
def test_linear_schedule_matches_reference(a):
    p = alpha_to_pipes(a)
    assert p == reference_alpha_to_pipes(a)
    assert is_exact(p)


@settings(max_examples=60, deadline=None)
@given(a=alpha_vectors())
def test_schedule_kept_by_pipes_to_alpha_is_fresh_derivation(a):
    p = alpha_to_pipes(a)
    back = pipes_to_alpha(p, D=a.D)
    assert back.schedule() is p
    capped, _ = cap_capacity(a)
    rated, _ = regularize_delta(capped)
    out, _ = regularize_sigma(rated)
    for vec in (back, capped, rated, out):
        kept = vec.schedule()
        assert kept == alpha_to_pipes(AlphaVector(alpha=dict(vec.alpha), D=vec.D))
        assert is_exact(kept)
    assert out == regularize(a)[0]


def test_schedule_derived_once():
    a = AlphaVector(alpha={0: F(1), 2: F(1)}, D=8)
    assert a.schedule() is a.schedule()
    assert a.schedule() == alpha_to_pipes(a)


def test_power_of_two_predicate():
    assert is_power_of_two(F(1)) and is_power_of_two(F(64))
    assert not is_power_of_two(F(3)) and not is_power_of_two(F(1, 2)) and not is_power_of_two(F(0))
