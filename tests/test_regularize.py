import hashlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulktree.pipes import GAMMA, AlphaVector, alpha_to_pipes, is_gamma_regular
from bulktree.regularize import cap_capacity, regularize, regularize_delta, regularize_sigma

from conftest import random_alpha

# sha256 prefix of test_regularize_outputs_pinned's entries.
REGULARIZE_DIGEST = "2cd4134d567007ba"


def max_pointwise_drop(before: AlphaVector, after: AlphaVector, D: int) -> F:
    """max over integer x in [1, D] of f(x)/f'(x), exact."""
    worst = F(0)
    for x in range(1, D + 1):
        num, den = before.value(x), after.value(x)
        assert den > 0
        worst = max(worst, num / den)
    return worst


class TestCapCapacity:
    def test_worked_example_exact(self):
        a = AlphaVector(alpha={0: F(1), 1: F(1, 10)}, D=4)
        out, report = cap_capacity(a)
        assert out.alpha == {0: F(22, 25), 2: F(11, 50)}
        assert report.rotations == ["capacity"]
        assert max_pointwise_drop(a, out, 4) <= 1

    def test_already_capped_unchanged(self):
        a = AlphaVector(alpha={0: F(1), 2: F(1)}, D=8)
        pipes = alpha_to_pipes(a).pipes
        assert all(p.rate == 0 or p.fixed / p.rate < 8 for p in pipes)
        out, report = cap_capacity(a)
        assert out == a and not report.rotations

    def test_pure_linear_unchanged(self):
        a = AlphaVector(alpha={3: F(1)}, D=8)
        out, _ = cap_capacity(a)
        assert out == a

    def test_cap_holds_after(self):
        a = AlphaVector(alpha={0: F(1), 1: F(1, 10)}, D=4)
        out, _ = cap_capacity(a)
        pipes = alpha_to_pipes(out).pipes
        last_sloped = pipes[-2]
        assert last_sloped.fixed / last_sloped.rate <= 4


class TestRegularizeDelta:
    def test_regular_input_unchanged(self):
        a = AlphaVector(alpha={0: F(16), 4: F(4)}, D=16)
        out, report = regularize_delta(a)
        assert out == a and report.pipes_removed == 0

    def test_uniform_three_levels(self):
        a = AlphaVector(alpha={0: F(1), 1: F(1), 2: F(1)}, D=4)
        capped, _ = cap_capacity(a)
        out, _ = regularize_delta(capped)
        pipes = alpha_to_pipes(out).pipes
        for p, q in zip(pipes, pipes[1:]):
            assert q.rate < GAMMA * p.rate
        drop = max_pointwise_drop(capped, out, 4)
        assert drop <= 3

    def test_close_rates_collapse_to_single_pipe(self):
        # rate_1 = 0.9 * rate_0: deletion runs to the plateau and pipe 0
        # survives alone, leveling at D.
        a = AlphaVector(alpha={0: F(1, 10), 3: F(9, 10)}, D=8)
        capped, _ = cap_capacity(a)
        out, _ = regularize_delta(capped)
        assert len(out.alpha) == 1
        assert max(out.alpha) == 3  # single sloped pipe reaching D = 8
        assert max_pointwise_drop(capped, out, 8) <= 3

    def test_precondition_enforced(self):
        a = AlphaVector(alpha={0: F(1), 1: F(1, 10)}, D=4)  # uncapped: u_1 = 10 > 4
        with pytest.raises(ValueError, match="cap_capacity first"):
            regularize_delta(a)


class TestRegularizeSigma:
    def test_regular_input_unchanged(self):
        a = AlphaVector(alpha={0: F(16), 4: F(4)}, D=16)
        out, report = regularize_sigma(a)
        assert out == a and report.pipes_removed == 0

    def test_plateau_pair_violation_fixed(self):
        # rate-separated but top-heavy fixed costs: sigma_1 >= gamma * plateau
        a = AlphaVector(alpha={0: F(8, 9), 3: F(1, 9)}, D=8)
        assert is_gamma_regular(a).constraint == "fixed"
        out, _ = regularize_sigma(a)
        assert is_gamma_regular(out)
        assert max_pointwise_drop(a, out, 8) <= F(5, 2)

    def test_mid_pair_violation_fixed(self):
        a = AlphaVector(alpha={0: F(1), 2: F(1, 5), 4: F(1, 25)}, D=16)
        capped, _ = cap_capacity(a)
        rated, _ = regularize_delta(capped)
        out, _ = regularize_sigma(rated)
        assert is_gamma_regular(out)
        assert max_pointwise_drop(rated, out, 16) <= F(5, 2)

    def test_interior_violation_uses_upper_anchor_rotation(self):
        # Interior fixed-cost violations survive the earlier stages only with
        # widely spaced levels; this vector reaches the rotation that pivots
        # pipe k around its upper breakpoint.  Expected output derived by hand
        # from the rotation equations (pivot (512, 600), survivor (0, 29),
        # target breakpoint 2).
        a = AlphaVector(alpha={0: F(24), 4: F(4), 9: F(1)}, D=512)
        capped, _ = cap_capacity(a)
        rated, _ = regularize_delta(capped)
        assert rated == a  # earlier stages are no-ops here
        out, report = regularize_sigma(rated)
        assert report.rotations == ["fixed"]
        assert out.alpha == {1: F(7124, 255), 9: F(271, 255)}
        assert is_gamma_regular(out)
        assert max_pointwise_drop(a, out, 512) <= F(5, 2)

    def test_interior_violation_below_sloped_neighbor(self):
        # Same rotation with a sloped pipe (not the plateau) directly above
        # the adjusted one; rate constraints on both sides must survive.
        a = AlphaVector(alpha={0: F(24), 4: F(21, 5), 8: F(6, 5), 13: F(3, 20)}, D=8192)
        out, report = regularize_sigma(a)
        assert report.rotations == ["fixed"]
        assert out.alpha == {1: F(3564, 127), 8: F(849, 635), 13: F(3, 20)}
        assert is_gamma_regular(out)
        assert max_pointwise_drop(a, out, 8192) <= F(5, 2)

    def test_precondition_enforced(self):
        a = AlphaVector(alpha={0: F(1), 1: F(1)}, D=2)
        with pytest.raises(ValueError, match="regularize_delta first"):
            regularize_sigma(a)


class TestFullPipeline:
    def test_identity_on_regular_input(self):
        a = AlphaVector(alpha={0: F(16), 4: F(4)}, D=16)
        out, report = regularize(a)
        assert out == a
        assert report.total_f_lower_factor == F(15, 2)

    def test_uniform_over_all_levels(self):
        a = AlphaVector(alpha={i: F(1) for i in range(5)}, D=16)
        out, _ = regularize(a)
        assert is_gamma_regular(out)
        assert max_pointwise_drop(a, out, 16) <= F(15, 2)

    def test_factor_budget(self):
        a = AlphaVector(alpha={0: F(1)}, D=2)
        _, report = regularize(a)
        assert report.total_f_lower_factor == 1 * 3 * F(5, 2) <= F(15, 2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_vectors_regularize_clean(seed):
    # wide level range so interior fixed-cost violations occur too
    a = random_alpha(np.random.default_rng(seed), max_levels=11)
    out, report = regularize(a)
    assert is_gamma_regular(out)
    # per-stage pointwise distortion within the certified factors
    capped, _ = cap_capacity(a)
    rated, _ = regularize_delta(capped)
    final, _ = regularize_sigma(rated)
    assert final == out
    assert max_pointwise_drop(a, capped, a.D) <= 1
    assert max_pointwise_drop(capped, rated, a.D) <= 3
    assert max_pointwise_drop(rated, final, a.D) <= F(5, 2)
    assert max_pointwise_drop(a, out, a.D) <= report.total_f_lower_factor


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sigma_zero_preserved_and_cap_kept(seed):
    a = random_alpha(np.random.default_rng(seed))
    out, _ = regularize(a)
    pipes = alpha_to_pipes(out).pipes
    assert pipes[0].fixed == 0
    last_sloped = pipes[-2]
    assert last_sloped.fixed / last_sloped.rate <= a.D


def test_multi_level_cost_growth_finite_and_recorded():
    # Against exact per-level optima: the capacity stage doubles the mixed
    # benchmark at most; the later stages' growth has no code-checked constant,
    # so record the observed worst case and keep it finite.
    from bulktree.exact import exact_optima
    from bulktree.instance import demand_profile
    from conftest import small_instance_corpus

    rng = np.random.default_rng(99)
    worst = F(0)
    for inst in small_instance_corpus(count=10, max_nodes=6, seed=99):
        opt = exact_optima(inst)
        profile = demand_profile(inst)
        for _ in range(5):
            count = int(rng.integers(1, profile.levels + 1))
            levels = sorted(rng.choice(profile.levels, size=count, replace=False).tolist())
            a = AlphaVector(
                alpha={int(l): F(int(rng.integers(1, 16)), int(rng.integers(1, 8))) for l in levels},
                D=profile.D,
            )
            capped, _ = cap_capacity(a)
            assert opt.multi_level_cost(capped) <= 2 * opt.multi_level_cost(a)
            out, _ = regularize(a)
            before = opt.multi_level_cost(a)
            if before > 0:
                worst = max(worst, opt.multi_level_cost(out) / before)
    assert worst < F(10**6)  # finite in practice; observed well below 10
    print(f"\nregularization mixed-benchmark growth, observed worst case: {float(worst):.3f}")


def test_regularize_outputs_pinned():
    # Exact outputs and stage reports of 200 random vectors, recorded before
    # the stages returned their input unchanged when they find nothing to do.
    rng = np.random.default_rng(2025)
    entries, idle = [], 0
    for _ in range(200):
        out, report = regularize(random_alpha(rng, max_levels=11))
        stages = [(st.stage, st.pipes_removed, tuple(st.rotations)) for st in report.stages]
        idle += sum(removed == 0 and not rotations for _, removed, rotations in stages[1:])
        entries.append((sorted((lvl, str(w)) for lvl, w in out.alpha.items()), out.D, stages))
    # Both kinds of stage run: some find a violating pair, some find none.
    assert 0 < idle < 400
    assert hashlib.sha256(repr(entries).encode()).hexdigest()[:16] == REGULARIZE_DIGEST
