"""Cavity process: arrival thinning, cycle estimation, fixed point."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsqlab import (
    ConfigError,
    CycleRunawayError,
    CycleStats,
    FixedPointControls,
    TailVector,
    effective_arrival_rate,
    fixed_point,
    make_spec,
    measure_return_time,
    simulate_cycles,
    simulate_cycles_sharded,
    tail_from_cycles,
    vdk_tail,
)

EMPTY_ABOVE_0 = TailVector((1.0,) + (0.0,) * 8)
EXP = make_spec("exponential")


def mc_arrival_oracle(env: TailVector, k: int, alpha: float, D: int, n: int, seed: int):
    """Monte Carlo of the comparison-state protocol: D-1 draws from the
    environment, admit when all are >= k, tie split reciprocally."""
    rng = np.random.default_rng(seed)
    p = np.array([env.value(j) for j in range(1, env.k_max + 2)])  # p[1..k_max+1]
    u = rng.random((n, D - 1))
    levels = (u[:, :, None] < p[None, None, :]).sum(axis=2)  # comparison lengths
    all_ge = (levels >= k).all(axis=1)
    ties = (levels == k).sum(axis=1)
    join = np.where(all_ge, 1.0 / (1.0 + ties), 0.0)
    p_hat = join.mean()
    se = join.std(ddof=1) / math.sqrt(n)
    return D * alpha * p_hat, D * alpha * se


class TestEffectiveArrivalRate:
    def test_telescoped_value(self):
        env = TailVector((1.0, 0.4, 0.1))
        # 0.5 * (0.4**2 - 0.1**2) / (0.4 - 0.1)
        assert effective_arrival_rate(env, 1, 0.5, 2) == pytest.approx(0.25, rel=1e-12)

    def test_flat_levels_use_derivative_form(self):
        env = TailVector((1.0, 0.3, 0.3, 0.3))
        assert effective_arrival_rate(env, 1, 0.5, 3) == pytest.approx(0.5 * 3 * 0.09, rel=1e-12)

    def test_single_choice_ignores_environment(self):
        env = TailVector((1.0, 0.9, 0.2))
        assert effective_arrival_rate(env, 1, 0.7, 1) == 0.7

    def test_beyond_k_max_uses_extrapolation(self):
        env = TailVector((1.0, 0.5))
        assert effective_arrival_rate(env, 5, 0.5, 2) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            effective_arrival_rate([1.0, 0.5], 0, 0.5, 2)
        with pytest.raises(ConfigError):
            effective_arrival_rate(EMPTY_ABOVE_0, -1, 0.5, 2)
        with pytest.raises(ConfigError):
            effective_arrival_rate(EMPTY_ABOVE_0, 0, 1.5, 2)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_always_inside_bracket(self, data):
        D = data.draw(st.integers(min_value=1, max_value=5))
        alpha = data.draw(st.floats(min_value=0.01, max_value=0.99))
        k_max = data.draw(st.integers(min_value=1, max_value=12))
        vals = sorted(
            data.draw(
                st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k_max, max_size=k_max)
            ),
            reverse=True,
        )
        env = TailVector((1.0, *vals))
        k = data.draw(st.integers(min_value=0, max_value=k_max))
        rate = effective_arrival_rate(env, k, alpha, D)
        pk = env.value(k)
        assert alpha * pk ** (D - 1) - 1e-12 <= rate <= alpha * D * pk ** (D - 1) + 1e-12

    def test_agrees_with_comparison_state_oracle(self):
        rng = random.Random(99)
        for trial in range(6):
            D = rng.randint(2, 5)
            alpha = rng.uniform(0.1, 0.9)
            k_max = rng.randint(2, 10)
            vals = sorted((rng.random() for _ in range(k_max)), reverse=True)
            env = TailVector((1.0, *vals))
            k = rng.randint(0, k_max)
            exact = effective_arrival_rate(env, k, alpha, D)
            n = 100_000
            est, se = mc_arrival_oracle(env, k, alpha, D, n, seed=trial)
            # rule-of-three slack covers rare-admission instances where the
            # oracle may observe no successes at all
            assert abs(exact - est) <= 4 * se + D * alpha * 3.0 / n


class TestSimulateCycles:
    def test_renewal_reward_micro_oracle(self):
        # env empty above level 0: join prob 1/D at empty, no arrivals above;
        # m0 = 1/alpha + 1 = 3 and P1 = 1/3
        stats = simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, 40_000, random.Random(42))
        est = tail_from_cycles(stats)
        m0 = stats.total_time / stats.n_cycles
        assert abs(m0 - 3.0) < 0.05
        assert abs(est.p[1] - 1.0 / 3.0) <= 3 * est.ci[1]

    def test_deterministic_service_exact_occupation(self):
        # single-job cycles: V_1 = 1 exactly in every cycle
        stats = simulate_cycles(EMPTY_ABOVE_0, make_spec("deterministic"), 0.5, 2, 500, random.Random(3))
        assert stats.v[1] == pytest.approx(float(stats.n_cycles), abs=1e-9)
        assert stats.max_level == 1

    def test_single_choice_arrives_above_k_max(self):
        # D = 1 ignores the environment, so the kernel is M/M/1 at any k_max
        # and p[1] = alpha; no arrivals above k_max = 1 would make it M/M/1/2
        # with p[1] = 3/7
        stats = simulate_cycles(TailVector((1.0, 0.5)), EXP, 0.5, 1, 40_000, random.Random(21))
        est = tail_from_cycles(stats)
        assert abs(est.p[1] - 0.5) <= 3 * est.ci[1]
        assert stats.max_level > 2

    def test_zero_cycles_rejected(self):
        with pytest.raises(ConfigError):
            simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, 0, random.Random(1))

    def test_determinism(self):
        a = simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, 2000, random.Random(7))
        b = simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, 2000, random.Random(7))
        assert a.total_time == b.total_time
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.v2, b.v2)

    def test_occupation_monotone(self):
        env = TailVector.geometric(0.5, 10)
        stats = simulate_cycles(env, EXP, 0.5, 2, 5000, random.Random(11))
        for k in range(1, stats.k_max):
            assert stats.v[k + 1] <= stats.v[k] <= stats.total_time

    def test_sharded_merge_matches_shard_sum(self):
        env = TailVector.geometric(0.5, 8)
        merged = simulate_cycles_sharded(env, EXP, 0.5, 2, 5000, 13, shards=4)
        assert merged.n_cycles == 5000
        again = simulate_cycles_sharded(env, EXP, 0.5, 2, 5000, 13, shards=4)
        assert merged.total_time == again.total_time
        assert np.array_equal(merged.v, again.v)

    def test_runaway_guard_counts_and_fails(self):
        stats = simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, 50, random.Random(5), time_cap=1e-4)
        assert stats.n_aborted > 0
        with pytest.raises(CycleRunawayError):
            tail_from_cycles(stats)


class TestTailFromCycles:
    def test_never_visited_level_rule_of_three(self):
        stats = simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, 1000, random.Random(2))
        est = tail_from_cycles(stats)
        deep = est.k_max
        assert est.p[deep] == 0.0
        assert 0.0 < est.ci[deep] <= 3.0 / stats.n_cycles * (stats.nu_max * stats.n_cycles / stats.total_time)

    def test_output_is_valid_tail_vector(self):
        env = TailVector.geometric(0.5, 12)
        est = tail_from_cycles(simulate_cycles(env, EXP, 0.6, 2, 5000, random.Random(4)))
        vec = TailVector(tuple(est.p))
        assert vec.p[0] == 1.0
        for k in range(vec.k_max):
            assert vec.p[k] >= vec.p[k + 1]

    def test_degenerate_variance_zero_width(self):
        # identical cycles: the delta-method residual vanishes exactly
        stats = CycleStats(k_max=1)
        for _ in range(3):
            stats.n_cycles += 1
            stats.total_time += 2.0
            stats.t2 += 4.0
            stats.nu_max = 2.0
            stats.v[1] += 1.0
            stats.v2[1] += 1.0
            stats.vt[1] += 2.0
        est = tail_from_cycles(stats)
        assert est.p[1] == 0.5
        assert est.ci[1] == 0.0

    def test_needs_two_cycles(self):
        with pytest.raises(ConfigError):
            tail_from_cycles(CycleStats(k_max=1))

    def test_ci_shrinks_like_root_two(self):
        # doubling the cycle count shrinks half-widths by ~1/sqrt(2)
        env = TailVector.geometric(0.5, 8)
        n = 40_000
        ci_small = tail_from_cycles(
            simulate_cycles_sharded(env, EXP, 0.5, 2, n, 21, shards=8)
        ).ci[1]
        ci_big = tail_from_cycles(
            simulate_cycles_sharded(env, EXP, 0.5, 2, 2 * n, 22, shards=8)
        ).ci[1]
        assert abs(ci_big / ci_small - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)


class TestFixedPoint:
    def test_reproduces_exponential_limit(self):
        rep = fixed_point(EXP, 0.5, 2, FixedPointControls(k_max=24, cycles_per_iter=40_000, seed=11))
        assert rep.converged
        for k in (1, 2, 3):
            assert abs(rep.env.p[k] - vdk_tail(0.5, 2, k)) <= 3 * rep.estimate.ci[k]

    def test_zero_iterations_returns_initial_env(self):
        rep = fixed_point(EXP, 0.5, 2, FixedPointControls(k_max=8, max_iter=0, seed=1))
        assert not rep.converged
        assert rep.estimate is None
        assert rep.env.p == tuple(0.5**k for k in range(9))

    def test_map_leaves_exponential_limit_fixed(self):
        # one application of the cycle map at the exact exponential-service
        # limit values moves no well-estimated level by more than 3 CIs
        env = TailVector(tuple(vdk_tail(0.5, 2, k) for k in range(25)))
        stats = simulate_cycles_sharded(env, EXP, 0.5, 2, 100_000, 777, shards=16)
        est = tail_from_cycles(stats)
        for k in range(1, 25):
            if est.p[k] > 0 and est.ci[k] > 0:
                assert abs(est.p[k] - env.p[k]) <= 3 * est.ci[k] + 1e-9

    def test_map_leaves_converged_env_statistically_fixed(self):
        controls = FixedPointControls(k_max=24, cycles_per_iter=40_000, seed=11)
        rep = fixed_point(EXP, 0.5, 2, controls)
        stats = simulate_cycles_sharded(rep.env, EXP, 0.5, 2, 40_000, 1234, shards=16)
        est = tail_from_cycles(stats)
        for k in range(1, 25):
            if est.p[k] > 0 and est.ci[k] > 0:
                assert abs(est.p[k] - rep.env.p[k]) <= 3 * est.ci[k] + 1e-6

    def test_determinism(self):
        controls = FixedPointControls(k_max=12, cycles_per_iter=5000, seed=9, max_iter=3, tol=1e-9)
        a = fixed_point(EXP, 0.5, 2, controls)
        b = fixed_point(EXP, 0.5, 2, controls)
        assert a.env.p == b.env.p
        assert a.distances == b.distances

    def test_light_traffic_expansion(self):
        # one-job cycles dominate: p1 ~ alpha/(1+alpha), p2 an order smaller than p1**2-scale
        alpha = 0.01
        rep = fixed_point(EXP, alpha, 2, FixedPointControls(k_max=8, cycles_per_iter=150_000, seed=3))
        p1 = rep.env.p[1]
        assert abs(p1 - alpha / (1 + alpha)) <= 3 * rep.estimate.ci[1] + 2e-4
        assert rep.env.p[2] < p1 * p1

    def test_d_one_rejected(self):
        with pytest.raises(ConfigError):
            fixed_point(EXP, 0.5, 1)

    @pytest.mark.parametrize("noise_rel", [-0.1, math.nan, math.inf])
    def test_noise_rel_rejected(self, noise_rel):
        # negative or non-finite: no level is ever monitored, so no run converges
        with pytest.raises(ConfigError):
            FixedPointControls(noise_rel=noise_rel)

    @pytest.mark.parametrize("time_cap", [0.0, -1.0, math.nan])
    def test_time_cap_rejected(self, time_cap):
        # a non-positive cap aborts every cycle
        with pytest.raises(ConfigError):
            FixedPointControls(time_cap=time_cap)

    @pytest.mark.parametrize("shards", [0, -2])
    def test_shards_rejected(self, shards):
        with pytest.raises(ConfigError):
            FixedPointControls(shards=shards)

    def test_damped_update_is_geometric_mean(self):
        controls = FixedPointControls(k_max=6, cycles_per_iter=4000, seed=5, max_iter=1, damping=0.5)
        rep = fixed_point(EXP, 0.5, 2, controls)
        est = rep.estimate
        start = TailVector.geometric(0.5, 6)
        for k in range(1, 7):
            if est.p[k] > 0:
                expect = math.exp(0.5 * math.log(start.p[k]) + 0.5 * math.log(est.p[k]))
                assert rep.env.p[k] == pytest.approx(min(expect, rep.env.p[k - 1]), rel=1e-9)


class TestReturnTime:
    def test_drain_oracle(self):
        # no arrivals above empty: residual plus k-1 fresh mean-1 services
        mean, half = measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 3, 0.5, 20_000, random.Random(7))
        assert abs(mean - 2.5) <= 3 * half

    def test_small_residual_drains_immediately(self):
        mean, _ = measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 1, 1e-9, 100, random.Random(1))
        assert mean == pytest.approx(1e-9, abs=1e-12)

    def test_start_above_initial_level_buffer_drains(self):
        # no arrivals above empty: residual 0.5 plus k-1 fresh mean-1 services
        k = 300
        mean, half = measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, k, 0.5, 400, random.Random(8))
        assert abs(mean - (k - 0.5)) <= 3 * half

    def test_time_cap_raises(self):
        with pytest.raises(CycleRunawayError):
            measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 3, 0.5, 10, random.Random(1), time_cap=1e-4)

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 0, 0.5, 10, random.Random(1))
        with pytest.raises(ConfigError):
            measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 1, -0.5, 10, random.Random(1))
        with pytest.raises(ConfigError):
            measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 1, 0.5, 1, random.Random(1))

    def test_linear_growth_under_equilibrium_env(self):
        # mean drain time grows at most ~linearly in the start level
        env = TailVector(tuple(vdk_tail(0.5, 2, k) for k in range(17)))
        ks = [2, 6, 10, 14]
        means = []
        for k in ks:
            m, _ = measure_return_time(env, EXP, 0.5, 2, k, 0.0, 4000, random.Random(50 + k))
            means.append(m)
        slope = np.polyfit(ks, means, 1)[0]
        assert slope <= 2.0 + 0.2
