"""Cavity process: arrival thinning, cycle estimation, fixed point."""

import dataclasses
import hashlib
import json
import math
import pickle
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsqlab import (
    KINDS,
    ConfigError,
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

from jsqlab.cavity import LANES, ShardStats, _excursions, _mean_gaps
from jsqlab.service_dist import BlockDraws, make_sampler
from jsqlab.tails import Z95
from oracles import FixedU, birth_death_tail, mc_arrival_oracle, reference_cycles

EMPTY_ABOVE_0 = TailVector((1.0,) + (0.0,) * 8)
EXP = make_spec("exponential")


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
        # with p[1] = 3/7. Every level above k_max reads as k_max + 1
        stats = simulate_cycles(TailVector((1.0, 0.5)), EXP, 0.5, 1, 40_000, random.Random(21))
        est = tail_from_cycles(stats)
        assert abs(est.p[1] - 0.5) <= 3 * est.ci[1]
        assert stats.max_level == 2

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

    @pytest.mark.parametrize("shards", [0, -3])
    def test_sharded_rejects_fewer_than_one_shard(self, shards):
        with pytest.raises(ConfigError, match="shards"):
            simulate_cycles_sharded(TailVector.geometric(0.5, 8), EXP, 0.5, 2, 100, 13, shards=shards)

    def test_merge_needs_equal_k_max(self):
        with pytest.raises(ConfigError, match="k_max"):
            CycleStats(k_max=1).merge(CycleStats(k_max=2))

    @pytest.mark.parametrize("key", [1.5, -1, True])
    def test_seed_key_is_an_integer(self, key):
        # a float key used to run silently as its integer part
        with pytest.raises(ConfigError, match="^seed key must be an integer >= 0"):
            simulate_cycles_sharded(TailVector.geometric(0.5, 8), EXP, 0.5, 2, 100, 13, seed_key=(key,))


class TestLaneKernel:
    @pytest.mark.parametrize("n, seed", [(200_000, 31), (LANES // 3, 32)])
    def test_single_choice_is_mm1(self, n, seed):
        # D = 1 ignores the environment: M/M/1 at load alpha, p[k] = alpha**k exactly
        stats = simulate_cycles(TailVector.geometric(0.5, 6), EXP, 0.5, 1, n, random.Random(seed))
        est = tail_from_cycles(stats)
        for k in range(1, 5):
            assert abs(est.p[k] - 0.5**k) <= 3 * est.ci[k]

    def test_cycles_in_flight_are_kept(self):
        # 64 calls of 2 * LANES cycles: a kernel that stopped at the first n
        # completions would drop about LANES long cycles per call
        env = TailVector.geometric(0.5, 6)
        stats = simulate_cycles_sharded(env, EXP, 0.5, 1, 128 * LANES, 34, shards=64)
        est = tail_from_cycles(stats)
        for k in range(1, 5):
            assert abs(est.p[k] - 0.5**k) <= 3 * est.ci[k]

    @pytest.mark.parametrize("n", [1, 7, LANES, LANES + 1, 5000])
    def test_every_started_cycle_is_counted(self, n):
        spec = make_spec("lomax", 1.4)
        env = TailVector.geometric(0.7, 16)
        stats = simulate_cycles(env, spec, 0.7, 2, n, random.Random(n))
        assert stats.n_cycles == n
        assert stats.n_units == min(n, LANES)  # each lane one unit of the estimator

    @pytest.mark.parametrize("kind", KINDS)
    def test_lane_draws_match_scalar_draws(self, kind):
        # the same uniforms through a draw block and through random.Random, one at a time
        spec = make_spec(kind, 1.4 if kind in ("lomax", "pareto") else None)
        u = np.random.default_rng(5).random(10_000)
        u[:3] = (0.0, 1e-12, 1.0 - 2.0**-53)

        class Uniforms:
            """A generator that the adapter fills from: it hands out u."""

            def random(self, out):
                assert len(out) == len(u)
                out[:] = u

        draw = make_sampler(spec)
        block = draw(BlockDraws([Uniforms()], [len(u)]))
        scalar = np.array([draw(FixedU([x])) for x in u])
        # lomax subtracts sigma from sigma * (1 - u)**(-1/beta): an ulp of the
        # power, numpy's or libm's, is an ulp of the draw plus sigma
        scale = np.abs(scalar) + (spec.sigma if kind == "lomax" else 0.0)
        assert np.all(np.abs(block - scalar) <= 4e-16 * scale)

    def test_climbs_past_row_width_and_k_max(self):
        # D = 1 admits arrivals at every level, so cycles climb past the
        # initial occupancy rows (18) and into the shared row above k_max = 20;
        # the time up there still counts at every level below, p[k] = 0.9**k,
        # and max_level reads the shared row's level, k_max + 1
        stats = simulate_cycles(TailVector.geometric(0.9, 20), EXP, 0.9, 1, 20_000, random.Random(33))
        assert stats.max_level == 21
        assert stats.total_time >= stats.v[1]
        assert all(a >= b for a, b in zip(stats.v[1:], stats.v[2:]))
        est = tail_from_cycles(stats)
        for k in (1, 10, 18, 20):
            assert abs(est.p[k] - 0.9**k) <= 3 * est.ci[k]

    def test_drain_climbs_past_256_levels(self):
        # D = 1, exponential: a drain from level k with a fresh service is k
        # M/M/1 busy periods, mean k/(1 - alpha); from 250 at alpha = 0.9
        # most drains pass level 256
        env = TailVector.geometric(0.9, 20)
        mean, half = measure_return_time(env, EXP, 0.9, 1, 250, 0.0, 400, random.Random(35))
        assert abs(mean - 250 / (1 - 0.9)) <= 3 * half

    def test_birth_death_oracle_at_the_vdk_fixed_point(self):
        env = TailVector(tuple(vdk_tail(0.7, 2, k) for k in range(9)))
        exact = birth_death_tail(env, 0.7, 2)
        assert all(math.isclose(p, q, rel_tol=1e-12) for p, q in zip(exact, env.p))

    def test_two_choices_match_birth_death_tail(self):
        # exponential service at D = 2 in an environment that is not a fixed
        # point, against the exact birth-death tail; seed pinned before any run
        env = TailVector((1.0, *(0.8 * 0.6**k for k in range(1, 13))))
        est = tail_from_cycles(simulate_cycles_sharded(env, EXP, 0.7, 2, 200_000, 27))
        exact = birth_death_tail(env, 0.7, 2)
        for k in range(1, 5):
            assert abs(est.p[k] - exact[k]) <= 3 * est.ci[k], k

    @pytest.mark.slow
    def test_cycle_law_matches_scalar_reference(self):
        # lomax 1.4 (power-law regime), D = 2, alpha = 0.7, env 0.85**k; seeds
        # pinned before any result was seen. The cycle length has infinite
        # variance, so its sample variances only make the 4 sigma band loose.
        env = TailVector.geometric(0.85, 128)
        spec = make_spec("lomax", 1.4)
        n = 1_000_000
        lengths, above = reference_cycles(env, spec, 0.7, 2, n, random.Random(14), levels=(10, 20))
        stats = simulate_cycles(env, spec, 0.7, 2, n, random.Random(15))
        assert stats.n_cycles == n
        est = tail_from_cycles(stats)
        total = math.fsum(lengths)
        for k, ref in zip((10, 20), above):
            # the kernel's ratio estimate against the reference's, each with
            # its delta-method SE: the kernel's over lanes, the reference's over cycles
            r = math.fsum(ref) / total
            ss = math.fsum((x - r * nu) ** 2 for x, nu in zip(ref, lengths))
            ref_se = math.sqrt(ss / (n - 1) / n) / (total / n)
            assert abs(est.p[k] - r) <= 4 * math.hypot(est.ci[k] / Z95, ref_se), k
        # the mean cycle length against the reference's; both sample one law,
        # so the reference's variance serves for both
        mean = stats.total_time / n
        ref_mean = statistics.fmean(lengths)
        assert abs(mean - ref_mean) <= 4 * math.sqrt(2 * statistics.pvariance(lengths) / n)


def stats_bytes(stats: CycleStats) -> dict:
    """Every CycleStats field, bit for bit: arrays as bytes, scalars as repr (so -0.0 is not 0.0)."""
    fields = {}
    for f in dataclasses.fields(CycleStats):
        x = getattr(stats, f.name)
        fields[f.name] = x.tobytes() if isinstance(x, np.ndarray) else repr(x)
    return fields


def grouped(items: list, groups: int) -> list:
    """items cut into `groups` consecutive runs of near-equal length."""
    cuts = [len(items) * j // groups for j in range(groups + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


LOMAX = make_spec("lomax", 1.4)
GROUPINGS = [(shards, groups) for shards in (1, 3, 16) for groups in (1, 2, 3, 4, 16) if groups <= shards]


class TestShardGroups:
    """A shard's CycleStats are the same, bit for bit, whatever group it runs in."""

    @staticmethod
    def counts(shards):
        # 5 cycles is the fewest-cycles case (n < LANES); LANES + 100 refills lanes from the pool
        return [(5, LANES + 100, 300)[i % 3] + i for i in range(shards)]

    @staticmethod
    def drain_counts(shards):
        # drains run one per lane, so a drain shard takes at most LANES
        return [min(n, LANES) for n in TestShardGroups.counts(shards)]

    @staticmethod
    def streams(shards):
        return [random.Random(700 + i) for i in range(shards)]

    @pytest.mark.parametrize("shards, groups", GROUPINGS)
    def test_cycles(self, shards, groups):
        # a group returns its shards' stats, each as the shard returns it alone
        env, counts = TailVector.geometric(0.7, 16), self.counts(shards)
        alone = [simulate_cycles(env, LOMAX, 0.7, 2, n, r) for n, r in zip(counts, self.streams(shards))]
        for ns, rs, solo in zip(grouped(counts, groups), grouped(self.streams(shards), groups), grouped(alone, groups)):
            group = simulate_cycles(env, LOMAX, 0.7, 2, ns, rs)
            assert isinstance(group, ShardStats) and len(group) == len(ns)
            assert [stats_bytes(x) for x in group] == [stats_bytes(x) for x in solo]

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_law(self, kind):
        # each law's sampler maps one group-wide array of uniforms
        spec = make_spec(kind, 1.4 if kind in ("lomax", "pareto") else None)
        env, counts = TailVector.geometric(0.7, 16), self.counts(3)
        alone = [simulate_cycles(env, spec, 0.7, 2, n, r) for n, r in zip(counts, self.streams(3))]
        together = simulate_cycles(env, spec, 0.7, 2, counts, self.streams(3))
        assert [stats_bytes(x) for x in together] == [stats_bytes(x) for x in alone]

    @pytest.mark.parametrize("start, s", [(5, 2.5), (3, 0.0)])
    @pytest.mark.parametrize("shards, groups", GROUPINGS)
    def test_drains(self, shards, groups, start, s):
        # measure_return_time's excursions: drains from level start with residual s
        env, counts = TailVector.geometric(0.5, 12), self.drain_counts(shards)
        alone = [_excursions(env, EXP, 0.5, 2, [n], [r], start=start, s=s)[0]
                 for n, r in zip(counts, self.streams(shards))]
        together = []
        for ns, rs in zip(grouped(counts, groups), grouped(self.streams(shards), groups)):
            together += _excursions(env, EXP, 0.5, 2, ns, rs, start=start, s=s)
        assert [stats_bytes(x) for x in together] == [stats_bytes(x) for x in alone]

    def test_drain_shard_takes_at_most_lanes(self):
        # a drain never restarts a lane, so one more drain than lanes has none to run on
        with pytest.raises(ValueError, match="at most LANES"):
            _excursions(TailVector.geometric(0.5, 12), EXP, 0.5, 2, [LANES + 1], [random.Random(1)], start=3)

    @pytest.mark.parametrize("shards", [1, 3, 16])
    def test_sharded_at_any_worker_count(self, shards):
        # workers 1, 3 and 16 make ceil(shards / 4), max(that, 3) and `shards` groups
        env = TailVector.geometric(0.7, 16)
        runs = [simulate_cycles_sharded(env, LOMAX, 0.7, 2, 9000, 21, shards=shards, seed_key=(4,), workers=w)
                for w in (1, 3, 16)]
        assert stats_bytes(runs[0]) == stats_bytes(runs[1]) == stats_bytes(runs[2])
        assert runs[0].n_cycles == 9000

    def test_group_keeps_attributes_through_pickle(self):
        # a tracer attaches its counters to what a (forked) kernel call returns
        group = simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, [10, 20], [random.Random(1), random.Random(2)])
        group.info = (1, 2)
        back = pickle.loads(pickle.dumps(group))
        assert back.info == (1, 2) and [x.n_cycles for x in back] == [10, 20]

    @pytest.mark.parametrize("n_cycles, rngs", [([], []), ([10, 20], [random.Random(1)])])
    def test_group_needs_one_stream_per_shard(self, n_cycles, rngs):
        with pytest.raises(ConfigError, match="one stream per shard"):
            simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, n_cycles, rngs)

    @pytest.mark.parametrize("case", [[10, 2.5], [10, True], [10, 0]])
    def test_group_counts_are_integers(self, case):
        with pytest.raises(ConfigError, match="^n_cycles"):
            simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, case, [random.Random(1), random.Random(2)])

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_mean_gaps_are_the_scalar_rates(self, D):
        env = TailVector((1.0, 0.6, 0.6, 0.2, 1e-300, 0.0))
        expected = [1.0 / r if r else math.inf
                    for r in (effective_arrival_rate(env, z, 0.7, D) for z in range(env.k_max + 2))]
        assert _mean_gaps(env, 0.7, D).tolist() == expected

    @pytest.mark.parametrize("case, kwargs, digest", [
        # D = 1 climbs past level 8 and into the shared row above k_max = 16, which max_level reads as 17
        ("deep", dict(env=TailVector.geometric(0.7, 16), spec=LOMAX, alpha=0.7, D=1),
         "c0108a6c0d4671f3ee4b16b46bfa1c1d7fcdeb88cc8c9ad7de83dd2311c30d5b"),
        # D = 2 admits no arrival above k_max = 4: every shard's queue reaches level 5 and stops there
        ("shallow", dict(env=TailVector.geometric(0.7, 4), spec=LOMAX, alpha=0.7, D=2),
         "4e890b0cff434fdf995e3bfcac14ee39fa0f88421cd3f5e85f21df819650dd4a"),
        ("drain", dict(env=TailVector.geometric(0.5, 12), spec=EXP, alpha=0.5, D=2, start=5, s=2.5),
         "99a51950a5b8c1a0f4c620241e539098ed53802f481667863e47d1e7d24c84b1"),
        *((kind, dict(env=TailVector.geometric(0.7, 16), spec=make_spec(kind, 1.4 if kind in ("lomax", "pareto") else None),
                      alpha=0.7, D=2), digest) for kind, digest in [
            ("exponential", "b7400bb90949c1cf49969c19c3395e624bb828223be7f2cd224bc78b53f41083"),
            ("lomax", "f31e51a55ad59b3eedf0921440c7caca3247c2c9c4c45b41690fa2c31bac0f96"),
            ("pareto", "6e229452a83c65a0ae44a8e07d93e77ff6bed83e63d28b6665dac279c0e06b18"),
            ("deterministic", "0760d8b4a44d81c33d095651d6ba28565036dc197b2b9b7f096d606dab85faa7"),
            ("bounded-uniform", "56a098dc3e6ded54365e2fe3aeb6d5f0ec8ab0716b32da040c8ec2d28ea91199"),
        ]),
    ])
    def test_group_digest(self, case, kwargs, digest):
        # digests taken with lanes as the estimator's units, whose sums reduce once per call,
        # and max_level read from the occupation rows
        kw = dict(kwargs)
        args = [kw.pop(name) for name in ("env", "spec", "alpha", "D")]
        group = _excursions(*args, (self.drain_counts if case == "drain" else self.counts)(3), self.streams(3), **kw)
        if case == "deep":
            assert max(x.max_level for x in group) > 16 and min(x.max_level for x in group) > 8
        if case == "shallow":
            assert [x.max_level for x in group] == [5, 5, 5]
        h = hashlib.sha256()
        for stats in group:
            for value in stats_bytes(stats).values():
                h.update(value if isinstance(value, bytes) else value.encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("spec, alpha, controls, digest", [
        (LOMAX, 0.7, FixedPointControls(k_max=32, cycles_per_iter=3000, damping=0.5, tol=1e-12, noise_rel=0.5,
                                        max_iter=3, seed=11, shards=5),
         "74c8e3b6d95137c6ca71e0cc3a63be2868a94ef58dad3c58d552b9668015f109"),
        (EXP, 0.5, FixedPointControls(k_max=16, cycles_per_iter=2500, tol=1e-12, max_iter=2, seed=3, shards=7),
         "717f66a30ba79b47aec06b857133caa84755ec1a984dfc1486ba974d6a6fe6bf"),
    ])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_fixed_point_digest(self, spec, alpha, controls, digest, workers):
        # digests taken with lanes as the estimator's units
        rep = fixed_point(spec, alpha, 2, controls, workers=workers)
        doc = [rep.env.p, rep.estimate.p, rep.estimate.ci, rep.distances, rep.converged, rep.max_level]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


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
        # identical units: the delta-method residual vanishes exactly
        stats = CycleStats(k_max=1)
        for _ in range(3):
            stats.n_cycles += 1
            stats.n_units += 1
            stats.nu_max = 2.0
            stats.v += (2.0, 1.0)  # the unit's whole time, its time at >= 1
            stats.v2 += (4.0, 1.0)
            stats.vt += (4.0, 2.0)
        est = tail_from_cycles(stats)
        assert est.p[1] == 0.5
        assert est.ci[1] == 0.0

    @pytest.mark.parametrize("kind, D", [(kind, 2) for kind in KINDS] + [("exponential", 1)])
    def test_tail_is_monotone_without_clipping(self, kind, D):
        # a cycle's time at >= k is a reverse cumulative sum of nonnegative
        # times, and summing over cycles and dividing by one total keep its
        # order; D = 1 also climbs into the shared row above k_max = 12
        spec = make_spec(kind, 1.4 if kind in ("lomax", "pareto") else None)
        stats = simulate_cycles(TailVector.geometric(0.7, 12), spec, 0.7, D, 20_000, random.Random(41))
        assert stats.max_level > (12 if D == 1 else 4)
        est = tail_from_cycles(stats)
        assert all(a >= b for a, b in zip(est.p, est.p[1:]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1e-160, 1e-200, 1e-320])
    def test_overflowing_squares_are_a_config_error(self, alpha):
        # an idle wait of about 1 / alpha squares past DBL_MAX, and below
        # 1 / DBL_MAX the rate itself is silently no arrival: the wait is infinite
        stats = simulate_cycles(TailVector.geometric(0.5, 4), EXP, alpha, 2, 100, random.Random(1))
        with pytest.raises(ConfigError, match="alpha is too small"):
            tail_from_cycles(stats)

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

    @pytest.mark.parametrize("name, value", [("damping", 0.0), ("damping", 1.5), ("tol", 0.0), ("tol", -1.0)])
    def test_damping_and_tol_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name}"):
            FixedPointControls(**{name: value})

    @pytest.mark.parametrize("shards", [0, -2, 2.5, True])
    def test_shards_rejected(self, shards):
        with pytest.raises(ConfigError, match="^shards"):
            FixedPointControls(shards=shards)

    def test_no_monitored_level_never_converges(self):
        # noise_rel = 0 monitors only levels with a zero-width interval, and no sampled level has one
        controls = FixedPointControls(k_max=8, cycles_per_iter=2000, seed=6, max_iter=3, noise_rel=0.0)
        rep = fixed_point(EXP, 0.5, 2, controls)
        assert rep.distances == [math.inf] * 3
        assert not rep.converged

    def test_loose_tol_converges_after_one_iteration(self):
        controls = FixedPointControls(k_max=8, cycles_per_iter=10_000, seed=6, max_iter=5, tol=10.0)
        rep = fixed_point(EXP, 0.5, 2, controls)
        assert rep.converged
        assert len(rep.distances) == 1
        assert math.isfinite(rep.distances[0])

    def test_damped_update_is_linear_blend(self):
        # 4000 cycles at alpha = 0.5 never reach level 12: those levels keep
        # half their start value instead of dropping to 0
        controls = FixedPointControls(k_max=12, cycles_per_iter=4000, seed=5, max_iter=1, damping=0.5)
        rep = fixed_point(EXP, 0.5, 2, controls)
        est = rep.estimate
        start = TailVector.geometric(0.5, 12)
        assert est.p[12] == 0.0
        for k in range(1, 13):
            assert rep.env.p[k] == pytest.approx(0.5 * start.p[k] + 0.5 * est.p[k], rel=1e-12)
            assert 0.0 < rep.env.p[k] <= rep.env.p[k - 1]


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

    def test_huge_residual_drains_to_its_end(self):
        # a drain behind a residual of 2e6 runs to its end: the queue never passes k_max + 1
        mean, _ = measure_return_time(TailVector.geometric(0.5, 8), EXP, 0.5, 2, 1, 2e6, 10, random.Random(1))
        assert mean >= 2e6

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 0, 0.5, 10, random.Random(1))
        with pytest.raises(ConfigError):
            measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 1, -0.5, 10, random.Random(1))
        with pytest.raises(ConfigError):
            measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 1, math.nan, 10, random.Random(1))
        with pytest.raises(ConfigError, match="^residual s must be finite"):  # a drain that would never end
            measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 1, math.inf, 10, random.Random(1))
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


# every count, level and seed of the cavity layer: (name, call taking the value, lower bound)
INTEGER_ARGS = [
    pytest.param("D", lambda v: effective_arrival_rate(EMPTY_ABOVE_0, 0, 0.5, v), 1, id="alpha_d-D"),
    pytest.param("k", lambda v: effective_arrival_rate(EMPTY_ABOVE_0, v, 0.5, 2), 0, id="arrival-k"),
    pytest.param("n_cycles", lambda v: simulate_cycles(EMPTY_ABOVE_0, EXP, 0.5, 2, v, random.Random(1)), 1,
                 id="cycles-n_cycles"),
    pytest.param("n_cycles", lambda v: simulate_cycles_sharded(EMPTY_ABOVE_0, EXP, 0.5, 2, v, 1), 1,
                 id="sharded-n_cycles"),
    pytest.param("shards", lambda v: simulate_cycles_sharded(EMPTY_ABOVE_0, EXP, 0.5, 2, 10, 1, shards=v), 1,
                 id="sharded-shards"),
    pytest.param("workers", lambda v: simulate_cycles_sharded(EMPTY_ABOVE_0, EXP, 0.5, 2, 10, 1, workers=v), 1,
                 id="sharded-workers"),
    pytest.param("k_max", lambda v: FixedPointControls(k_max=v), 1, id="controls-k_max"),
    pytest.param("cycles_per_iter", lambda v: FixedPointControls(cycles_per_iter=v), 2, id="controls-cycles"),
    pytest.param("max_iter", lambda v: FixedPointControls(max_iter=v), 1, id="controls-max_iter"),
    pytest.param("seed", lambda v: FixedPointControls(seed=v), 0, id="controls-seed"),
    pytest.param("k", lambda v: measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, v, 0.5, 10, random.Random(1)), 1,
                 id="return-k"),
    pytest.param("n_reps", lambda v: measure_return_time(EMPTY_ABOVE_0, EXP, 0.5, 2, 1, 0.5, v, random.Random(1)), 2,
                 id="return-n_reps"),
    pytest.param("k_max", lambda v: TailVector.geometric(0.5, v), 0, id="geometric-k_max"),
]


@pytest.mark.parametrize("name, call, lo", INTEGER_ARGS)
@pytest.mark.parametrize("case", ["float", "bool", "below"])
def test_counts_and_levels_must_be_integers(name, call, lo, case):
    # the float lies inside the bound, so only the integer rule rejects it; a
    # bool is an int to isinstance
    value = {"float": 2.5, "bool": True, "below": lo - 1}[case]
    with pytest.raises(ConfigError, match=f"^{name}"):
        call(value)
