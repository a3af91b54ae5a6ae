"""Network simulator: oracles, audits, exchangeability, determinism."""

import hashlib
import json
import math
import statistics
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsqlab import network
from jsqlab.config import echo, read_config
from jsqlab.tails import Z95, t95
from jsqlab import (
    KINDS,
    AuditFailure,
    ConfigError,
    NetworkConfig,
    conservation_audit,
    make_spec,
    merge_estimates,
    pair_dependence,
    run_network,
    run_replication,
)

EXP = make_spec("exponential")


def small_config(**kw):
    base = dict(N=20, D=2, alpha=0.5, service=EXP, horizon=300.0, seed=8, k_max=16)
    base.update(kw)
    return NetworkConfig(**base)


def run_fields(run):
    """Every field of a run but its wall time."""
    return {k: v for k, v in vars(run).items() if k != "runtime_s"}


def law(kind):
    return make_spec(kind, 2.5 if kind in ("lomax", "pareto") else None)


def relabeled_run(cfg, perm):
    """Run ``cfg`` with every sampled queue q renamed perm[q]: the draws are unchanged, only the names differ."""
    names = np.asarray(perm)
    rows = network.sample_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "sample_rows", lambda *args: names[rows(*args)])
        return run_network(cfg)


# chi-square 99.9% quantiles by degrees of freedom, scipy.stats.chi2.ppf(0.999, df)
CHI2_999 = {1: 10.827566170662733, 2: 13.815510557964274, 5: 20.515005652432873, 59: 98.32423413474163}


def chi_square(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


def jsq2_ctmc_cov(alpha: float, level: int, cap: int = 30) -> float:
    """Stationary indicator covariance for the 2-queue full-information system.

    Dense generator over lengths (a, b) <= cap; arrivals at rate 2*alpha join
    the shorter queue (ties split evenly), unit-rate service at each queue.
    """
    lam = 2.0 * alpha
    n = cap + 1
    idx = lambda a, b: a * n + b
    Q = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            i = idx(a, b)
            if a < b and a < cap:
                Q[i, idx(a + 1, b)] += lam
            elif b < a and b < cap:
                Q[i, idx(a, b + 1)] += lam
            elif a == b:
                if a < cap:
                    Q[i, idx(a + 1, b)] += lam / 2.0
                if b < cap:
                    Q[i, idx(a, b + 1)] += lam / 2.0
            if a > 0:
                Q[i, idx(a - 1, b)] += 1.0
            if b > 0:
                Q[i, idx(a, b - 1)] += 1.0
    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    A = np.vstack([Q.T, np.ones(n * n)])
    rhs = np.zeros(n * n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    pi = pi.reshape(n, n)
    p_one = pi[level:, :].sum()
    return float(pi[level:, level:].sum() - p_one * p_one)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(D=25)  # D > N
        with pytest.raises(ConfigError):
            small_config(alpha=1.0)
        with pytest.raises(ConfigError):
            small_config(horizon=0.0)
        with pytest.raises(ConfigError):
            small_config(horizon=math.inf)  # window 0 would never end
        with pytest.raises(ConfigError):
            small_config(n_batches=1)
        with pytest.raises(ConfigError):
            small_config(seed=-1)
        with pytest.raises(ConfigError):
            small_config(warmup_fraction=1.0)
        with pytest.raises(ConfigError, match="horizon too short"):
            small_config(horizon=5e-324)  # positive, but a batch's length underflows to 0

    @pytest.mark.parametrize("key, value", [("N", True), ("D", True), ("k_max", 2.5), ("n_batches", 2.5),
                                            ("pair_level", True), ("pair_level", 2.5), ("pair_level", 0)])
    def test_counts_must_be_integers(self, key, value):
        # a bool is an int to isinstance, and a float count would fail later with a TypeError
        with pytest.raises(ConfigError, match=f"^{key} must"):
            if key == "pair_level":
                run_network(small_config(), pair_level=value)
            else:
                small_config(**{"D": 1, key: value})

    @staticmethod
    def document(cfg):
        doc = echo("network", cfg)
        assert doc.pop("mode") == "network"
        return doc

    def test_round_trip(self):
        cfg = small_config()
        assert read_config(self.document(cfg), {}, NetworkConfig) == [cfg]

    def test_integral_float_count_reads_as_int(self):
        (cfg,) = read_config({**self.document(small_config()), "N": 500.0}, {}, NetworkConfig)
        assert cfg.N == 500 and type(cfg.N) is int

    def test_from_config_rejects_unknown(self):
        doc = self.document(small_config())
        doc["threads"] = 4
        with pytest.raises(ConfigError):
            read_config(doc, {}, NetworkConfig)

    @pytest.mark.parametrize("key, value", [("horizon", "60"), ("N", 20.5), ("k_max", True), ("service", "exponential")])
    def test_from_config_rejects_wrong_types(self, key, value):
        doc = {**self.document(small_config()), key: value}
        with pytest.raises(ConfigError, match=key):
            read_config(doc, {}, NetworkConfig)


class TestRunNetwork:
    @pytest.mark.parametrize("alpha", [0.0, 1e-320])  # at 1e-320 the gaps overflow to inf: no arrival
    def test_empty_arrival_process(self, alpha):
        run = run_network(small_config(alpha=alpha, horizon=50.0))
        assert run.arrivals == 0
        assert all(p == 0.0 for p in run.tail.p[1:])
        assert run.tail.p[0] == 1.0
        conservation_audit(run)

    def test_single_choice_matches_mm1(self):
        # D=1 exponential: each queue is M/M/1 with tail alpha**k
        run = run_network(NetworkConfig(N=100, D=1, alpha=0.5, service=EXP,
                                        horizon=2000.0, seed=5, k_max=12))
        for k in (1, 2, 3):
            assert abs(run.tail.p[k] - 0.5**k) <= 3 * run.tail.ci[k]
        conservation_audit(run)

    def test_littles_law_single_choice(self):
        run = run_network(NetworkConfig(N=100, D=1, alpha=0.5, service=EXP,
                                        horizon=2000.0, seed=6, k_max=12))
        assert abs(run.jobs_mean - 0.5 / (1 - 0.5)) <= 3 * run.jobs_ci

    def test_tail_is_monotone(self):
        run = run_network(small_config())
        for k in range(run.tail.k_max):
            assert run.tail.p[k] >= run.tail.p[k + 1]

    def test_deterministic_event_sequence(self):
        a = run_network(small_config(), pair_level=1)
        b = run_network(small_config(), pair_level=1)
        assert a.arrivals > 0
        assert run_fields(a) == run_fields(b)

    def test_different_seed_changes_sequence(self):
        a = run_network(small_config(), pair_level=1)
        b = run_network(small_config(seed=9), pair_level=1)
        assert (a.arrivals, a.departures) != (b.arrivals, b.departures)
        assert a.lengths_end != b.lengths_end
        assert a.tail.p != b.tail.p
        assert a.pair_batches != b.pair_batches

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_size_does_not_change_the_run(self, monkeypatch, kind):
        # the k-th value of each stream is the same however the blocks split it
        cfg = small_config(service=law(kind), D=3)
        default = run_fields(run_network(cfg, pair_level=1))
        monkeypatch.setattr(network, "BLOCK", 7)
        assert run_fields(run_network(cfg, pair_level=1)) == default

    @pytest.mark.parametrize("kind, digest", [
        ("exponential", "b3f883beea774a034903471e656647795de18c7221b7df55af4ad21bb5664f09"),
        ("lomax", "43d7a815381ee10d8037606766a374c0f35011602b80f6ec43010c145f130f44"),
        ("pareto", "51111220fa8d51330094f0d160e640cd4a208ebe06c65d3002653887f1e69b23"),
        ("deterministic", "ce9003d176bbfc8c52635d1886fee47b0d9fe82ff7d1b8b2fb43d3326f3fca3d"),
        ("bounded-uniform", "6cf922a117b8526e053f9633e1fd744be8a2449a9d45c054600d611b5c83efb2"),
    ])
    def test_run_digest(self, kind, digest):
        # pins the run's outputs, bit for bit, under each law's service draws
        run = run_network(small_config(N=50, horizon=200.0, service=law(kind)), pair_level=1)
        doc = [run.tail.p, run.tail.ci, run.arrivals, run.departures, run.lengths_end, run.pair_batches]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_service_law(self, kind):
        run = run_network(NetworkConfig(N=20, D=2, alpha=0.5, service=law(kind), horizon=4000.0,
                                        seed=11, k_max=16))
        conservation_audit(run)
        p = run.tail.p
        assert all(a >= b for a, b in zip(p, p[1:]))
        # utilisation identity: a queue is busy a fraction alpha of the time
        assert abs(p[1] - 0.5) <= 3 * run.tail.ci[1]

    def test_exchangeability_under_relabeling(self):
        # relabeling queues maps the sample path through a permutation, so
        # every count statistic is unchanged for a fixed random source
        perm = np.random.default_rng(123).permutation(20)
        base = run_network(small_config())
        relabeled = relabeled_run(small_config(), perm)
        assert relabeled.tail.p == base.tail.p
        assert relabeled.tail.ci == base.tail.ci
        assert sorted(relabeled.lengths_end) == sorted(base.lengths_end)

    def test_relabel_maps_every_queue(self):
        # queue perm[q] of the relabeled run lives the path of queue q
        perm = [int(x) for x in np.random.default_rng(7).permutation(20)]
        for D in (1, 2, 3):
            base = run_network(small_config(D=D, horizon=150.0))
            relabeled = relabeled_run(small_config(D=D, horizon=150.0), perm)
            assert base.lengths_end != relabeled.lengths_end
            assert [relabeled.lengths_end[perm[q]] for q in range(20)] == base.lengths_end

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=12, deadline=None)
    def test_conservation_audit_any_seed(self, seed):
        run = run_network(small_config(seed=seed, horizon=120.0))
        conservation_audit(run)
        assert run.arrivals == run.departures + sum(run.lengths_end)

    def test_audit_failure_raises(self):
        run = run_network(small_config(horizon=60.0))
        run.arrivals += 1
        with pytest.raises(AuditFailure):
            conservation_audit(run)


class TestQueueChoice:
    """Each arrival joins the first shortest queue of a uniformly ordered row of D distinct queues."""

    @staticmethod
    def rows(N, D, n, seed):
        return network.sample_rows(np.random.Generator(np.random.PCG64(seed)), N, D, n).tolist()

    def test_rows_are_uniform_ordered_samples(self):
        rows = self.rows(5, 3, 60_000, seed=2024)
        counts = Counter(map(tuple, rows))
        assert set(counts) == set(permutations(range(5), 3))
        assert chi_square(counts.values(), 1000) < CHI2_999[59]

    def test_full_information_rows_are_uniform_orders(self):
        # D = N: every row is a permutation of all queues, as the CTMC test needs
        counts = Counter(map(tuple, self.rows(3, 3, 6000, seed=2025)))
        assert set(counts) == set(permutations(range(3)))
        assert chi_square(counts.values(), 1000) < CHI2_999[5]
        counts = Counter(map(tuple, self.rows(2, 2, 2000, seed=2026)))
        assert set(counts) == {(0, 1), (1, 0)}
        assert chi_square(counts.values(), 1000) < CHI2_999[1]

    def test_first_shortest_splits_ties_evenly(self):
        rows = self.rows(5, 3, 30_000, seed=2027)
        # all lengths equal: the chosen queue takes each rank in its row's set 1/D of the time
        lengths = [4] * 5
        ranks = Counter(sorted(row).index(min(row, key=lengths.__getitem__)) for row in rows)
        assert chi_square([ranks[r] for r in range(3)], 10_000) < CHI2_999[2]
        # queues 1 and 3 tie shortest: when a row holds both, each is chosen half the time
        lengths = [2, 0, 1, 0, 2]
        both = [row for row in rows if {1, 3} <= set(row)]
        chosen = Counter(min(row, key=lengths.__getitem__) for row in both)
        assert set(chosen) == {1, 3}
        assert chi_square(chosen.values(), len(both) / 2) < CHI2_999[1]


class TestPairDependence:
    def test_empty_process_zero_covariance(self):
        dep = pair_dependence([run_network(small_config(alpha=0.0, horizon=50.0), pair_level=1)])
        assert dep.cov == 0.0
        assert dep.ci == 0.0

    def test_tracker_leaves_tail_unchanged(self):
        base = run_network(small_config())
        tracked = run_network(small_config(), pair_level=1)
        assert tracked.tail == base.tail
        assert tracked.lengths_end == base.lengths_end
        assert len(tracked.pair_batches) == small_config().n_batches

    def test_full_information_matches_ctmc(self):
        # N = D = 2: every arrival sees both queues; the exact chain is small
        oracle = jsq2_ctmc_cov(0.3, 1)
        cfg = NetworkConfig(N=2, D=2, alpha=0.3, service=EXP, horizon=120_000.0, seed=9, k_max=8)
        dep = pair_dependence([run_network(cfg, pair_level=1)])
        assert abs(dep.cov - oracle) <= 4 * dep.ci

    @pytest.mark.parametrize("N, D, level", [(2, 2, 1), (20, 2, 1), (20, 3, 2)])
    def test_batch_covariances_within_their_bounds(self, N, D, level):
        # with m the batch's mean level fraction, c(c-1) <= c(N-1) gives
        # cov <= m(1-m) <= 1/4, and Jensen on c**2 gives cov >= -m(1-m)/(N-1)
        run = run_network(small_config(N=N, D=D, alpha=0.8, horizon=600.0), pair_level=level)
        assert all(-0.25 / (N - 1) - 1e-12 <= cov <= 0.25 + 1e-12 for cov in run.pair_batches)

    def test_level_validation(self):
        with pytest.raises(ConfigError):
            run_network(small_config(), pair_level=0)
        with pytest.raises(ConfigError):
            run_network(small_config(), pair_level=17)  # above k_max
        with pytest.raises(ConfigError):
            run_network(NetworkConfig(N=1, D=1, alpha=0.3, service=EXP, horizon=10.0), pair_level=1)

    def test_pooling_needs_tracked_runs(self):
        with pytest.raises(ConfigError):
            pair_dependence([])
        with pytest.raises(ConfigError):
            pair_dependence([run_network(small_config(horizon=50.0))])
        cfg = small_config(horizon=50.0)
        with pytest.raises(ConfigError):
            pair_dependence([run_network(cfg, pair_level=1), run_network(cfg, pair_level=2)])

    def test_pooling_needs_one_config(self):
        # an N = 20 and an N = 40 run used to pool into one covariance over 40 batches
        runs = [run_network(small_config(N=n, horizon=50.0), pair_level=1) for n in (20, 40)]
        with pytest.raises(ConfigError, match="^runs must share one config but the seed, got 2 configs$"):
            pair_dependence(runs)

    def test_pools_replications(self):
        cfg = small_config(horizon=150.0)
        runs = [run_replication(cfg, i, pair_level=1) for i in range(3)]
        dep = pair_dependence(runs)
        assert dep.n_batches == 3 * cfg.n_batches
        covs = [cov for r in runs for cov in r.pair_batches]
        assert dep.cov == pytest.approx(float(np.mean(covs)), rel=1e-12)


class TestWindows:
    """Window 0 is the warm-up; windows 1..n_batches tile [t_w, horizon]."""

    def test_batch_count_does_not_change_the_tail(self):
        # batching draws no randomness and equal batches average to the
        # whole measured window, so only rounding separates the two
        two = run_network(small_config(n_batches=2))
        five = run_network(small_config(n_batches=5))
        assert five.tail.p == pytest.approx(two.tail.p, rel=1e-9)
        assert five.lengths_end == two.lengths_end

    def test_windows_change_no_event(self):
        # an event at a window's end is left for the next window, never
        # dropped or run twice, so the path does not depend on the windows
        cfg = small_config(horizon=200.0)
        runs = [run_network(replace(cfg, warmup_fraction=w, n_batches=nb)) for w in (0.0, 0.5) for nb in (2, 5)]
        events = {(r.arrivals, r.departures, tuple(r.lengths_end), tuple(r.c_end)) for r in runs}
        assert len(events) == 1 and runs[0].arrivals > 0

    def test_jobs_mean_sums_the_levels(self):
        # p[k_max] == 0: no measured queue reached k_max, so none passed it
        run = run_network(small_config())
        assert run.tail.p[-1] == 0.0
        assert run.jobs_mean == pytest.approx(sum(run.tail.p[1:]), rel=1e-12)


class TestIntervals:
    """The 95% quantiles behind every interval, checked without scipy."""

    def test_t95_closed_forms(self):
        # df 1 is Cauchy, tan(pi*(0.975 - 1/2)); at df 2, |T| <= t has probability t/sqrt(2 + t*t)
        assert t95(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-13)
        assert t95(2) == pytest.approx(0.95 / math.sqrt(2 * 0.975 * 0.025), rel=1e-13)

    @pytest.mark.parametrize("df, quantile", [
        # scipy.special.stdtrit(df, 0.975), scipy 1.17.1
        (3, 3.1824463052837078),
        (19, 2.0930240544083087),
        (99, 1.9842169515864174),
        (1999, 1.9611514201705613),
    ])
    def test_t95_recorded_values(self, df, quantile):
        assert t95(df) == pytest.approx(quantile, rel=1e-12)

    def test_t95_falls_toward_z95(self):
        dfs = [*range(1, 200), 250, 500, 1000, 1999]
        values = [t95(df) for df in dfs]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > Z95

    def test_z95_is_the_normal_quantile(self):
        # NormalDist's rational approximation lands two ulps low, at 1.9599639845400536
        assert abs(Z95 - statistics.NormalDist().inv_cdf(0.975)) <= 2 * math.ulp(Z95)

    def test_two_sample_half_width(self):
        a, b = 0.3, 0.7
        p, ci = network._batch_means(np.array([[a, b]]))
        s = abs(a - b) / math.sqrt(2.0)
        assert p == [pytest.approx(0.5, rel=1e-15)]
        assert ci == [pytest.approx(t95(1) * s / math.sqrt(2.0), rel=1e-12)]


class TestReplications:
    def test_merge_is_deterministic_and_monotone(self):
        cfg = small_config(horizon=150.0)
        runs = [run_replication(cfg, i) for i in range(4)]
        merged = merge_estimates(runs)
        merged2 = merge_estimates([run_replication(cfg, i) for i in range(4)])
        assert merged.p == merged2.p
        assert merged.ci == merged2.ci
        for k in range(merged.k_max):
            assert merged.p[k] >= merged.p[k + 1]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("N, D, alpha, horizon", [(5, 2, 0.95, 6000.0), (100, 3, 0.8, 300.0)])
    def test_tail_is_monotone_without_clipping(self, kind, N, D, alpha, horizon):
        # batch integrals keep the level order (see the network module), and
        # each level's mean sums its values in the same order
        cfg = NetworkConfig(N=N, D=D, alpha=alpha, service=law(kind), horizon=horizon, seed=19, k_max=40)
        runs = [run_replication(cfg, i) for i in range(3)]
        for est in [r.tail for r in runs] + [merge_estimates(runs)]:
            assert all(a >= b for a, b in zip(est.p, est.p[1:]))

    def test_no_runs_rejected(self):
        with pytest.raises(ConfigError, match="no replications"):
            merge_estimates([])

    def test_merge_needs_one_config(self):
        # zip used to cut a k_max = 8 run's tail to the k_max = 4 run's length
        runs = [run_replication(small_config(horizon=50.0, k_max=k), 0) for k in (8, 4)]
        with pytest.raises(ConfigError, match="^runs must share one config but the seed, got 2 configs$"):
            merge_estimates(runs)

    def test_single_run_passthrough(self):
        cfg = small_config(horizon=150.0)
        runs = [run_replication(cfg, 0)]
        assert merge_estimates(runs).p == runs[0].tail.p

    def test_replications_differ(self):
        cfg = small_config(horizon=150.0)
        a, b = run_replication(cfg, 0), run_replication(cfg, 1)
        assert a.tail.p != b.tail.p
