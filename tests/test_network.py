"""Network simulator: oracles, audits, exchangeability, determinism."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsqlab import network
from jsqlab import (
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


class RecordingRandom(random.Random):
    """A stream that logs every uniform it hands out.

    Every variate the engine draws (arrival gaps, queue samples, tie splits,
    service times) comes from ``random()``, so the log is the full input of
    the event sequence.
    """

    def __init__(self, state):
        super().__init__()
        self.setstate(state)
        self.log = []

    def random(self):
        u = super().random()
        self.log.append(u)
        return u


def recorded_run(monkeypatch, config):
    """Run the network on a logging copy of its stream; return (log, run)."""
    streams = []
    derive = network.derive_stream

    def recording_stream(base_seed, *key):
        streams.append(RecordingRandom(derive(base_seed, *key).getstate()))
        return streams[-1]

    with monkeypatch.context() as m:
        m.setattr(network, "derive_stream", recording_stream)
        run = run_network(config)
    assert len(streams) == 1
    return streams[0].log, run


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
            small_config(n_batches=1)
        with pytest.raises(ConfigError):
            small_config(seed=-1)
        with pytest.raises(ConfigError):
            small_config(warmup_fraction=1.0)

    def test_round_trip(self):
        cfg = small_config()
        assert NetworkConfig.from_config(cfg.to_config()) == cfg

    def test_from_config_rejects_unknown(self):
        doc = small_config().to_config()
        doc["threads"] = 4
        with pytest.raises(ConfigError):
            NetworkConfig.from_config(doc)

    @pytest.mark.parametrize("key, value", [("horizon", "60"), ("N", 20.5), ("k_max", True), ("service", "exponential")])
    def test_from_config_rejects_wrong_types(self, key, value):
        doc = {**small_config().to_config(), key: value}
        with pytest.raises(ConfigError, match=key):
            NetworkConfig.from_config(doc)


class TestRunNetwork:
    def test_empty_arrival_process(self):
        run = run_network(small_config(alpha=0.0, horizon=50.0))
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

    def test_deterministic_event_sequence(self, monkeypatch):
        log_a, a = recorded_run(monkeypatch, small_config())
        log_b, b = recorded_run(monkeypatch, small_config())
        assert log_a and log_a == log_b
        assert a.lengths_end == b.lengths_end
        assert a.tail.p == b.tail.p
        assert a.tail.ci == b.tail.ci

    def test_different_seed_changes_sequence(self, monkeypatch):
        log_a, _ = recorded_run(monkeypatch, small_config())
        log_b, _ = recorded_run(monkeypatch, small_config(seed=9))
        assert log_a != log_b

    def test_exchangeability_under_relabeling(self):
        # relabeling queues maps the sample path through a permutation, so
        # every count statistic is unchanged for a fixed random source
        perm = list(np.random.default_rng(123).permutation(20))
        base = run_network(small_config())
        relabeled = run_network(small_config(), relabel=[int(x) for x in perm])
        assert relabeled.tail.p == base.tail.p
        assert relabeled.tail.ci == base.tail.ci
        assert sorted(relabeled.lengths_end) == sorted(base.lengths_end)

    def test_relabel_maps_every_queue(self):
        # queue relabel[q] of the relabeled run lives the path of queue q
        perm = [int(x) for x in np.random.default_rng(7).permutation(20)]
        for D in (1, 2, 3):
            base = run_network(small_config(D=D, horizon=150.0))
            relabeled = run_network(small_config(D=D, horizon=150.0), relabel=perm)
            assert base.lengths_end != relabeled.lengths_end
            assert [relabeled.lengths_end[perm[q]] for q in range(20)] == base.lengths_end

    def test_bad_relabel_rejected(self):
        with pytest.raises(ConfigError):
            run_network(small_config(), relabel=[0] * 20)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=12, deadline=None)
    def test_conservation_audit_any_seed(self, seed):
        run = run_network(small_config(seed=seed, horizon=120.0))
        report = conservation_audit(run)
        assert report.arrivals == report.departures + report.in_system

    def test_audit_failure_raises(self):
        run = run_network(small_config(horizon=60.0))
        run.arrivals += 1
        with pytest.raises(AuditFailure):
            conservation_audit(run)


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

    def test_beyond_k_max_counts_only_measured_arrivals(self):
        assert run_network(small_config(alpha=0.0, horizon=50.0)).beyond_k_max == 0
        cfg = small_config(D=1, k_max=1, horizon=200.0)
        whole = run_network(replace(cfg, warmup_fraction=0.0)).beyond_k_max
        # the path does not depend on the windows, so [0, 100) and
        # [100, 200) split the count of the whole horizon
        first = run_network(replace(cfg, warmup_fraction=0.0, horizon=100.0)).beyond_k_max
        second = run_network(replace(cfg, warmup_fraction=0.5)).beyond_k_max
        assert first > 0 and second > 0
        assert whole == first + second

    def test_jobs_mean_sums_the_levels(self):
        run = run_network(small_config())
        assert run.beyond_k_max == 0 and not run.tail.clipped
        assert run.jobs_mean == pytest.approx(sum(run.tail.p[1:]), rel=1e-12)


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

    def test_single_run_passthrough(self):
        cfg = small_config(horizon=150.0)
        runs = [run_replication(cfg, 0)]
        assert merge_estimates(runs).p == runs[0].tail.p

    def test_replications_differ(self):
        cfg = small_config(horizon=150.0)
        a, b = run_replication(cfg, 0), run_replication(cfg, 1)
        assert a.tail.p != b.tail.p
