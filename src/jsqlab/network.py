"""Discrete-event simulation of the N-queue join-shortest-of-D FIFO network.

Jobs arrive in one global Poisson stream of rate alpha*N; each arrival
samples a uniformly ordered row of D distinct queues and joins its first
shortest queue, a uniform tie split with no tie draw and no persistent
Fisher-Yates array. Service is FIFO at rate 1 and a service time is drawn
when a job reaches the head, so the calendar needs no cancellations: a
completion is scheduled only when a queue turns busy or a successor starts
service, and with at most one pending per queue the calendar is keyed on
(time, queue). Gaps, rows and service times come from three PCG64 streams
keyed (seed, 0, role), filled BLOCK values per numpy call; no value depends
on BLOCK, so the events are a deterministic function of (config, seed) alone.

The horizon is cut into windows: window 0 is the warm-up [0, t_w) and
windows 1..n_batches tile [t_w, horizon]. The event loop runs once per
window and stops at the first event at or past the window's end, which is
left for the next window. Per-level occupancy c[j] = #{queues with length
>= j} changes at exactly one level per event, so each window's time
integrals are accumulated in O(1) per event as
integral = c0*(t1-t0) + (c1-c0)*t1 - sum_of_signed_change_times, with c0
and c1 the counts at the window's ends. A batch keeps its integrals and the
warm-up's are dropped. Estimates are batch means with Student-t intervals,
left unclipped: c_j >= c_{j+1} at every instant, so two levels whose
integrals tie had no event in the window and both compute as c0*dur
exactly; an inversion would need a positive gap below the rounding of the
integral formula.

A single run is strictly single-threaded; replications with distinct derived
seeds can run on any pool and merge by averaging replication estimates.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush, heapreplace
from itertools import chain

import numpy as np

from .errors import AuditFailure, ConfigError, check_int
from .seeding import check_seed, derive_seed, derive_stream
from .service_dist import BlockDraws, ServiceDistributionSpec, make_sampler
from .tails import TailEstimate, t95

BLOCK = 1024  # values per numpy fill of each random stream


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of one network simulation.

    D = 1 is permitted as a single-queue calibration baseline (each arrival
    samples one queue uniformly); alpha = 0 gives the empty arrival process.
    """

    N: int
    D: int
    alpha: float
    service: ServiceDistributionSpec
    horizon: float
    warmup_fraction: float = 0.2
    seed: int = 0
    k_max: int = 64
    n_batches: int = 20

    def __post_init__(self):
        check_int("N", self.N, 1)
        check_int("D", self.D, 1)
        if self.D > self.N:
            raise ConfigError(f"D={self.D} exceeds the number of queues N={self.N}")
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0.0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ConfigError(f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}")
        check_int("k_max", self.k_max, 1)
        check_int("n_batches", self.n_batches, 2)
        if (1.0 - self.warmup_fraction) * self.horizon / self.n_batches <= 0.0:
            raise ConfigError("horizon too short for the requested batch count")
        check_seed(self.seed)


@dataclass
class NetworkRun:
    """A completed run: the tail estimate plus audit counters and final state."""

    config: NetworkConfig
    tail: TailEstimate
    arrivals: int
    departures: int
    lengths_end: list
    c_end: list  # incremental level counters at the end, index 1..k_max
    jobs_mean: float  # mean of min(Z, k_max) per queue over the batches
    jobs_ci: float
    runtime_s: float
    pair_level: int | None = None
    pair_batches: list = field(default_factory=list)  # indicator covariance per batch


@dataclass
class PairDependence:
    """Time-averaged covariance of two fixed queues' level indicators."""

    level: int
    cov: float
    ci: float
    n_batches: int


def _batch_means(rows: np.ndarray) -> tuple[list, list]:
    """Each row's mean over its n batches, and the Student-t 95% half-width of that mean.

    The means need no clip: every row is summed in the same order, so rows
    that are ordered value by value keep their order in the mean.
    """
    n = rows.shape[1]
    half = t95(n - 1) * rows.std(axis=1, ddof=1) / math.sqrt(n)
    return rows.mean(axis=1).tolist(), half.tolist()


def check_pair_level(config: NetworkConfig, k) -> None:
    """Reject a pair level the tracker cannot measure, before any simulation."""
    if config.N < 2:
        raise ConfigError("pair dependence needs at least two queues")
    check_int("pair_level", k, 1, config.k_max)


def sample_rows(gen, N: int, D: int, size: int) -> np.ndarray:
    """``size`` uniformly ordered rows of D distinct queues in 0..N-1.

    Draw i, floor(u*(N-i)), steps past each earlier pick in increasing order.
    """
    rows = (gen.random((size, D)) * (N - np.arange(D))).astype(np.intp)
    for i in range(1, D):
        x = rows[:, i]  # a view: the steps land in rows
        for pick in np.sort(rows[:, :i], axis=1).T:
            x += x >= pick
    return rows


def _reader(fill):
    """One value per call from the lists ``fill()`` returns: a Python call per list, not per value."""
    return chain.from_iterable(iter(fill, None)).__next__


def run_network(config: NetworkConfig, *, pair_level: int | None = None) -> NetworkRun:
    """Simulate the network and return the batch-means tail estimate.

    ``pair_level`` also tracks the two-queue covariance at that level in the
    same pass (see ``pair_dependence``); it consumes no randomness.
    """
    if pair_level is not None:
        check_pair_level(config, pair_level)
    N, D, alpha, k_max = config.N, config.D, config.alpha, config.k_max
    nb = config.n_batches
    gap_gen, row_gen, svc_gen = (np.random.default_rng(derive_seed(config.seed, 0, role)) for role in range(3))
    rate_in = alpha * N
    draw = make_sampler(config.service)

    def gaps():
        with np.errstate(over="ignore"):  # a rate below 1/DBL_MAX overflows to an inf gap: no arrival, as at 0
            return (gap_gen.standard_exponential(BLOCK) / rate_in).tolist()

    gap = _reader(gaps)
    sample = _reader(lambda: sample_rows(row_gen, N, D, BLOCK).tolist())
    svc_draws = BlockDraws([svc_gen], [BLOCK])
    service = _reader(lambda: draw(svc_draws).tolist())
    pair_at = pair_level or 0  # level 0 never changes, so 0 disables the tracker

    # window b ends at ends[b]: window 0 is the warm-up, 1..nb the batches
    t_w = config.warmup_fraction * config.horizon
    batch_dur = (config.horizon - t_w) / nb
    ends = [t_w + j * batch_dur for j in range(nb + 1)]
    ends[-1] = config.horizon

    lengths = [0] * N
    length_of = lengths.__getitem__
    heap: list = []  # (completion time, queue): a queue has at most one pending

    c_cur = [0] * (k_max + 1)  # level counts, index 1..k_max
    level_batches = [[] for _ in range(k_max + 1)]  # per level: batch time-integrals
    pair_batches: list = []

    arrivals = 0
    departures = 0
    next_arrival = gap() if rate_in > 0.0 else math.inf

    wall0 = _time.perf_counter()

    for b, t1 in enumerate(ends):
        # open the window: change trackers start from the current counts
        c0 = c_cur[:]
        sum_t = [0.0] * (k_max + 1)
        # pair-product tracker: f = c*(c-1) at the pair level, where c is the
        # level count; by exchangeability E[f]/(N*(N-1)) equals the indicator
        # product E[X_i * X_j] for any two fixed queues i != j
        cc0 = c_cur[pair_at] * (c_cur[pair_at] - 1)
        cc_sum_t = 0.0
        while True:
            if heap and heap[0][0] <= next_arrival:
                t, qi = heap[0]
                if t >= t1:
                    break
                departures += 1
                z = lengths[qi]
                lengths[qi] = z - 1
                if z <= k_max:
                    c_cur[z] -= 1
                    sum_t[z] -= t
                    if z == pair_at:
                        cc_sum_t -= 2 * c_cur[z] * t  # c(c-1) drops 2c when c drops one
                if z > 1:
                    heapreplace(heap, (t + service(), qi))
                else:
                    heappop(heap)
            else:
                t = next_arrival
                if t >= t1:
                    break
                arrivals += 1
                next_arrival = t + gap()
                # the first shortest of a uniformly ordered row: a uniform tie split
                chosen = min(sample(), key=length_of)
                z = lengths[chosen]
                lengths[chosen] = z + 1
                lvl = z + 1
                if lvl <= k_max:
                    c_cur[lvl] += 1
                    sum_t[lvl] += t
                    if lvl == pair_at:
                        cc_sum_t += 2 * (c_cur[lvl] - 1) * t  # c(c-1) gains 2(c-1) when c gains one
                if z == 0:
                    heappush(heap, (t + service(), chosen))

        # close the window: a batch keeps its integrals, the warm-up drops them
        if b:
            dur = t1 - ends[b - 1]
            for j in range(1, k_max + 1):
                level_batches[j].append(c0[j] * dur + (c_cur[j] - c0[j]) * t1 - sum_t[j])
            if pair_at:
                # the indicator covariance from the all-pairs identity
                # E[c*(c-1)]/(N*(N-1)) - (E[c]/N)**2
                mean_c = level_batches[pair_at][-1] / batch_dur / N
                c = c_cur[pair_at]
                icc = cc0 * dur + (c * (c - 1) - cc0) * t1 - cc_sum_t
                pair_batches.append(icc / batch_dur / (N * (N - 1)) - mean_c * mean_c)

    runtime_s = _time.perf_counter() - wall0

    levels = np.asarray(level_batches[1:]) / (batch_dur * N)  # row j-1: level j per batch
    p, ci = _batch_means(levels)
    # sum over levels 1..k_max of the level occupancy is min(Z, k_max) per queue
    (jobs_mean,), (jobs_ci,) = _batch_means(levels.sum(axis=0)[None])
    return NetworkRun(
        config=config,
        tail=TailEstimate(p=[1.0, *p], ci=[0.0, *ci]),
        arrivals=arrivals,
        departures=departures,
        lengths_end=lengths,
        c_end=c_cur,
        jobs_mean=jobs_mean,
        jobs_ci=jobs_ci,
        runtime_s=runtime_s,
        pair_level=pair_level,
        pair_batches=pair_batches,
    )


def _check_one_config(runs: list) -> None:
    """ConfigError unless the runs share one config up to the seed, as replications of one run do."""
    configs = {replace(r.config, seed=0) for r in runs}
    if len(configs) > 1:
        raise ConfigError(f"runs must share one config but the seed, got {len(configs)} configs")


def pair_dependence(runs: list) -> PairDependence:
    """Time-averaged Cov(1{Z_1 >= k}, 1{Z_2 >= k}) for two fixed queues.

    Pools the batch covariances that runs made with ``pair_level=k`` tracked;
    it does not simulate. Queues are exchangeable, so the two-fixed-queue
    covariance equals the all-pairs average, which the level counts c give
    directly: E[c*(c-1)]/(N*(N-1)) - (E[c]/N)**2. Estimating through the
    counts uses every pair at once, cutting the variance enough to resolve
    the order-1/N covariances the independence prediction is about.
    Vanishing covariance as N grows is that prediction; full-information
    selection (D = N) makes the covariance negative.
    """
    if not runs:
        raise ConfigError("no runs to pool")
    _check_one_config(runs)
    levels = {r.pair_level for r in runs}
    if len(levels) != 1 or None in levels:
        raise ConfigError(f"runs must all track one pair level, got levels {sorted(levels, key=str)}")
    covs = np.asarray([[cov for r in runs for cov in r.pair_batches]])
    (cov,), (ci,) = _batch_means(covs)
    return PairDependence(level=levels.pop(), cov=cov, ci=ci, n_batches=covs.shape[1])


def conservation_audit(run: NetworkRun) -> None:
    """Verify flow conservation and the incremental level counters.

    arrivals = departures + jobs still in system, and the level counters
    maintained incrementally must match counts rebuilt from queue lengths.
    Any mismatch is a simulator bug and raises AuditFailure.
    """
    in_system = sum(run.lengths_end)
    if run.arrivals != run.departures + in_system:
        raise AuditFailure(
            f"flow conservation violated: {run.arrivals} arrivals != "
            f"{run.departures} departures + {in_system} in system"
        )
    k_max = run.config.k_max
    rebuilt = [0] * (k_max + 1)
    for z in run.lengths_end:
        for j in range(1, min(z, k_max) + 1):
            rebuilt[j] += 1
    for j in range(1, k_max + 1):
        if rebuilt[j] != run.c_end[j]:
            raise AuditFailure(
                f"level counter mismatch at level {j}: incremental {run.c_end[j]} != rebuilt {rebuilt[j]}"
            )


def run_replication(config: NetworkConfig, replication: int, pair_level: int | None = None) -> NetworkRun:
    """Run one replication with the seed derived from (seed, replication)."""
    cfg = replace(config, seed=derive_stream(config.seed, 1, replication).randrange(2**63))
    return run_network(cfg, pair_level=pair_level)


def merge_estimates(runs: list) -> TailEstimate:
    """Average the estimates of replications of one config; intervals from replication spread."""
    if not runs:
        raise ConfigError("no replications to merge")
    _check_one_config(runs)
    if len(runs) == 1:
        return runs[0].tail
    p, ci = _batch_means(np.asarray(list(zip(*(r.tail.p[1:] for r in runs)))))
    return TailEstimate(p=[1.0, *p], ci=[0.0, *ci])
