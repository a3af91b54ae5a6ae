"""Discrete-event simulation of the N-queue join-shortest-of-D FIFO network.

Jobs arrive in one global Poisson stream of rate alpha*N; each arrival
samples D distinct queues uniformly (partial Fisher-Yates over a persistent
index array), joins a shortest one among them with uniform tie split, and is
served FIFO at rate 1. Tail jobs carry nothing; a service time is drawn when
a job reaches the head, so the event calendar needs no cancellations: a
completion is scheduled only when a queue turns busy or a successor starts
service. Calendar ties are broken by a monotone sequence counter, making the
event sequence a deterministic function of (config, seed).

The horizon is cut into windows: window 0 is the warm-up [0, t_w) and
windows 1..n_batches tile [t_w, horizon]. The event loop runs once per
window and stops at the first event at or past the window's end, which is
left for the next window. Per-level occupancy c[j] = #{queues with length
>= j} changes at exactly one level per event, so each window's time
integrals are accumulated in O(1) per event as
integral = c0*(t1-t0) + net*t1 - sum_of_signed_change_times. At a window's
end a batch keeps its integrals and the warm-up's are dropped. Estimates are
batch means with Student-t intervals.

A single run is strictly single-threaded; replications with distinct derived
seeds can run on any pool and merge by averaging replication estimates.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import asdict, dataclass, field, replace
from heapq import heappop, heappush

import numpy as np
from scipy.special import stdtrit

from .config import read_config
from .errors import AuditFailure, ConfigError
from .seeding import check_seed, derive_stream
from .service_dist import ServiceDistributionSpec, make_sampler
from .tails import TailEstimate, enforce_monotone


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
        if not isinstance(self.N, int) or self.N < 1:
            raise ConfigError(f"N must be a positive integer, got {self.N!r}")
        if not isinstance(self.D, int) or self.D < 1:
            raise ConfigError(f"D must be an integer >= 1, got {self.D!r}")
        if self.D > self.N:
            raise ConfigError(f"D={self.D} exceeds the number of queues N={self.N}")
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not self.horizon > 0.0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ConfigError(f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        if self.n_batches < 2:
            raise ConfigError(f"need at least 2 batches for intervals, got {self.n_batches}")
        if (1.0 - self.warmup_fraction) * self.horizon / self.n_batches <= 0.0:
            raise ConfigError("horizon too short for the requested batch count")
        check_seed(self.seed)

    def to_config(self) -> dict:
        return {**asdict(self), "service": self.service.to_config()}

    @classmethod
    def from_config(cls, doc: dict) -> "NetworkConfig":
        return read_config(doc, {}, cls)[0]


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
    beyond_k_max: int  # measured arrivals that took a queue past k_max
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


@dataclass
class AuditReport:
    arrivals: int
    departures: int
    in_system: int


def _t_half(values: np.ndarray) -> float:
    """Student-t 95% half-width of the mean of ``values``."""
    n = len(values)
    if n < 2:
        return 0.0
    s = float(np.std(values, ddof=1))
    return float(stdtrit(n - 1, 0.975)) * s / math.sqrt(n)


def _level_means(samples) -> tuple[list, list, bool]:
    """Level 0 (1 ± 0), then one level per sample row: mean and t half-width; p clipped monotone."""
    p = [1.0]
    ci = [0.0]
    for vals in samples:
        vals = np.asarray(vals)
        p.append(float(np.mean(vals)))
        ci.append(_t_half(vals))
    p, clipped = enforce_monotone(p)
    return p, ci, clipped


def check_pair_level(config: NetworkConfig, k) -> None:
    """Reject a pair level the tracker cannot measure, before any simulation."""
    if config.N < 2:
        raise ConfigError("pair dependence needs at least two queues")
    if not isinstance(k, int) or not (1 <= k <= config.k_max):
        raise ConfigError(f"pair level must be an integer in [1, k_max={config.k_max}], got {k!r}")


def _simulate(cfg: NetworkConfig, pair_level: int | None, perm: list) -> dict:
    """One simulation pass; collects per-batch occupancy integrals.

    ``perm`` is the initial content of the persistent Fisher-Yates array;
    sampling swaps positions only, so its content never changes the path.
    """
    N, D, alpha, k_max = cfg.N, cfg.D, cfg.alpha, cfg.k_max
    nb = cfg.n_batches
    rng = derive_stream(cfg.seed, 0)
    draw = make_sampler(cfg.service)
    rnd = rng.random
    expovariate = rng.expovariate
    pair_at = pair_level or 0  # level 0 never changes, so 0 disables the tracker

    # window b ends at ends[b]: window 0 is the warm-up, 1..nb the batches
    t_w = cfg.warmup_fraction * cfg.horizon
    batch_dur = (cfg.horizon - t_w) / nb
    ends = [t_w + j * batch_dur for j in range(nb + 1)]
    ends[-1] = cfg.horizon

    lengths = [0] * N
    heap: list = []
    seq = 0

    c_cur = [0] * (k_max + 1)  # level counts, index 1..k_max
    level_batches = [[] for _ in range(k_max + 1)]  # per level: batch time-integrals
    pair_batches: list = []

    arrivals = 0
    departures = 0
    beyond = 0  # arrivals that took a queue past k_max
    rate_in = alpha * N
    next_arrival = expovariate(rate_in) if rate_in > 0.0 else math.inf

    wall0 = _time.perf_counter()

    for b, t1 in enumerate(ends):
        # open the window: change trackers start from the current counts
        c0 = c_cur[:]
        net = [0] * (k_max + 1)
        sum_t = [0.0] * (k_max + 1)
        # pair-product tracker: f = c*(c-1) at the pair level, where c is the
        # level count; by exchangeability E[f]/(N*(N-1)) equals the indicator
        # product E[X_i * X_j] for any two fixed queues i != j
        cc0 = c_cur[pair_at] * (c_cur[pair_at] - 1)
        cc_net = 0
        cc_sum_t = 0.0
        while True:
            if heap and heap[0][0] <= next_arrival:
                t, _, qi = heap[0]
                if t >= t1:
                    break
                heappop(heap)
                departures += 1
                z = lengths[qi]
                lengths[qi] = z - 1
                if z <= k_max:
                    c_cur[z] -= 1
                    net[z] -= 1
                    sum_t[z] -= t
                    if z == pair_at:
                        df = -2 * c_cur[z]  # c(c-1) jump when c drops one
                        cc_net += df
                        cc_sum_t += df * t
                if z > 1:
                    seq += 1
                    heappush(heap, (t + draw(rng), seq, qi))
            else:
                t = next_arrival
                if t >= t1:
                    break
                arrivals += 1
                next_arrival = t + expovariate(rate_in)
                # sample D distinct queues: partial Fisher-Yates on the persistent array
                if D == 1:
                    chosen = perm[int(rnd() * N)]
                else:
                    for i in range(D):
                        j = i + int(rnd() * (N - i))
                        perm[i], perm[j] = perm[j], perm[i]
                    chosen = perm[0]
                    best = lengths[chosen]
                    ties = 1
                    for i in range(1, D):
                        q = perm[i]
                        L = lengths[q]
                        if L < best:
                            best = L
                            chosen = q
                            ties = 1
                        elif L == best:
                            ties += 1
                    if ties > 1:
                        pick = int(rnd() * ties)
                        for i in range(D):
                            q = perm[i]
                            if lengths[q] == best:
                                if pick == 0:
                                    chosen = q
                                    break
                                pick -= 1
                z = lengths[chosen]
                lengths[chosen] = z + 1
                lvl = z + 1
                if lvl <= k_max:
                    c_cur[lvl] += 1
                    net[lvl] += 1
                    sum_t[lvl] += t
                    if lvl == pair_at:
                        df = 2 * (c_cur[lvl] - 1)  # c(c-1) jump when c gains one
                        cc_net += df
                        cc_sum_t += df * t
                else:
                    beyond += 1
                if z == 0:
                    seq += 1
                    heappush(heap, (t + draw(rng), seq, chosen))

        # close the window: a batch keeps its integrals, the warm-up drops them
        if b:
            dur = t1 - ends[b - 1]
            for j in range(1, k_max + 1):
                level_batches[j].append(c0[j] * dur + net[j] * t1 - sum_t[j])
            if pair_at:
                pair_batches.append((level_batches[pair_at][-1], cc0 * dur + cc_net * t1 - cc_sum_t))
        else:
            beyond = 0

    return {
        "level_batches": level_batches,
        "pair_batches": pair_batches,
        "batch_dur": batch_dur,
        "arrivals": arrivals,
        "departures": departures,
        "beyond_k_max": beyond,
        "lengths": lengths,
        "c_cur": c_cur,
        "runtime_s": _time.perf_counter() - wall0,
    }


def run_network(config: NetworkConfig, *, relabel: list | None = None,
                pair_level: int | None = None) -> NetworkRun:
    """Simulate the network and return the batch-means tail estimate.

    ``relabel`` fills the sampling array with a fixed queue relabeling, so
    every sampled queue is mapped through it; an exchangeability
    diagnostic: summary statistics must be unchanged.
    ``pair_level`` also tracks the two-queue covariance at that level in the
    same pass (see ``pair_dependence``); it consumes no randomness.
    """
    if pair_level is not None:
        check_pair_level(config, pair_level)
    if relabel is not None and sorted(relabel) != list(range(config.N)):
        raise ConfigError("relabel must be a permutation of range(N)")
    perm = list(relabel) if relabel is not None else list(range(config.N))
    raw = _simulate(config, pair_level, perm)
    N = config.N
    dur = raw["batch_dur"]
    levels = np.asarray(raw["level_batches"][1:]) / (dur * N)  # row j-1: level j per batch
    p, ci, clipped = _level_means(levels)
    # sum over levels 1..k_max of the level occupancy is min(Z, k_max) per queue
    jobs_vals = levels.sum(axis=0)
    # per batch: the indicator covariance from the all-pairs identity
    # E[c*(c-1)]/(N*(N-1)) - (E[c]/N)**2
    pair_batches = []
    for ic, icc in raw["pair_batches"]:
        mean_c = ic / dur / N
        pair_batches.append(icc / dur / (N * (N - 1)) - mean_c * mean_c)
    return NetworkRun(
        config=config,
        tail=TailEstimate(p=p, ci=ci, clipped=clipped),
        arrivals=raw["arrivals"],
        departures=raw["departures"],
        lengths_end=raw["lengths"],
        c_end=raw["c_cur"],
        jobs_mean=float(np.mean(jobs_vals)),
        jobs_ci=_t_half(jobs_vals),
        beyond_k_max=raw["beyond_k_max"],
        runtime_s=raw["runtime_s"],
        pair_level=pair_level,
        pair_batches=pair_batches,
    )


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
    levels = {r.pair_level for r in runs}
    if len(levels) != 1 or None in levels:
        raise ConfigError(f"runs must all track one pair level, got levels {sorted(levels, key=str)}")
    covs = np.asarray([cov for r in runs for cov in r.pair_batches])
    return PairDependence(level=levels.pop(), cov=float(np.mean(covs)), ci=_t_half(covs), n_batches=len(covs))


def conservation_audit(run: NetworkRun) -> AuditReport:
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
    return AuditReport(
        arrivals=run.arrivals,
        departures=run.departures,
        in_system=in_system,
    )


def run_replication(config: NetworkConfig, replication: int, pair_level: int | None = None) -> NetworkRun:
    """Run one replication with the seed derived from (seed, replication)."""
    cfg = replace(config, seed=derive_stream(config.seed, 1, replication).randrange(2**63))
    return run_network(cfg, pair_level=pair_level)


def merge_estimates(runs: list) -> TailEstimate:
    """Average replication-level estimates; intervals from replication spread."""
    if not runs:
        raise ConfigError("no replications to merge")
    if len(runs) == 1:
        return runs[0].tail
    p, ci, clipped = _level_means(zip(*(r.tail.p[1:] for r in runs)))
    return TailEstimate(p=p, ci=ci, clipped=clipped)
