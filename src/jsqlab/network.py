"""Discrete-event simulation of the N-queue join-shortest-of-D FIFO network.

Jobs arrive in one global Poisson stream of rate alpha*N; each arrival
samples D distinct queues uniformly (partial Fisher-Yates over a persistent
index array), joins a shortest one among them with uniform tie split, and is
served FIFO at rate 1. Tail jobs carry nothing; a service time is drawn when
a job reaches the head, so the event calendar needs no cancellations: a
completion is scheduled only when a queue turns busy or a successor starts
service. Calendar ties are broken by a monotone sequence counter, making the
event sequence a deterministic function of (config, seed).

Per-level occupancy c[j] = #{queues with length >= j} changes at exactly one
level per event, so time averages are accumulated in O(1) per event: within
each batch, integral = c0*(t1-t0) + net*t1 - sum_of_signed_change_times.
Estimates are batch means over the post-warmup window with Student-t
intervals.

A single run is strictly single-threaded; replications with distinct derived
seeds can run on any pool and merge by averaging replication estimates.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import asdict, dataclass, field, replace
from heapq import heappop, heappush

import numpy as np
from scipy import stats as _sps

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
    jobs_mean: float
    jobs_ci: float
    runtime_s: float
    pair_level: int | None = None
    pair_batches: list = field(default_factory=list)  # (covariance, level-k occupancy) per batch


@dataclass
class PairDependence:
    """Time-averaged covariance of two fixed queues' level indicators."""

    level: int
    cov: float
    ci: float
    mean_x: float
    mean_y: float
    n_batches: int


@dataclass
class AuditReport:
    arrivals: int
    departures: int
    in_system: int
    levels_checked: int


def _t_half(values: np.ndarray, confidence: float = 0.95) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    s = float(np.std(values, ddof=1))
    return float(_sps.t.ppf(0.5 + confidence / 2.0, n - 1)) * s / math.sqrt(n)


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
    horizon = cfg.horizon
    nb = cfg.n_batches
    rng = derive_stream(cfg.seed, 0)
    draw = make_sampler(cfg.service)
    rnd = rng.random
    expovariate = rng.expovariate
    pair_at = pair_level or 0  # level 0 never changes, so 0 disables the tracker

    t_w = cfg.warmup_fraction * horizon
    batch_dur = (horizon - t_w) / nb
    boundaries = [t_w + j * batch_dur for j in range(nb + 1)]
    boundaries[-1] = horizon

    lengths = [0] * N
    heap: list = []
    seq = 0

    # per-level trackers (index 1..k_max); snapshots are taken at batch opens
    c_cur = [0] * (k_max + 1)
    c0 = [0] * (k_max + 1)
    net = [0] * (k_max + 1)
    sum_t = [0.0] * (k_max + 1)
    level_batches = [[] for _ in range(k_max + 1)]  # per level: batch time-integrals

    jobs = 0
    jobs0 = 0
    jobs_net = 0
    jobs_sum_t = 0.0
    jobs_batches: list = []

    # pair-product tracker: f = c*(c-1) at the pair level, where c is the
    # level count; by exchangeability E[f]/(N*(N-1)) equals the indicator
    # product E[X_i * X_j] for any two fixed queues i != j
    cc0 = 0
    cc_net = 0
    cc_sum_t = 0.0
    pair_batches: list = []

    arrivals = 0
    departures = 0
    active = False
    b_idx = 0  # next boundary to cross
    rate_in = alpha * N
    next_arrival = expovariate(rate_in) if rate_in > 0.0 else math.inf

    wall0 = _time.perf_counter()

    def open_batch():
        # change trackers are already zero here: close_batch resets them,
        # and before the first open nothing was recorded (active=False)
        nonlocal jobs0, cc0
        for j in range(1, k_max + 1):
            c0[j] = c_cur[j]
            net[j] = 0
            sum_t[j] = 0.0
        jobs0 = jobs
        if pair_at:
            c = c_cur[pair_at]
            cc0 = c * (c - 1)

    def close_batch(t0: float, t1: float):
        nonlocal jobs_net, jobs_sum_t, cc_net, cc_sum_t
        dur = t1 - t0
        for j in range(1, k_max + 1):
            level_batches[j].append(c0[j] * dur + net[j] * t1 - sum_t[j])
        jobs_batches.append(jobs0 * dur + jobs_net * t1 - jobs_sum_t)
        jobs_net = 0
        jobs_sum_t = 0.0
        if pair_at:
            ic = c0[pair_at] * dur + net[pair_at] * t1 - sum_t[pair_at]
            icc = cc0 * dur + cc_net * t1 - cc_sum_t
            pair_batches.append((ic, icc))
            cc_net = 0
            cc_sum_t = 0.0

    while True:
        if heap and heap[0][0] <= next_arrival:
            t, _, qi = heap[0]
            is_arrival = False
        else:
            t = next_arrival
            qi = -1
            is_arrival = True
        if t >= horizon:
            break
        # cross any batch boundaries before applying the event at t; t is
        # below the last boundary (the horizon), so b_idx stays <= nb
        while b_idx <= nb and t >= boundaries[b_idx]:
            if b_idx == 0:
                active = True
                open_batch()
            else:
                close_batch(boundaries[b_idx - 1], boundaries[b_idx])
                open_batch()
            b_idx += 1

        if is_arrival:
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
            jobs += 1
            if active:
                jobs_net += 1
                jobs_sum_t += t
            lvl = z + 1
            if lvl <= k_max:
                c_cur[lvl] += 1
                if active:
                    net[lvl] += 1
                    sum_t[lvl] += t
                    if lvl == pair_at:
                        df = 2 * (c_cur[lvl] - 1)  # c(c-1) jump when c gains one
                        cc_net += df
                        cc_sum_t += df * t
            if z == 0:
                seq += 1
                heappush(heap, (t + draw(rng), seq, chosen))
        else:
            heappop(heap)
            departures += 1
            z = lengths[qi]
            lengths[qi] = z - 1
            jobs -= 1
            if active:
                jobs_net -= 1
                jobs_sum_t -= t
            if z <= k_max:
                c_cur[z] -= 1
                if active:
                    net[z] -= 1
                    sum_t[z] -= t
                    if z == pair_at:
                        df = -2 * c_cur[z]  # c(c-1) jump when c drops one
                        cc_net += df
                        cc_sum_t += df * t
            if z > 1:
                seq += 1
                heappush(heap, (t + draw(rng), seq, qi))

    # no events remain before the horizon: cross the remaining boundaries
    while b_idx <= nb:
        if b_idx == 0:
            active = True
            open_batch()
        else:
            close_batch(boundaries[b_idx - 1], boundaries[b_idx])
            open_batch()
        b_idx += 1

    return {
        "level_batches": level_batches,
        "jobs_batches": jobs_batches,
        "pair_batches": pair_batches,
        "batch_dur": batch_dur,
        "arrivals": arrivals,
        "departures": departures,
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
    p = [1.0]
    ci = [0.0]
    for j in range(1, config.k_max + 1):
        vals = np.asarray(raw["level_batches"][j]) / (dur * N)
        p.append(float(np.mean(vals)))
        ci.append(_t_half(vals))
    p, clipped = enforce_monotone(p)
    jobs_vals = np.asarray(raw["jobs_batches"]) / (dur * N)
    tail = TailEstimate(
        p=p,
        ci=ci,
        measurement_time=dur * config.n_batches,
        method="batch-means",
        clipped=clipped,
        max_level=max((j for j in range(1, config.k_max + 1) if raw["c_cur"][j] or p[j] > 0), default=0),
        meta={"n_batches": config.n_batches},
    )
    # per batch: (indicator covariance, level-k occupancy) from the
    # all-pairs identity E[c*(c-1)]/(N*(N-1)) - (E[c]/N)**2
    pair_batches = []
    for ic, icc in raw["pair_batches"]:
        mean_c = ic / dur / N
        mean_cc = icc / dur / (N * (N - 1))
        pair_batches.append((mean_cc - mean_c * mean_c, mean_c))
    return NetworkRun(
        config=config,
        tail=tail,
        arrivals=raw["arrivals"],
        departures=raw["departures"],
        lengths_end=raw["lengths"],
        c_end=raw["c_cur"],
        jobs_mean=float(np.mean(jobs_vals)),
        jobs_ci=_t_half(jobs_vals),
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
    covs = np.asarray([cov for r in runs for cov, _ in r.pair_batches])
    m = float(np.mean([mean_c for r in runs for _, mean_c in r.pair_batches]))
    return PairDependence(
        level=levels.pop(),
        cov=float(np.mean(covs)),
        ci=_t_half(covs),
        mean_x=m,
        mean_y=m,
        n_batches=len(covs),
    )


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
        levels_checked=k_max,
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
    k_max = runs[0].config.k_max
    p = [1.0]
    ci = [0.0]
    for j in range(1, k_max + 1):
        vals = np.asarray([r.tail.p[j] for r in runs])
        p.append(float(np.mean(vals)))
        ci.append(_t_half(vals))
    p, clipped = enforce_monotone(p)
    return TailEstimate(
        p=p,
        ci=ci,
        measurement_time=sum(r.tail.measurement_time for r in runs),
        method="batch-means",
        clipped=clipped,
        max_level=max(r.tail.max_level or 0 for r in runs),
        meta={"replications": len(runs)},
    )
