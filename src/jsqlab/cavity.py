"""Single-queue cavity process driven by a tail-vector environment.

A potential-arrival stream of rate D*alpha is thinned analytically: while the
queue holds exactly z jobs, admitted arrivals form a Poisson process whose
rate alpha_z depends only on the environment's queue-length marginal. This
reduction is exact: an admission decision compares the queue's length with
the lengths of D-1 independent comparison states, so the residual-service
coordinates of the comparison states never enter the dynamics. The sampling
protocol itself (draw D-1 comparison lengths, admit on a minimum with
reciprocal tie split) is retained in the tests as the oracle for alpha_z.

Tail probabilities are estimated over regeneration cycles (excursions from
the empty state back to empty): the ratio of summed occupation time above a
level to summed cycle length. Its delta-method confidence intervals take
each kernel lane as one unit, a regenerative batch of the cycles that lane
ran back to back, and use per-lane second moments. The fixed-point iteration
feeds the estimated tail back in as the next environment; its fixed point is
the equilibrium environment for the infinite-system limit.

Within one iteration, cycles are split over a fixed number of shards with
independent derived streams, and stats merge by summation in shard order.
Iterations are strictly sequential. A shard runs its cycles as numpy lanes,
LANES at a time in lockstep, with one PCG64 stream seeded from the shard's
stream. Consecutive shards run in groups, up to GROUP_SHARDS per kernel
call, so that one numpy step advances the lanes of every shard in the
group; each shard still draws from its own stream and keeps its own lanes.
Results depend on the lane count as they do on the shard count, never on
the grouping, the pool or the worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int
from .seeding import check_seed, derive_stream
from .service_dist import BlockDraws, ServiceDistributionSpec, make_sampler
from .tails import Z95, TailEstimate, TailVector

DEFAULT_SHARDS = 16
LANES = 1024  # excursions in flight per kernel call


def _check_alpha_d(alpha: float, D: int):
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    check_int("D", D, 1)


def effective_arrival_rate(env: TailVector, k: int, alpha: float, D: int) -> float:
    """Admitted arrival rate alpha_k while the queue holds exactly k jobs.

    With q = p[k] and r = p[k+1], the D*alpha potential stream is thinned by
    the admission probability E[1{all D-1 comparisons >= k} / (1 + #ties)],
    and summing the binomial tie cases telescopes to

        alpha_k = alpha * (q**D - r**D) / (q - r)        (q > r)
                = alpha * D * q**(D-1)                   (q = r).

    The value always lies in the bracket [alpha*q**(D-1), alpha*D*q**(D-1)].
    """
    _check_alpha_d(alpha, D)
    if not isinstance(env, TailVector):
        raise ConfigError(f"env must be a TailVector, got {type(env).__name__}")
    check_int("k", k, 0)
    return _admitted(env.value(k), env.value(k + 1), alpha, D)


def _admitted(q: float, r: float, alpha: float, D: int) -> float:
    if q <= 0.0:
        return 0.0 if D > 1 else alpha
    if q > r:
        # ratio first: alpha times a subnormal difference would underflow
        return alpha * ((q**D - r**D) / (q - r))
    return alpha * (D * q ** (D - 1))


@dataclass
class CycleStats:
    """Regenerative-cycle accumulators; shards merge by elementwise addition.

    The per-level sums v, v2 and vt are float arrays indexed by level 0..k_max,
    taken over units: each unit is a lane's run of consecutive cycles, and
    level 0 holds its whole time, so v[0] is the total time and v2[0] the sum
    of squared unit times. The other fields count single cycles.
    """

    k_max: int
    n_cycles: int = 0
    total_time: float = 0.0
    t2: float = 0.0  # sum of squared cycle lengths
    nu_max: float = 0.0  # longest observed cycle
    max_level: int = 0  # deepest level visited in any cycle
    n_aborted: int = 0  # always 0, since every cycle runs to its end; bench/spans.py reads it
    n_units: int = 0  # lanes whose cycles v, v2 and vt sum, each lane one unit
    v: np.ndarray = None  # summed occupation time with >= k jobs
    v2: np.ndarray = None  # sum of squared per-unit occupations
    vt: np.ndarray = None  # sum of per-unit occupation * unit time

    def __post_init__(self):
        if self.v is None:
            self.v, self.v2, self.vt = np.zeros((3, self.k_max + 1))

    def merge(self, other: "CycleStats") -> "CycleStats":
        if other.k_max != self.k_max:
            raise ConfigError("cannot merge cycle stats with different k_max")
        self.n_cycles += other.n_cycles
        self.total_time += other.total_time
        self.t2 += other.t2
        self.nu_max = max(self.nu_max, other.nu_max)
        self.max_level = max(self.max_level, other.max_level)
        self.n_units += other.n_units
        self.v += other.v
        self.v2 += other.v2
        self.vt += other.vt
        return self


class ShardStats(list):
    """The CycleStats of a group of shards, in shard order; a list that also takes attributes."""


def simulate_cycles(
    env: TailVector,
    service_spec: ServiceDistributionSpec,
    alpha: float,
    D: int,
    n_cycles,
    rng,
) -> CycleStats | ShardStats:
    """Simulate n_cycles excursions from empty back to empty.

    One cycle is the idle wait for the first admitted arrival plus the busy
    period it starts. Service is FIFO at rate 1 with fresh draws from the
    service law; only the job in service carries a residual. Every cycle in
    the returned stats ran to its end.

    n_cycles and rng may instead be equal-length lists, one count and one
    stream per shard of a group. The shards then run in one lockstep loop,
    each from its own stream, and the call returns their ShardStats: each
    shard's CycleStats exactly as a call with that shard alone returns it.
    """
    _check_alpha_d(alpha, D)
    if not isinstance(n_cycles, (list, tuple)):
        check_int("n_cycles", n_cycles, 1)
        return _excursions(env, service_spec, alpha, D, [n_cycles], [rng])[0]
    if not n_cycles or len(n_cycles) != len(rng):
        raise ConfigError(f"a group needs one stream per shard, got {len(n_cycles)} counts, {len(rng)} streams")
    for n in n_cycles:
        check_int("n_cycles", n, 1)
    return ShardStats(_excursions(env, service_spec, alpha, D, n_cycles, rng))


@functools.lru_cache(maxsize=4)
def _mean_gaps(env: TailVector, alpha: float, D: int) -> np.ndarray:
    """1 / alpha_z for z = 0..k_max + 1, the last for every level above k_max; inf where none is admitted.

    Built once per environment: the calls of one iteration share it, read-only.
    """
    q = (*env.p, 0.0, 0.0)  # env.value(z) for z = 0..k_max + 2
    with np.errstate(divide="ignore"):
        gaps = 1.0 / np.array([_admitted(q[z], q[z + 1], alpha, D) for z in range(len(q) - 1)])
    gaps.flags.writeable = False
    return gaps


def _excursions(env, service_spec, alpha, D, ns, rngs, start=0, s=0.0) -> list:
    """The excursion kernel behind simulate_cycles and measure_return_time: one CycleStats per shard.

    start = 0 runs regeneration cycles: the idle wait, then the busy period
    its arrival starts. start = k >= 1 runs drains from level k whose job in
    service has residual s (a fresh draw when s = 0); their time counts from
    0 and their occupations accumulate like a cycle's.

    Shard i runs exactly ns[i] excursions, up to LANES at a time, from its
    own pool: a lane whose excursion ends takes the shard's next one while
    any is left, and every excursion started runs to its end, so the long
    ones are never cut off. The lanes of every shard run in lockstep in one
    set of arrays, one event per lane per numpy step, grouped by shard in
    shard order through every compaction. Shard i draws everything from one
    PCG64 stream seeded from rngs[i] (its derived stream), so its CycleStats
    do not depend on the group; they depend on LANES as on the shard count.

    No time cap guards the loop, and none is needed. For D >= 2 the admitted
    rate is 0 above k_max, so the queue never passes k_max + 1: a long
    service adds at most k_max + 1 arrivals, and an excursion's time is
    heavy-tailed while its event count is not. For D = 1, alpha < 1 makes
    every excursion end.

    Each lane is one unit of the estimator. Its column of occ adds up its
    time per level over every excursion it runs, idle waits in row 0, with
    every level above k_max in one shared row; the rows reach only as deep
    as any lane has gone. At the end, each shard's columns reduce once to
    per-level sums over its lanes of the time at or above the level, its
    square and its product with the lane's whole time (row 0). The deepest
    level is kept per lane as it climbs, every step; the longest excursion
    and the sum of squared lengths as its excursions end.
    """
    top = env.k_max + 1  # the shared row of every level above k_max
    mean_gap = _mean_gaps(env, alpha, D)
    draw = make_sampler(service_spec)
    lanes = BlockDraws([np.random.Generator(np.random.PCG64(r.getrandbits(64))) for r in rngs],
                       [min(n, LANES) for n in ns])
    cols = np.cumsum([0, *lanes.sizes]).tolist()  # shard i's columns of occ, its units, are cols[i]..cols[i + 1] - 1
    left = np.array(ns) - lanes.sizes  # excursions not yet started, per shard
    width = cols[-1]  # occ's columns
    z0 = start or 1  # level at which each excursion starts
    slot = np.arange(width)  # each lane in flight's column in occ, in column order through every compaction
    z = np.full(width, z0)
    occ = np.zeros((min(z0 + 16, top) + 1, width))  # occ[level, slot]: the lane's time at level
    t = np.zeros(width) if start else lanes.draw("standard_exponential") * mean_gap[0]
    occ[0] = t
    s_rem = np.full(width, s) if s else draw(lanes)
    flat = occ.reshape(-1)  # occ[level, slot] is flat[level * width + slot]
    longest, t2 = np.zeros(width), np.zeros(width)  # per slot, over its ended excursions
    deepest = z.copy()  # per slot, over its excursions

    with np.errstate(invalid="ignore"):  # gap 0 * inf is nan: no arrival, the lane departs
        while z.size:
            level = np.minimum(z, top)
            gap = lanes.draw("standard_exponential") * mean_gap[level]
            arrive = gap < s_rem
            dt = np.fmin(gap, s_rem)  # the earlier event; fmin passes over a nan gap (no arrival)
            flat[level * width + slot] += dt
            t += dt
            z += np.where(arrive, 1, -1)
            s_rem = np.where(arrive, s_rem - dt, draw(lanes))  # after a departure, the next job's service
            deepest[slot] = np.maximum(deepest[slot], z)
            if len(occ) <= top and z.max() >= len(occ):
                grown = np.zeros((min(2 * len(occ), top + 1), width))
                grown[: len(occ)] = occ
                occ, flat = grown, grown.reshape(-1)
            ended = (z == 0).nonzero()[0]
            if not ended.size:
                continue
            col, td = slot[ended], t[ended]
            at = np.searchsorted(col, cols)  # shard i's ended lanes are ended[at[i]:at[i + 1]]
            count = np.diff(at)
            restarts = np.minimum(count, left)  # a shard's first ended lanes take its next excursions
            left -= restarts
            again = np.arange(ended.size) < np.repeat(at[:-1] + restarts, count)
            longest[col] = np.maximum(longest[col], td)
            t2[col] += td * td
            restarted = ended[again]
            if restarted.size:
                z[restarted] = z0
                t[restarted] = wait = 0.0 if start else lanes.draw("standard_exponential", restarts) * mean_gap[0]
                occ[0, slot[restarted]] += wait
                if s:
                    s_rem[restarted] = s
            if restarted.size < ended.size:  # the other lanes of a shard whose pool is empty stop
                keep = np.ones(z.size, dtype=bool)
                keep[ended[~again]] = False
                z, t, s_rem, slot = z[keep], t[keep], s_rem[keep], slot[keep]
                lanes.sizes = (lanes.sizes - count + restarts).tolist()
    for j in range(len(occ) - 2, -1, -1):  # row j becomes each lane's time at >= j, row 0 all of its time
        occ[j] += occ[j + 1]
    rows = min(len(occ), top)  # the shared row counts only at the levels below it
    stats = []
    for n, a, e in zip(ns, cols, cols[1:]):
        above = occ[:rows, a:e]
        st = CycleStats(k_max=env.k_max, n_cycles=n, n_units=e - a, t2=float(t2[a:e].sum()),
                        nu_max=float(longest[a:e].max()), max_level=int(deepest[a:e].max()))
        st.v[:rows] = above.sum(axis=1)
        st.v2[:rows] = np.einsum("ij,ij->i", above, above)
        st.vt[:rows] = np.einsum("ij,j->i", above, above[0])
        st.total_time = float(st.v[0])
        stats.append(st)
    return stats


GROUP_SHARDS = 4  # most shards per kernel call; 8 ran faster still but took 11% more peak memory


def simulate_cycles_sharded(
    env: TailVector,
    service_spec: ServiceDistributionSpec,
    alpha: float,
    D: int,
    n_cycles: int,
    base_seed: int,
    *,
    shards: int = DEFAULT_SHARDS,
    seed_key: tuple = (),
    map_fn=map,
    workers: int = 1,
) -> CycleStats:
    """Split n_cycles as evenly as possible over a fixed shard count and merge by summation.

    The shard count, not the worker count, determines the random streams.
    Consecutive shards run in groups of near-equal size, one simulate_cycles
    call each: max(ceil(shards / GROUP_SHARDS), min(workers, shards)) of
    them, so that each of up to `workers` processes behind map_fn gets one.
    A shard's stats are the same in any group and merge in shard order, so
    any map_fn (serial map, pool.map, ...) and any workers produce
    identical results.
    """
    check_int("n_cycles", n_cycles, 1)
    shards = min(check_int("shards", shards, 1), n_cycles)  # so every shard runs at least one cycle
    groups = max(-(-shards // GROUP_SHARDS), min(check_int("workers", workers, 1), shards))
    counts = [n_cycles // shards + (i < n_cycles % shards) for i in range(shards)]
    streams = [derive_stream(base_seed, *seed_key, i) for i in range(shards)]
    cuts = [shards * j // groups for j in range(groups + 1)]
    jobs = [(env, service_spec, alpha, D, counts[a:b], streams[a:b]) for a, b in zip(cuts, cuts[1:])]
    merged = CycleStats(k_max=env.k_max)
    for group in map_fn(_run_group, jobs):
        for shard_stats in group:
            merged.merge(shard_stats)
    return merged


def _run_group(job) -> ShardStats:
    return simulate_cycles(*job)  # a job is simulate_cycles' arguments, in order


def tail_from_cycles(stats: CycleStats) -> TailEstimate:
    """Ratio estimator p[k] = sum V_k / sum nu with delta-method 95% intervals over units.

    The units are the kernel's lanes, each the sum of the cycles it ran
    (regenerative batching), so the interval divides by n_units, not by the
    cycle count. For a level never visited, the interval is [0, upper] with
    the rule-of-three visit bound scaled by the worst-case cycle
    contribution: p[k] <= 3 * nu_max / sum nu. The tail needs no clipping: a
    unit's time at >= k is a reverse cumulative sum of nonnegative times,
    and every rounded sum over units and the division by one total keep that
    order, so p is nonincreasing as computed. Every cycle in stats ran to its
    end: see _excursions for why each one ends.
    """
    if stats.n_units < 2:  # a unit holds at least one completed cycle
        raise ConfigError(f"need completed cycles from at least 2 lanes, got {stats.n_units}")
    n = stats.n_units
    mean_nu = stats.total_time / n
    three_bound = 3.0 * stats.nu_max / stats.total_time
    v = stats.v[1:]
    r = v / stats.total_time
    # Var of the per-unit residual V - r*nu, from the accumulated moments
    ss = stats.v2[1:] - 2.0 * r * stats.vt[1:] + r * r * stats.v2[0]
    half = Z95 * np.sqrt(np.maximum(ss, 0.0) / (n - 1) / n) / mean_nu
    ci = np.where(v == 0.0, min(1.0, three_bound), half)
    return TailEstimate(p=[1.0, *np.minimum(r, 1.0)], ci=[0.0, *ci])


@dataclass(frozen=True)
class FixedPointControls:
    """Knobs for the fixed-point iteration."""

    k_max: int = 64
    cycles_per_iter: int = 100_000
    damping: float = 1.0  # 1 = undamped; lower for heavy tails near the regime boundary
    tol: float = 0.05
    max_iter: int = 25
    seed: int = 0
    # Levels with relative CI above this are not monitored for convergence.
    # Must sit at or below tol: a monitored level's iteration-to-iteration
    # log fluctuation is about sqrt(2)/1.96 of its relative CI, so a looser
    # threshold would put the noise floor above tol and stall convergence.
    noise_rel: float = 0.05
    shards: int = DEFAULT_SHARDS

    def __post_init__(self):
        check_int("k_max", self.k_max, 1)
        check_int("cycles_per_iter", self.cycles_per_iter, 2)
        if not (0.0 < self.damping <= 1.0):
            raise ConfigError(f"damping must lie in (0, 1], got {self.damping}")
        check_int("max_iter", self.max_iter, 0)
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if not (math.isfinite(self.noise_rel) and self.noise_rel >= 0.0):
            raise ConfigError(f"noise_rel must be finite and >= 0, got {self.noise_rel}")
        check_int("shards", self.shards, 1)
        check_seed(self.seed)


@dataclass
class FixedPointReport:
    """Outcome of the fixed-point iteration; never raised on non-convergence."""

    env: TailVector
    estimate: TailEstimate | None
    distances: list  # one per iteration run
    converged: bool
    max_level: int = 0


def _damped_update(old: TailVector, new_p: list, lam: float) -> np.ndarray:
    """Linear damping: p <- (1 - lam) * p_old + lam * p_new, exactly p_new at lam = 1.

    A level the fresh estimate missed keeps (1 - lam) of its old value rather
    than dropping to 0. Blending two monotone tails gives a monotone tail.
    From above, the blend closes a fixed fraction of the gap per iteration,
    not of the log gap, so it reaches a deep level's fixed point more slowly
    than a log-space blend would.
    """
    p = (1.0 - lam) * np.array(old.p) + lam * np.array(new_p)
    p[0] = 1.0
    return p


def fixed_point(
    service_spec: ServiceDistributionSpec,
    alpha: float,
    D: int,
    controls: FixedPointControls = FixedPointControls(),
    *,
    map_fn=map,
    workers: int = 1,
) -> FixedPointReport:
    """Iterate environment -> simulated tail until the map is statistically fixed.

    Starts from the geometric environment alpha**k. Convergence is declared
    when the sup over monitored levels of |log p_new - log p_old| drops below
    tol; a level is monitored when both iterates are positive and the fresh
    estimate's relative CI half-width is below noise_rel, so the criterion is
    not corrupted by deep levels at the noise floor. Non-convergence is
    reported in the result, not raised.
    """
    _check_alpha_d(alpha, D)
    if D < 2:
        raise ConfigError("the fixed point is defined for D >= 2 (D = 1 ignores the environment)")
    env = TailVector.geometric(alpha, controls.k_max)
    distances: list = []
    estimate = None
    max_level = 0
    for it in range(controls.max_iter):
        stats = simulate_cycles_sharded(
            env,
            service_spec,
            alpha,
            D,
            controls.cycles_per_iter,
            controls.seed,
            shards=controls.shards,
            seed_key=(it,),
            map_fn=map_fn,
            workers=workers,
        )
        estimate = tail_from_cycles(stats)
        max_level = max(max_level, stats.max_level)
        new_p = _damped_update(env, estimate.p, controls.damping)
        p, ci = estimate.p, estimate.ci
        monitored = [k for k in range(1, controls.k_max + 1)
                     if p[k] > 0.0 and env.p[k] > 0.0 and ci[k] <= controls.noise_rel * p[k]]
        # math.log, not np.log: the distances are written out and must not move by an ulp
        distances.append(max((abs(math.log(new_p[k]) - math.log(env.p[k])) for k in monitored), default=math.inf))
        env = TailVector(tuple(new_p))
        if distances[-1] < controls.tol:
            break
    return FixedPointReport(
        env=env,
        estimate=estimate,
        distances=distances,
        converged=bool(distances) and distances[-1] < controls.tol,
        max_level=max_level,
    )


def measure_return_time(
    env: TailVector,
    service_spec: ServiceDistributionSpec,
    alpha: float,
    D: int,
    k: int,
    s: float,
    n_reps: int,
    rng,
) -> tuple[float, float]:
    """Mean time (with CI half-width) to drain from level k with residual s.

    s = 0 means the residual of the job entering service is unknown and a
    fresh service time is drawn, matching the just-after-departure convention.
    Diagnostic companion to the linear return-time bound 2*(k + s + const).
    """
    _check_alpha_d(alpha, D)
    check_int("k", k, 1)
    if not 0.0 <= s < math.inf:
        raise ConfigError(f"residual s must be finite and >= 0, got {s}")
    check_int("n_reps", n_reps, 2)
    (stats,) = _excursions(env, service_spec, alpha, D, [n_reps], [rng], start=k, s=s)
    mean = stats.total_time / n_reps
    var = max(stats.t2 - n_reps * mean * mean, 0.0) / (n_reps - 1)
    half = Z95 * math.sqrt(var / n_reps)
    return mean, half
