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
level to summed cycle length, with delta-method confidence intervals from
per-cycle second moments. The fixed-point iteration feeds the estimated tail
back in as the next environment; its fixed point is the equilibrium
environment for the infinite-system limit.

Within one iteration, cycles are split over a fixed number of shards with
independent derived streams; shards may run on any pool without changing
results, and stats merge by summation. Iterations are strictly sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, CycleRunawayError
from .seeding import check_seed, derive_stream
from .service_dist import ServiceDistributionSpec, make_sampler
from .tails import Z95, TailEstimate, TailVector, enforce_monotone

DEFAULT_TIME_CAP = 1e6
LOG_FLOOR = 1e-300
DEFAULT_SHARDS = 16


def _check_alpha_d(alpha: float, D: int):
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if not isinstance(D, int) or isinstance(D, bool) or D < 1:
        raise ConfigError(f"D must be an integer >= 1, got {D!r}")


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
    if k < 0:
        raise ConfigError(f"level k must be >= 0, got {k}")
    q = env.value(k)
    r = env.value(k + 1)
    if q <= 0.0:
        return 0.0 if D > 1 else alpha
    if q > r:
        # ratio first: alpha times a subnormal difference would underflow
        return alpha * ((q**D - r**D) / (q - r))
    return alpha * (D * q ** (D - 1))


@dataclass
class CycleStats:
    """Regenerative-cycle accumulators; shards merge by elementwise addition."""

    k_max: int
    n_cycles: int = 0
    total_time: float = 0.0
    t2: float = 0.0  # sum of squared cycle lengths
    nu_max: float = 0.0  # longest observed cycle
    max_level: int = 0  # deepest level visited in any cycle
    n_aborted: int = 0  # cycles that hit the time cap (estimates invalid if > 0)
    v: list = None  # summed occupation time with >= k jobs
    v2: list = None  # sum of squared per-cycle occupations
    vt: list = None  # sum of occupation * cycle length

    def __post_init__(self):
        if self.v is None:
            self.v = [0.0] * (self.k_max + 1)
            self.v2 = [0.0] * (self.k_max + 1)
            self.vt = [0.0] * (self.k_max + 1)

    def merge(self, other: "CycleStats") -> "CycleStats":
        if other.k_max != self.k_max:
            raise ConfigError("cannot merge cycle stats with different k_max")
        self.n_cycles += other.n_cycles
        self.total_time += other.total_time
        self.t2 += other.t2
        self.nu_max = max(self.nu_max, other.nu_max)
        self.max_level = max(self.max_level, other.max_level)
        self.n_aborted += other.n_aborted
        self.v = [a + b for a, b in zip(self.v, other.v)]
        self.v2 = [a + b for a, b in zip(self.v2, other.v2)]
        self.vt = [a + b for a, b in zip(self.vt, other.vt)]
        return self


def simulate_cycles(
    env: TailVector,
    service_spec: ServiceDistributionSpec,
    alpha: float,
    D: int,
    n_cycles: int,
    rng,
    time_cap: float = DEFAULT_TIME_CAP,
) -> CycleStats:
    """Simulate n_cycles excursions from empty back to empty.

    One cycle is the idle wait for the first admitted arrival plus the busy
    period it starts. Service is FIFO at rate 1 with fresh draws from the
    service law; only the job in service carries a residual. A cycle that
    exceeds time_cap is aborted and counted in n_aborted.
    """
    _check_alpha_d(alpha, D)
    if n_cycles < 1:
        raise ConfigError(f"n_cycles must be >= 1, got {n_cycles}")
    return _excursions(env, service_spec, alpha, D, n_cycles, rng, time_cap)


def _excursions(env, service_spec, alpha, D, n, rng, time_cap, start=0, s=0.0) -> CycleStats:
    """The excursion kernel behind simulate_cycles and measure_return_time.

    start = 0 runs regeneration cycles: the idle wait, then the busy period
    its arrival starts. start = k >= 1 runs drains from level k whose job in
    service has residual s (a fresh draw when s = 0); their time counts from
    0 and their occupations accumulate like a cycle's.
    """
    k_max = env.k_max
    rates = [effective_arrival_rate(env, z, alpha, D) for z in range(k_max + 2)]
    rate_beyond = rates.pop()  # every level above k_max: alpha at D = 1, else 0
    draw = make_sampler(service_spec)
    expovariate = rng.expovariate

    stats = CycleStats(k_max=k_max)
    n_levels = k_max + 1
    v = stats.v
    v2 = stats.v2
    vt = stats.vt
    v_at = [0.0] * max(256, start + 1)  # time at exactly level z within the current cycle
    inf = math.inf
    z0 = start or 1  # level at which each excursion starts

    for _ in range(n):
        t = 0.0 if start else expovariate(rates[0])  # idle wait; rates[0] > 0 since p[0] = 1
        z = max_z = z0
        s_rem = s or draw(rng)
        aborted = False
        while z:
            rate = rates[z] if z <= k_max else rate_beyond
            t_arr = expovariate(rate) if rate > 0.0 else inf
            if t_arr < s_rem:
                if z >= len(v_at):
                    v_at.extend([0.0] * len(v_at))
                v_at[z] += t_arr
                t += t_arr
                s_rem -= t_arr
                z += 1
                if z > max_z:
                    max_z = z
            else:
                v_at[z] += s_rem
                t += s_rem
                z -= 1
                if z:
                    s_rem = draw(rng)
            if t > time_cap:
                aborted = True
                break
        if aborted:
            stats.n_aborted += 1
            for zz in range(1, min(max_z, len(v_at) - 1) + 1):
                v_at[zz] = 0.0
            continue
        stats.n_cycles += 1
        stats.total_time += t
        stats.t2 += t * t
        if t > stats.nu_max:
            stats.nu_max = t
        if max_z > stats.max_level:
            stats.max_level = max_z
        running = 0.0
        for zz in range(max_z, 0, -1):
            running += v_at[zz]
            v_at[zz] = 0.0
            if zz < n_levels:
                v[zz] += running
                v2[zz] += running * running
                vt[zz] += running * t
    return stats


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
    time_cap: float = DEFAULT_TIME_CAP,
    map_fn=map,
) -> CycleStats:
    """Split n_cycles over a fixed shard count and merge by summation.

    The shard count, not the worker count, determines the random streams, so
    any map_fn (serial map, pool.map, ...) produces identical results.
    """
    if n_cycles < 1:
        raise ConfigError(f"n_cycles must be >= 1, got {n_cycles}")
    shards = max(1, min(shards, n_cycles))
    per = [n_cycles // shards] * shards
    for i in range(n_cycles % shards):
        per[i] += 1
    jobs = [
        (env, service_spec, alpha, D, per[i], derive_stream(base_seed, *seed_key, i), time_cap)
        for i in range(shards)
        if per[i] > 0
    ]
    merged = CycleStats(k_max=env.k_max)
    for shard_stats in map_fn(_run_shard, jobs):
        merged.merge(shard_stats)
    return merged


def _run_shard(job) -> CycleStats:
    env, spec, alpha, D, n, rng, cap = job
    return simulate_cycles(env, spec, alpha, D, n, rng, time_cap=cap)


def tail_from_cycles(stats: CycleStats) -> TailEstimate:
    """Ratio estimator p[k] = sum V_k / sum nu with delta-method 95% intervals.

    For a level never visited, the interval is [0, upper] with the
    rule-of-three visit bound scaled by the worst-case cycle contribution:
    p[k] <= (3/n) * nu_max / mean(nu). Monotonicity is enforced by isotonic
    clipping and flagged, though the raw ratios are already monotone because
    per-cycle occupations are.
    """
    if stats.n_aborted:
        raise CycleRunawayError(
            f"{stats.n_aborted} cycle(s) exceeded the time cap; estimates would be biased"
        )
    if stats.n_cycles < 2:
        raise ConfigError(f"need at least 2 completed cycles, got {stats.n_cycles}")
    n = stats.n_cycles
    mean_nu = stats.total_time / n
    p = [1.0]
    ci = [0.0]
    three_bound = 3.0 / n * (stats.nu_max / mean_nu)
    for k in range(1, stats.k_max + 1):
        if stats.v[k] == 0.0:
            p.append(0.0)
            ci.append(min(1.0, three_bound))
            continue
        r = stats.v[k] / stats.total_time
        # Var of the per-cycle residual V - r*nu, from the accumulated moments
        ss = stats.v2[k] - 2.0 * r * stats.vt[k] + r * r * stats.t2
        var = max(ss, 0.0) / (n - 1)
        half = Z95 * math.sqrt(var / n) / mean_nu
        p.append(min(r, 1.0))
        ci.append(half)
    p, clipped = enforce_monotone(p)
    return TailEstimate(p=p, ci=ci, clipped=clipped)


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
    time_cap: float = DEFAULT_TIME_CAP
    shards: int = DEFAULT_SHARDS

    def __post_init__(self):
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        if self.cycles_per_iter < 2:
            raise ConfigError(f"cycles_per_iter must be >= 2, got {self.cycles_per_iter}")
        if not (0.0 < self.damping <= 1.0):
            raise ConfigError(f"damping must lie in (0, 1], got {self.damping}")
        if self.max_iter < 0:
            raise ConfigError(f"max_iter must be >= 0, got {self.max_iter}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if not (math.isfinite(self.noise_rel) and self.noise_rel >= 0.0):
            raise ConfigError(f"noise_rel must be finite and >= 0, got {self.noise_rel}")
        if not self.time_cap > 0.0:
            raise ConfigError(f"time_cap must be positive, got {self.time_cap}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        check_seed(self.seed)


@dataclass
class FixedPointReport:
    """Outcome of the fixed-point iteration; never raised on non-convergence."""

    env: TailVector
    estimate: TailEstimate | None
    distances: list  # one per iteration run
    converged: bool
    max_level: int = 0


def _damped_update(old: TailVector, new_p: list, lam: float) -> list:
    """Geometric (log-space) damping: p <- p_old**(1-lam) * p_new**lam.

    Damping only blends levels that are positive on both sides; a level that
    just became visited (old = 0) or just lost all visits (new = 0) takes the
    fresh estimate outright, so the tail frontier is never frozen by the
    log-space floor.
    """
    if lam >= 1.0:
        return list(new_p)
    out = [1.0]
    for k in range(1, len(new_p)):
        a = old.value(k)
        b = new_p[k]
        if a <= LOG_FLOOR or b <= LOG_FLOOR:
            out.append(b)
        else:
            out.append(math.exp((1.0 - lam) * math.log(a) + lam * math.log(b)))
    return out


def fixed_point(
    service_spec: ServiceDistributionSpec,
    alpha: float,
    D: int,
    controls: FixedPointControls = FixedPointControls(),
    *,
    map_fn=map,
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
    converged = False
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
            time_cap=controls.time_cap,
            map_fn=map_fn,
        )
        estimate = tail_from_cycles(stats)
        max_level = max(max_level, stats.max_level)
        new_p = _damped_update(env, estimate.p, controls.damping)
        # blending a damped level against a fresh neighbour can break
        # monotonicity at the tail frontier; clip downward
        new_p, _ = enforce_monotone(new_p)
        dist = 0.0
        monitored = 0
        for k in range(1, controls.k_max + 1):
            pk = estimate.p[k]
            if pk <= 0.0 or env.value(k) <= 0.0:
                continue
            if estimate.ci[k] > controls.noise_rel * pk:
                continue
            monitored += 1
            d = abs(math.log(new_p[k]) - math.log(env.value(k)))
            if d > dist:
                dist = d
        distances.append(dist if monitored else math.inf)
        env = TailVector(tuple(new_p))
        if monitored and dist < controls.tol:
            converged = True
            break
    return FixedPointReport(
        env=env,
        estimate=estimate,
        distances=distances,
        converged=converged,
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
    time_cap: float = DEFAULT_TIME_CAP,
) -> tuple[float, float]:
    """Mean time (with CI half-width) to drain from level k with residual s.

    s = 0 means the residual of the job entering service is unknown and a
    fresh service time is drawn, matching the just-after-departure convention.
    Diagnostic companion to the linear return-time bound 2*(k + s + const).
    """
    _check_alpha_d(alpha, D)
    if k < 1:
        raise ConfigError(f"starting level k must be >= 1, got {k}")
    if not s >= 0.0:
        raise ConfigError(f"residual s must be >= 0, got {s}")
    if n_reps < 2:
        raise ConfigError(f"n_reps must be >= 2, got {n_reps}")
    stats = _excursions(env, service_spec, alpha, D, n_reps, rng, time_cap, start=k, s=s)
    if stats.n_aborted:
        raise CycleRunawayError(f"{stats.n_aborted} return-time excursion(s) exceeded the cap {time_cap}")
    mean = stats.total_time / n_reps
    var = max(stats.t2 - n_reps * mean * mean, 0.0) / (n_reps - 1)
    half = Z95 * math.sqrt(var / n_reps)
    return mean, half
