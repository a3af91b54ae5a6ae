"""Independent oracles shared by the test modules."""

import math
import random

import numpy as np

from jsqlab import TailVector, effective_arrival_rate
from jsqlab.service_dist import make_sampler


class FixedU(random.Random):
    """Stub stream returning preset uniforms; random.Random's own methods,
    expovariate among them, draw through them."""

    def __init__(self, values):
        super().__init__()
        self._it = iter(values)

    def random(self):
        return next(self._it)


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


def reference_cycles(env: TailVector, spec, alpha: float, D: int, n: int, rng, levels):
    """n regeneration cycles of the cavity queue, one scalar event at a time.

    The lane kernel's reference: same law, none of its code. Returns each
    cycle's length and, for each k in levels, each cycle's time with >= k jobs.
    """
    draw = make_sampler(spec)
    rates = [effective_arrival_rate(env, z, alpha, D) for z in range(env.k_max + 2)]
    top = env.k_max + 1
    lengths, above = [], [[] for _ in levels]
    for _ in range(n):
        t = rng.expovariate(rates[0])
        z = 1
        s = draw(rng)
        occ = [0.0] * len(levels)
        while z:
            rate = rates[min(z, top)]
            gap = rng.expovariate(rate) if rate > 0.0 else math.inf
            dt = gap if gap < s else s
            t += dt
            for i, k in enumerate(levels):
                if z >= k:
                    occ[i] += dt
            if gap < s:
                s -= gap
                z += 1
            else:
                z -= 1
                s = draw(rng)
        lengths.append(t)
        for times, x in zip(above, occ):
            times.append(x)
    return lengths, above


def reference_flush(occ, stats, sums, cols, td, deep):
    """One shard's finished excursions added to its CycleStats and sums, the lane kernel's former flush.

    The kernel once flushed each shard on its own with this formula; it is
    kept as the reference that the group-wide flush must match bit for bit.
    Excursion j keeps its time per level in occ's column cols[j], lasted
    td[j] and peaked at level deep[j]; sums holds v, v2 and vt with a last
    row for every level above k_max. The columns are cleared.
    """
    top = sums.shape[1] - 1
    v, v2, vt = sums
    stats.n_cycles += len(td)
    stats.total_time += float(td.sum())
    stats.t2 += float((td * td).sum())
    stats.nu_max = max(stats.nu_max, float(td.max(initial=0.0)))
    hi = int(deep.max(initial=0))
    stats.max_level = max(stats.max_level, hi)
    w = min(hi, top) + 1
    above = occ[w - 1 : 0 : -1, cols].cumsum(axis=0)[::-1]  # row j: time at >= j + 1
    occ[1:w, cols] = 0.0
    v[1:w] += above.sum(axis=1)
    v2[1:w] += (above * above).sum(axis=1)
    vt[1:w] += (above * td).sum(axis=1)
