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


def birth_death_tail(env: TailVector, alpha: float, D: int) -> list:
    """Exact tail p[0..k_max] of the cavity queue with unit-rate exponential service, for D >= 2.

    The queue is then a birth-death chain, pi(z + 1) = alpha_z * pi(z); above
    k_max the environment is 0, so no arrival is admitted past k_max + 1.
    """
    pi = [1.0]
    for z in range(env.k_max + 1):
        pi.append(pi[-1] * effective_arrival_rate(env, z, alpha, D))
    total = math.fsum(pi)
    return [math.fsum(pi[k:]) / total for k in range(env.k_max + 1)]
