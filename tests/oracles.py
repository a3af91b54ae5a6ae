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


def reference_cycles(env: TailVector, spec, alpha: float, D: int, n: int, rng):
    """n regeneration cycles of the cavity queue, one scalar event at a time.

    The lane kernel's reference: same law, none of its code. Returns each
    cycle's length and the deepest level it reached.
    """
    draw = make_sampler(spec)
    rates = [effective_arrival_rate(env, z, alpha, D) for z in range(env.k_max + 2)]
    top = env.k_max + 1
    lengths, peaks = [], []
    for _ in range(n):
        t = rng.expovariate(rates[0])
        z = peak = 1
        s = draw(rng)
        while z:
            rate = rates[min(z, top)]
            gap = rng.expovariate(rate) if rate > 0.0 else math.inf
            if gap < s:
                t += gap
                s -= gap
                z += 1
                peak = max(peak, z)
            else:
                t += s
                z -= 1
                s = draw(rng)
        lengths.append(t)
        peaks.append(peak)
    return lengths, peaks
