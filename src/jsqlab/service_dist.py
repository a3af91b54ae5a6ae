"""Mean-1 service-time distributions shared by both simulators.

Five families are supported:

* ``exponential``      -- rate 1.
* ``lomax``            -- shifted Pareto, survival (1 + s/sigma)**(-beta) with
                          sigma = beta - 1; decreasing hazard beta/(sigma + s).
* ``pareto``           -- survival (s/s_min)**(-beta) on [s_min, inf) with
                          s_min = (beta - 1)/beta.
* ``deterministic``    -- point mass at 1.
* ``bounded-uniform``  -- uniform on [0, 2].

Every family is normalized to mean 1 by construction: the scale parameter is
derived from the tail exponent instead of being user supplied, so the
normalization cannot be silently broken. The heavy-tailed default in studies
is lomax, whose hazard rate is decreasing on all of [0, inf); plain pareto is
offered too, but its hazard is not monotone at s_min (it jumps from 0 to
beta/s_min).

Sampling is by inverse transform of the survival function, so each draw is a
deterministic function of a single uniform variate. A sampler draws only
through its argument's ``random()`` and ``expovariate(1.0)`` and returns
draws in the shape of ``random()``'s: a float from the tests'
``random.Random``, or an array from a ``BlockDraws``, the one adapter from
numpy generators that both simulators pass. The network's holds its service
stream alone and returns a block of it per call; the cavity kernel's holds
one stream per shard of a group and returns one draw per lane in flight,
each shard's lanes from its own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, check_number

KINDS = ("exponential", "lomax", "pareto", "deterministic", "bounded-uniform")

_NEEDS_BETA = frozenset({"lomax", "pareto"})


@dataclass(frozen=True)
class ServiceDistributionSpec:
    """A validated mean-1 service-time law.

    ``beta`` is the tail exponent: required and > 1 for lomax/pareto (beta <= 1
    would give an infinite mean), and must be omitted for the other kinds.
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown service distribution kind {self.kind!r}")
        if self.kind in _NEEDS_BETA:
            if self.beta is None:
                raise ConfigError(f"{self.kind} requires a tail exponent beta")
            beta = check_number("beta", self.beta)
            if not (beta > 1.0) or not math.isfinite(beta):
                raise ConfigError(
                    f"beta must be a finite real > 1, got {self.beta!r} (beta <= 1 has infinite mean)"
                )
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ConfigError(f"{self.kind} takes no beta parameter")

    @property
    def sigma(self) -> float:
        """Lomax scale; sigma = beta - 1 forces mean sigma/(beta - 1) = 1."""
        if self.kind != "lomax":
            raise AttributeError("sigma is defined for the lomax kind only")
        return self.beta - 1.0

    @property
    def s_min(self) -> float:
        """Pareto support edge; s_min = (beta - 1)/beta forces mean 1."""
        if self.kind != "pareto":
            raise AttributeError("s_min is defined for the pareto kind only")
        return (self.beta - 1.0) / self.beta


def make_spec(kind: str, beta: float | None = None) -> ServiceDistributionSpec:
    """Build and validate a mean-1 service distribution."""
    return ServiceDistributionSpec(kind, beta)


class BlockDraws:
    """random.Random's two draws for a service sampler, from numpy generators, one array per call.

    Each call returns one array holding sizes[i] draws from gens[i], after
    those of gens[i - 1]; a size of 0 makes no call on its generator. A
    generator's draw into out= gives the values of its sized draw, so each
    generator's slice is what a call on it alone would return.
    """

    def __init__(self, gens, sizes):
        self.gens, self.sizes = gens, sizes

    def draw(self, method: str, sizes=None) -> np.ndarray:
        """One array of gen.method(out=...) over the generators, sizes[i] values from gens[i]."""
        sizes = self.sizes if sizes is None else sizes
        out = np.empty(sum(sizes))
        a = 0
        for gen, k in zip(self.gens, sizes):
            if k:
                getattr(gen, method)(out=out[a : a + k])
                a += k
        return out

    def random(self):
        return self.draw("random")

    def expovariate(self, lambd):
        return -np.log(1.0 - self.random()) / lambd  # random.Random's formula


def make_sampler(spec: ServiceDistributionSpec) -> Callable:
    """Fast inverse-transform sampler: rng -> one service time, or an array of them from a ``BlockDraws``.

    The returned closure consumes exactly one uniform variate per draw,
    mapping u = 1 - rng.random() (uniform on (0, 1]) through the inverse of
    the survival function; expovariate(1.0) is -log(1 - rng.random()).
    """
    k = spec.kind
    if k == "exponential":

        def draw(rng):
            return rng.expovariate(1.0)

    elif k == "lomax":
        sigma = spec.sigma
        neg_inv_beta = -1.0 / spec.beta

        def draw(rng):
            return sigma * ((1.0 - rng.random()) ** neg_inv_beta - 1.0)

    elif k == "pareto":
        s_min = spec.s_min
        neg_inv_beta = -1.0 / spec.beta

        def draw(rng):
            return s_min * (1.0 - rng.random()) ** neg_inv_beta

    elif k == "deterministic":

        def draw(rng):
            return 0.0 * rng.random() + 1.0  # one uniform per draw, like every kind

    else:  # bounded-uniform; survival 1 - s/2, inverse 2*(1 - u)

        def draw(rng):
            return 2.0 * rng.random()

    return draw
