"""Weighted least-squares tail fits on the shared CSV schema.

Three models, one per decay regime, each a straight line in transformed
coordinates:

* ``doubly-exponential``: log_D(log(1/p)) vs k; the slope estimates the
  doubly-exponential rate.
* ``power-law``:          log(1/p) vs log k; the slope estimates the
  power-law exponent.
* ``exponential``:        log(1/p) vs k; the slope estimates the linear
  decay rate.

Levels enter the fit only when 0 < p < 1 and the relative CI half-width is
below a threshold (default 30%), which keeps the deep-tail noise floor out
of the regression. Weights are inverse variances of the transformed
ordinate, propagated from the CI half-widths by the delta method; synthetic
inputs with zero-width intervals fall back to an unweighted fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, InsufficientDataError, check_int
from .tails import read_tail_csv

MODELS = ("doubly-exponential", "power-law", "exponential")

MIN_POINTS = 4


@dataclass(frozen=True)
class TailFit:
    """A fitted tail model: slope is the estimated exponent/rate."""

    model: str
    slope: float
    intercept: float
    r2: float
    slope_stderr: float
    k_window: tuple
    n_points: int
    d_choices: int | None = None


def _transform(model: str, k: int, p: float, hw: float, d_choices: int):
    """Return (x, y, sigma_y) for one usable level."""
    log_inv = -math.log(p)  # log(1/p) > 0 since p < 1
    if model == "doubly-exponential":
        ln_d = math.log(d_choices)
        return float(k), math.log(log_inv) / ln_d, hw / (p * log_inv * ln_d)
    if model == "power-law":
        return math.log(k), log_inv, hw / p
    return float(k), log_inv, hw / p  # exponential


def fit_tail(
    source,
    model: str,
    *,
    d_choices: int = 2,
    rel_ci_max: float = 0.3,
    k_min: int | None = None,
    k_max: int | None = None,
) -> TailFit:
    """Fit one tail model to a CSV path or to (k, p, ci_low, ci_high) rows."""
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {MODELS}")
    if model == "doubly-exponential":
        check_int("d_choices", d_choices, 2)
    if not (math.isfinite(rel_ci_max) and rel_ci_max > 0.0):
        raise ConfigError(f"rel_ci_max must be finite and > 0, got {rel_ci_max!r}")
    for name, level in (("k_min", k_min), ("k_max", k_max)):
        if level is not None:
            check_int(name, level, 0)
    if k_min is not None and k_max is not None and k_min > k_max:
        raise ConfigError(f"k_min={k_min} exceeds k_max={k_max}")
    if isinstance(source, (str, Path)):
        rows = read_tail_csv(source)
    else:
        rows = [(int(k), float(p), float(lo), float(hi)) for k, p, lo, hi in source]

    usable = []
    skipped = []
    for k, p, lo, hi in rows:
        hw = 0.5 * (hi - lo)
        if k < 1 or (k_min is not None and k < k_min) or (k_max is not None and k > k_max):
            continue
        if not (0.0 < p < 1.0) or not math.isfinite(hw) or hw < 0.0:
            skipped.append(k)
            continue
        if hw > rel_ci_max * p:
            skipped.append(k)
            continue
        usable.append((k, p, hw))
    if len(usable) < MIN_POINTS:
        raise InsufficientDataError(
            f"need at least {MIN_POINTS} usable levels, found {len(usable)} "
            f"(usable k: {[k for k, _, _ in usable]}; filtered out: {skipped})"
        )

    pts = [_transform(model, k, p, hw, d_choices) for k, p, hw in usable]
    sigmas = [s for _, _, s in pts]
    floor = min((s for s in sigmas if s > 0.0), default=1.0)  # all-zero widths weigh 1 each: an unweighted fit
    weights = [1.0 / max(s, floor) ** 2 for s in sigmas]

    sw = sum(weights)
    xbar = sum(w * x for (x, _, _), w in zip(pts, weights)) / sw
    ybar = sum(w * y for (_, y, _), w in zip(pts, weights)) / sw
    sxx = sum(w * (x - xbar) ** 2 for (x, _, _), w in zip(pts, weights))
    sxy = sum(w * (x - xbar) * (y - ybar) for (x, y, _), w in zip(pts, weights))
    if sxx <= 0.0:
        raise InsufficientDataError("degenerate abscissa: all usable levels coincide")
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ssr = sum(w * (y - (intercept + slope * x)) ** 2 for (x, y, _), w in zip(pts, weights))
    sst = sum(w * (y - ybar) ** 2 for (_, y, _), w in zip(pts, weights))
    r2 = 1.0 - ssr / sst if sst > 0.0 else 1.0
    dof = len(pts) - 2
    stderr = math.sqrt((ssr / dof) / sxx) if dof > 0 and ssr >= 0.0 else 0.0
    return TailFit(
        model=model,
        slope=slope,
        intercept=intercept,
        r2=r2,
        slope_stderr=stderr,
        k_window=(min(k for k, _, _ in usable), max(k for k, _, _ in usable)),
        n_points=len(usable),
        d_choices=d_choices if model == "doubly-exponential" else None,
    )
