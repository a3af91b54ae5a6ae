"""Tail vectors, tail estimates and the shared CSV schema.

A tail vector is the sequence p[k] = Pr(queue length >= k), monotone with
p[0] = 1. Both simulators emit ``TailEstimate`` objects and both write the
same CSV schema ``k,p,ci_low,ci_high`` so downstream fitting is agnostic to
the data source. Floats are written with repr precision, so a file read back
and re-written is byte-identical; ci_low = p - ci may dip below 0 for noisy
deep levels (kept unclipped so the half-width is exactly recoverable).

Every half-width is a 95% interval: ``Z95`` times a standard error for the
cavity's delta-method and return-time intervals, ``t95(n - 1)`` times the
standard error of a mean of n batch or replication means on the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .analytic import bisect
from .errors import ConfigError, check_int

CSV_HEADER = "k,p,ci_low,ci_high"
Z95 = 1.959963984540054  # the normal 0.975 quantile, to the last bit


def _t_coverage(t: float, df: int) -> float:
    """Pr(|T| <= t) for Student's t with integer df >= 1 (Abramowitz & Stegun 26.7.3-4).

    With theta = atan(t / sqrt(df)), c = cos(theta) and S the sum over
    j < df // 2 of c**(2j) times 1*3*...*(2j - 1) / (2*4*...*2j) (even df) or
    2*4*...*2j / (3*5*...*(2j + 1)) (odd df), it is sin(theta) * S for even
    df and (2/pi) * (theta + sin(theta) * c * S) for odd df.
    """
    theta = math.atan(t / math.sqrt(df))
    s, c = math.sin(theta), math.cos(theta)
    odd = df % 2
    total, term = 0.0, 1.0
    for j in range(df // 2):
        total += term
        term *= (2 * j + 1 + odd) / (2 * j + 2 + odd) * c * c
    if odd:
        return 2.0 / math.pi * (theta + s * c * total)
    return s * total


def t95(df: int) -> float:
    """Student-t 0.975 quantile for integer df >= 1, where the two-sided coverage reaches 0.95.

    The bracket [0, 16] holds the largest of them, t95(1) = 12.706... A
    network reduction asks for it once, for all its rows together.
    """
    return bisect(lambda t: _t_coverage(t, df) < 0.95, 0.0, 16.0)


@dataclass(frozen=True)
class TailVector:
    """Monotone tail probabilities p[0..k_max] used as a cavity environment.

    Levels beyond k_max have p = 0: the environment never exceeds k_max.
    """

    p: tuple

    def __post_init__(self):
        p = tuple(float(x) for x in self.p)
        if len(p) == 0:
            raise ConfigError("tail vector needs at least level 0")
        if p[0] != 1.0:
            raise ConfigError(f"p[0] must be exactly 1, got {p[0]}")
        for k in range(len(p) - 1):
            if not (p[k] + 1e-12 >= p[k + 1]):
                raise ConfigError(f"tail vector must be nonincreasing (p[{k}]={p[k]} < p[{k+1}]={p[k+1]})")
        if any(not (0.0 <= x <= 1.0) for x in p):
            raise ConfigError("tail probabilities must lie in [0, 1]")
        object.__setattr__(self, "p", p)

    @property
    def k_max(self) -> int:
        return len(self.p) - 1

    def value(self, k: int) -> float:
        """p[k], with p = 1 below level 0 and p = 0 above k_max."""
        if k <= 0:
            return 1.0
        if k <= self.k_max:
            return self.p[k]
        return 0.0

    @classmethod
    def geometric(cls, ratio: float, k_max: int) -> "TailVector":
        """p[k] = ratio**k; the standard fixed-point starting environment."""
        if not (0.0 <= ratio < 1.0):
            raise ConfigError(f"geometric ratio must be in [0, 1), got {ratio}")
        check_int("k_max", k_max, 0)
        return cls(tuple(ratio**k for k in range(k_max + 1)))


@dataclass
class TailEstimate:
    """Estimated tail probabilities with per-level confidence half-widths."""

    p: list
    ci: list

    def __post_init__(self):
        self.p = [float(x) for x in self.p]
        self.ci = [float(x) for x in self.ci]
        if len(self.p) != len(self.ci):
            raise ConfigError("p and ci must have equal length")
        if not self.p or self.p[0] != 1.0:
            raise ConfigError("estimate must include level 0 with p[0] = 1")
        for k, x in enumerate(self.p):
            if not (-1e-12 <= x <= 1.0 + 1e-12):
                raise ConfigError(f"p[{k}]={x} outside [0, 1]")

    @property
    def k_max(self) -> int:
        return len(self.p) - 1


def write_tail_csv(path, est: TailEstimate) -> None:
    """Write the shared ``k,p,ci_low,ci_high`` schema with LF line endings."""
    lines = [CSV_HEADER]
    for k, (p, ci) in enumerate(zip(est.p, est.ci)):
        lines.append(f"{k},{p!r},{(p - ci)!r},{(p + ci)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_tail_csv(path) -> list[tuple[int, float, float, float]]:
    """Read rows (k, p, ci_low, ci_high) from the shared schema.

    The levels must run 0, 1, 2, ... in order, as ``write_tail_csv`` writes
    them; a row that breaks the schema, or is not UTF-8, raises ConfigError
    naming its line, and a file that cannot be read raises one naming the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")  # U+FFFD parses as no number
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    lines = [(n, ln) for n, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ConfigError(f"{path}: expected header {CSV_HEADER!r}")
    rows = []
    for n, ln in lines[1:]:
        try:
            k, p, lo, hi = ln.split(",")
            row = (int(k), float(p), float(lo), float(hi))
        except ValueError:  # a wrong field count, too
            raise ConfigError(f"{path}, line {n}: malformed row {ln!r}") from None
        if row[0] != len(rows):
            raise ConfigError(f"{path}, line {n}: level {row[0]} where level {len(rows)} belongs")
        rows.append(row)
    return rows
