"""Tail vectors, tail estimates and the shared CSV schema.

A tail vector is the sequence p[k] = Pr(queue length >= k), monotone with
p[0] = 1. Both simulators emit ``TailEstimate`` objects and both write the
same CSV schema ``k,p,ci_low,ci_high`` so downstream fitting is agnostic to
the data source. Floats are written with repr precision, so a file read back
and re-written is byte-identical; ci_low = p - ci may dip below 0 for noisy
deep levels (kept unclipped so the half-width is exactly recoverable).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

CSV_HEADER = "k,p,ci_low,ci_high"


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
        return cls(tuple(ratio**k for k in range(k_max + 1)))


@dataclass
class TailEstimate:
    """Estimated tail probabilities with per-level confidence half-widths.

    clipped records whether isotonic clipping had to adjust any level.
    """

    p: list
    ci: list
    clipped: bool = False

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


def enforce_monotone(p: list) -> tuple[list, bool]:
    """Clip a probability sequence to be nonincreasing (cumulative minimum)."""
    out = list(p)
    clipped = False
    for k in range(1, len(out)):
        if out[k] > out[k - 1]:
            out[k] = out[k - 1]
            clipped = True
    return out, clipped


def write_tail_csv(path, est: TailEstimate) -> None:
    """Write the shared ``k,p,ci_low,ci_high`` schema with LF line endings."""
    lines = [CSV_HEADER]
    for k, (p, ci) in enumerate(zip(est.p, est.ci)):
        lines.append(f"{k},{p!r},{(p - ci)!r},{(p + ci)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_tail_csv(path) -> list[tuple[int, float, float, float]]:
    """Read rows (k, p, ci_low, ci_high) from the shared schema."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: expected header {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ConfigError(f"{path}: malformed row {ln!r}")
        rows.append((int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3])))
    return rows

