"""Closed-form tail exponents, characteristic roots and bound recursions.

The doubly-exponential rate q is obtained from the unique root x* in
(1/D, 1) of

    h(x) = (D - 1) * (x + x**2 + ... + x**(ell-1) + eta * x**ell) - 1 = 0,

via q = log_D(1/x*). The sum form of h is strictly increasing on (0, 1),
with h(1/D) < 0 and h(1) > 0 whenever (D-1)*(ell-1+eta) > 1, so bisection is
guaranteed to converge; the equivalent polynomial form obtained by
multiplying through by (1 - x) has a spurious root at x = 1 that would break
naive bracketing, which is why the sum form is used.

Two parameter conventions coexist: the recursion-level (ell, eta) window,
and the tail exponent beta of the service law, related by ell = floor(beta),
eta = beta - floor(beta). For integer beta the pair (ell = beta - 1,
eta -> 1) gives the identical polynomial, so q is continuous across integer
beta. Everything here is a pure function, safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

REGIME_DOUBLY = "doubly-exponential"
REGIME_POWER = "power-law"
REGIME_BOUNDARY = "exponential-boundary"

BOUNDARY_EPS = 1e-12

BOUND_MODES = ("lower-3.1.2", "lower-3.1.6", "upper-3.6.3", "upper-3.6.4")


def _check_d(D: int) -> int:
    if not isinstance(D, int) or isinstance(D, bool) or D < 2:
        raise ConfigError(f"D must be an integer >= 2, got {D!r}")
    return D


@dataclass(frozen=True)
class RecursionParams:
    """Window parameters (D, ell, eta) of the level recursion.

    ell = 1 is allowed only with eta > 0: the recursion then degenerates to
    the single term R_k = (D-1)*eta*R_{k-1}, whose characteristic polynomial
    has one positive root and nothing else, so the dominant-root argument is
    trivial (for D >= 3 the regime boundary sits below 2 and this window is
    genuinely needed). ell = 1 with eta = 0 would be an empty recursion and
    is rejected.
    """

    D: int
    ell: int
    eta: float

    def __post_init__(self):
        _check_d(self.D)
        if not isinstance(self.ell, int) or isinstance(self.ell, bool) or self.ell < 1:
            raise ConfigError(f"window length ell must be an integer >= 1, got {self.ell!r}")
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta!r}")
        if self.ell == 1 and self.eta == 0.0:
            raise ConfigError("the window (ell=1, eta=0) is empty; ell=1 requires eta > 0")

    def supercritical(self) -> bool:
        """Whether the characteristic root lies in (1/D, 1), i.e. h(1) > 0."""
        return (self.D - 1) * (self.ell - 1 + self.eta) > 1.0


@dataclass(frozen=True)
class QRoot:
    """Characteristic root x* in (1/D, 1) and the rate q = log_D(1/x*)."""

    x_star: float
    q: float
    residual: float
    iterations: int


def _char_sum(D: int, ell: int, eta: float, x: float) -> float:
    # h(x) = (D-1) * (x + ... + x**(ell-1) + eta*x**ell) - 1, Horner form
    acc = eta * x
    for _ in range(ell - 1):
        acc = (acc + 1.0) * x
    return (D - 1) * acc - 1.0


def q_root(D: int, ell: int, eta: float) -> QRoot:
    """Solve h(x) = 0 on (1/D, 1) by bisection and return x* and q.

    Bisection runs to floating-point exhaustion of the bracket (about 1e-16),
    which leaves |h(x*)| at the rounding floor of the Horner evaluation.
    """
    params = RecursionParams(D, ell, eta)
    if not params.supercritical():
        raise ConfigError(
            f"(D={D}, ell={ell}, eta={eta}) is at or below the boundary "
            f"(D-1)*(ell-1+eta) <= 1; no root in (1/D, 1) exists"
        )
    lo, hi = 1.0 / D, 1.0
    # h(lo) < 0 since the finite window sums to strictly less than the full
    # geometric series (D-1) * sum_{i>=1} D**-i = 1; h(hi) > 0 by the check above.
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        iterations += 1
        if _char_sum(D, ell, eta, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    q = -math.log(x_star) / math.log(D)
    return QRoot(x_star=x_star, q=q, residual=_char_sum(D, ell, eta, x_star), iterations=iterations)


def boundary_beta(D: int) -> float:
    """The regime boundary D/(D-1)."""
    _check_d(D)
    return D / (D - 1.0)


def q_of_beta(D: int, beta: float) -> float:
    """Doubly-exponential rate q for tail exponent beta > D/(D-1).

    Maps beta to the window (ell = floor(beta), eta = beta - floor(beta));
    beta = inf returns the limiting value 1.
    """
    _check_d(D)
    if beta == math.inf:
        return 1.0
    if not beta > boundary_beta(D):
        raise ConfigError(
            f"beta={beta} is not in the doubly-exponential regime (beta > {boundary_beta(D)}); "
            "see classify_regime for the full trichotomy"
        )
    ell = math.floor(beta)
    eta = beta - ell
    return q_root(D, ell, eta).q


@dataclass(frozen=True)
class GrowthEstimate:
    """Growth-rate estimate for the level recursion, with the ratio trace."""

    log_d_gamma: float
    seq: tuple  # (1/k) * log_D R_k for k = 1..k_max


def recursion_growth(params: RecursionParams, k_max: int) -> GrowthEstimate:
    """Iterate R_k = (D-1)*(sum of the previous ell-1 terms + eta*R_{k-ell}).

    Starts from unit values on k <= 0 and runs in normalized form (the window
    is rescaled by its maximum whenever it grows large, with the log of the
    scale accumulated) so no overflow occurs for any k_max. The returned rate
    is the windowed log-ratio estimate of log_D of the dominant root, an
    independent cross-check of q_root.
    """
    if k_max < 50:
        raise ConfigError(f"k_max must be >= 50 for a stable growth estimate, got {k_max}")
    D, ell, eta = params.D, params.ell, params.eta
    ln_d = math.log(D)
    window = [1.0] * ell  # R_{k-ell} .. R_{k-1}, rescaled
    scale = 0.0  # log of the accumulated rescaling
    log_r = [0.0] * (k_max + 1)
    for k in range(1, k_max + 1):
        r = (D - 1) * (sum(window[1:]) + eta * window[0])
        window.pop(0)
        window.append(r)
        if r > 1e100:
            inv = 1.0 / r
            window = [w * inv for w in window]
            scale += math.log(r)
            r = 1.0
        log_r[k] = scale + math.log(r)
    span = min(100, k_max // 2)
    est = (log_r[k_max] - log_r[k_max - span]) / (span * ln_d)
    seq = tuple(log_r[k] / (k * ln_d) for k in range(1, k_max + 1))
    return GrowthEstimate(log_d_gamma=est, seq=seq)


def vdk_log_tail(alpha: float, D: int, k: int) -> float:
    """log of the exponential-service limit tail alpha**((D**k - 1)/(D - 1))."""
    _check_d(D)
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    exponent = (D**k - 1) // (D - 1)  # exact integer, no float overflow
    log_alpha = math.log(alpha)
    if exponent > 1e300 / -log_alpha:
        return -math.inf
    return exponent * log_alpha


def vdk_tail(alpha: float, D: int, k: int) -> float:
    """Exponential-service limit tail, computed in log space (0 below exp(-745))."""
    lt = vdk_log_tail(alpha, D, k)
    return math.exp(lt) if lt > -745.0 else 0.0


def gamma_exponent(D: int, beta: float) -> float:
    """Power-law tail exponent nu = (beta-1)/(1-(D-1)(beta-1)) for 1 < beta < D/(D-1)."""
    _check_d(D)
    if not (1.0 < beta < boundary_beta(D)):
        raise ConfigError(
            f"the power-law regime needs 1 < beta < {boundary_beta(D)}, got beta={beta} "
            "(the denominator 1-(D-1)(beta-1) must stay positive)"
        )
    return (beta - 1.0) / (1.0 - (D - 1) * (beta - 1.0))


@dataclass(frozen=True)
class RegimeReport:
    """Classification of (D, beta) with the predicted tail exponent, if any.

    For the boundary regime no numeric exponent exists: the decay rate
    depends on the service law's tail constants, which the paper bounds only
    qualitatively, so its exponent is None.
    """

    D: int
    beta: float
    regime: str
    exponent: float | None

    def row(self) -> str:
        e = "" if self.exponent is None else repr(self.exponent)
        return f"{self.D},{self.beta!r},{self.regime},{e}"


def classify_regime(D: int, beta: float) -> RegimeReport:
    """Trichotomy in beta vs D/(D-1): doubly-exponential / power-law / boundary."""
    _check_d(D)
    if not beta > 1.0:
        raise ConfigError(f"beta must exceed 1 (infinite mean otherwise), got {beta}")
    b = boundary_beta(D)
    if abs(beta - b) <= BOUNDARY_EPS:
        return RegimeReport(D, beta, REGIME_BOUNDARY, None)
    if beta > b:
        return RegimeReport(D, beta, REGIME_DOUBLY, q_of_beta(D, beta))
    return RegimeReport(D, beta, REGIME_POWER, gamma_exponent(D, beta))


@dataclass(frozen=True)
class AffineLimit:
    """Limit and optional iterates of R(n) = a*R(n-1) + b from R(0) = c."""

    limit: float
    monotone: str  # "increasing" | "decreasing" | "constant"
    sequence: tuple | None = None


def affine_limit(a: float, b: float, c: float, n: int | None = None) -> AffineLimit:
    """Fixed point b/(1-a) of the affine recursion, with monotonicity flag.

    The sequence increases iff it starts below the limit (and decreases iff
    above); the gap contracts exactly geometrically, |R(n) - limit| =
    a**n * |c - limit|.
    """
    if not (0.0 < a < 1.0):
        raise ConfigError(f"contraction factor a must lie in (0, 1), got {a}")
    limit = b / (1.0 - a)
    if c < limit:
        monotone = "increasing"
    elif c > limit:
        monotone = "decreasing"
    else:
        monotone = "constant"
    seq = None
    if n is not None:
        if n < 0:
            raise ConfigError(f"n must be >= 0, got {n}")
        vals = [float(c)]
        for _ in range(n):
            vals.append(a * vals[-1] + b)
        seq = tuple(vals)
    return AffineLimit(limit=limit, monotone=monotone, sequence=seq)


def default_bound_prefix(D: int, beta: float, length: int = 30, scale: float = 1.0) -> tuple:
    """Decreasing-tail prefix p_i = exp(-scale * gamma**i) seeded by the regime's root.

    gamma = D**q is the dominant growth factor of log(1/P_k); a prefix that
    already follows it keeps the generated sequence on the asymptotic branch
    (a flat prefix would let the inhomogeneous prefactor terms of the upper
    recursions dominate and push the sequence onto a spurious branch). The
    length is capped where p_i would underflow to zero. scale < 1 starts the
    sequence slightly above the asymptote's unit-coefficient branch, i.e.
    with a milder initial decay.
    """
    if not scale > 0.0:
        raise ConfigError(f"prefix scale must be positive, got {scale}")
    gamma = D ** q_of_beta(D, beta)
    out = []
    for i in range(1, length + 1):
        x = scale * gamma**i
        if x > 700.0:  # exp(-x) underflows
            break
        out.append(math.exp(-x))
    return tuple(out)


def iterate_bound_recursion(
    mode: str,
    D: int,
    beta: float,
    constants: dict,
    k_max: int,
    initial_tail: tuple = (),
) -> list:
    """Unroll one of the bound recursions as an equality; returns log(1/P_k).

    Modes (b_hat = beta - floor(beta), k1 = ceil(k - beta), all log space):

    * ``lower-3.1.2``:  P_k = (C/8k)**k * prod_{i=0}^{k-1} P_i**(D-1)
    * ``lower-3.1.6``:  P_k = C * 3**-k * prod_{i=k1+1}^{k-1} P_i**(D-1) * P_{k1}**(b_hat*(D-1))
    * ``upper-3.6.3``:  P_k = C * k**(beta+1) * prod_{i=k1+1}^{k-1} P_i**(D-1) * P_{k1}**(b_hat*(D-1))
                        (non-integer beta only)
    * ``upper-3.6.4``:  P_k = C * k**(beta+1) * prod_{i=k1+2}^{k-1} P_i**(D-1) * P_{k1+1}**((1-delta)*(D-1))
                        (integer beta only, delta in (0, 1))

    ``initial_tail`` supplies P_1..P_m as a decreasing prefix; levels <= 0
    count as P = 1 and the recursion generates levels m+1..k_max. The
    prefactor constants only shift the sequence by an additive drift; the
    doubly-exponential growth rate of log(1/P_k) is set by the window
    product, which is the quantity the tests pin down.
    """
    _check_d(D)
    if mode not in BOUND_MODES:
        raise ConfigError(f"unknown bound mode {mode!r}; expected one of {BOUND_MODES}")
    if not beta > 1.0:
        raise ConfigError(f"beta must exceed 1, got {beta}")
    C = constants.get("C")
    if C is None or not C > 0.0:
        raise ConfigError(f"constants must include C > 0, got {constants!r}")
    is_int = abs(beta - round(beta)) < 1e-12
    if mode in ("lower-3.1.6", "upper-3.6.3", "upper-3.6.4"):
        if not beta > boundary_beta(D):
            raise ConfigError(f"mode {mode} applies in the doubly-exponential regime beta > {boundary_beta(D)}")
    if mode == "upper-3.6.3" and is_int:
        raise ConfigError("mode upper-3.6.3 requires non-integer beta; use upper-3.6.4")
    delta = constants.get("delta")
    if mode == "upper-3.6.4":
        if not is_int:
            raise ConfigError("mode upper-3.6.4 requires integer beta; use upper-3.6.3")
        if delta is None or not (0.0 < delta < 1.0):
            raise ConfigError(f"mode upper-3.6.4 needs delta in (0, 1), got {delta!r}")
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")

    prefix = [float(x) for x in initial_tail]
    if any(not (0.0 < x <= 1.0) for x in prefix):
        raise ConfigError("initial tail prefix must lie in (0, 1]")
    if any(prefix[i] < prefix[i + 1] for i in range(len(prefix) - 1)):
        raise ConfigError("initial tail prefix must be nonincreasing")
    if len(prefix) > k_max:
        prefix = prefix[:k_max]

    log_c = math.log(C)
    b_hat = beta - math.floor(beta)
    log_p = [0.0] * (k_max + 1)  # log P_k, with log P_0 = 0
    for i, x in enumerate(prefix, start=1):
        log_p[i] = math.log(x)

    def lp(i: int) -> float:
        return 0.0 if i <= 0 else log_p[i]

    for k in range(len(prefix) + 1, k_max + 1):
        k1 = math.ceil(k - beta)
        if mode == "lower-3.1.2":
            s = sum(lp(i) for i in range(0, k))
            log_p[k] = k * (log_c - math.log(8.0 * k)) + (D - 1) * s
        elif mode == "lower-3.1.6":
            s = sum(lp(i) for i in range(k1 + 1, k))
            log_p[k] = log_c - k * math.log(3.0) + (D - 1) * s + b_hat * (D - 1) * lp(k1)
        elif mode == "upper-3.6.3":
            s = sum(lp(i) for i in range(k1 + 1, k))
            log_p[k] = log_c + (beta + 1.0) * math.log(k) + (D - 1) * s + b_hat * (D - 1) * lp(k1)
        else:  # upper-3.6.4
            s = sum(lp(i) for i in range(k1 + 2, k))
            log_p[k] = log_c + (beta + 1.0) * math.log(k) + (D - 1) * s + (1.0 - delta) * (D - 1) * lp(k1 + 1)

    return [-v for v in log_p]  # log(1/P_k)
