"""Characteristic roots, exponents, and bound recursions against closed-form oracles."""

import math

import pytest

from jsqlab import (
    ConfigError,
    RecursionParams,
    affine_limit,
    boundary_beta,
    classify_regime,
    gamma_exponent,
    iterate_bound_recursion,
    q_of_beta,
    q_root,
    recursion_growth,
    vdk_log_tail,
    vdk_tail,
)
from jsqlab.analytic import default_bound_prefix

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # root of x + x**2 = 1


class TestQRoot:
    def test_quadratic_oracle_ell3(self):
        # D=2, ell=3, eta=0: x + x**2 - 1 = 0 has the quadratic-formula root
        r = q_root(2, 3, 0.0)
        assert r.x_star == pytest.approx(GOLDEN, abs=1e-14)
        assert r.q == pytest.approx(-math.log(GOLDEN) / math.log(2.0), abs=1e-13)

    def test_quadratic_oracle_ell2_eta_half(self):
        # 0.5*x**2 + x - 1 = 0  ->  x = sqrt(3) - 1
        r = q_root(2, 2, 0.5)
        assert r.x_star == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-14)
        assert r.q == pytest.approx(0.4500, abs=1e-3)

    def test_eta_one_equals_next_window(self):
        # (ell, eta=1) and (ell+1, eta=0) define the same polynomial
        for D in (2, 3):
            for ell in (2, 3, 5):
                a = q_root(D, ell, 1.0).x_star
                b = q_root(D, ell + 1, 0.0).x_star
                assert abs(a - b) < 1e-12

    def test_root_in_open_interval_with_tiny_residual(self):
        for D in (2, 3, 4):
            bd = boundary_beta(D)
            for beta in [bd + 0.1 + i * (10.0 - bd - 0.1) / 8 for i in range(9)]:
                r = q_root(D, math.floor(beta), beta - math.floor(beta))
                assert 1.0 / D < r.x_star < 1.0
                assert 0.0 < r.q < 1.0
                assert abs(r.residual) < 1e-14

    def test_boundary_window_rejected(self):
        # (D-1)*(ell-1+eta) = 1 has no root in (1/D, 1)
        with pytest.raises(ConfigError):
            q_root(2, 2, 0.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            RecursionParams(2, 1, 0.0)

    def test_single_term_window(self):
        # D=3, beta=1.6 sits above the boundary 1.5 and maps to ell=1
        r = q_root(3, 1, 0.6)
        assert r.x_star == pytest.approx(1.0 / 1.2, rel=1e-12)
        assert q_of_beta(3, 1.6) == pytest.approx(math.log(1.2) / math.log(3.0), rel=1e-10)


class TestQOfBeta:
    def test_spot_values(self):
        assert q_of_beta(2, 3.0) == pytest.approx(0.6942419, abs=1e-6)
        assert q_of_beta(2, 2.5) == pytest.approx(0.4500, abs=1e-3)
        assert q_of_beta(2, 40.0) > 0.999

    def test_infinite_beta_limit(self):
        assert q_of_beta(2, math.inf) == 1.0

    def test_regime_rejection_points_to_classifier(self):
        with pytest.raises(ConfigError, match="classify_regime"):
            q_of_beta(2, 2.0)
        with pytest.raises(ConfigError):
            q_of_beta(2, 1.5)

    def test_strictly_increasing_in_beta(self):
        for D in (2, 3, 4):
            bd = boundary_beta(D)
            grid = [bd + 0.1 + i * 0.7 for i in range(12)]
            qs = [q_of_beta(D, b) for b in grid]
            assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_strictly_increasing_in_d(self):
        for beta in (3.0, 4.5, 7.0):
            qs = [q_of_beta(D, beta) for D in (2, 3, 4)]
            assert qs[0] < qs[1] < qs[2]

    def test_continuous_across_integer_beta(self):
        for D in (2, 3):
            for b in (3, 4, 5):
                assert abs(q_of_beta(D, b - 1e-11) - q_of_beta(D, float(b))) < 1e-10

    def test_approach_to_one_is_exponentially_fast(self):
        # the gap 1 - q shrinks at least geometrically along integer beta
        gaps = [1.0 - q_of_beta(2, float(b)) for b in range(5, 16)]
        for g0, g1 in zip(gaps, gaps[1:]):
            assert g1 < 0.9 * g0


class TestRecursionGrowth:
    def test_first_step(self):
        # R_1 = (D-1) * (ell - 1 + eta) from unit initial data
        for D, ell, eta in ((2, 3, 0.0), (3, 2, 0.5), (2, 4, 1.0)):
            g = recursion_growth(RecursionParams(D, ell, eta), 60)
            r1 = D ** g.seq[0]
            assert r1 == pytest.approx((D - 1) * (ell - 1 + eta), rel=1e-12)

    def test_matches_root_estimate(self):
        for D, ell, eta in ((2, 3, 0.0), (2, 2, 0.5), (3, 4, 0.25), (4, 2, 0.9)):
            g = recursion_growth(RecursionParams(D, ell, eta), 500)
            assert abs(g.log_d_gamma - q_root(D, ell, eta).q) < 1e-6

    def test_eta_one_identical_sequences(self):
        a = recursion_growth(RecursionParams(2, 3, 1.0), 100).seq
        b = recursion_growth(RecursionParams(2, 4, 0.0), 100).seq
        assert a == pytest.approx(b, rel=1e-12)

    def test_short_kmax_rejected(self):
        with pytest.raises(ConfigError):
            recursion_growth(RecursionParams(2, 3, 0.0), 20)


class TestVdk:
    def test_levels_zero_and_one(self):
        assert vdk_tail(0.37, 2, 0) == 1.0
        assert vdk_tail(0.37, 2, 1) == pytest.approx(0.37, abs=1e-15)

    def test_direct_substitution(self):
        # (D**k - 1)/(D - 1) = 7 at D=2, k=3
        assert vdk_tail(0.9, 2, 3) == pytest.approx(0.9**7, rel=1e-14)

    def test_recursion_in_log_space(self):
        # log p_k = log(alpha) + D * log p_{k-1}
        for alpha, D in ((0.5, 2), (0.8, 3)):
            for k in range(1, 12):
                lhs = vdk_log_tail(alpha, D, k)
                rhs = math.log(alpha) + D * vdk_log_tail(alpha, D, k - 1)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_deep_levels_underflow_to_zero(self):
        assert vdk_tail(0.5, 2, 30) == 0.0
        assert vdk_log_tail(0.5, 2, 2000) == -math.inf

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            vdk_tail(1.0, 2, 3)
        with pytest.raises(ConfigError):
            vdk_tail(0.5, 1, 3)
        with pytest.raises(ConfigError):
            vdk_tail(0.5, 2, -1)


class TestGammaExponent:
    def test_direct_substitution(self):
        assert gamma_exponent(2, 1.5) == pytest.approx(1.0, rel=1e-12)
        assert gamma_exponent(3, 1.2) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_vanishes_as_beta_drops_to_one(self):
        assert gamma_exponent(2, 1.001) < 2e-3

    def test_blows_up_at_regime_boundary(self):
        for D in (2, 3):
            eps = 1e-3 * 0.9 / (D - 1) ** 2
            assert gamma_exponent(D, boundary_beta(D) - eps) > 1e3

    def test_out_of_regime_rejected(self):
        with pytest.raises(ConfigError):
            gamma_exponent(2, 2.0)
        with pytest.raises(ConfigError):
            gamma_exponent(2, 2.5)


class TestClassifyRegime:
    def test_trichotomy(self):
        r = classify_regime(2, 3.0)
        assert r.regime == "doubly-exponential"
        assert r.exponent == pytest.approx(0.694, abs=1e-3)
        r = classify_regime(2, 1.4)
        assert r.regime == "power-law"
        assert r.exponent == pytest.approx(2.0 / 3.0, rel=1e-9)
        r = classify_regime(2, 2.0)
        assert r.regime == "exponential-boundary"
        assert r.exponent is None

    def test_boundary_window(self):
        assert classify_regime(3, 1.5 + 1e-13).regime == "exponential-boundary"
        assert classify_regime(3, 1.5 + 1e-9).regime == "doubly-exponential"

    def test_infinite_mean_rejected(self):
        with pytest.raises(ConfigError):
            classify_regime(2, 1.0)

    def test_row_format(self):
        assert classify_regime(2, 2.0).row() == "2,2.0,exponential-boundary,"


class TestAffineLimit:
    def test_limit_and_monotonicity(self):
        r = affine_limit(0.5, 1.0, 0.0, n=6)
        assert r.limit == 2.0
        assert r.monotone == "increasing"
        assert r.sequence[0] == 0.0 and r.sequence[-1] < 2.0

    def test_fixed_point_start_is_constant(self):
        r = affine_limit(0.5, 1.0, 2.0, n=4)
        assert r.monotone == "constant"
        assert all(v == 2.0 for v in r.sequence)

    def test_multiplicative_instance(self):
        # a = (D-1)(beta-1), b = (1-2*eta)(beta-1), c = beta-1-2*eta*beta
        D, beta, eta = 2, 1.5, 0.1
        r = affine_limit((D - 1) * (beta - 1), (1 - 2 * eta) * (beta - 1), beta - 1 - 2 * eta * beta)
        assert r.limit == pytest.approx((1 - 2 * eta) * gamma_exponent(D, beta), rel=1e-12)
        assert r.limit == pytest.approx(0.8, rel=1e-12)
        assert r.monotone == "increasing"

    def test_exact_geometric_contraction(self):
        a, b, c = 0.5, 1.0, 0.0
        r = affine_limit(a, b, c, n=20)
        for n, v in enumerate(r.sequence):
            assert abs(v - r.limit) == pytest.approx(a**n * abs(c - r.limit), rel=1e-12)

    def test_contraction_domain(self):
        with pytest.raises(ConfigError):
            affine_limit(1.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            affine_limit(0.0, 1.0, 0.0)


class TestBoundRecursions:
    def test_single_step_unrolling(self):
        # k=1 with C=1: log P_1 = log(1/8) + (D-1)*0, i.e. log(1/P_1) = log 8
        for D in (2, 3):
            seq = iterate_bound_recursion("lower-3.1.2", D, 3.0, {"C": 1.0}, 5)
            assert seq[1] == pytest.approx(math.log(8.0), rel=1e-12)

    def test_upper_364_single_step(self):
        # integer beta: log(1/P_k) = -log C - (beta+1) log k - window terms
        seq = iterate_bound_recursion("upper-3.6.4", 2, 3.0, {"C": 2.0, "delta": 0.25}, 4,
                                      initial_tail=(0.5, 0.2))
        # k=3: k1 = 0, window i in [2, 2], exponent (1-delta)*(D-1) on P_1
        expect = -(math.log(2.0) + 4.0 * math.log(3.0) + math.log(0.2) + 0.75 * math.log(0.5))
        assert seq[3] == pytest.approx(expect, rel=1e-12)

    def test_regime_rejections(self):
        with pytest.raises(ConfigError):
            iterate_bound_recursion("upper-3.6.3", 2, 3.0, {"C": 1.0}, 10)  # integer beta
        with pytest.raises(ConfigError):
            iterate_bound_recursion("upper-3.6.4", 2, 2.5, {"C": 1.0, "delta": 0.1}, 10)
        with pytest.raises(ConfigError):
            iterate_bound_recursion("upper-3.6.4", 2, 3.0, {"C": 1.0}, 10)  # missing delta
        with pytest.raises(ConfigError):
            iterate_bound_recursion("lower-3.1.6", 2, 1.8, {"C": 1.0}, 10)  # below boundary
        with pytest.raises(ConfigError):
            iterate_bound_recursion("lower-3.1.2", 2, 3.0, {"C": 0.0}, 10)
        with pytest.raises(ConfigError):
            iterate_bound_recursion("nope", 2, 3.0, {"C": 1.0}, 10)

    def test_increasing_prefix_rejected(self):
        with pytest.raises(ConfigError):
            iterate_bound_recursion("lower-3.1.6", 2, 2.5, {"C": 1.0}, 10, initial_tail=(0.2, 0.5))

    def test_sandwich_brackets_log_inverse_tail(self):
        # the bound on P from above is the bound on log(1/P) from below
        pref = default_bound_prefix(2, 2.5, scale=0.9)
        lo_seq = iterate_bound_recursion("upper-3.6.3", 2, 2.5, {"C": 1.0}, 80, pref)
        hi_seq = iterate_bound_recursion("lower-3.1.6", 2, 2.5, {"C": 1.0}, 80, pref)
        for k in range(len(pref) + 1, 81):
            assert lo_seq[k] <= hi_seq[k]

    def test_asymptotic_rate_from_short_prefix(self):
        # window-product growth alone recovers the characteristic rate
        q = q_of_beta(2, 2.5)
        pref = default_bound_prefix(2, 2.5, length=10)
        for mode in ("upper-3.6.3", "lower-3.1.6"):
            seq = iterate_bound_recursion(mode, 2, 2.5, {"C": 1.0}, 80, pref)
            slope = (math.log2(seq[70]) - math.log2(seq[60])) / 10.0
            assert slope == pytest.approx(q, abs=1e-3)

    def test_integer_beta_rate_via_364(self):
        # the delta-discounted window has rate q(ell = beta-1, eta = 1-delta),
        # which approaches the integer-beta rate as delta -> 0
        delta = 0.05
        expected = q_root(2, 2, 1.0 - delta).q
        pref = default_bound_prefix(2, 3.0, length=10)
        seq = iterate_bound_recursion("upper-3.6.4", 2, 3.0, {"C": 1.0, "delta": delta}, 80, pref)
        slope = (math.log2(seq[70]) - math.log2(seq[60])) / 10.0
        assert slope == pytest.approx(expected, abs=1e-3)
        assert abs(expected - q_of_beta(2, 3.0)) < 0.03


# every count, level and D of the analytic layer: (name, call taking the value, lower bound)
INTEGER_ARGS = [
    pytest.param("D", lambda v: RecursionParams(v, 3, 0.0), 2, id="params-D"),
    pytest.param("ell", lambda v: RecursionParams(2, v, 0.5), 1, id="params-ell"),
    pytest.param("D", boundary_beta, 2, id="boundary-D"),
    pytest.param("D", lambda v: q_of_beta(v, 3.0), 2, id="q_of_beta-D"),
    pytest.param("D", lambda v: gamma_exponent(v, 1.2), 2, id="gamma-D"),
    pytest.param("D", lambda v: classify_regime(v, 3.0), 2, id="classify-D"),
    pytest.param("k_max", lambda v: recursion_growth(RecursionParams(2, 3, 0.0), v), 50, id="growth-k_max"),
    pytest.param("D", lambda v: vdk_log_tail(0.5, v, 2), 2, id="vdk-D"),
    pytest.param("k", lambda v: vdk_log_tail(0.5, 2, v), 0, id="vdk-k"),
    pytest.param("k", lambda v: vdk_tail(0.5, 2, v), 0, id="vdk_tail-k"),
    pytest.param("n", lambda v: affine_limit(0.5, 1.0, 0.0, n=v), 0, id="affine-n"),
    pytest.param("D", lambda v: iterate_bound_recursion("lower-3.1.2", v, 3.0, {"C": 1.0}, 5), 2, id="bound-D"),
    pytest.param("k_max", lambda v: iterate_bound_recursion("lower-3.1.2", 2, 3.0, {"C": 1.0}, v), 1,
                 id="bound-k_max"),
    pytest.param("length", lambda v: default_bound_prefix(2, 3.0, length=v), 0, id="prefix-length"),
]


@pytest.mark.parametrize("name, call, lo", INTEGER_ARGS)
@pytest.mark.parametrize("case", ["float", "bool", "below"])
def test_counts_and_levels_must_be_integers(name, call, lo, case):
    # the float lies inside the bound, so only the integer rule rejects it (a
    # fractional k would silently change vdk's exact power); a bool is an int
    # to isinstance
    value = {"float": max(2.5, lo + 0.5), "bool": True, "below": lo - 1}[case]
    with pytest.raises(ConfigError, match=f"^{name}"):
        call(value)
