"""Tail-model fitting on synthetic data with known slopes."""

import math
from dataclasses import asdict

import pytest

from jsqlab import ConfigError, InsufficientDataError, fit_tail
from jsqlab.tails import TailEstimate, read_tail_csv, write_tail_csv


def rows_from(p_of_k, ks, hw=0.0):
    return [(k, p_of_k(k), p_of_k(k) - hw, p_of_k(k) + hw) for k in ks]


class TestSyntheticSlopes:
    def test_doubly_exponential_construction(self):
        rows = rows_from(lambda k: math.exp(-(2.0 ** (0.7 * k))), range(1, 11))
        fit = fit_tail(rows, "doubly-exponential", d_choices=2)
        assert fit.slope == pytest.approx(0.700, abs=0.01)
        assert fit.r2 > 0.999
        assert fit.k_window == (1, 10)

    def test_power_law_construction(self):
        rows = rows_from(lambda k: 1.0 / k, range(2, 40))
        fit = fit_tail(rows, "power-law")
        assert fit.slope == pytest.approx(1.000, abs=1e-9)

    def test_exponential_construction(self):
        rows = rows_from(lambda k: math.exp(-0.8 * k), range(1, 30))
        fit = fit_tail(rows, "exponential")
        assert fit.slope == pytest.approx(0.8, abs=1e-9)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)

    def test_recovery_within_percent_for_all_models(self):
        cases = [
            ("doubly-exponential", lambda k: math.exp(-(2.0 ** (0.45 * k))), range(1, 12), 0.45),
            ("power-law", lambda k: 0.7 * k**-1.5, range(2, 30), 1.5),
            ("exponential", lambda k: 0.9 * math.exp(-0.3 * k), range(1, 25), 0.3),
        ]
        for model, f, ks, expect in cases:
            fit = fit_tail(rows_from(f, ks), model, d_choices=2)
            assert fit.slope == pytest.approx(expect, abs=0.01 * max(1.0, expect))


class TestFilters:
    def test_relative_ci_filter(self):
        rows = rows_from(lambda k: math.exp(-0.5 * k), range(1, 9), hw=0.0)
        noisy = [(9, 1e-4, 1e-4 - 9e-5, 1e-4 + 9e-5)]  # 90% relative width
        fit = fit_tail(rows + noisy, "exponential")
        assert fit.k_window == (1, 8)
        assert fit.n_points == 8

    def test_zero_and_one_levels_skipped(self):
        rows = [(0, 1.0, 1.0, 1.0), (1, 1.0, 1.0, 1.0)] + rows_from(
            lambda k: math.exp(-0.5 * k), range(2, 8)
        ) + [(8, 0.0, 0.0, 0.0)]
        fit = fit_tail(rows, "exponential")
        assert fit.k_window == (2, 7)

    def test_window_arguments(self):
        rows = rows_from(lambda k: math.exp(-0.5 * k), range(1, 20))
        fit = fit_tail(rows, "exponential", k_min=5, k_max=10)
        assert fit.k_window == (5, 10)

    @pytest.mark.parametrize("name, window", [
        ("k_min", {"k_min": True, "k_max": 8}),
        ("k_min", {"k_min": 2.5, "k_max": 9}),
        ("k_max", {"k_min": 2, "k_max": 9.5}),
        ("k_max", {"k_max": 8.0}),
        ("k_min", {"k_min": -1}),
    ])
    def test_window_takes_integer_levels(self, name, window):
        rows = rows_from(lambda k: math.exp(-0.5 * k), range(1, 20))
        with pytest.raises(ConfigError, match=f"^{name}"):
            fit_tail(rows, "exponential", **window)

    def test_insufficient_data_lists_levels(self):
        rows = rows_from(lambda k: math.exp(-0.5 * k), range(1, 4))
        with pytest.raises(InsufficientDataError, match="usable"):
            fit_tail(rows, "exponential")

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            fit_tail(rows_from(lambda k: 0.5**k, range(1, 8)), "gaussian")

    @pytest.mark.parametrize("d_choices", [2.5, True, 1])
    def test_doubly_exponential_takes_integer_d_choices(self, d_choices):
        with pytest.raises(ConfigError, match="^d_choices"):
            fit_tail(rows_from(lambda k: 0.5**k, range(1, 8)), "doubly-exponential", d_choices=d_choices)

    def test_weights_downweight_noisy_levels(self):
        # a noisy outlier inside the filter should barely move the slope
        clean = rows_from(lambda k: math.exp(-0.5 * k), range(1, 12), hw=0.0)
        p9 = math.exp(-0.5 * 9) * 1.25
        contaminated = [r if r[0] != 9 else (9, p9, p9 * 0.75, p9 * 1.25) for r in clean]
        fit = fit_tail(contaminated, "exponential")
        assert fit.slope == pytest.approx(0.5, abs=0.01)


class TestRoundTrip:
    def test_csv_refit_is_bit_identical(self, tmp_path):
        est = TailEstimate(
            p=[1.0, 0.5123456789012345, 0.123456789012345e-1, 0.4e-3, 0.71e-4],
            ci=[0.0, 0.01, 0.001, 0.00009, 0.00001],
        )
        path = tmp_path / "tail.csv"
        write_tail_csv(path, est)
        # floats are written with repr precision, so parsing is lossless and
        # re-reading plus re-fitting reproduces the fit exactly
        rows1 = read_tail_csv(path)
        rows2 = read_tail_csv(path)
        assert rows1 == rows2
        assert [r[1] for r in rows1] == est.p
        fit1 = fit_tail(path, "exponential")
        fit2 = fit_tail(rows1, "exponential")
        assert fit1 == fit2
        assert asdict(fit1) == asdict(fit2)

    def test_header_is_stable(self, tmp_path):
        est = TailEstimate(p=[1.0, 0.5], ci=[0.0, 0.1])
        path = tmp_path / "t.csv"
        write_tail_csv(path, est)
        text = path.read_text()
        assert text.startswith("k,p,ci_low,ci_high\n")
        assert "\r" not in text
