"""Service distribution construction and sampling checks."""

import math
import random

import numpy as np
import pytest

from jsqlab import ConfigError, make_sampler, make_spec
from jsqlab.config import echo, read_config
from jsqlab.service_dist import KINDS, BlockDraws, ServiceDistributionSpec

from oracles import FixedU, survival


def all_specs():
    return [
        make_spec("exponential"),
        make_spec("lomax", 2.5),
        make_spec("lomax", 2.0),
        make_spec("pareto", 2.5),
        make_spec("deterministic"),
        make_spec("bounded-uniform"),
    ]


class TestConstruction:
    def test_lomax_scale_forces_mean_one(self):
        spec = make_spec("lomax", 2.0)
        assert spec.sigma == 1.0  # mean sigma/(beta-1) = 1

    def test_pareto_support_forces_mean_one(self):
        spec = make_spec("pareto", 2.0)
        assert spec.s_min == 0.5  # mean beta*s_min/(beta-1) = 1

    def test_infinite_mean_rejected(self):
        with pytest.raises(ConfigError):
            make_spec("lomax", 1.0)
        with pytest.raises(ConfigError):
            make_spec("pareto", 0.9)

    @pytest.mark.parametrize("beta", ["2", "abc", True, pytest.param(int("9" * 400), id="too-large-for-a-float")])
    def test_beta_must_be_a_real_number(self, beta):
        with pytest.raises(ConfigError, match="^beta"):
            make_spec("lomax", beta)

    def test_beta_rejected_for_kinds_without_tail_exponent(self):
        for kind in ("exponential", "deterministic", "bounded-uniform"):
            with pytest.raises(ConfigError):
                make_spec(kind, 2.0)

    def test_beta_required_for_heavy_tails(self):
        with pytest.raises(ConfigError):
            make_spec("lomax")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_spec("weibull")

    def test_config_round_trip(self):
        for spec in all_specs():
            doc = echo("service", spec)
            del doc["mode"]
            assert read_config(doc, {}, ServiceDistributionSpec) == [spec]

    def test_config_rejects_extra_fields(self):
        with pytest.raises(ConfigError):
            read_config({"kind": "lomax", "beta": 2.0, "scale": 3}, {}, ServiceDistributionSpec)


class TestSampling:
    def test_deterministic_point_mass(self):
        assert make_sampler(make_spec("deterministic"))(random.Random(1)) == 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_draws_come_in_the_shape_of_their_uniforms(self, kind):
        # n draws from a BlockDraws of n, one float from random.Random: one uniform each
        draw = make_sampler(make_spec(kind, 1.4 if kind in ("lomax", "pareto") else None))
        gen, twin = np.random.default_rng(6), np.random.default_rng(6)
        block = draw(BlockDraws([gen], [7]))
        twin.random(7)
        assert isinstance(block, np.ndarray) and block.shape == (7,)
        assert gen.bit_generator.state == twin.bit_generator.state
        rng, rng_twin = random.Random(6), random.Random(6)
        one = draw(rng)
        rng_twin.random()
        assert type(one) is float
        assert rng.getstate() == rng_twin.getstate()

    def test_one_generator_adapter_is_its_sized_draw(self):
        gen, twin = np.random.default_rng(8), np.random.default_rng(8)
        block = BlockDraws([gen], [1000]).random()
        assert block.tobytes() == twin.random(1000).tobytes()
        assert gen.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("method", ["random", "standard_exponential"])
    def test_group_concatenates_each_generators_sized_draw(self, method):
        sizes = [3, 1000, 1, 64]
        gens = [np.random.default_rng(40 + i) for i in range(len(sizes))]
        twins = [np.random.default_rng(40 + i) for i in range(len(sizes))]
        block = BlockDraws(gens, sizes).draw(method)
        alone = np.concatenate([getattr(twin, method)(k) for twin, k in zip(twins, sizes)])
        assert block.tobytes() == alone.tobytes()
        # a later call with other sizes carries on each generator's stream
        again = BlockDraws(gens, sizes).draw(method, [5, 2, 0, 7])
        alone = np.concatenate([getattr(twin, method)(k) for twin, k in zip(twins, [5, 2, 0, 7])])
        assert again.tobytes() == alone.tobytes()

    def test_size_zero_makes_no_call(self):
        gens = [np.random.default_rng(i) for i in range(3)]
        idle = gens[1].bit_generator.state
        block = BlockDraws(gens, [4, 0, 2]).random()
        assert block.shape == (6,)
        assert gens[1].bit_generator.state == idle

    def test_exponential_draw_is_expovariate(self):
        # rng.expovariate(1.0) is the old -log(1 - rng.random()), double for double
        a, b = random.Random(3), random.Random(3)
        draw = make_sampler(make_spec("exponential"))
        assert all(draw(a) == -math.log(1.0 - b.random()) for _ in range(100_000))

    def test_exponential_inverse_transform_of_one_uniform(self):
        # the draw is a deterministic function of a single uniform variate
        u = 0.3
        s = make_sampler(make_spec("exponential"))(FixedU([u]))
        assert s == pytest.approx(-math.log(1.0 - u), abs=1e-15)
        # and equals -log(u') for the complementary uniform u' = 1 - u
        assert s == pytest.approx(-math.log(0.7), abs=1e-15)

    @pytest.mark.parametrize("u", [0.8, 1.0 - 1e-12])
    @pytest.mark.parametrize("kind, beta", [("lomax", 2.0), ("lomax", 1.4), ("pareto", 2.5), ("pareto", 1.4)])
    def test_power_law_inverse_transform(self, kind, beta, u):
        # survival at the draw recovers the complementary uniform, out to the
        # far tail: the draws follow the power law of exponent -beta
        spec = make_spec(kind, beta)
        s = make_sampler(spec)(FixedU([u]))
        assert survival(spec, s) == pytest.approx(1.0 - u, rel=1e-12)

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.beta}")
    def test_mean_one_monte_carlo(self, spec):
        # 1e6 draws within 3 standard errors of the mean-1 normalization
        rng = random.Random(2024)
        draw = make_sampler(spec)
        n = 1_000_000
        xs = np.fromiter((draw(rng) for _ in range(n)), dtype=float, count=n)
        se = xs.std(ddof=1) / math.sqrt(n)
        assert abs(xs.mean() - 1.0) <= max(3 * se, 1e-9)

    def test_lomax_beta2_mean_within_percent(self):
        rng = random.Random(77)
        draw = make_sampler(make_spec("lomax", 2.0))
        n = 1_000_000
        total = sum(draw(rng) for _ in range(n))
        assert abs(total / n - 1.0) <= 0.01

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.beta}")
    def test_kolmogorov_smirnov_against_closed_form(self, spec):
        rng = random.Random(31415)
        draw = make_sampler(spec)
        n = 100_000
        xs = sorted(draw(rng) for _ in range(n))
        if spec.kind == "deterministic":
            # every draw reproduces the atom exactly: the empirical CDF
            # coincides with the true CDF and the KS distance is 0
            assert all(x == 1.0 for x in xs)
            return
        # two-sided KS distance for the continuous kinds
        d = 0.0
        for i, x in enumerate(xs):
            f = 1.0 - survival(spec, x)
            d = max(d, abs((i + 1) / n - f), abs(i / n - f))
        assert d < 0.01
