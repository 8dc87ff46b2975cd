import math

import numpy as np
import pytest

from besovbnn.testbed import (
    Dataset,
    cantor_function,
    empirical_norm,
    eval_cantor,
    eval_log_singular,
    generate_dataset,
    log_singular_function,
    tabulated_function,
)


class TestCantor:
    def test_boundary_fixed_points(self):
        assert eval_cantor(0.0) == 0.0
        assert eval_cantor(1.0) == 1.0

    def test_known_values(self):
        # 1/3 = 0.1 (ternary) terminates at the first digit 1 -> 0.1 (binary)
        assert eval_cantor(1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)
        # 1/4 = 0.0202... (ternary) -> 0.0101... (binary) = 1/3
        assert eval_cantor(0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)
        # middle third is flat at 1/2
        assert eval_cantor(0.5) == pytest.approx(0.5, abs=1e-15)
        assert eval_cantor(0.4) == pytest.approx(0.5, abs=1e-15)

    def test_self_similarity(self):
        # f(x/3) = f(x)/2 on [0,1]; tolerance allows for the Holder-continuous
        # response to the rounding of x/3
        for x in np.linspace(0.0, 1.0, 97):
            assert eval_cantor(x / 3.0) == pytest.approx(eval_cantor(x) / 2.0, abs=1e-9)

    def test_midpoint_symmetry(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 1.0, 10_000)
        for x in xs:
            assert eval_cantor(x) + eval_cantor(1.0 - x) == pytest.approx(1.0, abs=1e-12)

    def test_nondecreasing(self):
        rng = np.random.default_rng(11)
        xs = np.sort(rng.uniform(0.0, 1.0, 2000))
        vals = [eval_cantor(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_cantor(-0.1)
        with pytest.raises(ValueError):
            eval_cantor(1.1)


class TestLogSingular:
    def test_endpoint_values(self):
        assert eval_log_singular(0.0) == 0.0
        assert eval_log_singular(1.0) == pytest.approx(-1.0 / math.log(2.0), rel=1e-12)
        assert eval_log_singular(0.5) == pytest.approx(1.0 / math.log(0.25), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_log_singular(-1e-9)
        with pytest.raises(ValueError):
            eval_log_singular(1.0 + 1e-9)


class TestDataset:
    def test_noiseless_matches_truth(self):
        f = log_singular_function()
        ds = generate_dataset(f, 5, 0.0, seed=7)
        np.testing.assert_array_equal(ds.y, f(ds.x[:, 0]))

    def test_seed_determinism(self):
        f = cantor_function()
        a = generate_dataset(f, 100, 0.1, seed=1)
        b = generate_dataset(f, 100, 0.1, seed=1)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_noise_variance(self):
        # chi-square bound: sample variance of 1e5 N(0, 0.01) residuals
        f = log_singular_function()
        ds = generate_dataset(f, 100_000, 0.1, seed=3)
        resid = ds.y - f(ds.x[:, 0])
        assert 0.0097 <= np.var(resid) <= 0.0103

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate_dataset(cantor_function(), 0, 0.1, seed=0)

    def test_row_of_x_is_not_a_column(self):
        # x is (n, d): a (1, 3) x is one point in three dimensions, not
        # three points, so three values of y do not match it
        with pytest.raises(ValueError):
            Dataset(x=[[0.1, 0.2, 0.3]], y=[1.0, 2.0, 3.0])


class TestEmpiricalNorm:
    def test_constant(self):
        assert empirical_norm([3.0] * 17) == pytest.approx(3.0)
        assert empirical_norm([-2.5] * 4) == pytest.approx(2.5)

    def test_hand_value(self):
        assert empirical_norm([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_zeros(self):
        assert empirical_norm(np.zeros(9)) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_norm([])

    def test_scaling(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(50)
        assert empirical_norm(-3.0 * v) == pytest.approx(3.0 * empirical_norm(v))


def test_tabulated_function_interpolates():
    f = tabulated_function([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert f(0.25) == pytest.approx(0.5)
