import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from besovbnn.design import (
    MixturePriorSpec,
    SmoothnessSpec,
    design_architecture,
    mixture_hyperparams,
)
from besovbnn.priors import (
    ArchPriorSpec,
    FlatDensity,
    SparseDraw,
    SpikeSlabSpec,
    arch_prior_log_pmf,
    arch_prior_sample,
    make_density,
    mixture_log_density,
    mixture_sample,
    spike_slab_log_density,
    spike_slab_sample,
)


def friendly_mixture(pi2=0.3, log_sigma1=math.log(0.05), sigma2=1.5):
    """A mixture spec with a non-degenerate spike, for quadrature tests."""
    return MixturePriorSpec(
        log_a=math.log(0.5),
        eta=0.9,
        log_sigma1=log_sigma1,
        sigma2=sigma2,
        pi1=1.0 - pi2,
        pi2=pi2,
        B=5.0,
        K0=5.0,
    )


F1_SPEC = SmoothnessSpec(s=math.log(2) / math.log(3), p=math.inf, q=math.inf, d=1, m=2)
F2_SPEC = SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=2)


class TestSpikeSlab:
    def test_hand_log_density(self):
        # T = 3, S = 1, B = 0.5: -log C(3,1) - log(2B) = -log 3 - 0 = -log 3
        spec = SpikeSlabSpec(T=3, S=1, B=0.5)
        draw = SparseDraw(gamma=(1,), values=[0.2])
        assert spike_slab_log_density(draw, spec) == pytest.approx(-math.log(3.0))
        # B = 1: extra -log 2 per active coordinate
        spec2 = SpikeSlabSpec(T=3, S=1, B=1.0)
        assert spike_slab_log_density(draw, spec2) == pytest.approx(
            -math.log(3.0) - math.log(2.0)
        )

    def test_out_of_slab(self):
        spec = SpikeSlabSpec(T=4, S=2, B=1.0)
        draw = SparseDraw(gamma=(0, 3), values=[0.5, 1.5])
        assert spike_slab_log_density(draw, spec) == -math.inf

    def test_wrong_support_size(self):
        spec = SpikeSlabSpec(T=4, S=2, B=1.0)
        with pytest.raises(ValueError):
            spike_slab_log_density(SparseDraw(gamma=(0,), values=[0.1]), spec)

    @pytest.mark.parametrize("gamma", [(3, 1), (2, 2)], ids=["unsorted", "repeated"])
    def test_indices_must_strictly_increase(self, gamma):
        # sorting (3, 1) would pair index 1 with 0.3, and (2, 2) is no
        # support of size 2
        with pytest.raises(ValueError):
            SparseDraw(gamma=gamma, values=[0.3, 0.1])

    def test_sampler_support_frequencies(self):
        # each of T = 10 coordinates is active with probability S/T = 0.3
        spec = SpikeSlabSpec(T=10, S=3, B=1.0)
        counts = np.zeros(10)
        n_draws = 20_000
        for seed in range(n_draws):
            draw = spike_slab_sample(spec, seed)
            counts[list(draw.gamma)] += 1
        freqs = counts / n_draws
        # binomial SE ~ sqrt(0.3 * 0.7 / 20000) ~ 0.0032; allow 4 SE
        np.testing.assert_allclose(freqs, 0.3, atol=0.013)

    def test_sampler_values_in_slab(self):
        spec = SpikeSlabSpec(T=8, S=4, B=0.7)
        for seed in range(50):
            draw = spike_slab_sample(spec, seed)
            assert np.all(np.abs(draw.values) <= 0.7)
            assert len(set(draw.gamma)) == 4
            assert spike_slab_log_density(draw, spec) > -math.inf

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SpikeSlabSpec(T=3, S=4, B=1.0)
        with pytest.raises(ValueError):
            SpikeSlabSpec(T=3, S=1, B=0.0)


class TestMixtureDensity:
    def test_normalization(self):
        spec = friendly_mixture()
        pdf = lambda t: math.exp(mixture_log_density(t, spec))
        # split at the spike so quadrature resolves the narrow component
        total = (
            quad(pdf, -np.inf, -0.2, limit=200)[0]
            + quad(pdf, -0.2, 0.2, points=[0.0], limit=200)[0]
            + quad(pdf, 0.2, np.inf, limit=200)[0]
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_symmetry(self):
        spec = friendly_mixture()
        ts = np.linspace(0.0, 4.0, 31)
        np.testing.assert_allclose(
            mixture_log_density(ts, spec), mixture_log_density(-ts, spec), rtol=1e-12
        )

    def test_value_at_zero(self):
        # at t = 0 both Gaussians contribute their peak values
        spec = friendly_mixture()
        expected = math.log(
            spec.pi1 / (math.sqrt(2 * math.pi) * math.exp(spec.log_sigma1))
            + spec.pi2 / (math.sqrt(2 * math.pi) * spec.sigma2)
        )
        assert mixture_log_density(0.0, spec) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_spike_scale(self):
        # table-sized spike: away from 0 only the slab contributes
        arch = design_architecture(F1_SPEC, 100)
        spec = mixture_hyperparams(arch)
        slab_only = math.log(spec.pi2) - math.log(spec.sigma2) - 0.5 * math.log(
            2 * math.pi
        ) - 0.5 * (1.0 / spec.sigma2) ** 2
        assert mixture_log_density(1.0, spec) == pytest.approx(slab_only, rel=1e-12)
        assert math.isfinite(mixture_log_density(0.0, spec))

    def test_grad_matches_finite_differences(self):
        spec = friendly_mixture()
        g = make_density("mixture", mixture_spec=spec)
        ts = np.array([-2.0, -0.3, -0.01, 0.02, 0.5, 3.0])
        h = 1e-6
        fd = (g.log_pdf(ts + h) - g.log_pdf(ts - h)) / (2 * h)
        np.testing.assert_allclose(g.grad_log_pdf(ts), fd, rtol=1e-5, atol=1e-5)

    def test_grad_finite_for_degenerate_spike(self):
        arch = design_architecture(F1_SPEC, 1000)
        g = make_density("mixture", mixture_spec=mixture_hyperparams(arch))
        ts = np.array([-1.0, -1e-8, 0.0, 1e-8, 0.3, 2.0])
        grad = g.grad_log_pdf(ts)
        assert np.all(np.isfinite(grad))
        assert grad[2] == 0.0

    def test_sampler_moments(self):
        spec = friendly_mixture(pi2=0.4, log_sigma1=math.log(0.01), sigma2=2.0)
        draws = mixture_sample(spec, 200_000, seed=11)
        # Var = pi1 sigma1^2 + pi2 sigma2^2 ~ 0.4 * 4
        var = spec.pi1 * math.exp(2 * spec.log_sigma1) + spec.pi2 * spec.sigma2**2
        assert np.mean(draws) == pytest.approx(0.0, abs=4 * math.sqrt(var / 200_000) * 2)
        assert np.var(draws) == pytest.approx(var, rel=0.02)

    def test_sampler_tail_fraction(self):
        # P(|theta| > a) ~ pi2 * 2 Q(a / sigma2) when the spike is tiny
        spec = friendly_mixture(pi2=0.3, log_sigma1=math.log(1e-6), sigma2=1.0)
        a = math.exp(spec.log_a)
        draws = mixture_sample(spec, 100_000, seed=3)
        from scipy.stats import norm

        expected = spec.pi2 * 2 * norm.sf(a / spec.sigma2)
        observed = np.mean(np.abs(draws) > a)
        se = math.sqrt(expected * (1 - expected) / 100_000)
        assert abs(observed - expected) < 4 * se

    def test_analytic_tail_mass(self):
        spec = friendly_mixture()
        g = make_density("mixture", mixture_spec=spec)
        for c in (0.5, 1.0, 3.0):
            numeric = quad(
                lambda t: math.exp(mixture_log_density(t, spec)), c, np.inf, limit=200
            )[0]
            assert g.log_tail_mass(c) == pytest.approx(
                math.log(2 * numeric), abs=1e-8
            )

    def test_log_density_sum_sums_coordinates(self):
        g = FlatDensity()
        assert g.log_density_sum(np.ones(7)) == 0.0
        gauss = make_density("gauss", sigma=2.0)
        theta = np.array([0.5, -1.0])
        expected = float(np.sum(gauss.log_pdf(theta)))
        assert gauss.log_density_sum(theta) == pytest.approx(expected)


# Reference copy of the mixture log-density and gradient as logsumexp over
# both components at every coordinate, which the slab-only fast path must
# reproduce bit for bit.


def _reference_terms(t, spec):
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        z1_sq = np.square(t * math.exp(-spec.log_sigma1))
        z1_sq = np.where(t == 0.0, 0.0, z1_sq)
        spike = math.log(spec.pi1) - spec.log_sigma1 - 0.5 * math.log(2.0 * math.pi) - 0.5 * z1_sq
        spike = np.where(np.isfinite(z1_sq), spike, -np.inf)
        slab = (
            math.log(spec.pi2)
            - math.log(spec.sigma2)
            - 0.5 * math.log(2.0 * math.pi)
            - 0.5 * np.square(t / spec.sigma2)
        )
    return np.stack([np.broadcast_to(spike, np.shape(slab)), slab])


def reference_log_pdf(t, spec):
    out = logsumexp(_reference_terms(t, spec), axis=0)
    return float(out) if np.ndim(t) == 0 else out


def reference_grad_log_pdf(t, spec):
    t = np.asarray(t, dtype=float)
    terms = _reference_terms(t, spec)
    lse = logsumexp(terms, axis=0)
    log_w_spike = terms[0] - lse
    log_w_slab = terms[1] - lse
    with np.errstate(over="ignore", invalid="ignore"):
        spike_part = np.where(
            np.isneginf(log_w_spike), 0.0, np.exp(-2.0 * spec.log_sigma1 + log_w_spike)
        )
        slab_part = np.exp(log_w_slab) / spec.sigma2**2
        grad = -t * (spike_part + slab_part)
    return np.where(t == 0.0, 0.0, grad)


def reference_cut(spec):
    """The spike cut for a spike much narrower than the slab."""
    log_ratio = (math.log(spec.pi1) - spec.log_sigma1
                 - math.log(spec.pi2) + math.log(spec.sigma2))
    margin = 800.0 + abs(log_ratio) + 2.0 * abs(spec.log_sigma1)
    return math.exp(spec.log_sigma1) * math.sqrt(2.0 * margin)


DESIGNED_SPECS = {
    f"{name}-n{n:g}": mixture_hyperparams(design_architecture(smooth, int(n)))
    for name, smooth in (("f1", F1_SPEC), ("f2", F2_SPEC))
    for n in (100, 1000, 1e5, 1e8)
}
# A spike close to the slab's width and one wider than the slab: the cut has
# to widen, or vanish, for these.
OTHER_SPECS = {
    "wide-spike": friendly_mixture(log_sigma1=math.log(0.05)),
    "spike-wider-than-slab": MixturePriorSpec(
        log_a=math.log(3.0), eta=0.9, log_sigma1=math.log(2.0), sigma2=1.5,
        pi1=0.7, pi2=0.3, B=5.0, K0=5.0),
}
ALL_SPECS = {**DESIGNED_SPECS, **OTHER_SPECS}


def assert_bitwise(got, want):
    """Same type, shape and bits; a NaN only has to meet a NaN, since which
    sign bit a NaN carries depends on the instruction that made it."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    differ = got[~nan].view(np.int64) != want[~nan].view(np.int64)
    assert not np.any(differ), got[~nan][differ][:5]


def _spike_multiples(spec):
    """Multiples of sigma1 spread over +-3 cuts, for specs with a finite cut."""
    sigma1 = math.exp(spec.log_sigma1)
    span = 3.0 * reference_cut(spec) / sigma1
    return st.floats(-span, span).map(lambda k: k * sigma1)


def _coordinates(spec):
    return st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150,
                         -1e150, 1e300, -1e300, math.inf, -math.inf, math.nan]),
        _spike_multiples(spec),
        st.floats(-1e-300, 1e-300),  # subnormals and the smallest normals
        st.floats(-1e150, 1e150, allow_nan=False),
    )


class TestMixtureFastPath:
    @pytest.mark.parametrize("name", sorted(ALL_SPECS))
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_bitwise_equal_to_reference(self, name, data):
        spec = ALL_SPECS[name]
        g = make_density("mixture", mixture_spec=spec)
        ts = np.array(data.draw(st.lists(_coordinates(spec), min_size=1, max_size=40)))
        t = float(ts[0])
        with np.errstate(invalid="ignore"):  # infinite and NaN inputs
            assert_bitwise(g.log_pdf(ts), reference_log_pdf(ts, spec))
            assert_bitwise(g.grad_log_pdf(ts), reference_grad_log_pdf(ts, spec))
            assert_bitwise(g.log_pdf(t), reference_log_pdf(t, spec))
            assert_bitwise(g.grad_log_pdf(t), reference_grad_log_pdf(t, spec))

    @pytest.mark.parametrize("name", sorted(ALL_SPECS))
    def test_dense_sweep_across_the_cut(self, name):
        spec = ALL_SPECS[name]
        g = make_density("mixture", mixture_spec=spec)
        cut = reference_cut(spec)
        edge = np.array([np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)])
        ts = np.concatenate([np.linspace(-2.0 * cut, 2.0 * cut, 39_999), edge, -edge])
        ts = ts.reshape(-1, 3)  # the fast path keeps the input's shape
        assert_bitwise(g.log_pdf(ts), reference_log_pdf(ts, spec))
        assert_bitwise(g.grad_log_pdf(ts), reference_grad_log_pdf(ts, spec))

    def test_cut_needs_the_gradient_margin(self):
        # Without the 2 |log sigma1| term the spike's share of the gradient
        # still counts just past the cut at large n.
        spec = DESIGNED_SPECS["f1-n1e+08"]
        log_ratio = (math.log(spec.pi1) - spec.log_sigma1
                     - math.log(spec.pi2) + math.log(spec.sigma2))
        short_cut = math.exp(spec.log_sigma1) * math.sqrt(2.0 * (800.0 + abs(log_ratio)))
        ts = np.linspace(short_cut, 2.0 * short_cut, 1001)
        slab_only = ts * -(1.0 / spec.sigma2**2)
        assert np.any(reference_grad_log_pdf(ts, spec) != slab_only)
        g = make_density("mixture", mixture_spec=spec)
        assert_bitwise(g.grad_log_pdf(ts), reference_grad_log_pdf(ts, spec))


class TestSupportCondition:
    def test_designed_mixture_controls_outside_mass(self):
        # total prior mass escaping [-B, B] over all T coordinates is below
        # exp(-K0 n eps^2)
        for n in (100, 1000):
            arch = design_architecture(F1_SPEC, n)
            spec = mixture_hyperparams(arch)
            g = make_density("mixture", mixture_spec=spec)
            log_v = math.log(arch.T) + g.log_tail_mass(arch.B)
            assert log_v <= -5.0 * arch.n_eps_sq


class TestArchPrior:
    def test_zt_poisson_hand_value(self):
        # rate 1: P(N = 1) = e^{-1} / (1 - e^{-1}) = 1 / (e - 1)
        spec = ArchPriorSpec(lam=1.0, rho=1.0, beta=1.0)
        lp = arch_prior_log_pmf(1, 1, 1.0, spec)
        expected = 2 * math.log(1.0 / (math.e - 1.0)) + math.log(1.0) - 1.0
        assert lp == pytest.approx(expected, rel=1e-12)

    def test_pmf_sums_to_one(self):
        # the N marginal of the joint pmf sums to 1 once the L and B factors
        # are divided out
        spec = ArchPriorSpec(lam=2.5, rho=1.3, beta=0.7)
        fixed = arch_prior_log_pmf(1, 2, 1.0, spec) - (
            math.log(2.5) - math.lgamma(2) - math.log(math.expm1(2.5))
        )
        total = sum(
            math.exp(arch_prior_log_pmf(k, 2, 1.0, spec) - fixed) for k in range(1, 80)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampler_determinism(self):
        spec = ArchPriorSpec(lam=3.0, rho=2.0, beta=0.5)
        assert arch_prior_sample(spec, 42) == arch_prior_sample(spec, 42)

    def test_sampler_moments(self):
        spec = ArchPriorSpec(lam=3.0, rho=2.0, beta=0.5)
        ns, ls, bs = [], [], []
        for seed in range(20_000):
            N, L, B, _ = arch_prior_sample(spec, seed)
            ns.append(N)
            ls.append(L)
            bs.append(B)
        # zero-truncated Poisson mean lam / (1 - e^-lam)
        mean_n = 3.0 / (1 - math.exp(-3.0))
        mean_l = 2.0 / (1 - math.exp(-2.0))
        assert np.mean(ns) == pytest.approx(mean_n, rel=0.02)
        assert np.mean(ls) == pytest.approx(mean_l, rel=0.02)
        assert np.mean(bs) == pytest.approx(2.0, rel=0.03)  # Exp(beta=0.5) mean

    def test_geometry(self):
        spec = ArchPriorSpec(lam=3.0, rho=2.0, beta=0.5, W1=50)
        N, L, B, geom = arch_prior_sample(spec, 7)
        assert geom["W"] == N * 50
        assert geom["S"] == (L - 1) * 2500 * N + N
        assert geom["L"] == L and geom["B"] == B

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ArchPriorSpec(lam=0.0, rho=1.0, beta=1.0)
        with pytest.raises(ValueError):
            arch_prior_log_pmf(1, 1, -1.0, ArchPriorSpec(lam=1, rho=1, beta=1))


class TestDensityRegistry:
    def test_names_and_errors(self):
        with pytest.raises(KeyError):
            make_density("nope")
        with pytest.raises(ValueError):
            make_density("mixture")

    def test_laplace_tail(self):
        g = make_density("laplace", scale=0.5)
        assert g.log_tail_mass(1.0) == pytest.approx(-2.0)
        ts = np.array([-1.0, 0.5])
        np.testing.assert_allclose(g.grad_log_pdf(ts), [2.0, -2.0])

    def test_gauss_tail(self):
        from scipy.stats import norm

        g = make_density("gauss", sigma=2.0)
        assert g.log_tail_mass(3.0) == pytest.approx(math.log(2 * norm.sf(1.5)), rel=1e-10)

    def test_uniform_slab(self):
        g = make_density("uniform-slab", B=2.0)
        assert g.log_pdf(1.0) == pytest.approx(-math.log(4.0))
        assert g.log_pdf(2.5) == -math.inf
        assert g.log_tail_mass(1.0) == pytest.approx(math.log(0.5))
        assert g.log_tail_mass(2.0) == -math.inf


# Every registered density, the flat one, and a mixture whose spike is wide
# enough for ordinary coordinates to fall inside its cut (every coordinate
# then takes the two-component path, so its largest size is left out).
SUM_DENSITIES = {
    "mixture-designed": lambda: make_density("mixture", mixture_spec=DESIGNED_SPECS["f2-n100"]),
    "mixture-wide-spike": lambda: make_density("mixture", mixture_spec=OTHER_SPECS["wide-spike"]),
    "gauss": lambda: make_density("gauss", sigma=0.7),
    "laplace": lambda: make_density("laplace", scale=0.5),
    "uniform-slab": lambda: make_density("uniform-slab", B=0.5),
    "flat": FlatDensity,
}


def _stack_rows(g, R_max, T, seed):
    """R_max rows of T coordinates at VI-like scales; mixture rows also put
    every 7th coordinate inside the spike cut, and uniform-slab rows 1 and 3
    each carry one coordinate outside the slab."""
    rng = np.random.default_rng(seed)
    theta = 0.05 * rng.standard_normal((R_max, T))
    if g.name == "mixture":
        sigma1 = math.exp(g.spec.log_sigma1)
        inside = theta[:, ::7]
        inside *= sigma1 / 0.05
        assert np.all(np.abs(inside) < reference_cut(g.spec))
    if g.name == "uniform-slab":
        theta[1, T // 2] = 1.0
        theta[3, -1] = -1.0
    return theta


class TestStackedLogDensitySum:
    @pytest.mark.parametrize("name,T", [
        (name, T) for name in sorted(SUM_DENSITIES) for T in (13, 673, 8191, 483001)
        if (name, T) != ("mixture-wide-spike", 483001)])
    def test_rows_equal_per_row_calls(self, name, T):
        # numpy does not promise that a sum over the last axis of (R, T)
        # rounds as R separate sums; the stacked ELBO relies on it
        g = SUM_DENSITIES[name]()
        theta = _stack_rows(g, 20, T, seed=T)
        per_row = [g.log_density_sum(row) for row in theta]
        assert all(type(v) is float for v in per_row)
        if name == "uniform-slab":
            assert per_row[1] == per_row[3] == -math.inf and math.isfinite(per_row[0])
        for R in (1, 2, 5, 20):
            got = g.log_density_sum(theta[:R])
            assert isinstance(got, np.ndarray) and got.shape == (R,)
            assert got.tobytes() == np.array(per_row[:R]).tobytes()


SPECIAL_COORDINATES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150,
                       1e300, -1e300, math.inf, -math.inf, math.nan]


class TestLogPdfOut:
    @pytest.mark.parametrize("name", sorted(SUM_DENSITIES))
    def test_out_gives_the_same_bits(self, name):
        # the VI step passes a scratch array as out; the values it holds
        # must be those of a fresh call, for vectors and for stacks
        g = SUM_DENSITIES[name]()
        theta = _stack_rows(g, 4, 673, seed=11)
        theta[2, 100 : 100 + len(SPECIAL_COORDINATES)] = SPECIAL_COORDINATES
        with np.errstate(invalid="ignore", over="ignore"):
            for t in (theta, theta[2], theta[0]):
                out = np.full(t.shape, 7.0)
                assert g.log_pdf(t, out=out) is out
                assert_bitwise(out, g.log_pdf(t))
                total = g.log_density_sum(t, out=np.empty(t.shape))
                assert_bitwise(total, g.log_density_sum(t))

    def test_mixture_rejects_a_strided_out(self):
        g = SUM_DENSITIES["mixture-designed"]()
        with pytest.raises(ValueError, match="C-contiguous"):
            g.log_pdf(np.zeros(5), out=np.empty(10)[::2])
