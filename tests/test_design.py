import math
import re
import sys
from dataclasses import asdict
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtri

from besovbnn import design
from besovbnn.design import (
    ArchSpec,
    MixturePriorSpec,
    SmoothnessSpec,
    TruncationThresholdError,
    base_width,
    check_shrinkage_conditions,
    covering_bound,
    covering_bound_truncated,
    design_architecture,
    mixture_hyperparams,
)
from besovbnn.priors import make_density

F1_SPEC = SmoothnessSpec(s=math.log(2) / math.log(3), p=math.inf, q=math.inf, d=1, m=2)
F2_SPEC = SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=2)


class TestSmoothnessSpec:
    def test_delta_and_xi(self):
        assert F1_SPEC.delta == 0.0
        assert F1_SPEC.xi == 1.0
        assert F2_SPEC.delta == 1.0
        # nu = (1.5 - 1) / 2 = 0.25, 1/nu + 1/d = 5 -> xi capped at 1
        assert F2_SPEC.nu == pytest.approx(0.25)
        assert F2_SPEC.xi == 1.0

    def test_documented_defaults(self):
        # p = q = inf, d = 1, m = 2 unless given; asdict keeps the field order.
        assert SmoothnessSpec(s=F1_SPEC.s) == F1_SPEC
        assert list(asdict(SmoothnessSpec(s=0.5))) == ["s", "p", "q", "d", "m"]

    def test_delta_violation(self):
        with pytest.raises(ValueError):
            SmoothnessSpec(s=0.2, p=1.0, q=1.0, d=1, m=2)

    def test_m_violation(self):
        with pytest.raises(ValueError):
            SmoothnessSpec(s=2.5, p=math.inf, q=math.inf, d=1, m=2)

    @pytest.mark.parametrize("field", ["s", "p", "q"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf, 0.0])
    def test_nan_and_nonpositive_rejected(self, field, value):
        with pytest.raises(ValueError):
            SmoothnessSpec(**{**dict(s=1.5, p=1.0, q=1.0, d=1, m=2), field: value})


class TestBaseWidth:
    @pytest.mark.parametrize("d,m,expected", [(1, 2, 50), (1, 1, 20), (2, 2, 100)])
    def test_formula(self, d, m, expected):
        assert base_width(d, m) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            base_width(0, 1)


class TestDesignArchitecture:
    def test_table_f1(self):
        a100 = design_architecture(F1_SPEC, 100)
        assert (a100.L, a100.W, a100.N) == (13, 400, 8)
        assert a100.B == pytest.approx(80.0)
        a1000 = design_architecture(F1_SPEC, 1000)
        assert (a1000.L, a1000.W, a1000.N, a1000.B) == (15, 1100, 22, 220.0)

    def test_table_f2(self):
        a100 = design_architecture(F2_SPEC, 100)
        assert (a100.L, a100.W) == (13, 200)
        a1000 = design_architecture(F2_SPEC, 1000)
        assert (a1000.L, a1000.W) == (17, 300)

    def test_sparsity_and_counts(self):
        a = design_architecture(F1_SPEC, 100)
        assert a.S == (a.L - 1) * a.W0**2 * a.N + a.N == 240008
        widths = [1] + [a.W] * a.L + [1]
        T = sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(a.L + 1))
        assert a.T == T
        assert a.S <= a.T

    def test_compat_count_is_the_weights_alone(self):
        for spec in (F1_SPEC, F2_SPEC):
            a = design_architecture(spec, 1000)
            widths = [spec.d] + [a.W] * a.L + [1]
            assert a.T_compat == sum(p * q for p, q in zip(widths, widths[1:]))

    def test_rate_identity(self):
        for n in (100, 777, 5000):
            a = design_architecture(F2_SPEC, n)
            s, d = F2_SPEC.s, F2_SPEC.d
            assert a.eps * n ** (s / (2 * s + d)) * math.log(n) ** (-1.5) == pytest.approx(1.0)

    def test_monotone_in_n(self):
        ns = [50, 100, 500, 1000, 5000, 20000]
        archs = [design_architecture(F1_SPEC, n) for n in ns]
        assert all(b.N >= a.N for a, b in zip(archs, archs[1:]))
        assert all(b.L >= a.L for a, b in zip(archs, archs[1:]))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            design_architecture(F1_SPEC, 1)

    @pytest.mark.parametrize("cB", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_cB(self, cB):
        with pytest.raises(ValueError, match="cB"):
            design_architecture(F1_SPEC, 100, cB)

    def test_overflow_names_the_input(self):
        # c_dm = 1 + 2 d e (2e)^m / sqrt(m) overflows doubles at large m
        spec = SmoothnessSpec(s=1.5, p=1.0, q=1.0, d=1, m=100_000)
        with pytest.raises(ValueError, match="m=100000"):
            design_architecture(spec, 100)

    def test_B_overflow_names_cB(self):
        with pytest.raises(ValueError, match="cB=1e"):
            design_architecture(F1_SPEC, 100, 1e308)


class TestMixtureHyperparams:
    def test_table_sigma2(self):
        # slab scales from the reported design tables, 4-digit agreement
        for spec, n, expected in [
            (F1_SPEC, 100, 0.8443),
            (F1_SPEC, 1000, 0.7597),
            (F2_SPEC, 100, 0.6571),
            (F2_SPEC, 1000, 0.4023),
        ]:
            mix = mixture_hyperparams(design_architecture(spec, n))
            assert mix.sigma2 == pytest.approx(expected, rel=2e-4)

    def test_table_pi2_compat(self):
        for spec, n, expected in [
            (F1_SPEC, 100, 0.1359),
            (F1_SPEC, 1000, 0.0489),
            (F2_SPEC, 100, 0.2710),
            (F2_SPEC, 1000, 0.1771),
        ]:
            mix = mixture_hyperparams(design_architecture(spec, n), counting="compat")
            assert mix.pi2 == pytest.approx(expected, rel=0.01)

    def test_pi2_canonical_near_table(self):
        for spec, n, expected in [(F1_SPEC, 100, 0.1359), (F2_SPEC, 1000, 0.1771)]:
            mix = mixture_hyperparams(design_architecture(spec, n))
            assert mix.pi2 == pytest.approx(expected, rel=0.10)

    def test_table_log_sigma1(self):
        # order-of-magnitude agreement with the reported spike scales
        for spec, n, expected_log10 in [
            (F1_SPEC, 100, math.log10(7.5103e-61)),
            (F1_SPEC, 1000, math.log10(1.1191e-82)),
            (F2_SPEC, 100, math.log10(1.5879e-53)),
            (F2_SPEC, 1000, math.log10(3.5489e-75)),
        ]:
            mix = mixture_hyperparams(design_architecture(spec, n))
            assert mix.log_sigma1 / math.log(10) == pytest.approx(expected_log10, rel=0.05)

    def test_eta_value(self):
        a = design_architecture(F1_SPEC, 100)
        mix = mixture_hyperparams(a, K0=5.0)
        assert mix.eta == pytest.approx(math.exp(-5.0 * a.n_eps_sq / 240008), rel=1e-12)
        assert mix.eta == pytest.approx(0.9845, abs=5e-4)

    def test_weights_sum_to_one(self):
        mix = mixture_hyperparams(design_architecture(F2_SPEC, 500))
        assert mix.pi1 + mix.pi2 == pytest.approx(1.0, abs=1e-15)

    def test_sigma2_identity(self):
        a = design_architecture(F2_SPEC, 1000)
        mix = mixture_hyperparams(a, K0=5.0)
        assert mix.sigma2**2 * 2 * 6.0 * a.n_eps_sq == pytest.approx(a.B**2, rel=1e-14)

    @pytest.mark.parametrize("K0", [math.inf, math.nan, 4.0])
    def test_invalid_K0(self, K0):
        with pytest.raises(ValueError, match="K0"):
            mixture_hyperparams(design_architecture(F1_SPEC, 100), K0=K0)

    def test_sigma2_underflow_names_B(self):
        # B = 8e-320 squares to 0, so the slab scale underflows
        a = design_architecture(F1_SPEC, 100, 1e-320)
        with pytest.raises(ValueError, match="sigma2 underflows to 0 at B="):
            mixture_hyperparams(a)

    def test_log_a_identity(self):
        a = design_architecture(F1_SPEC, 1000)
        lhs = (
            a.log_a + math.log(72) + math.log(a.L)
            + (a.L - 1) * math.log(max(a.B, 1.0)) + a.L * math.log(a.W + 1)
        )
        assert lhs == pytest.approx(math.log(a.eps), rel=1e-12)

    @pytest.mark.parametrize("n", [100, 1000, 10**6])
    @pytest.mark.parametrize("spec", [F1_SPEC, F2_SPEC], ids=["f1", "f2"])
    def test_matches_a_60_digit_oracle(self, spec, n):
        # The design rules at 60 digits, from the same inputs: s, cB and K0
        # as doubles and the geometry's integers.  The spike equation's
        # eta/2 - Q(a/sigma2) is negative in exact arithmetic, so w's floor
        # at machine epsilon is a convention and sets a/sigma1 = Qinv(eps).
        arch = design_architecture(spec, n)
        mix = mixture_hyperparams(arch)
        with mpmath.workdps(60):
            def upper_tail(x):  # Q(x) = P(Z > x)
                return mpmath.erfc(x / mpmath.sqrt(2)) / 2

            s, d, K0 = mpmath.mpf(spec.s), spec.d, mpmath.mpf(5.0)
            eps = mpmath.mpf(n) ** (-s / (2 * s + d)) * mpmath.log(n) ** 1.5
            n_eps_sq = n * eps**2
            B = 10 * mpmath.mpf(arch.N) ** spec.xi
            eta = mpmath.exp(-K0 * n_eps_sq / arch.S)
            sigma2 = mpmath.sqrt(B**2 / (2 * (K0 + 1) * n_eps_sq))
            log_a = (mpmath.log(eps) - mpmath.log(72) - mpmath.log(arch.L)
                     - (arch.L - 1) * mpmath.log(max(B, 1)) - arch.L * mpmath.log(arch.W + 1))
            assert eta / 2 - upper_tail(mpmath.exp(log_a) / sigma2) < 0
            floor = mpmath.mpf(sys.float_info.epsilon)
            log_sigma1 = log_a - mpmath.log(
                mpmath.findroot(lambda x: mpmath.log(upper_tail(x) / floor), 8))
            for got, exact in [(mix.eta, eta), (mix.sigma2, sigma2), (mix.log_a, log_a),
                               (mix.log_sigma1, log_sigma1)]:
                assert abs(got - exact) <= 1e-14 * abs(exact), (got, exact)


def scipy_mixture_hyperparams(arch, K0=5.0, counting="canonical"):
    """mixture_hyperparams as it was before the floored spike scale skipped
    scipy: the spike equation's w always through log_ndtr and ndtri."""
    if not 4 < K0 < math.inf:
        raise ValueError(f"need finite K0 > 4, got {K0}")
    eta = math.exp(-K0 * arch.n_eps_sq / arch.S)
    pi2 = arch.sparsity_fraction(counting)
    pi1 = 1.0 - pi2
    try:
        sigma2 = math.sqrt(arch.B**2 / (2.0 * (K0 + 1.0) * arch.n_eps_sq))
    except OverflowError as exc:
        raise ValueError(
            f"the slab variance overflows doubles at B={arch.B:.6g}; lower cB") from exc
    if sigma2 == 0.0:
        raise ValueError(f"the slab scale sigma2 underflows to 0 at B={arch.B:.6g}; raise cB")
    log_a = arch.log_a
    a_lin = math.exp(log_a)
    q_a = math.exp(float(log_ndtr(-(a_lin / sigma2))))
    w = (pi2 / pi1) * (0.5 * eta - q_a)
    eps = sys.float_info.epsilon
    w = min(max(w, eps), 1.0 - eps)
    log_sigma1 = log_a - math.log(float(-ndtri(w)))
    return MixturePriorSpec(log_a=log_a, eta=eta, log_sigma1=log_sigma1, sigma2=sigma2,
                            pi1=pi1, pi2=pi2, B=arch.B, K0=K0)


def hyperparams_outcome(arch, K0, counting, rule=mixture_hyperparams):
    """Each field of `rule`'s MixturePriorSpec as its exact hex digits, or
    the error it raises."""
    try:
        return {k: float(v).hex() for k, v in asdict(rule(arch, K0, counting)).items()}
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def roots_arch(S=10**6, T=4 * 10**6):
    """A one-layer geometry built directly: a = 1/144 and, at K0 = 5,
    a/sigma2 = 0.24, so with eta near 1 (S large) the spike equation has a
    root, w = (pi2/pi1)(eta/2 - Q(0.24)) > 0."""
    return ArchSpec(n=100, N=1, W0=1, L=1, W=1, S=S, B=1.0, T=T, eps=1.0)


@st.composite
def designed_inputs(draw):
    """(SmoothnessSpec fields, n, cB, K0, counting) over the command line's
    flag ranges, s drawn inside d/p < s < min(m, m - 1 + 1/p)."""
    d = draw(st.one_of(st.integers(1, 4), st.integers(1, 10**5)))
    m = draw(st.one_of(st.integers(2, 4), st.integers(2, 10**5)))
    # some s fits where d/p < m and d/p < m - 1 + 1/p, so where p exceeds
    # both d/m and (d-1)/(m-1); m = 1 admits no s
    p_min = max(d / m, (d - 1) / (m - 1))
    p = draw(st.one_of(st.floats(p_min, 100.0 * p_min, exclude_min=True),
                       st.floats(p_min, 1e300, exclude_min=True), st.just(math.inf)))
    q = draw(st.one_of(st.floats(0.1, 100.0), st.floats(1e-300, 1e300), st.just(math.inf)))
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    low, high = d * inv_p, min(m, m - 1 + inv_p)
    s = low + (high - low) * draw(st.floats(0.01, 0.99))
    n = draw(st.one_of(st.integers(2, 10**4), st.integers(2, 10**12), st.integers(2, 10**300)))
    cB = draw(st.one_of(st.floats(0.1, 100.0), st.floats(1e-300, 1e300)))
    K0 = draw(st.one_of(st.floats(4.0, 10.0, exclude_min=True), st.floats(4.0, 1e300)))
    return (s, p, q, d, m), n, cB, K0, draw(st.sampled_from(["canonical", "compat"]))


class TestFlooredSpikeScale:
    def test_offset_is_scipys_qinv_of_eps(self):
        assert design._LOG_QINV_EPS == math.log(float(-ndtri(sys.float_info.epsilon)))

    def test_every_field_equals_the_scipy_formula_bit_for_bit(self):
        # The floored branch, which loads no scipy, and the scipy fallback
        # give every field of the spec the reference's bits, and raise
        # its errors.  A spy on ndtri tells which branch each call took;
        # the sweep must reach both.
        branches = set()

        def check(arch, K0, counting):
            with mock.patch.object(scipy.special, "ndtri", wraps=scipy.special.ndtri) as spy:
                got = hyperparams_outcome(arch, K0, counting)
            want = hyperparams_outcome(arch, K0, counting, scipy_mixture_hyperparams)
            assert got == want, (arch, K0, counting)
            if isinstance(got, dict):
                branches.add("scipy" if spy.called else "floor")

        depth_rejects = []

        @settings(max_examples=400, deadline=None, database=None, derandomize=True)
        @given(inputs=designed_inputs())
        def sweep(inputs):
            smoothness, n, cB, K0, counting = inputs
            try:
                spec = SmoothnessSpec(*smoothness)
            except ValueError:  # outside SmoothnessSpec's range
                return
            try:
                arch = design_architecture(spec, n, cB)
            except ValueError as exc:  # past a double, or the depth rule's L < 1
                depth = re.fullmatch(
                    r"the depth rule L = 3 \+ 2 ceil\(log2\(3\^\(d v m\) / \(tau c\)\) \+ 5\) "
                    r"ceil\(log2\(d v m\)\) gives L = (-?\d+) < 1 at (.*)", str(exc))
                if depth:
                    assert int(depth[1]) < 1
                    assert depth[2] == f"s={spec.s}, d={spec.d}, m={spec.m}, n={n}"
                    depth_rejects.append(inputs)
                else:
                    assert "overflow" in str(exc), exc
                return
            check(arch, K0, counting)

        sweep()
        assert depth_rejects  # the sweep reaches the depth rule's rejection
        # compat counts 2 of 2 weights of the one-layer net: pi1 = 0
        for S, T in [(10**6, 4 * 10**6), (10**6, 10**7), (3, 4)]:
            for K0 in (4.5, 5.0, 1e3):
                for counting in ("canonical", "compat"):
                    check(roots_arch(S, T), K0, counting)
        assert branches == {"floor", "scipy"}


class TestShrinkageConditions:
    def test_mixture_passes_all_n_both_specs(self):
        for spec in (F1_SPEC, F2_SPEC):
            for n in (100, 500, 1000, 5000):
                a = design_architecture(spec, n)
                g = make_density("mixture", mixture_spec=mixture_hyperparams(a))
                report = check_shrinkage_conditions(g, a)
                assert report.all_pass, (spec, n, report.to_dict())

    def test_standard_normal_fails_spike(self):
        a = design_architecture(F1_SPEC, 100)
        report = check_shrinkage_conditions(make_density("gauss"), a)
        assert not report.pass_spike
        assert report.spike_mid == pytest.approx(1.0, abs=1e-12)

    def test_pure_gaussian_tail_value(self):
        # for N(0, sigma) with a/sigma = 8, 1 - u = 2 Q(8) ~ 1.24e-15
        a = design_architecture(F2_SPEC, 100)
        sigma = math.exp(a.log_a) / 8.0
        report = check_shrinkage_conditions(make_density("gauss", sigma=sigma), a)
        assert report.spike_mid == pytest.approx(1.244e-15, rel=1e-3)

    def test_uniform_slab_fails_spike(self):
        a = design_architecture(F2_SPEC, 100)
        report = check_shrinkage_conditions(make_density("uniform-slab", B=a.B), a)
        assert not report.pass_spike
        assert report.spike_mid == pytest.approx(1.0, abs=1e-12)

    def test_invalid_constants(self):
        a = design_architecture(F2_SPEC, 100)
        with pytest.raises(ValueError):
            check_shrinkage_conditions(make_density("gauss"), a, K0=3.0)


class TestCoveringBound:
    def test_hand_value(self):
        assert covering_bound(1, 1, 1, 1.0, 2.0) == pytest.approx(2 * math.log(4))

    def test_delta_doubling(self):
        b1 = covering_bound(3, 8, 10, 2.0, 0.5)
        b2 = covering_bound(3, 8, 10, 2.0, 1.0)
        assert b1 - b2 == pytest.approx(11 * math.log(2), rel=1e-12)

    def test_monotonicity(self):
        base = covering_bound(3, 8, 10, 2.0, 0.5)
        assert covering_bound(4, 8, 10, 2.0, 0.5) > base
        assert covering_bound(3, 9, 10, 2.0, 0.5) > base
        assert covering_bound(3, 8, 11, 2.0, 0.5) > base
        assert covering_bound(3, 8, 10, 2.5, 0.5) > base
        assert covering_bound(3, 8, 10, 2.0, 0.4) > base

    def test_design_scale_bound(self):
        # at the designed geometry the entropy is n eps^2 up to a constant
        a = design_architecture(F1_SPEC, 100)
        bound = covering_bound(a.L, a.W, a.S, a.B, a.eps / 36.0)
        assert math.isfinite(bound) and bound > 0
        assert bound / a.n_eps_sq < 1e5  # finite constant factor, reported not tuned

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            covering_bound(1, 1, 1, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_B_and_delta(self, value):
        with pytest.raises(ValueError):
            covering_bound(1, 1, 1, value, 2.0)
        with pytest.raises(ValueError):
            covering_bound(1, 1, 1, 1.0, value)


class TestCoveringBoundTruncated:
    def test_zero_threshold_matches_plain(self):
        assert covering_bound_truncated(3, 8, 10, 2.0, 0.0, 0.5) == covering_bound(
            3, 8, 10, 2.0, 0.5
        )

    def test_design_threshold_admissible(self):
        # a_n carries the factor 72 = 2 * 36, so delta = eps/36 is exactly admissible
        a = design_architecture(F2_SPEC, 100)
        bound = covering_bound_truncated(
            a.L, a.W, a.S, a.B, math.exp(a.log_a), a.eps / 36.0
        )
        assert math.isfinite(bound)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -1.0])
    def test_invalid_threshold(self, a):
        with pytest.raises(ValueError, match="a >= 0"):
            covering_bound_truncated(3, 8, 10, 2.0, a, 0.5)

    def test_threshold_violation_reports_minimum(self):
        with pytest.raises(TruncationThresholdError) as err:
            covering_bound_truncated(3, 8, 10, 2.0, 1.0, 0.5)
        expected = math.log(2.0) + math.log(3) + 2 * math.log(2.0) + 3 * math.log(9)
        assert err.value.log_min_delta == pytest.approx(expected, rel=1e-12)
