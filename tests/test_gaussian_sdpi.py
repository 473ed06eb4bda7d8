import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdpi.core_prob import q_function
from sdpi.errors import AccuracyError, DomainError
from sdpi.gaussian_sdpi import (
    A0, A1, A2, A5, _gd_bracket, concentration_radius, diag_achievability,
    gauss_hermite_input, gd_lower, gh_upper_achievability, horizontal_constants,
    ks_from_capacity_gap, ks_from_mmse_gap, ks_talagrand, t_lower_from_gap,
)


class TestGdLower:
    def test_zero(self):
        assert gd_lower(0.0, 1.0) == 0.0

    def test_frozen_value(self):
        # pinned against the random-coupling sweep oracle
        assert gd_lower(0.5, 1.0) == pytest.approx(8.614028673855235e-05, rel=1e-6)

    def test_positive_for_positive_t(self):
        for t in (0.2, 0.5, 1.0, 2.0):
            assert gd_lower(t, 1.0) > 0.0

    def test_nondecreasing_in_t(self):
        vals = [gd_lower(t, 1.0) for t in (0.1, 0.3, 0.6, 1.0, 2.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_gap_below_t(self):
        for t in (0.1, 0.5, 1.0):
            assert gd_lower(t, 1.0) < t

    def test_domain(self):
        with pytest.raises(DomainError):
            gd_lower(-0.1, 1.0)
        with pytest.raises(DomainError):
            gd_lower(0.5, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 3.0), st.floats(0.1, 8.0))
    @example(0.2, 1.0)
    @example(0.1, 1.0)
    @example(0.01, 1.0)
    def test_bracket_is_restriction(self, t, gamma):
        # evaluating the bracket at any single point never beats the max: a
        # 7,001-point scan of (0, 1/2], plus the small-t point
        # x = 1/(2 u log u) at u = 1/t wherever it lies in (0, 1/2]
        x = np.linspace(0.0, 0.5, 7001)[1:]
        u = 1.0 / t
        if u * math.log(u) >= 1.0:
            x = np.append(x, 1.0 / (2.0 * u * math.log(u)))
        assert gd_lower(t, gamma) >= _gd_bracket(x, t, gamma).max()


class TestDiagAchievability:
    def test_sandwich(self):
        # fano <= exact MI <= H(X), gap shrinking fast in a
        for a in (4.0, 6.0, 8.0, 10.0):
            h_x, fano, mi = diag_achievability(a, 1.0)
            assert fano <= mi + 1e-9
            assert mi <= h_x + 1e-12

    def test_frozen_gaps(self):
        # gaps pinned by adaptive quadrature of H(X|Y)
        expected = {4.0: 2.585884783e-02, 6.0: 1.117972926e-03,
                    8.0: 2.083862106e-05, 10.0: 1.568825799e-07}
        for a, gap in expected.items():
            h_x, _, mi = diag_achievability(a, 1.0)
            assert h_x - mi == pytest.approx(gap, rel=1e-2)

    def test_domain(self):
        with pytest.raises(DomainError):
            diag_achievability(1.0, 1.0)
        with pytest.raises(DomainError):
            diag_achievability(4.0, 0.0)


class TestKsBounds:
    def test_mmse_gap_shape(self):
        # first term decreasing in L, second vanishing with epsilon
        v1 = ks_from_mmse_gap(1e-4, 1.0)
        v2 = ks_from_mmse_gap(1e-8, 1.0)
        assert v2 < v1

    def test_mmse_gap_formula(self):
        eps, gamma = 1e-6, 2.0
        L = math.log(1.0 / eps)
        expect = A0 / math.sqrt(gamma * L) + A1 * 3.0 * eps ** 0.25 * math.sqrt(gamma * L)
        assert ks_from_mmse_gap(eps, gamma) == pytest.approx(expect, rel=1e-12)

    def test_capacity_gap_needs_margin(self):
        with pytest.raises(DomainError):
            ks_from_capacity_gap(1.0, 1.0)

    def test_capacity_gap_formula(self):
        eps, gamma = 1e-6, 1.0
        L = math.log(gamma / (4.0 * eps))
        expect = (A0 * math.sqrt(2.0 / (gamma * L))
                  + A1 * 2.0 * (gamma * eps) ** 0.25 * math.sqrt(2.0 * L))
        assert ks_from_capacity_gap(eps, gamma) == pytest.approx(expect, rel=1e-12)

    def test_talagrand_positive(self):
        assert ks_talagrand(1e-6, 1.0) > 0.0


class TestConcentrationRadius:
    def test_values(self):
        r, bound = concentration_radius(1e-8)
        assert r == pytest.approx(0.1, abs=1e-12)
        assert bound == pytest.approx(A2 * 0.1, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            concentration_radius(0.0)
        with pytest.raises(DomainError):
            concentration_radius(1.5)


class TestHorizontalConstants:
    def test_frozen_gamma_one(self):
        hc = horizontal_constants(1.0)
        assert hc.kappa == pytest.approx(21.969604755646486, rel=1e-9)
        assert hc.c1 == pytest.approx(15.78851819712327, rel=1e-9)
        assert hc.a5 == pytest.approx(A5, abs=0)
        assert hc.log_eps0 == pytest.approx(-1930.6541324772988, rel=1e-6)

    def test_kappa_decreasing_then_increasing_in_gamma(self):
        # dominated by 1/sqrt(gamma) at small gamma and gamma^{5/4} at large
        k_small = horizontal_constants(0.01).kappa
        k_mid = horizontal_constants(1.0).kappa
        k_large = horizontal_constants(100.0).kappa
        assert k_small > k_mid
        assert k_large > k_mid


class TestTLowerFromGap:
    def test_outside_validity_raises(self):
        with pytest.raises(DomainError):
            t_lower_from_gap(1e-3, 1.0)
        with pytest.raises(DomainError):
            t_lower_from_gap(1e-300, 1.0)

    def test_log_eps_path(self):
        val = t_lower_from_gap(None, 1.0, log_eps=-5000.0)
        assert val == pytest.approx(-0.6299846816224508, rel=1e-9)

    def test_grows_double_logarithmically(self):
        v1 = t_lower_from_gap(None, 1.0, log_eps=-1e4)
        v2 = t_lower_from_gap(None, 1.0, log_eps=-1e8)
        assert v2 > v1
        assert v2 - v1 == pytest.approx(0.25 * math.log(1e4), rel=1e-9)

    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            t_lower_from_gap(0.0, 1.0)


class TestGaussHermiteInput:
    def test_moments(self):
        for m in (2, 3, 5, 8):
            x = gauss_hermite_input(m)
            assert x.mean() == pytest.approx(0.0, abs=1e-12)
            assert x.var() == pytest.approx(1.0, abs=1e-10)

    def test_two_atoms_is_rademacher(self):
        x = gauss_hermite_input(2)
        assert list(x.atoms) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert list(x.weights) == pytest.approx([0.5, 0.5], abs=1e-12)


class TestGhUpperAchievability:
    def test_m2_bound_exact_half(self):
        m, bound, gap = gh_upper_achievability(math.log(2.0), 1.0)
        assert m == 2
        assert bound == 0.5

    def test_measured_gap_below_bound(self):
        for m in range(2, 9):
            t = math.log(m) + 1e-9
            mm, bound, gap = gh_upper_achievability(t, 1.0)
            assert mm == m
            assert gap <= bound

    def test_gamma_zero(self):
        assert gh_upper_achievability(1.0, 0.0) == (2, 0.0, 0.0)

    def test_accuracy_cutoff(self):
        with pytest.raises(AccuracyError):
            gh_upper_achievability(math.log(65.0) + 1e-9, 1.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_accuracy_cutoff_before_overflow(self, gamma):
        # e^800 overflows a float: the m > 64 check comes first
        with pytest.raises(AccuracyError):
            gh_upper_achievability(800.0, gamma)

    def test_domain(self):
        with pytest.raises(DomainError):
            gh_upper_achievability(0.5, 1.0)


class TestGdLowerScanCache:
    """The per-gamma cached first scan gives the plain scan's value bit for bit."""

    @staticmethod
    def plain_gd_lower(t, gamma):
        # the whole bracket on every round and np.linspace zoom rounds
        def bracket(x):
            out = np.zeros_like(x)
            pos = x > 0
            xp = x[pos]
            hb = -xp * np.log(xp) - (1 - xp) * np.log1p(-xp)
            val = 2.0 * q_function(np.sqrt(gamma / xp)) * (t - hb - 0.5 * xp * np.log1p(gamma / xp))
            out[pos] = np.maximum(val, 0.0)
            return out
        xs, best, width = np.linspace(0.0, 0.5, 2001), -math.inf, math.inf
        while True:
            vals = bracket(xs)
            best = max(best, float(np.max(vals)))
            i = int(np.argmax(vals))
            a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
            if not 1e-10 < b - a < width:
                return best
            xs, width = np.linspace(a, b, 17), b - a

    def test_matches_plain_scan(self):
        rng = np.random.default_rng(8)
        ts = np.concatenate([rng.uniform(0.0, 1e-3, 400), rng.uniform(1e-3, 2.0, 1600)])
        gammas = rng.choice([0.1, 0.5, 1.0, 4.0, 30.0], len(ts))
        for t, gamma in zip(ts.tolist(), gammas.tolist()):
            got, want = gd_lower(t, gamma), self.plain_gd_lower(t, gamma)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (t, gamma)

    def test_second_call_hits_cache(self):
        from sdpi import gaussian_sdpi
        gaussian_sdpi._gd_scan_terms.cache_clear()
        gd_lower(0.3, 2.5)
        assert gaussian_sdpi._gd_scan_terms.cache_info().misses == 1
        gd_lower(0.7, 2.5)
        assert gaussian_sdpi._gd_scan_terms.cache_info().hits == 1
        assert gaussian_sdpi._gd_scan_terms.cache_info().misses == 1
