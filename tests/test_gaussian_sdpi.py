import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdpi import gaussian_sdpi
from sdpi.channels import NoiseModel
from sdpi.errors import AccuracyError, DomainError
from sdpi.gaussian_sdpi import (
    A0, A1, A2, A5, _gd_bracket, concentration_radius, diag_achievability,
    gauss_hermite_input, gd_lower, gh_upper_achievability, horizontal_constants,
    ks_from_capacity_gap, ks_from_mmse_gap, ks_talagrand, t_lower_from_gap,
)
from sdpi.oracle import sdpi_pair_sampler


class TestGdLower:
    def test_zero(self):
        assert gd_lower(0.0, 1.0) == 0.0

    def test_frozen_value(self):
        # pinned against the random-coupling sweep oracle
        assert gd_lower(0.5, 1.0) == pytest.approx(8.614028673855235e-05, rel=1e-6, abs=0.0)

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
    @example(0.0512, 7.109)
    @example(0.0557, 7.914)
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


def _mp_bracket_sup(t, gamma):
    """sup over x in (0, 1/2] of 2 Q(sqrt(gamma/x)) (t - B(x)) at 40 digits:
    a 281-point log scan of [5e-8, 1/2], then the root of the log-slope's
    numerator between the best point's neighbours, where it changes sign."""
    with mpmath.workdps(40):
        t, gamma = mpmath.mpf(t), mpmath.mpf(gamma)

        def parts(x):
            u = mpmath.sqrt(gamma / x)
            b = -x * mpmath.log(x) - (1 - x) * mpmath.log1p(-x) + x / 2 * mpmath.log1p(gamma / x)
            return u, mpmath.erfc(u / mpmath.sqrt(2)) / 2, b

        def bracket(x):
            _, q, b = parts(x)
            return max(2 * q * (t - b), 0)

        def slope(x):  # (t - B) times the bracket's log-slope
            u, q, b = parts(x)
            db = mpmath.log((1 - x) / x) + mpmath.log1p(gamma / x) / 2 - gamma / (2 * (x + gamma))
            return mpmath.npdf(u) * u / (2 * x * q) * (t - b) - db

        xs = [mpmath.mpf(10) ** e / 2 for e in mpmath.linspace(-7, 0, 281)]
        vals = [bracket(x) for x in xs]
        i = max(range(len(xs)), key=vals.__getitem__)
        best = vals[i]
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        if best > 0 and slope(lo) > 0 > slope(hi):
            best = max(best, bracket(mpmath.findroot(slope, (lo, hi), solver="anderson")))
        return best


class TestGdLowerOracle:
    """gd_lower against the bracket's sup found another way: a 40-digit
    scan and root solve."""

    def test_within_1e12_of_the_sup(self):
        # t uniform on [0.005, 2], gamma log-uniform on [0.01, 100]; a sup
        # below the double range (subnormal or 0 in double) is left out
        rng = np.random.default_rng(37)
        ts = rng.uniform(0.005, 2.0, 30)
        gammas = np.exp(rng.uniform(math.log(0.01), math.log(100.0), 30))
        checked = 0
        for t, gamma in zip(ts.tolist(), gammas.tolist()):
            sup = _mp_bracket_sup(t, gamma)
            if sup < 2.2250738585072014e-308:
                continue
            got = gd_lower(t, gamma)
            assert (1 - 1e-12) * sup <= got <= (1 + 1e-12) * sup, (t, gamma, got, sup)
            checked += 1
        assert checked >= 25

    def test_window_between_scan_points(self):
        # the two-point t at a = 30: the bracket is positive only for x in
        # about [7.0e-4, 7.6e-4], where the 2,001-point linear scan had no point
        sup = float(_mp_bracket_sup(0.0087, 1.0))
        assert abs(gd_lower(0.0087, 1.0) - sup) <= 0.02 * sup


class TestGdLowerScanCache:
    """gd_lower's per-gamma level table, its evaluation count, and its
    values against the 17-point zoom from the linear first scan that the
    table replaced."""

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def linear_scan_terms(gamma):
        # `_gd_terms` on the nonzero points of the 2,001-point linear scan:
        # max(amp * (t - b), 0) is _gd_bracket there bit for bit (the zoom
        # test visits its pairs gamma by gamma)
        return gaussian_sdpi._gd_terms(np.linspace(0.0, 0.5, 2001)[1:], gamma)

    @classmethod
    def zoom(cls, t, gamma):
        # the largest bracket value of a 17-point zoom from the linear first
        # scan: each round scans the best point's two neighbours and narrows
        # them 8x, down to a width of 1e-10
        amp, b = cls.linear_scan_terms(gamma)
        xs = np.linspace(0.0, 0.5, 2001)
        vals = np.concatenate(([0.0], np.maximum(amp * (t - b), 0.0)))
        best, width = -math.inf, math.inf
        while True:
            i = int(np.argmax(vals))
            best = max(best, float(vals[i]))
            lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
            if not 1e-10 < hi - lo < width:
                return best
            xs, width = np.linspace(lo, hi, 17), hi - lo
            vals = _gd_bracket(xs, t, gamma)

    def test_cached_scan_is_the_bracket(self):
        # the table's terms, and the zoom's linear first scan, give
        # _gd_bracket on their grids byte for byte (gamma = 800: every
        # table point is 1/2 and the bracket is 0)
        for t, gamma in ((0.3, 0.02), (1.2, 1.0), (0.05, 60.0), (0.4, 800.0)):
            xs, amp, b, _, _ = gaussian_sdpi._gd_table(gamma)
            scan = np.maximum(amp * (t - b), 0.0)
            assert scan.tobytes() == _gd_bracket(xs, t, gamma).tobytes()
        amp, b = self.linear_scan_terms(1.0)
        scan = np.concatenate(([0.0], np.maximum(amp * (1.2 - b), 0.0)))
        assert scan.tobytes() == _gd_bracket(np.linspace(0.0, 0.5, 2001), 1.2, 1.0).tobytes()

    def test_level_is_the_slope_sign(self):
        # the bracket rises at a table point exactly when t > L there: a
        # central difference of the bracket at 1e-6 relative agrees wherever
        # it is positive and moves by more than rounding
        checked = 0
        for gamma in (0.02, 1.0, 60.0):
            xs, _, _, level, runs = gaussian_sdpi._gd_table(gamma)
            assert len(runs) == 1
            for t in (0.05, 0.3, 1.2):
                x = xs[::50]
                up = _gd_bracket(x * (1 + 1e-6), t, gamma)
                down = _gd_bracket(x * (1 - 1e-6), t, gamma)
                clear = (down > 0) & (np.abs(up - down) > 1e-10 * up)
                assert np.array_equal((up > down)[clear], (t > level[::50])[clear])
                checked += clear.sum()
        assert checked > 200

    def test_point_count(self, monkeypatch):
        # mean `_gd_point` evaluations per call on the t values an AWGN
        # coupling sweep checks (7.8 from the linear first scan this table
        # replaced)
        ts = {}
        for gamma in (0.5, 1.0, 4.0):
            seen = ts[gamma] = []
            sdpi_pair_sampler(NoiseModel.gaussian(), gamma, 2.0, 100, seed=5,
                              diag_bound=lambda t: seen.append(t) or 0.0)
        calls = [0]
        point = gaussian_sdpi._gd_point

        def counted(*args):
            calls[0] += 1
            return point(*args)

        monkeypatch.setattr(gaussian_sdpi, "_gd_point", counted)
        for gamma, seen in ts.items():
            for t in seen:
                gd_lower(t, gamma)
        assert sum(map(len, ts.values())) == 300
        assert calls[0] / 300 <= 5.0

    def test_at_least_the_zoom(self):
        # 80 gammas log-uniform on [0.01, 100], 50 t uniform on [0.005, 2] each,
        # two pairs where Q underflows at the refinement's lower end, and t
        # below 1e-3, where both are 0
        rng = np.random.default_rng(26)
        pairs = [(t, gamma) for gamma in np.exp(rng.uniform(math.log(0.01), math.log(100.0), 80))
                 for t in rng.uniform(0.005, 2.0, 50)]
        pairs += [(0.0314, 4.0), (0.0081, 0.5)]
        pairs += [(t, 1.0) for t in rng.uniform(0.0, 1e-3, 20)]
        for t, gamma in pairs:
            got, zoom = gd_lower(t, gamma), self.zoom(t, gamma)
            assert got >= (1.0 - 1e-12) * zoom, (t, gamma, got, zoom)
            assert got > 0.0 or zoom == 0.0, (t, gamma, zoom)
            assert math.copysign(1.0, got) == 1.0, (t, gamma)
        assert gd_lower(0.0314, 4.0) == pytest.approx(8.97e-295, rel=1e-3, abs=0.0)
        assert gd_lower(0.0081, 0.5) == pytest.approx(3.576e-162, rel=1e-3, abs=0.0)

    def test_second_call_hits_cache(self):
        gaussian_sdpi._gd_table.cache_clear()
        gd_lower(0.3, 2.5)
        assert gaussian_sdpi._gd_table.cache_info().misses == 1
        gd_lower(0.7, 2.5)
        assert gaussian_sdpi._gd_table.cache_info().hits == 1
        assert gaussian_sdpi._gd_table.cache_info().misses == 1
