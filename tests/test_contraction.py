import bisect
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from sdpi.channels import DMCKernel, NoiseModel
from sdpi.contraction import (
    a2_star, alpha_star, dobrushin_dmc, eta_tv_amplitude,
    eta_tv_complement,
)
from sdpi.core_prob import GridDensity, q_function
from sdpi.errors import DomainError

GOLDEN_NOISE = GridDensity.from_csv((Path(__file__).parent / "golden" / "noise.csv").read_text())


def random_grid_density(rng):
    """5 to 29 nodes of random values, the end values nonzero, on a random step."""
    n, step = int(rng.integers(5, 30)), float(rng.uniform(0.05, 0.5))
    v = rng.uniform(0.05, 1.0, n)
    x0 = float(rng.uniform(-1.0, 1.0))
    return GridDensity(x0, x0 + step * (n - 1), step, v / np.trapezoid(v, dx=step))


def theta_reference(x, f, delta):
    """(1/2) int |f - f_delta| at 40 digits.  f - f_delta is linear between the
    merged breakpoints, exact in mpmath, with one-sided limits at each end; its
    |.| is a trapezoid on each side of the zero between two ends of opposite sign."""
    with mpmath.workdps(40):
        return _theta_pieces([mpmath.mpf(float(v)) for v in x],
                             [mpmath.mpf(float(v)) for v in f], mpmath.mpf(float(delta)))


def _theta_pieces(X, F, D):
    def limit(y, side):
        if y < X[0] or y > X[-1] or (y == X[0] and side < 0) or (y == X[-1] and side > 0):
            return mpmath.mpf(0)
        i = min(bisect.bisect_right(X, y), len(X) - 1) - 1
        return F[i] + (F[i + 1] - F[i]) * (y - X[i]) / (X[i + 1] - X[i])

    ys = sorted(set(X) | {v + D for v in X})
    total = mpmath.mpf(0)
    for lo, hi in zip(ys, ys[1:]):
        a = limit(lo, 1) - limit(lo - D, 1)
        b = limit(hi, -1) - limit(hi - D, -1)
        if a * b >= 0:
            total += (abs(a) + abs(b)) * (hi - lo) / 2
        else:
            root = lo + (hi - lo) * abs(a) / (abs(a) + abs(b))
            total += abs(a) * (root - lo) / 2 + abs(b) * (hi - root) / 2
    return total / 2


def gaussian_alpha_star(sigma):
    """Closed form 1/(2 sigma Q^{-1}(1/3)) of alpha* for N(0, sigma^2) noise."""
    return 1.0 / (2.0 * sigma * ndtri(2.0 / 3.0))


class TestThetaShift:
    def test_zero_shift(self):
        for z in (NoiseModel.gaussian(), NoiseModel.uniform(0, 1),
                  NoiseModel.laplace(1.0)):
            assert z.theta(0.0) == 0.0

    def test_gaussian_closed_form(self):
        z = NoiseModel.gaussian(2.0)
        for d in (0.5, 1.0, 3.0):
            assert z.theta(d) == pytest.approx(
                1.0 - 2.0 * q_function(d / 4.0), abs=1e-12)

    def test_symmetric(self):
        z = NoiseModel.laplace(0.5)
        assert z.theta(-1.3) == pytest.approx(z.theta(1.3), abs=1e-14)

    def test_closed_form_matches_grid_tv(self):
        # closed forms cross-checked against brute-force TV on a fine grid
        from sdpi.core_prob import GridDensity, tv_distance
        for z in (NoiseModel.gaussian(), NoiseModel.uniform(0.0, 2.0),
                  NoiseModel.laplace(1.0)):
            g = z.to_grid(step=0.002)
            d = 0.75
            k = int(round(d / g.step))
            # pad so the shifted copy is not truncated at the grid edge
            vals = np.concatenate([np.zeros(k), g.values, np.zeros(k)])
            shifted = np.roll(vals, k)
            direct = 0.5 * np.trapezoid(np.abs(vals - shifted), dx=g.step)
            assert z.theta(d) == pytest.approx(float(direct), abs=2e-3)

    def test_grid_noise_matches_piecewise_reference(self):
        # densities with jumps at both ends, shifts on and off the node step, copies
        # that run past x_max
        rng = np.random.default_rng(27)
        for _ in range(20):
            g = random_grid_density(rng)
            z, span = NoiseModel.from_grid(g), g.x_max - g.x_min
            deltas = [*rng.uniform(0.0, span, 10), *(g.step * rng.integers(1, len(g.values), 5))]
            for d in deltas:
                ref = theta_reference(g.grid, g.values, d)
                assert z.theta(d) == pytest.approx(float(ref), rel=0, abs=1e-12), d

    def test_grid_noise_at_ramp_overlap(self):
        # at delta = 1.05 the two copies share only their 0.05-wide ramps, which
        # cross at half height: min(f, f_delta) has mass 1/84
        assert NoiseModel.from_grid(GOLDEN_NOISE).theta(1.05) == pytest.approx(83 / 84, abs=1e-15)

    def test_grid_noise_disjoint_past_span(self):
        z = NoiseModel.from_grid(GOLDEN_NOISE)
        span = GOLDEN_NOISE.x_max - GOLDEN_NOISE.x_min
        for d in (span, 2.5, 10.0, -span):
            assert z.theta(d) == 1.0


class TestEtaTv:
    def test_zero_amplitude(self):
        assert eta_tv_amplitude(NoiseModel.gaussian(), 0.0) == 0.0

    def test_gaussian_closed_form(self):
        z = NoiseModel.gaussian()
        for A in np.linspace(0.1, 6.0, 25):
            assert eta_tv_amplitude(z, A) == pytest.approx(
                1.0 - 2.0 * q_function(A), abs=1e-10)

    def test_uniform_saturates(self):
        z = NoiseModel.uniform(0.0, 1.0)
        assert eta_tv_amplitude(z, 0.25) == pytest.approx(0.5, abs=1e-12)
        assert eta_tv_amplitude(z, 0.5) == 1.0
        assert eta_tv_amplitude(z, 2.0) == 1.0

    def test_grid_noise_matches_closed_form(self):
        g = NoiseModel.from_grid(NoiseModel.gaussian().to_grid(step=0.005))
        for A in (0.5, 1.0, 2.0):
            assert eta_tv_amplitude(g, A) == pytest.approx(
                1.0 - 2.0 * q_function(A), abs=2e-3)

    def test_grid_noise_matches_dense_scan(self):
        # the certified sup lies between theta's maximum on a 5e-5 lattice and
        # 1e-9 above it; theta of the golden noise is 1 from delta = 1.1 on
        z = NoiseModel.from_grid(GOLDEN_NOISE)
        deltas = np.linspace(0.0, 1.6, 32001)
        theta = np.array([z.theta(d) for d in deltas])
        for k in range(1, 9):
            A = 0.1 * k
            dense = theta[deltas <= 2.0 * A + 1e-12].max()
            assert dense <= eta_tv_amplitude(z, A) <= dense + 1e-9, A

    def test_grid_noise_bounds_an_inner_maximum(self):
        # combs of alternating high and low nodes, whose theta peaks near one step
        # and dips towards two: over 2A = 2.5 steps the bound is at least every
        # theta on a lattice, though theta(2A) is below their maximum
        rng = np.random.default_rng(5)
        for _ in range(3):
            n, step = int(rng.integers(9, 30)), float(rng.uniform(0.05, 0.5))
            v = np.where(np.arange(n) % 2 == 0, rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 0.05, n))
            z = NoiseModel.from_grid(GridDensity(0.0, step * (n - 1), step,
                                                 v / np.trapezoid(v, dx=step)))
            dense = max(z.theta(d) for d in np.linspace(0.0, 2.5 * step, 2001))
            assert eta_tv_amplitude(z, 1.25 * step) >= dense

    def test_grid_noise_past_the_span(self):
        assert eta_tv_amplitude(NoiseModel.from_grid(GOLDEN_NOISE), 1e308) == 1.0
        assert eta_tv_amplitude(NoiseModel.from_grid(GOLDEN_NOISE), np.float64(1e308)) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_tv_amplitude(NoiseModel.gaussian(), -1.0)

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_monotone_in_amplitude(self, a1, a2):
        z = NoiseModel.gaussian()
        lo, hi = sorted((a1, a2))
        assert eta_tv_amplitude(z, lo) <= eta_tv_amplitude(z, hi) + 1e-12


class TestEtaTvComplement:
    def test_consistency_moderate(self):
        for z in (NoiseModel.gaussian(), NoiseModel.uniform(0, 4),
                  NoiseModel.laplace(1.0)):
            for A in (0.2, 0.7, 1.5):
                assert eta_tv_complement(z, A) == pytest.approx(
                    1.0 - eta_tv_amplitude(z, A), abs=1e-12)

    def test_no_underflow_at_large_amplitude(self):
        # 1 - eta would round to exactly 0 here; the complement must not
        c = eta_tv_complement(NoiseModel.gaussian(), 25.0)
        assert 0.0 < c < 1e-100
        assert c == pytest.approx(2.0 * q_function(25.0), rel=1e-12)

    def test_uniform_exact_zero(self):
        assert eta_tv_complement(NoiseModel.uniform(0, 1), 0.5) == 0.0

    def test_grid_noise_uses_the_scan(self):
        z = NoiseModel.from_grid(NoiseModel.gaussian().to_grid(step=0.01))
        for A in (0.2, 0.7, 1.5):
            assert eta_tv_complement(z, A) == 1.0 - eta_tv_amplitude(z, A)


class TestDobrushin:
    def test_bsc(self):
        assert dobrushin_dmc(DMCKernel.bsc(0.1)) == pytest.approx(0.8, abs=1e-12)

    def test_identity(self):
        assert dobrushin_dmc(DMCKernel.identity(3)) == 1.0

    def test_erasure(self):
        assert dobrushin_dmc(DMCKernel.erasure(0.3, 2)) == pytest.approx(0.7, abs=1e-12)


class TestAlphaStar:
    def test_gaussian_value(self):
        rep = alpha_star(NoiseModel.gaussian())
        assert rep.value == pytest.approx(gaussian_alpha_star(1.0), abs=1e-6)
        assert rep.value == pytest.approx(1.16082728220821, abs=1e-6)
        assert eta_tv_amplitude(NoiseModel.gaussian(), 1.0 / (2.0 * rep.value)) <= 1.0 / 3.0

    @pytest.mark.parametrize("sigma", [3e6, 1e7, 1e9])
    def test_wide_noise_bracket(self, sigma):
        # eta_tv already holds at alpha = 1e-6: the bracket's lower end must fail it
        noise = NoiseModel.gaussian(sigma)
        rep = alpha_star(noise)
        assert rep.value == pytest.approx(gaussian_alpha_star(sigma), rel=1e-6, abs=0.0)
        assert eta_tv_amplitude(noise, 1.0 / (2.0 * rep.bracket[0])) > 1.0 / 3.0

    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e5, 1e9, 1e13])
    def test_gaussian_relative_accuracy(self, sigma):
        # a bracket of relative width at the top of the range (sigma = 1e-3) and
        # below the old halving floor of 1e-12 (sigma = 1e13)
        noise = NoiseModel.gaussian(sigma)
        rep = alpha_star(noise)
        lo, hi = rep.bracket
        assert rep.value == hi
        assert hi == pytest.approx(gaussian_alpha_star(sigma), rel=1e-9, abs=0.0)
        assert eta_tv_amplitude(noise, 1.0 / (2.0 * hi)) <= 1.0 / 3.0
        assert eta_tv_amplitude(noise, 1.0 / (2.0 * lo)) > 1.0 / 3.0

    def test_uniform_unit_value(self):
        # eta_tv(1/(2 alpha)) = min(1/alpha, 1) <= 1/3 iff alpha >= 3
        rep = alpha_star(NoiseModel.uniform(0.0, 1.0))
        assert rep.value == pytest.approx(3.0, abs=1e-6)

    def test_scaling(self):
        # doubling the uniform width halves the contraction threshold
        rep = alpha_star(NoiseModel.uniform(0.0, 2.0))
        assert rep.value == pytest.approx(1.5, abs=1e-6)


class TestA2Star:
    def test_reports_satisfied(self):
        rep = a2_star(NoiseModel.gaussian(), 0.5, 1.0, 2.0)
        ap = rep.value ** 2
        assert 18.0 * math.log(ap) / ap <= 0.5 + 1e-9

    def test_floor_active_for_large_t(self):
        rep = a2_star(NoiseModel.gaussian(), 100.0, 1.0, 2.0)
        floor = max(math.e, 2.0, 1.16082728220821 * math.e ** 3) ** 0.5
        assert rep.value == pytest.approx(floor, rel=1e-6)

    def test_record_carries_bracket(self):
        rep = a2_star(NoiseModel.laplace(1.0), 0.5, 1.0, 2.0)
        lo, hi = rep.bracket
        assert rep.value == hi
        assert hi - lo <= 1e-9
        assert rep.iterations > 0

    def test_nonincreasing_in_t(self):
        z = NoiseModel.gaussian()
        vals = [a2_star(z, t, 1.0, 2.0).value for t in (0.05, 0.2, 1.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            a2_star(NoiseModel.gaussian(), 0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            a2_star(NoiseModel.gaussian(), 0.5, -1.0, 2.0)
