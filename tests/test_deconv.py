import math
import tracemalloc

import numpy as np
import pytest

from sdpi.channels import NoiseModel
from sdpi.core_prob import DiscretePMF, GridDensity, convolve, ks_distance
from sdpi.deconv import (
    deconv_root_residual, esseen_bound, g1_profile, ks_deconv_solve, ks_from_tv_bound,
)
from sdpi.errors import BudgetError, DomainError, ProfileFailureError


def std_normal_grid(step=0.01):
    return GridDensity.from_function(lambda x: np.exp(-0.5 * x * x), -8.0, 8.0, step)


def rademacher():
    return DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


class TestEsseen:
    def test_identical_distributions(self):
        g = std_normal_grid()
        T = 5.0
        val = esseen_bound(g, g, g.max_density(), T)
        assert val == pytest.approx(24.0 * g.max_density() / (math.pi * T), abs=1e-6)

    def test_dominates_ks(self):
        P = rademacher()
        Q = std_normal_grid()
        val = esseen_bound(P, Q, Q.max_density(), 4.0)
        assert val >= ks_distance(P, Q)

    def test_decreasing_smoothing_term(self):
        g = std_normal_grid()
        v1 = esseen_bound(g, g, g.max_density(), 2.0)
        v2 = esseen_bound(g, g, g.max_density(), 8.0)
        assert v2 < v1

    def test_domain(self):
        g = std_normal_grid()
        with pytest.raises(DomainError):
            esseen_bound(g, g, g.max_density(), 0.0)

    @pytest.mark.parametrize("T", [4200.0, 1e9])
    def test_node_budget(self, T):
        # the node count grows as T / 1e-3; past 2^22 nodes it is refused
        # before any frequency array is allocated
        Q = std_normal_grid()
        with pytest.raises(BudgetError):
            esseen_bound(rademacher(), Q, Q.max_density(), T)


class TestProfiles:
    def test_gaussian(self):
        p = g1_profile(NoiseModel.gaussian())
        assert p.kind == "gaussian"
        assert p.g_of_T(1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert p.h_of_T(3.0) == 0.0
        assert p.g1_of_u(math.exp(-4.0)) == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_sigma_scaling(self):
        p = g1_profile(NoiseModel.gaussian(2.0))
        assert p.g1_of_u(math.exp(-1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_uniform(self):
        p = g1_profile(NoiseModel.uniform(0.0, 2.0))
        assert p.kind == "uniform"
        assert p.g1_of_u(0.125) == pytest.approx(1.0, rel=1e-12)
        assert p.h_of_T(4.0) == pytest.approx(2.0, rel=1e-12)
        assert p.g_of_T(1.0) == pytest.approx(2.0 ** -1.5, rel=1e-12)

    def test_uniform_narrow_rejected(self):
        with pytest.raises(ProfileFailureError):
            g1_profile(NoiseModel.uniform(0.0, 0.5))

    def test_laplace(self):
        p = g1_profile(NoiseModel.laplace(1.0))
        # |phi|(w) = 1/(1+w^2); g1 inverts sqrt of that
        assert p.g_of_T(2.0) == pytest.approx(0.2, rel=1e-12)
        u = 0.25
        T = p.g1_of_u(u)
        assert 1.0 / (1.0 + T * T) == pytest.approx(math.sqrt(u), rel=1e-9)

    def test_grid_numeric_dyadic(self):
        gn = NoiseModel.from_grid(NoiseModel.gaussian().to_grid(step=0.01))
        p = g1_profile(gn)
        assert p.kind == "grid"
        T = p.g1_of_u(0.01)
        # dyadic answer brackets the closed-form 2.146 within a factor 2
        assert 1.0 <= T <= 4.0

    def test_g1_domain(self):
        p = g1_profile(NoiseModel.gaussian())
        with pytest.raises(DomainError):
            p.g1_of_u(0.0)
        with pytest.raises(DomainError):
            p.g1_of_u(1.5)


class TestKsFromTv:
    def test_dominates_measured_ks(self):
        P, Q = rademacher(), std_normal_grid()
        noise = NoiseModel.gaussian()
        z = noise.to_grid(step=0.01)
        pc, qc = convolve(P, z), convolve(Q, z)
        lo = min(pc.x_min, qc.x_min)
        hi = max(pc.x_max, qc.x_max)
        grid = np.arange(round(lo / 0.01), round(hi / 0.01) + 1) * 0.01

        def on(d):
            v = np.interp(grid, d.grid, d.values, left=0.0, right=0.0)
            return v / np.trapezoid(v, dx=0.01)

        d_tv = float(0.5 * np.trapezoid(np.abs(on(pc) - on(qc)), dx=0.01))
        prof = g1_profile(noise)
        T = prof.g1_of_u(min(noise.m1 * d_tv, 1.0))
        bound = ks_from_tv_bound(noise, Q.max_density(),
                                 (P.abs_moment(1.0), Q.abs_moment(1.0)), prof, T, d_tv)
        assert bound >= ks_distance(P, Q)

    def test_profile_without_floor(self):
        gn = NoiseModel.from_grid(NoiseModel.gaussian().to_grid(step=0.05))
        prof = g1_profile(gn)
        with pytest.raises(ProfileFailureError):
            ks_from_tv_bound(gn, 0.4, (1.0, 1.0), prof, 2.0, 0.01)


class TestKsDeconvSolve:
    def test_gaussian_fast_path(self):
        d_tv, m2, mom = 1e-3, 0.4, (1.0, 0.8)
        noise = NoiseModel.gaussian()
        c0 = max(24.0 * m2 + 2.0 * (mom[0] + mom[1]),
                 math.sqrt(8.0 * noise.m1 * math.pi)) / math.pi
        T = math.sqrt(math.log(1.0 / d_tv) / 2.0)
        assert ks_deconv_solve(noise, d_tv, m2, mom) == pytest.approx(
            2.0 * c0 / T, rel=1e-12)

    def test_laplace_root(self):
        T, resid = deconv_root_residual(NoiseModel.laplace(1.0), 1e-3)
        assert resid < 1e-8
        # solved T satisfies (1/(1+T^2))^2 ~ d_tv T^5
        assert (1.0 / (1.0 + T * T)) ** 2 == pytest.approx(1e-3 * T ** 5, rel=1e-3)

    def test_uniform_runs(self):
        val = ks_deconv_solve(NoiseModel.uniform(0.0, 2.0), 1e-3, 0.4, (1.0, 1.0))
        assert val > 0.0

    def test_solve_uses_the_root(self):
        noise, d_tv, m2, mom = NoiseModel.laplace(1.0), 1e-3, 0.4, (1.0, 0.8)
        T, _ = deconv_root_residual(noise, d_tv)
        c0 = max(24.0 * m2 + 2.0 * (mom[0] + mom[1]),
                 math.sqrt(8.0 * noise.m1 * math.pi)) / math.pi
        assert ks_deconv_solve(noise, d_tv, m2, mom) == 2.0 * c0 / T

    @pytest.mark.parametrize("noise", [NoiseModel.laplace(1.0), NoiseModel.uniform(0.0, 2.0)])
    def test_root_matches_dense_scan(self, noise):
        # reference: the whole running-minimum envelope in one array; the
        # roots sit several scan blocks from 0
        d_tv, step = 1e-6, 5e-5
        w = np.arange(0.0, 8.0, step)
        env = np.minimum.accumulate(noise.abs_cf(w))
        k = int(np.argmax(env ** 2 - d_tv * w ** 5 < 0))
        g0 = env[k - 1]
        T = min(max((g0 * g0 / d_tv) ** 0.2, w[k - 1]), w[k])
        assert deconv_root_residual(noise, d_tv) == (T, abs(g0 * g0 - d_tv * T ** 5))

    @pytest.mark.parametrize("d_tv", [1e-2, 1e-6])
    def test_grid_noise_root_matches_direct_scan(self, d_tv):
        # reference: the envelope of the direct sum over the nodes of a 601-node
        # triangular noise, in one array; the scan itself runs on chirp-z blocks
        g = GridDensity.from_function(lambda x: np.maximum(1.0 - np.abs(x) / 3.0, 0.0),
                                      -3.0, 3.0, 0.01)
        step = 5e-5
        w = np.arange(0.0, 2.5, step)
        x, m = g.masses()
        cf = np.concatenate([np.abs((m * np.exp(1j * b[:, None] * x)).sum(axis=1))
                             for b in np.array_split(w, 100)])
        env = np.minimum.accumulate(cf)
        k = int(np.argmax(env ** 2 - d_tv * w ** 5 < 0))
        assert k > 0
        T = min(max((env[k - 1] ** 2 / d_tv) ** 0.2, w[k - 1]), w[k])
        got, _ = deconv_root_residual(NoiseModel.from_grid(g), d_tv)
        assert abs(got - T) <= step

    def test_root_scan_memory_is_bounded(self):
        # the root sits near w = 600, 1.2e7 envelope samples from 0
        tracemalloc.start()
        try:
            T, _ = deconv_root_residual(NoiseModel.laplace(1.0), 1e-25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 550.0 < T < 650.0
        assert (1.0 / (1.0 + T * T)) ** 2 == pytest.approx(1e-25 * T ** 5, rel=1e-3)
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("d_tv", [0.0, -1.0, 1.0, math.nan])
    def test_root_domain(self, d_tv):
        with pytest.raises(DomainError):
            deconv_root_residual(NoiseModel.laplace(1.0), d_tv)

    def test_smaller_tv_smaller_bound(self):
        noise = NoiseModel.laplace(1.0)
        v1 = ks_deconv_solve(noise, 1e-2, 0.4, (1.0, 1.0))
        v2 = ks_deconv_solve(noise, 1e-6, 0.4, (1.0, 1.0))
        assert v2 < v1

    def test_domain(self):
        with pytest.raises(DomainError):
            ks_deconv_solve(NoiseModel.gaussian(), 0.0, 0.4, (1.0, 1.0))
        with pytest.raises(DomainError):
            ks_deconv_solve(NoiseModel.gaussian(), 1.0, 0.4, (1.0, 1.0))


class TestConstantsDomain:
    """A KS bound needs a density bound m2 in (0, inf) and first moments in
    [0, inf); outside them the formulas return negative or nan "bounds"."""

    @pytest.mark.parametrize("m2, mom", [
        (-5.0, (1.0, 1.0)), (0.0, (1.0, 1.0)), (math.nan, (1.0, 1.0)), (math.inf, (1.0, 1.0)),
        (0.4, (-1.0, 1.0)), (0.4, (1.0, math.nan)), (0.4, (math.inf, 1.0)),
    ])
    def test_bad_constants_rejected(self, m2, mom):
        noise = NoiseModel.gaussian()
        prof = g1_profile(noise)
        with pytest.raises(DomainError):
            ks_from_tv_bound(noise, m2, mom, prof, 2.0, 0.01)
        with pytest.raises(DomainError):
            ks_deconv_solve(noise, 0.01, m2, mom)

    @pytest.mark.parametrize("m2", [-5.0, 0.0, math.nan, math.inf])
    def test_esseen_rejects_bad_m2(self, m2):
        with pytest.raises(DomainError):
            esseen_bound(rademacher(), std_normal_grid(), m2, 4.0)
