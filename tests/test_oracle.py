import math
from pathlib import Path

import numpy as np
import pytest

from sdpi.channels import DMCKernel, NoiseModel, mi_additive
from sdpi.core_prob import DiscretePMF, GridDensity
from sdpi.errors import BudgetError, DomainError
from sdpi.fi_curves import fi_bsc
from sdpi.gaussian_sdpi import gd_lower
from sdpi import oracle
from sdpi.oracle import (
    SweepResult, fi_bruteforce_dmc, mc_mutual_info, sdpi_pair_sampler,
)


def rademacher():
    return DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


class TestBruteForce:
    def test_t_zero(self):
        assert fi_bruteforce_dmc(DMCKernel.bsc(0.1), 0.0) <= 1e-12

    def test_identity_within_resolution(self):
        val = fi_bruteforce_dmc(DMCKernel.identity(2), 0.3)
        assert val == pytest.approx(0.3, abs=2e-3)
        assert val <= 0.3 + 1e-12

    def test_bsc_agrees_with_closed_form(self):
        # resolution-30 run: cheaper than the acceptance sweep, same shape
        K = DMCKernel.bsc(0.2)
        for t in (0.15, 0.45):
            bf = fi_bruteforce_dmc(K, t, w_size=3, resolution=30)
            ref = fi_bsc(t, 0.2)
            assert bf <= ref + 1e-9
            assert ref - bf <= 2e-3

    def test_monotone_in_t(self):
        K = DMCKernel.bsc(0.1)
        vals = [fi_bruteforce_dmc(K, t, 2, 30) for t in (0.1, 0.3, 0.5)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            fi_bruteforce_dmc(DMCKernel.bsc(0.1), 0.2, w_size=3, resolution=200)

    def test_alphabet_limit(self):
        K = DMCKernel(np.full((4, 4), 0.25))
        with pytest.raises(BudgetError):
            fi_bruteforce_dmc(K, 0.2)

    def test_w_size_limit(self):
        with pytest.raises(DomainError):
            fi_bruteforce_dmc(DMCKernel.bsc(0.1), 0.2, w_size=4)
        with pytest.raises(DomainError):
            fi_bruteforce_dmc(DMCKernel.bsc(0.1), 0.2, w_size=0)

    def test_single_w_value_gives_zero(self):
        # one value of W carries no information: 2 lattice cells
        assert fi_bruteforce_dmc(DMCKernel.bsc(0.1), 0.1, w_size=1, resolution=10) == 0.0

    def test_single_input_kernel_gives_zero(self):
        # with |X| = 1, I(W;Y) <= I(W;X) = 0: the lattice clips its rounding
        val = fi_bruteforce_dmc(DMCKernel(np.array([[0.5, 0.5]])), 0.1, w_size=2)
        assert val == 0.0

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            fi_bruteforce_dmc(DMCKernel.bsc(0.1), 0.2, resolution=5)

    def test_negative_t(self):
        with pytest.raises(DomainError):
            fi_bruteforce_dmc(DMCKernel.bsc(0.1), -0.1)

    def test_envelope_cache_is_bounded(self, monkeypatch):
        oracle._bruteforce_envelope.cache_clear()
        enumerations = []
        real_lattice = oracle.simplex_lattice
        monkeypatch.setattr(oracle, "simplex_lattice",
                            lambda n, parts: enumerations.append(n) or real_lattice(n, parts))
        cap = 8
        kernels = [DMCKernel.bsc(0.05 + 0.02 * i) for i in range(cap + 3)]
        for K in kernels:
            fi_bruteforce_dmc(K, 0.2, w_size=2, resolution=10)
        assert len(enumerations) == len(kernels)
        assert oracle._bruteforce_envelope.cache_info().currsize == cap
        # the most recent kernel is still cached; the oldest was evicted
        fi_bruteforce_dmc(kernels[-1], 0.3, w_size=2, resolution=10)
        assert len(enumerations) == len(kernels)
        fi_bruteforce_dmc(kernels[0], 0.3, w_size=2, resolution=10)
        assert len(enumerations) == len(kernels) + 1
        assert oracle._bruteforce_envelope.cache_info().currsize == cap


class TestMcMutualInfo:
    def test_gaussian_agrees_with_quadrature(self):
        x = rademacher()
        ref = mi_additive(x, NoiseModel.gaussian(), 1.0)
        est, ci = mc_mutual_info(x, NoiseModel.gaussian(), 1.0, 10 ** 6, seed=7)
        assert abs(est - ref) <= ci + 1e-4

    def test_uniform_noise_branch(self):
        x = DiscretePMF(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        est, ci = mc_mutual_info(x, NoiseModel.uniform(0.0, 1.0), 1.0,
                                 2 * 10 ** 5, seed=3)
        # disjoint supports: exact value log 2
        assert abs(est - math.log(2.0)) <= ci + 1e-4

    def test_deterministic_in_seed(self):
        x = rademacher()
        a = mc_mutual_info(x, NoiseModel.gaussian(), 1.0, 10 ** 5, seed=11)
        b = mc_mutual_info(x, NoiseModel.gaussian(), 1.0, 10 ** 5, seed=11)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            mc_mutual_info(rademacher(), NoiseModel.gaussian(), 1.0, 10 ** 4)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(DomainError):
            mc_mutual_info(rademacher(), NoiseModel.gaussian(), gamma, 10 ** 5)


class TestPairSampler:
    def test_diag_no_violations(self):
        res = sdpi_pair_sampler(
            NoiseModel.gaussian(), gamma=1.0, p=2.0, n_couplings=300, seed=5,
            diag_bound=lambda t: gd_lower(t, 1.0))
        assert isinstance(res, SweepResult)
        assert res.violation_count == 0
        assert res.samples.shape == (300, 2)

    def test_dpi_always_holds(self):
        res = sdpi_pair_sampler(NoiseModel.gaussian(), gamma=4.0, p=2.0,
                                n_couplings=300, seed=9,
                                diag_bound=lambda t: 0.0)
        i_wx, i_wy = res.samples[:, 0], res.samples[:, 1]
        assert np.all(i_wy <= i_wx + 3e-4)

    def test_uniform_noise_branch(self):
        res = sdpi_pair_sampler(NoiseModel.uniform(0.0, 1.0), gamma=1.0, p=2.0,
                                n_couplings=200, seed=2,
                                diag_bound=lambda t: 0.0)
        assert res.violation_count == 0

    @pytest.mark.parametrize("kw", [
        dict(gamma=math.nan), dict(gamma=math.inf), dict(gamma=-1.0),
        dict(p=0.0), dict(p=0.5), dict(p=math.nan), dict(p=math.inf),
        dict(n_couplings=-1),
    ])
    def test_bad_arguments_rejected(self, kw):
        # a nan gamma used to give nan I(W;Y) and a sweep with no violations
        args = dict(gamma=1.0, p=2.0, n_couplings=5, diag_bound=lambda t: 0.0) | kw
        with pytest.raises(DomainError):
            sdpi_pair_sampler(NoiseModel.gaussian(), **args)

    def test_reproducible(self):
        kw = dict(gamma=1.0, p=2.0, n_couplings=50, seed=123)
        a = sdpi_pair_sampler(NoiseModel.gaussian(), **kw)
        b = sdpi_pair_sampler(NoiseModel.gaussian(), **kw)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("noise", [
        NoiseModel.laplace(1.0),
        NoiseModel.from_grid(GridDensity.from_csv(
            (Path(__file__).parent / "golden" / "noise.csv").read_text())),
    ])
    def test_quadrature_noise_obeys_data_processing(self, noise):
        # families without a closed-form mixture entropy run the same sweep
        res = sdpi_pair_sampler(noise, gamma=1.0, p=2.0, n_couplings=10, seed=0)
        i_wx, i_wy = res.samples[:, 0], res.samples[:, 1]
        assert np.all(i_wy <= i_wx + 1e-6)
