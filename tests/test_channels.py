import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from sdpi.channels import (
    DMCKernel, GaussianNoise, GridNoise, LaplaceNoise, NoiseModel,
    UniformNoise, _CAPACITY_GAP, _CAPACITY_STEPS, awgn_capacity, dmc_capacity,
    immse_gap_check, lmmse, mi_additive, mi_dmc, mmse_numeric, normalize_input,
)
from sdpi.core_prob import LOG2, DiscretePMF, GridDensity, binary_entropy
from sdpi.errors import DomainError, ShapeError


GOLDEN_NOISE = GridDensity.from_csv((Path(__file__).parent / "golden" / "noise.csv").read_text())


def rademacher():
    return DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


class TestDMCKernel:
    def test_row_stochastic_enforced(self):
        with pytest.raises((DomainError, ShapeError)):
            DMCKernel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_bsc_rows(self):
        K = DMCKernel.bsc(0.1)
        assert np.allclose(K.matrix, [[0.9, 0.1], [0.1, 0.9]])

    def test_bsc_domain(self):
        with pytest.raises(DomainError):
            DMCKernel.bsc(1.5)

    def test_erasure_shape(self):
        K = DMCKernel.erasure(0.3, 3)
        assert K.matrix.shape == (3, 4)
        assert np.allclose(K.matrix.sum(axis=1), 1.0)

    def test_identity(self):
        K = DMCKernel.identity(3)
        assert np.allclose(K.matrix, np.eye(3))

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (3, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(DomainError):
            DMCKernel(np.zeros(shape))


class TestMiDmc:
    def test_independent(self):
        K = DMCKernel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert mi_dmc(np.array([0.3, 0.7]), K) == pytest.approx(0.0, abs=1e-12)

    def test_identity_is_entropy(self):
        K = DMCKernel.identity(2)
        p = np.array([0.25, 0.75])
        assert mi_dmc(p, K) == pytest.approx(binary_entropy(0.25), abs=1e-12)

    def test_bsc_uniform_input(self):
        val = mi_dmc(np.array([0.5, 0.5]), DMCKernel.bsc(0.1))
        assert val == pytest.approx(LOG2 - binary_entropy(0.1), abs=1e-12)


# a 5x3 kernel on which 5,000 Blahut-Arimoto steps drive two input weights to
# subnormals (5e-324 and 1e-323)
SUBNORMAL_KERNEL = np.array([
    [0.27489688872110063, 0.06860425470547672, 0.6564988565734226],
    [0.26222792222880836, 0.28776343696294615, 0.45000864080824554],
    [0.6002148087567576, 0.3974092309552927, 0.00237596028794973],
    [0.5187833898018481, 0.17025963923933274, 0.3109569709588192],
    [0.630829561375245, 0.36827912644355537, 0.00089131218119966],
])


class TestDmcCapacity:
    # each end of the bracket may miss C by rounding
    ROUNDING = 1e-15

    def bracket(self, m, closed=None):
        """The capacity bracket of m, checked to be closed and, given a closed
        form, to contain it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cap = dmc_capacity(DMCKernel(np.asarray(m, dtype=float)))
        assert math.isfinite(cap.lower) and cap.lower <= cap.upper
        assert cap.upper - cap.lower <= _CAPACITY_GAP
        assert cap.steps <= _CAPACITY_STEPS
        if closed is not None:
            assert cap.lower - self.ROUNDING <= closed <= cap.upper + self.ROUNDING
        return cap

    def test_bsc_closed_form(self):
        for d in (0.05, 0.1, 0.3, 0.5):
            self.bracket(DMCKernel.bsc(d).matrix, LOG2 - binary_entropy(d))

    def test_erasure_closed_form(self):
        for size in (2, 3):
            self.bracket(DMCKernel.erasure(0.3, size).matrix, 0.7 * math.log(size))

    def test_identity(self):
        self.bracket(np.eye(3), math.log(3.0))

    def test_z_channel(self):
        # crossover e: C = log(1 + (1 - e) e^(e / (1 - e))), log 1.25 at e = 1/2
        self.bracket([[1.0, 0.0], [0.5, 0.5]], math.log(1.25))

    def test_degenerate_kernels(self):
        self.bracket([[0.2, 0.3, 0.5]], 0.0)
        self.bracket([[0.2, 0.3, 0.5]] * 4, 0.0)
        # a repeated row and an all-zero output column leave C unchanged
        bsc = LOG2 - binary_entropy(0.1)
        self.bracket([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]], bsc)
        self.bracket([[0.9, 0.0, 0.1], [0.1, 0.0, 0.9]], bsc)

    def test_subnormal_input_weights(self):
        # Blahut-Arimoto returned inf here, with a RuntimeWarning
        self.bracket(SUBNORMAL_KERNEL)

    def test_near_degenerate_kernel_is_bounded(self):
        # the middle row is a mixture of the others, so its weight goes to 0
        cap = self.bracket([[0.9, 0.1], [0.55, 0.45], [0.2, 0.8]])
        assert cap.steps < _CAPACITY_STEPS

    def test_matches_row_by_row_iteration(self):
        # 5,000 Blahut-Arimoto steps with D(row_x || q) taken one row at a time
        # over the positive entries: a lower bound on C that lies in the bracket
        def reference(m, steps=5000):
            p = np.full(len(m), 1.0 / len(m))
            for _ in range(steps):
                q = p @ m
                d = np.array([np.sum(r[r > 0] * np.log(r[r > 0] / q[r > 0])) for r in m])
                p = p * np.exp(d - d.max())
                p /= p.sum()
            return mi_dmc(p, DMCKernel(m))

        rng = np.random.default_rng(5)
        kernels = [DMCKernel.erasure(0.4, 3).matrix,
                   np.array([[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [1.0, 0.0, 0.0]])]
        kernels += [rng.dirichlet(np.ones(ny), size=nx) for nx, ny in ((2, 3), (3, 3), (4, 2))]
        for m in kernels:
            cap = self.bracket(m)
            assert cap.lower - self.ROUNDING <= reference(m) <= cap.upper


class TestNoiseModel:
    def test_gaussian_m1(self):
        z = NoiseModel.gaussian()
        assert z.m1 == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_uniform_density_bound(self):
        z = NoiseModel.uniform(0.0, 2.0)
        assert z.m1 == pytest.approx(0.5, abs=1e-12)
        assert z.variance() == pytest.approx(4.0 / 12.0, abs=1e-12)

    def test_laplace(self):
        z = NoiseModel.laplace(1.0)
        assert z.m1 == pytest.approx(0.5, abs=1e-12)
        assert z.variance() == pytest.approx(2.0, abs=1e-12)

    def test_uniform_abs_cf_sinc(self):
        z = NoiseModel.uniform(0.0, 1.0)
        w = 1.3
        expected = abs(math.sin(w / 2.0) / (w / 2.0))
        assert float(z.abs_cf(np.array([w]))[0]) == pytest.approx(expected, abs=1e-12)

    def test_theta_gaussian(self):
        z = NoiseModel.gaussian()
        # d_TV(N(0,1), N(1,1)) = 1 - 2Q(1/2)
        from sdpi.core_prob import q_function
        assert z.theta(1.0) == pytest.approx(1.0 - 2.0 * q_function(0.5), abs=1e-12)

    def test_theta_uniform(self):
        z = NoiseModel.uniform(0.0, 2.0)
        assert z.theta(0.5) == pytest.approx(0.25, abs=1e-12)
        assert z.theta(3.0) == 1.0

    def test_theta_laplace(self):
        z = NoiseModel.laplace(1.0)
        assert z.theta(1.0) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_theta_rejects_nan(self):
        for z in (NoiseModel.gaussian(), NoiseModel.laplace(1.0), NoiseModel.uniform()):
            with pytest.raises(DomainError):
                z.theta(math.nan)

    def test_to_grid_normalized(self):
        g = NoiseModel.gaussian().to_grid(step=0.01)
        assert np.trapezoid(g.values, dx=g.step) == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_theta_triangle(self, d1, d2):
        z = NoiseModel.laplace(0.7)
        assert z.theta(d1 + d2) <= z.theta(d1) + z.theta(d2) + 1e-12

    @pytest.mark.parametrize("make", [
        lambda: GaussianNoise(math.nan), lambda: GaussianNoise(math.inf),
        lambda: UniformNoise(math.nan, 1.0), lambda: UniformNoise(0.0, math.inf),
        lambda: UniformNoise(-math.inf, 0.0), lambda: LaplaceNoise(math.nan),
        lambda: LaplaceNoise(math.inf), lambda: GridNoise(np.array([0.5, 0.5])),
    ])
    def test_direct_construction_rejects_non_finite(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("z", [
        NoiseModel.gaussian(0.7), NoiseModel.uniform(-1.0, 2.0), NoiseModel.laplace(1.3),
        NoiseModel.from_grid(GridDensity.from_function(
            lambda x: np.maximum(1.0 - np.abs(x - 0.5), 0.0), -0.5, 1.5, 0.01)),
    ], ids=["gaussian", "uniform", "laplace", "grid"])
    def test_sample_variance(self, z):
        x = z.sample(400_000, np.random.default_rng(3))
        assert x.shape == (400_000,)
        assert np.var(x) == pytest.approx(z.variance(), rel=0.01)


class TestNormalizeInput:
    def test_standardizes(self):
        P = DiscretePMF(np.array([0.0, 4.0]), np.array([0.5, 0.5]))
        Q = normalize_input(P)
        assert Q.mean() == pytest.approx(0.0, abs=1e-12)
        assert Q.var() == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(DomainError):
            normalize_input(DiscretePMF.point_mass(1.0))


class TestMiAdditive:
    def test_rademacher_snr1(self):
        # BPSK over AWGN at snr 1; cross-checked by adaptive quadrature and MC
        val = mi_additive(rademacher(), NoiseModel.gaussian(), 1.0)
        assert val == pytest.approx(0.3368308203468314, abs=1e-9)

    def test_rademacher_high_snr_saturates(self):
        val = mi_additive(rademacher(), NoiseModel.gaussian(), 100.0)
        assert val == pytest.approx(LOG2, abs=1e-9)

    def test_below_capacity(self):
        x = DiscretePMF(np.array([-1.5, 0.2, 1.3]), np.array([0.3, 0.4, 0.3]))
        x = normalize_input(x)
        for gamma in (0.5, 1.0, 4.0):
            val = mi_additive(x, NoiseModel.gaussian(), gamma)
            assert 0.0 <= val <= awgn_capacity(gamma) + 1e-9

    def test_uniform_noise_exact_branch(self):
        # X uniform on {0, 2}, Z uniform on [0, 1]: output pieces are disjoint
        # except nowhere, so I = H(X) = log 2
        x = DiscretePMF(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        z = NoiseModel.uniform(0.0, 1.0)
        assert mi_additive(x, z, 1.0) == pytest.approx(LOG2, abs=1e-9)

    def test_uniform_noise_overlap(self):
        # X on {0, 0.5}, Z uniform on [0, 1]: overlap of width 1/2 costs
        # exactly (1/2) log 2 of the entropy
        x = DiscretePMF(np.array([0.0, 0.5]), np.array([0.5, 0.5]))
        z = NoiseModel.uniform(0.0, 1.0)
        assert mi_additive(x, z, 1.0) == pytest.approx(0.5 * LOG2, abs=1e-9)

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    @pytest.mark.parametrize("noise, breaks, tol", [
        (NoiseModel.laplace(0.5), [-19.0, 0.0, 19.0], 5e-6),
        (NoiseModel.laplace(1.0), [-38.0, 0.0, 38.0], 5e-6),
        (NoiseModel.from_grid(GOLDEN_NOISE), list(GOLDEN_NOISE.grid), 1e-4),
    ])
    def test_generic_noise_matches_adaptive_quadrature(self, noise, breaks, tol, gamma):
        # sum_k w_k KL(p_Z || p_Y(mu_k + .)) by scipy quad between the kinks of
        # p_Z and of every shifted copy p_Z(mu_k - mu_l + .)
        x = DiscretePMF(np.array([-1.0, 0.3, 1.2]), np.array([0.3, 0.5, 0.2]))
        mu = math.sqrt(gamma) * x.atoms

        def integrand(z, k):
            pz = noise.density(z)
            py = sum(w * noise.density(mu[k] + z - m) for w, m in zip(x.weights, mu))
            return pz * math.log(pz / py) if pz > 0 else 0.0

        lo, hi = breaks[0], breaks[-1]
        ref = 0.0
        for k, w in enumerate(x.weights):
            pts = sorted({min(max(b + m - mu[k], lo), hi) for m in mu for b in breaks})
            ref += w * sum(quad(integrand, a, b, args=(k,))[0] for a, b in zip(pts, pts[1:]))
        assert mi_additive(x, noise, gamma) == pytest.approx(ref, abs=tol)


    def test_negative_gamma(self):
        with pytest.raises(DomainError):
            mi_additive(rademacher(), NoiseModel.gaussian(), -1.0)

    @pytest.mark.parametrize("noise", [
        NoiseModel.gaussian(1.3), NoiseModel.uniform(-1.0, 2.0), NoiseModel.laplace(0.8),
        NoiseModel.from_grid(GOLDEN_NOISE),
    ])
    def test_excess_entropy_rows_match_single_calls(self, noise):
        # the sampler's batched form: one row per conditional law, a zero weight included
        mu = np.array([-1.1, 0.2, 0.9, 2.0])
        v = np.random.default_rng(4).dirichlet(np.ones(4), size=3)
        v[2, 1] = 0.0
        v[2] /= v[2].sum()
        whole = noise.excess_entropy(mu, v)
        assert whole.shape == (3,)
        for row, val in zip(v, whole):
            assert val == noise.excess_entropy(mu, row)


class TestAwgnCapacity:
    def test_closed_form(self):
        assert awgn_capacity(1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert awgn_capacity(3.0) == pytest.approx(0.5 * math.log(4.0), abs=1e-15)

    def test_zero(self):
        assert awgn_capacity(0.0) == 0.0


class TestMmse:
    def test_blocks_match_per_atom_loop(self, monkeypatch):
        from sdpi import core_prob
        x = normalize_input(DiscretePMF(np.linspace(-3.0, 3.0, 40),
                                        np.random.default_rng(2).dirichlet(np.ones(40))))
        whole = mmse_numeric(x, 2.0), mi_additive(x, NoiseModel.gaussian(), 2.0)
        monkeypatch.setattr(core_prob, "_GH_BLOCK", 1)  # one atom per block
        per_atom = mmse_numeric(x, 2.0), mi_additive(x, NoiseModel.gaussian(), 2.0)
        assert per_atom == pytest.approx(whole, rel=1e-14, abs=0.0)

    def test_lmmse(self):
        assert lmmse(1.0) == pytest.approx(0.5, abs=1e-15)
        assert lmmse(3.0) == pytest.approx(0.25, abs=1e-15)

    def test_rademacher_snr1(self):
        # frozen from the MC conditional-mean oracle
        val = mmse_numeric(rademacher(), 1.0)
        assert val == pytest.approx(0.44959950920661806, abs=1e-8)

    def test_mmse_below_lmmse(self):
        x = normalize_input(DiscretePMF(
            np.array([-2.0, 0.1, 0.5]), np.array([0.2, 0.5, 0.3])))
        for gamma in (0.25, 1.0, 4.0):
            assert mmse_numeric(x, gamma) <= lmmse(gamma) + 1e-9

    def test_high_snr_detection(self):
        assert mmse_numeric(rademacher(), 400.0) < 1e-9

    def test_gamma_zero_returns_variance(self):
        assert mmse_numeric(rademacher(), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_gamma_rejected(self):
        with pytest.raises(DomainError):
            mmse_numeric(rademacher(), math.inf)

    def test_gaussian_like_input_near_lmmse(self):
        # fine discretization of N(0,1) has mmse within 1e-3 of the lmmse
        xs = np.linspace(-4.0, 4.0, 81)
        w = np.exp(-0.5 * xs * xs)
        w /= w.sum()
        x = normalize_input(DiscretePMF(xs, w))
        assert mmse_numeric(x, 1.0) == pytest.approx(lmmse(1.0), abs=1e-3)


class TestImmseGapCheck:
    def test_agreement(self):
        gap_direct, gap_integral = immse_gap_check(rademacher(), 1.0)
        assert gap_direct == pytest.approx(gap_integral, abs=1e-3)
        assert gap_direct > 0.0

    def test_values_frozen(self):
        gap_direct, gap_integral = immse_gap_check(rademacher(), 1.0)
        assert gap_direct == pytest.approx(0.009742769933141215, abs=1e-6)


class TestMmseLayout:
    """mmse_numeric reads the component-outer exponent block transposed and keeps the
    values of the (atom, node, component) layout bit for bit."""

    @staticmethod
    def last_axis_mmse(input, gamma):
        from sdpi import core_prob
        nodes, gh_weights = core_prob.gauss_hermite(127)
        keep = input.weights > 0
        atoms, weights = input.atoms[keep], input.weights[keep]
        mu = math.sqrt(gamma) * atoms
        logw = np.log(weights)
        second = 0.0
        size = max(1, core_prob._GH_BLOCK // (len(nodes) * len(mu)))
        for i in range(0, len(mu), size):
            blk = slice(i, i + size)
            y = mu[blk, None] + nodes
            z = logw + -0.5 * (y[:, :, None] - mu) ** 2
            ez = np.exp(z - z.max(axis=2, keepdims=True))
            cond_mean = (ez @ atoms) / ez.sum(axis=2)
            second += float(weights[blk] @ (cond_mean ** 2 @ gh_weights))
        return max(float(weights @ atoms ** 2) - second, 0.0)

    @pytest.mark.parametrize("block", [None, 1, 700])
    def test_matches_last_axis_layout(self, block, monkeypatch):
        from sdpi import core_prob
        if block is not None:
            monkeypatch.setattr(core_prob, "_GH_BLOCK", block)
        rng = np.random.default_rng(9)
        for i in range(150):
            k = int(rng.integers(1, 7))
            atoms = np.sort(rng.uniform(-3.0, 3.0, k)) + 0.01 * np.arange(k)
            if i % 5 == 0 and k > 1:
                atoms[-1] += 60.0
            w = rng.dirichlet(np.ones(k))
            if i % 3 == 0 and k > 1:
                w[0] = 0.0
                w /= w.sum()
            x, gamma = DiscretePMF(atoms, w), float(rng.uniform(0.1, 20.0))
            assert mmse_numeric(x, gamma) == self.last_axis_mmse(x, gamma)
