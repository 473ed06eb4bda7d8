import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from sdpi.channels import (
    DMCKernel, GaussianNoise, GridNoise, LaplaceNoise, NoiseModel,
    UniformNoise, _CAPACITY_GAP, _CAPACITY_STEPS, awgn_capacity, dmc_capacity,
    lmmse, mi_additive, mmse_numeric,
)
from sdpi.core_prob import LOG2, DiscretePMF, GridDensity, binary_entropy, mi_joint, simpson
from sdpi.errors import DomainError, ShapeError


GOLDEN_NOISE = GridDensity.from_csv((Path(__file__).parent / "golden" / "noise.csv").read_text())


def rademacher():
    return DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def standardized(x):
    """x shifted and scaled to mean 0, variance 1."""
    return DiscretePMF((x.atoms - x.mean()) / math.sqrt(x.var()), x.weights)


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

    @pytest.mark.parametrize("size", [0, -1, -2])
    def test_alphabet_size_below_one_rejected(self, size):
        with pytest.raises(DomainError):
            DMCKernel.identity(size)
        with pytest.raises(DomainError):
            DMCKernel.erasure(0.3, size)

    @pytest.mark.parametrize("size", [2.5, 3.0, "3", None, math.nan])
    def test_non_integer_alphabet_size_rejected(self, size):
        with pytest.raises(DomainError):
            DMCKernel.identity(size)
        with pytest.raises(DomainError):
            DMCKernel.erasure(0.3, size)

    def test_numpy_integer_alphabet_size(self):
        assert DMCKernel.identity(np.int64(3)).matrix.shape == (3, 3)
        assert DMCKernel.erasure(0.3, np.int32(3)).matrix.shape == (3, 4)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (3, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(DomainError):
            DMCKernel(np.zeros(shape))


class TestMiDmc:
    """I(X;Y) of an input pmf w through a kernel K: mi_joint of the joint w K."""

    def test_independent(self):
        K = DMCKernel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert mi_joint(np.array([[0.3], [0.7]]) * K.matrix) == pytest.approx(0.0, abs=1e-12)

    def test_identity_is_entropy(self):
        K = DMCKernel.identity(2)
        p = np.array([0.25, 0.75])
        assert mi_joint(p[:, None] * K.matrix) == pytest.approx(binary_entropy(0.25), abs=1e-12)

    def test_bsc_uniform_input(self):
        val = mi_joint(np.array([[0.5], [0.5]]) * DMCKernel.bsc(0.1).matrix)
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
        lower, upper = cap.bracket
        assert cap.value == lower
        assert math.isfinite(lower) and lower <= upper
        assert upper - lower <= _CAPACITY_GAP
        assert cap.iterations <= _CAPACITY_STEPS
        if closed is not None:
            assert lower - self.ROUNDING <= closed <= upper + self.ROUNDING
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
        # a row summing to 1 - 1.1e-16: I(p) rounds to 2.2e-16 while the upper end
        # is 0.0, and the crossed ends must still hold C = 0
        cap = self.bracket([[0.4780179436439269, 0.0013779279720172687, 0.3968674544168628,
                             0.08127921302932085, 0.04245746093787205]])
        assert cap.bracket[0] <= 0.0 <= cap.bracket[1]
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
        assert cap.iterations < _CAPACITY_STEPS

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
            return mi_joint(p[:, None] * m)

        rng = np.random.default_rng(5)
        kernels = [DMCKernel.erasure(0.4, 3).matrix,
                   np.array([[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [1.0, 0.0, 0.0]])]
        kernels += [rng.dirichlet(np.ones(ny), size=nx) for nx, ny in ((2, 3), (3, 3), (4, 2))]
        for m in kernels:
            cap = self.bracket(m)
            assert cap.value - self.ROUNDING <= reference(m) <= cap.bracket[1]


class TestNoiseModel:
    def test_gaussian_m1(self):
        z = NoiseModel.gaussian()
        assert z.m1 == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_uniform_density_bound(self):
        z = NoiseModel.uniform(0.0, 2.0)
        assert z.m1 == pytest.approx(0.5, abs=1e-12)

    def test_laplace(self):
        z = NoiseModel.laplace(1.0)
        assert z.m1 == pytest.approx(0.5, abs=1e-12)

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

    @pytest.mark.parametrize("z, variance", [
        (NoiseModel.gaussian(0.7), 0.7 ** 2), (NoiseModel.uniform(-1.0, 2.0), 3.0 ** 2 / 12.0),
        (NoiseModel.laplace(1.3), 2.0 * 1.3 ** 2),
        (NoiseModel.from_grid(GridDensity.from_function(
            lambda x: np.maximum(1.0 - np.abs(x - 0.5), 0.0), -0.5, 1.5, 0.01)), 1.0 / 6.0),
    ], ids=["gaussian", "uniform", "laplace", "grid"])
    def test_sample_variance(self, z, variance):
        x = z.sample(400_000, np.random.default_rng(3))
        assert x.shape == (400_000,)
        assert np.var(x) == pytest.approx(variance, rel=0.01)


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
        x = standardized(x)
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
        (NoiseModel.from_grid(GOLDEN_NOISE), list(GOLDEN_NOISE.grid), 1e-10),
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


    @pytest.mark.parametrize("b", [0.003, 0.01, 1.0, 30.0])
    def test_laplace_grid_scales_with_b(self, b):
        # the pieces scale with b (atoms, midpoints, atoms +- 38 b), so the error
        # does not grow as b shrinks or grows
        mu, v = np.array([0.0, 0.7 * b]), np.array([0.4, 0.6])
        noise = NoiseModel.laplace(b)

        def integrand(z, k):
            py = sum(w * noise.density(mu[k] + z - m) for w, m in zip(v, mu))
            return noise.density(z) * math.log(noise.density(z) / py)

        ref = 0.0
        for k in range(2):
            pts = sorted({-38.0 * b, 38.0 * b, 0.0, *(m - mu[k] for m in mu)})
            ref += v[k] * sum(quad(integrand, lo, hi, args=(k,), epsabs=0.0, epsrel=1e-12)[0]
                              for lo, hi in zip(pts, pts[1:]))
        assert noise.excess_entropy(mu, v) == pytest.approx(ref, rel=1e-11, abs=0.0)

    def test_grid_noise_is_scale_invariant(self):
        # the law scaled by s with the input scaled by s gives the same I(X;Y)
        x = DiscretePMF(np.array([-0.4, 0.1, 0.5]), np.array([0.3, 0.3, 0.4]))
        g = GOLDEN_NOISE
        mis = []
        for s in (1e-3, 1.0, 100.0):
            noise = NoiseModel.from_grid(
                GridDensity(s * g.x_min, s * g.x_max, s * g.step, g.values / s))
            mis.append(mi_additive(DiscretePMF(s * x.atoms, x.weights), noise, 1.0))
        assert mis == pytest.approx([mis[1]] * 3, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("noise", [NoiseModel.laplace(1.0), NoiseModel.from_grid(GOLDEN_NOISE)])
    def test_single_atom_is_zero(self, noise):
        # the lattice's masses are renormalized, but p_Z in the log ratio is the law's own
        assert noise.excess_entropy(np.array([0.3]), np.array([1.0])) == pytest.approx(0.0, abs=1e-15)

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


# a grid law of 5,001 nodes: two atoms give 10,001 pieces, more than numpy buffers at once
FINE_GRID = GridDensity.from_function(lambda x: np.exp(-0.5 * x * x), -4.0, 4.0, 0.0016)
BATCH_NOISES = [NoiseModel.gaussian(1.3), NoiseModel.laplace(0.8), NoiseModel.uniform(-1.0, 2.0),
                NoiseModel.from_grid(GOLDEN_NOISE), NoiseModel.from_grid(FINE_GRID)]


class TestBatchedEntropy:
    """`excess_entropy` on a batch of inputs, as the sampler calls it, against one
    call per input and per row, bit for bit."""

    @staticmethod
    def batch(k, n=9, rows=3, seed=0):
        """n inputs of k sorted atoms with `rows` weight rows each: row 0 of input 1
        has a zero weight, and the last row of input 2 is all zero (a padded W value)."""
        rng = np.random.default_rng(seed)
        mu = np.sort(rng.normal(scale=2.0, size=(n, k)), axis=1)
        v = rng.dirichlet(np.ones(k), size=(n, rows)) if k > 1 else np.ones((n, rows, 1))
        if k > 1:
            v[1, 0, 0] = 0.0
            v[1, 0] /= v[1, 0].sum()
        v[2, -1] = 0.0
        return mu, v

    @pytest.mark.parametrize("noise", BATCH_NOISES)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_batch_matches_single_inputs(self, noise, k):
        mu, v = self.batch(k)
        whole = noise.excess_entropy(mu, v)
        assert whole.shape == v.shape[:2]
        for b in range(len(mu)):
            np.testing.assert_array_equal(whole[b], noise.excess_entropy(mu[b], v[b]))
            for r in range(v.shape[1]):
                assert whole[b, r] == noise.excess_entropy(mu[b], v[b, r])
        np.testing.assert_array_equal(noise.excess_entropy(mu[4:5], v[4:5]), whole[4:5])
        if k == 1:
            # one atom gives exactly 0 (input 2's last row is the zero one)
            assert np.all(np.delete(whole.ravel(), 2 * v.shape[1] + 2) == 0.0)

    @pytest.mark.parametrize("noise", BATCH_NOISES)
    def test_small_blocks_split_batch_and_nodes(self, noise, monkeypatch):
        # blocks of 80 nodes of one input: every input is cut into node blocks,
        # and the batch into one block per input; the values stay the same bit for bit
        from sdpi import channels
        mu, v = self.batch(4, n=7)
        whole = noise.excess_entropy(mu, v)
        monkeypatch.setattr(channels, "_SHIFT_BLOCK", 2 * 4 * 40)
        small = noise.excess_entropy(mu, v)
        for b in range(len(mu)):
            np.testing.assert_array_equal(small[b], noise.excess_entropy(mu[b], v[b]))
        # only the order of the sums over the nodes changed
        np.testing.assert_allclose(small, whole, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("noise", [NoiseModel.gaussian(), NoiseModel.from_grid(GOLDEN_NOISE)])
    def test_large_batch_stays_in_blocks(self, noise):
        # aim 3: 2,000 inputs of 6 atoms in one call go in blocks of at most
        # _SHIFT_BLOCK copy values, many inputs a block, so the peak grows with the
        # batch by its inputs and results alone (about 0.7 kB an input), not by its
        # copies; an input's bits are its own
        from sdpi import channels
        mu, v = self.batch(6, n=2000, rows=5)
        whole = noise.excess_entropy(mu, v)
        for b in range(0, 2000, 97):
            np.testing.assert_array_equal(whole[b], noise.excess_entropy(mu[b], v[b]))
        blocks = 0
        if isinstance(noise, GridNoise):
            for b, h, p0, _ in noise._pieces(mu, v):
                assert h.size * mu.shape[1] <= channels._SHIFT_BLOCK
                assert p0.shape == (len(mu[b]), 5, h.shape[1])
                blocks += 1
        else:
            for b, w, D in noise._copies(mu):
                assert D.size <= channels._SHIFT_BLOCK
                assert D.shape == (len(mu[b]), 6, w.shape[1])
                blocks += 1
        assert blocks > 1

        def peak(n):
            tracemalloc.start()
            try:
                noise.excess_entropy(mu[:n], v[:n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 400 inputs fill a block of either law
        assert peak(2000) - peak(400) <= 1600 * 1024

    @pytest.mark.parametrize("noise", [NoiseModel.from_grid(GOLDEN_NOISE),
                                       NoiseModel.uniform(-1.0, 2.0)])
    def test_piece_blocks_stay_small(self, noise, monkeypatch):
        # 400 six-atom inputs of 5 rows fill one block: in place, `_pieces` and
        # `_plogp` peak at 15.6 MiB on the golden law (27.9 MiB out of place), with
        # the same values bit for bit
        from sdpi import channels
        mu, v = self.batch(6, n=400, rows=5)
        noise.excess_entropy(mu[:2], v[:2])
        tracemalloc.start()
        try:
            whole = noise.excess_entropy(mu, v)
            assert tracemalloc.get_traced_memory()[1] <= 18 * 2 ** 20
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(channels._LinearNoise, "_plogp", _plogp_out_of_place)
        assert np.array_equal(noise.excess_entropy(mu, v), whole)


def _plogp_out_of_place(noise, mu, rows):
    """`_LinearNoise._plogp` over its `_pieces` as they were before they ran in
    place: a new array for every step."""
    from sdpi import channels
    x, f = noise._nodes()
    for b, pieces in channels._blocks(*mu.shape, mu.shape[1] * len(x) - 1):
        y = np.sort((mu[b, :, None] + x).reshape(len(mu[b]), -1), axis=1)
        for j in pieces:
            ends = y[:, j.start:j.stop + 1]
            h = np.diff(ends, axis=1)
            q = ends[:, :-1] + 0.25 * h
            u1 = np.interp(q[:, None] - mu[b, :, None], x, f, left=0.0, right=0.0)
            u3 = np.interp((q + 0.5 * h)[:, None] - mu[b, :, None], x, f, left=0.0, right=0.0)
            d = 0.5 * (u3 - u1)
            p0 = np.einsum("brk,bkj->brj", rows[b], u1 - d)
            p1 = np.einsum("brk,bkj->brj", rows[b], u3 + d)
            lo, hi = np.maximum(np.minimum(p0, p1), 0.0), np.maximum(np.maximum(p0, p1), 0.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = (hi - lo) / lo
                tail = np.where(t < np.inf, 0.5 * lo * np.where(t > 0.0, np.log1p(t) / t, 1.0), 0.0)
                mean = np.where(hi > 0.0, 0.5 * (lo + hi) * (np.log(hi) - 0.5) + tail, 0.0)
            yield b, h, mean


class TestAwgnCapacity:
    def test_closed_form(self):
        assert awgn_capacity(1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert awgn_capacity(3.0) == pytest.approx(0.5 * math.log(4.0), abs=1e-15)

    def test_zero(self):
        assert awgn_capacity(0.0) == 0.0


class TestMmse:
    def test_blocks_match_per_atom_loop(self, monkeypatch):
        from sdpi import channels
        x = standardized(DiscretePMF(np.linspace(-3.0, 3.0, 40),
                                     np.random.default_rng(2).dirichlet(np.ones(40))))
        whole = mmse_numeric(x, 2.0), mi_additive(x, NoiseModel.gaussian(), 2.0)
        # one piece's Gauss-Legendre nodes per block, or 25 or 1 at a time, so
        # that blocks straddle the pieces
        for nodes in (channels._GL_NODES, 25, 1):
            monkeypatch.setattr(channels, "_SHIFT_BLOCK", 40 * nodes)
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
        x = standardized(DiscretePMF(
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

    def test_tiny_weight_far_atom_finite(self):
        # p_Y underflows on part of the far atom's grid: no nan, no warning
        for tiny in (1e-300, 1e-310):
            x = DiscretePMF(np.array([0.0, 60.0]), np.array([1.0, tiny]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert 0.0 <= mmse_numeric(x, 1.0) <= 1e-290

    def test_gaussian_like_input_near_lmmse(self):
        # fine discretization of N(0,1) has mmse within 1e-3 of the lmmse
        xs = np.linspace(-4.0, 4.0, 81)
        w = np.exp(-0.5 * xs * xs)
        w /= w.sum()
        x = standardized(DiscretePMF(xs, w))
        assert mmse_numeric(x, 1.0) == pytest.approx(lmmse(1.0), abs=1e-3)


def immse_gaps(x, gamma):
    """The capacity gap C(gamma) - I(X; Y_gamma) two ways: directly, and by the
    I-MMSE relation as half the integral of lmmse - mmse over [0, gamma], by the
    composite Simpson rule on 128 intervals."""
    direct = awgn_capacity(gamma) - mi_additive(x, NoiseModel.gaussian(), gamma)
    gaps = [lmmse(s) - mmse_numeric(x, s) for s in np.linspace(0.0, gamma, 129)]
    return direct, 0.5 * simpson(np.array(gaps), gamma / 128)


class TestImmseGapCheck:
    def test_agreement(self):
        gap_direct, gap_integral = immse_gaps(rademacher(), 1.0)
        assert gap_direct == pytest.approx(gap_integral, abs=1e-3)
        assert gap_direct > 0.0

    def test_values_frozen(self):
        gap_direct, gap_integral = immse_gaps(rademacher(), 1.0)
        assert gap_direct == pytest.approx(0.009742769933141215, abs=1e-6)
