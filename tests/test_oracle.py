import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdpi.channels import DMCKernel, NoiseModel, mi_additive
from sdpi.core_prob import DiscretePMF, GridDensity, mi_joint
from sdpi.errors import BudgetError, DomainError
from sdpi.fi_curves import fi_bsc, fi_erasure
from sdpi.gaussian_sdpi import gd_lower
from sdpi import oracle
from sdpi.oracle import (
    SweepResult, fi_bruteforce_dmc, mc_mutual_info, sdpi_pair_sampler,
)

GRID_NOISE = NoiseModel.from_grid(GridDensity.from_csv(
    (Path(__file__).parent / "golden" / "noise.csv").read_text()))


def rademacher():
    return DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


class TestBruteForce:
    @pytest.fixture
    def enumerations(self, monkeypatch):
        """The n of every lattice enumeration the oracle starts, from an empty cache."""
        oracle._bruteforce_envelope.cache_clear()
        seen = []
        real_orbits = oracle._orbits
        monkeypatch.setattr(oracle, "_orbits",
                            lambda n, nx, w_size: seen.append(n) or real_orbits(n, nx, w_size))
        return seen

    @pytest.mark.parametrize("n, nx, w_size", [
        (0, 2, 3), (7, 1, 2), (9, 2, 1), (12, 2, 2), (10, 2, 3), (8, 3, 2), (6, 3, 3), (4, 3, 4),
    ])
    def test_orbits_each_once(self, n, nx, w_size, monkeypatch):
        # every multiset of w_size count rows whose entries sum to n, exactly once,
        # in windows of at most _BLOCK
        monkeypatch.setattr(oracle, "_BLOCK", 7)
        rows = {i: r for i, r in enumerate(itertools.product(range(n + 1), repeat=nx))
                if sum(r) <= n}  # by base-(n + 1) index
        blocks = list(oracle._orbits(n, nx, w_size))
        assert all(b.shape[1] <= 7 for b in blocks)
        got = [tuple(t) for block in blocks for t in block.T.tolist()]
        for t in got:
            assert sum(sum(rows[i]) for i in t) == n
            # nondecreasing in the enumerator's order: by total, then by index
            keys = [(sum(rows[i]), i) for i in t]
            assert keys == sorted(keys)
        ref = [c for c in itertools.combinations_with_replacement(sorted(rows), w_size)
               if sum(sum(rows[i]) for i in c) == n]
        assert sorted(tuple(sorted(t)) for t in got) == ref

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
            assert ref - bf <= 1e-8

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

    def test_single_w_value_gives_zero(self, enumerations):
        # one value of W carries no information: answered before any enumeration
        assert fi_bruteforce_dmc(DMCKernel.bsc(0.1), 0.1, w_size=1, resolution=10) == 0.0
        assert enumerations == []

    def test_single_input_kernel_gives_zero(self, enumerations):
        # with |X| = 1, I(W;Y) <= I(W;X) = 0 on every coupling
        val = fi_bruteforce_dmc(DMCKernel(np.array([[0.5, 0.5]])), 0.1, w_size=2)
        assert val == 0.0
        assert enumerations == []

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            fi_bruteforce_dmc(DMCKernel.bsc(0.1), 0.2, resolution=5)

    def test_negative_t(self):
        with pytest.raises(DomainError):
            fi_bruteforce_dmc(DMCKernel.bsc(0.1), -0.1)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_t(self, t):
        with pytest.raises(DomainError, match="finite"):
            fi_bruteforce_dmc(DMCKernel.bsc(0.1), t)

    def test_non_integral_sizes(self):
        K = DMCKernel.bsc(0.1)
        with pytest.raises(DomainError, match="w_size"):
            fi_bruteforce_dmc(K, 0.2, w_size=2.5)
        with pytest.raises(DomainError, match="resolution"):
            fi_bruteforce_dmc(K, 0.2, w_size=2, resolution=10.5)
        # numpy integers are integers
        assert fi_bruteforce_dmc(K, 0.2, np.int64(2), np.int32(10)) == \
            fi_bruteforce_dmc(K, 0.2, 2, 10)

    def test_checks_precede_degenerate_return(self):
        bsc, single_input = DMCKernel.bsc(0.1), DMCKernel(np.array([[0.5, 0.5]]))
        for kwargs in ({"t": -0.1}, {"t": math.inf}, {"t": 0.1, "resolution": 5},
                       {"t": 0.1, "resolution": 10.5}):
            with pytest.raises(DomainError):
                fi_bruteforce_dmc(bsc, w_size=1, **kwargs)
        with pytest.raises(DomainError):
            fi_bruteforce_dmc(single_input, 0.1, w_size=3)
        with pytest.raises(BudgetError):
            fi_bruteforce_dmc(DMCKernel(np.full((4, 4), 0.25)), 0.1, w_size=1)

    @pytest.mark.parametrize("K, w_size, n", [
        (DMCKernel.bsc(0.2), 2, 12),
        (DMCKernel(np.random.default_rng(3).dirichlet(np.ones(3), size=2)), 3, 8),
        (DMCKernel(np.random.default_rng(4).dirichlet(np.ones(2), size=3)), 2, 8),
        (DMCKernel(np.random.default_rng(5).dirichlet(np.ones(3), size=3)), 3, 6),
        (DMCKernel(np.random.default_rng(6).dirichlet(np.ones(3), size=3)), 4, 5),
    ])
    def test_table_walk_matches_joint_mi(self, K, w_size, n):
        # every lattice coupling evaluated with mi_joint, binned by the same ceiling rule
        bin_w, stair, bin_vals, bin_rows = oracle._bruteforce_envelope(
            K.matrix.tobytes(), K.matrix.shape, w_size, n)
        cells = w_size * K.matrix.shape[0]

        def pair(q):
            j = q.reshape(w_size, -1)
            i_wx = mi_joint(j)
            return i_wx, min(mi_joint(j @ K.matrix), i_wx)

        ref = np.full(len(stair), -np.inf)
        for bars in itertools.combinations(range(n + cells - 1), cells - 1):
            counts = np.diff((-1,) + bars + (n + cells - 1,)) - 1
            i_wx, i_wy = pair(counts / n)
            b = min(math.ceil(i_wx / bin_w - 1e-12), len(ref) - 1)
            ref[b] = max(ref[b], i_wy)
        np.testing.assert_allclose(stair, np.maximum.accumulate(ref), rtol=0, atol=1e-12)
        for b in np.flatnonzero(np.isfinite(bin_vals)):
            counts = bin_rows[b] * n
            np.testing.assert_allclose(counts, np.round(counts), rtol=0, atol=1e-9)
            assert round(counts.sum()) == n
            assert abs(pair(bin_rows[b])[1] - bin_vals[b]) <= 1e-12

    @staticmethod
    def _stair(K, t, w_size, n):
        """The lattice alone: the staircase value the polish starts from."""
        bin_w, stair, _, _ = oracle._bruteforce_envelope(
            K.matrix.tobytes(), K.matrix.shape, w_size, n)
        return stair[min(math.floor(t / bin_w + 1e-12), len(stair) - 1)]

    # verify --suite bsc's 9 cases, criterion 1's 8 and the 2 above
    @pytest.mark.parametrize("delta, t, n", [
        *[(d, t, 40) for d in (0.1, 0.2, 0.3) for t in (0.1, 0.3, 0.5)],
        *[(d, t, 60) for d in (0.1, 0.3) for t in (0.1, 0.2, 0.4, 0.6)],
        (0.2, 0.15, 30), (0.2, 0.45, 30),
    ])
    def test_polish_reaches_bsc_closed_form(self, delta, t, n):
        K = DMCKernel.bsc(delta)
        bf = fi_bruteforce_dmc(K, t, w_size=3, resolution=n)
        assert abs(bf - fi_bsc(t, delta)) <= 1e-9
        assert bf >= self._stair(K, t, 3, n)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6])
    @pytest.mark.parametrize("size", [2, 3])
    def test_polish_reaches_erasure_closed_form(self, alpha, size):
        # I(W;Y) = (1 - alpha) I(W;X) on every coupling: the polish must reach I(W;X) = t
        K, w_size = DMCKernel.erasure(alpha, size), 5 - size
        for t in (0.2, 0.5):
            bf = fi_bruteforce_dmc(K, t, w_size=w_size, resolution=30)
            assert abs(bf - fi_erasure(t, alpha, size)) <= 1e-12
            assert bf >= self._stair(K, t, w_size, 30)

    # fi_bruteforce_dmc at resolution 30 with the SLSQP polish this one replaced,
    # one row per kernel of the panel below, at t = 0.05, 0.3, 0.8
    _SLSQP_PANEL = [
        0.0035349825017217586, 0.019399006405436056, 0.036111385703066774,
        0.014587858003147915, 0.08242762817704696, 0.15994142379995455,
        0.017099779375389, 0.09589401338901267, 0.1827535189471322,
        0.02428479010740448, 0.14148323471710056, 0.28092439449296186,
    ]

    def test_polish_panel_against_slsqp(self):
        # at t = 0.8 the constraint is slack for every |X| = 2 coupling
        rng = np.random.default_rng(23)
        got = []
        for nx, ny in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            K, w_size = DMCKernel(rng.dirichlet(np.ones(ny), size=nx)), 5 - nx
            for t in (0.05, 0.3, 0.8):
                got.append(fi_bruteforce_dmc(K, t, w_size, 30))
                assert got[-1] >= self._stair(K, t, w_size, 30)
        assert np.all(np.array(got) >= np.array(self._SLSQP_PANEL) - 1e-6)

    def test_three_inputs_at_four_w_values(self):
        # 13.0 M compositions, 582,846 W-orbits: a walk over the compositions
        # ran for minutes, the one over the orbits for a fraction of a second
        K = DMCKernel(np.random.default_rng(31).dirichlet(np.ones(3), size=3))
        for t in (0.05, 0.3, 0.8):
            val = fi_bruteforce_dmc(K, t, w_size=4, resolution=16)
            assert self._stair(K, t, 4, 16) <= val <= min(t, math.log(3))

    def test_envelope_cache_is_bounded(self, enumerations):
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

    @pytest.mark.parametrize("n", [100000.5, 1e5, "100000"])
    def test_non_integral_samples_rejected(self, n):
        # numpy used to raise its own TypeError on a float count
        with pytest.raises(DomainError):
            mc_mutual_info(rademacher(), NoiseModel.gaussian(), 1.0, n)

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
        dict(n_couplings=-1), dict(n_couplings=2.5), dict(n_couplings=5.0),
        dict(n_couplings=math.nan),
    ])
    def test_bad_arguments_rejected(self, kw):
        # a nan gamma used to give nan I(W;Y) and a sweep with no violations
        args = dict(gamma=1.0, p=2.0, n_couplings=5, diag_bound=lambda t: 0.0) | kw
        with pytest.raises(DomainError):
            sdpi_pair_sampler(NoiseModel.gaussian(), **args)

    @pytest.mark.parametrize("family", [NoiseModel.gaussian, NoiseModel.laplace])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_scale_invariant(self, family, p):
        # Y = X + Z with E|X|^p = gamma: scaling Z by 1/2 and the budget by 1/2^p
        # scales Y by 1/2, which changes neither I(W;X) nor I(W;Y)
        a = sdpi_pair_sampler(family(0.5), 2.0, p, n_couplings=20, seed=7)
        b = sdpi_pair_sampler(family(1.0), 2.0 / 0.5 ** p, p, n_couplings=20, seed=7)
        np.testing.assert_allclose(a.samples, b.samples, rtol=0.0, atol=1e-12)

    def test_reproducible(self):
        kw = dict(gamma=1.0, p=2.0, n_couplings=50, seed=123)
        a = sdpi_pair_sampler(NoiseModel.gaussian(), **kw)
        b = sdpi_pair_sampler(NoiseModel.gaussian(), **kw)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("noise", [NoiseModel.laplace(1.0), GRID_NOISE])
    def test_quadrature_noise_obeys_data_processing(self, noise):
        # families without a closed-form mixture entropy run the same sweep
        res = sdpi_pair_sampler(noise, gamma=1.0, p=2.0, n_couplings=10, seed=0)
        i_wx, i_wy = res.samples[:, 0], res.samples[:, 1]
        assert np.all(i_wy <= i_wx + 1e-6)

    @pytest.mark.parametrize("noise, gamma, p, n, seed", [
        (NoiseModel.gaussian(), 1.0, 2.0, 300, 0),
        (NoiseModel.gaussian(), 0.5, 2.0, 300, 1),
        (NoiseModel.gaussian(), 4.0, 2.0, 40, 2024),
        (NoiseModel.laplace(1.0), 1.0, 1.0, 40, 3),
        (NoiseModel.uniform(0.0, 1.0), 1.0, 2.0, 40, 4),
        (GRID_NOISE, 2.0, 3.0, 40, 5),
        (GRID_NOISE, 1.0, 2.0, 50, 0),
        (NoiseModel.uniform(0.0, 1.0), 1.0, 2.0, 50, 0),
        (NoiseModel.laplace(1.0), 1.0, 2.0, 50, 0),
    ])
    def test_matches_per_coupling_loop(self, noise, gamma, p, n, seed):
        # the windows evaluated at once give the bits of one coupling at a time:
        # the same rng calls in the same order, the joint zero-padded to 4 x 6 for
        # I(W;X), and the rows zero-padded to 4 values of W for I(W;Y); 300
        # couplings span three windows
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(n):
            nw = int(rng.integers(2, 5))
            k = int(rng.integers(2, 7))
            atoms = np.sort(rng.standard_normal(k))
            while np.any(np.diff(atoms) < 1e-6):
                atoms = np.sort(rng.standard_normal(k))
            pw, rows = np.zeros(4), np.zeros((4, k))
            pw[:nw] = rng.dirichlet(np.ones(nw))
            rows[:nw] = rng.dirichlet(np.ones(k), size=nw)
            joint = np.zeros((4, 6))
            joint[:, :k] = pw[:, None] * rows
            px = joint.sum(axis=0)
            moment = float((px * np.abs(np.pad(atoms, (0, 6 - k))) ** p).sum())
            mu = atoms * (gamma / moment) ** (1.0 / p)
            e = noise.excess_entropy(mu, np.vstack([px[:k], rows]))
            want.append((mi_joint(joint), max(e[0] - (pw * e[1:]).sum(), 0.0)))
        got = sdpi_pair_sampler(noise, gamma, p, n_couplings=n, seed=seed).samples
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def dirichlet_draw(rng, n):
        """`_draw` as numpy's Dirichlet sampler gives it: the reference for the
        exponential fill."""
        ks = np.empty(n, dtype=int)
        atoms, pw, rows = np.zeros((n, 6)), np.zeros((n, 4)), np.zeros((n, 4, 6))
        for i in range(n):
            nw = int(rng.integers(2, 5))
            k = int(rng.integers(2, 7))
            a = np.sort(rng.standard_normal(k))
            while np.any(np.diff(a) < 1e-6):
                a = np.sort(rng.standard_normal(k))
            ks[i], atoms[i, :k] = k, a
            pw[i, :nw] = rng.dirichlet(np.ones(nw))
            rows[i, :nw, :k] = rng.dirichlet(np.ones(k), size=nw)
        return ks, atoms, pw, rows

    @staticmethod
    def assert_same_draws(got, want):
        for g, w in zip(got, want, strict=True):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())

    @pytest.mark.parametrize("seed", range(32))
    def test_draw_matches_dirichlet(self, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        self.assert_same_draws(oracle._draw(got_rng, oracle._WINDOW),
                               self.dirichlet_draw(want_rng, oracle._WINDOW))
        # the same variates spent: the next window starts at the same state
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        self.assert_same_draws(oracle._draw(got_rng, 7), self.dirichlet_draw(want_rng, 7))

    def test_draw_redraws_close_atoms(self):
        class CloseFirstAtoms:
            """A Generator whose first standard_normal(k) has two atoms 5e-7 apart."""

            def __init__(self, seed):
                self.rng, self.normals = np.random.default_rng(seed), 0

            def standard_normal(self, k):
                z = self.rng.standard_normal(k)
                if not self.normals:
                    z[1] = z[0] + 5e-7
                self.normals += 1
                return z

            def __getattr__(self, name):
                return getattr(self.rng, name)

        got_rng, want_rng = CloseFirstAtoms(3), CloseFirstAtoms(3)
        got = oracle._draw(got_rng, 20)
        self.assert_same_draws(got, self.dirichlet_draw(want_rng, 20))
        # the first coupling's atoms were drawn twice, every other coupling's once
        assert got_rng.normals == want_rng.normals == 21
        assert np.diff(got[1][0, :got[0][0]]).min() >= 1e-6

    def test_memory_does_not_grow_with_the_sweep(self, monkeypatch):
        # aim 3: beyond the samples, 16 bytes a coupling, the peak stays the same.
        # A window's peak depends on how many of its couplings share an atom count,
        # so both sweeps replay one drawn window (the last, partial one is a prefix)
        window = oracle._draw(np.random.default_rng(8), oracle._WINDOW)
        monkeypatch.setattr(oracle, "_draw", lambda rng, n: tuple(a[:n] for a in window))

        def peak(n):
            tracemalloc.start()
            try:
                sdpi_pair_sampler(NoiseModel.gaussian(), 1.0, 2.0, n, seed=0,
                                  diag_bound=lambda t: 0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2_000)  # a first sweep fills the caches it reads
        small, large = peak(2_000), peak(20_000)
        # slack: the interpreter's own small allocations, measured at about 10 kB
        assert large - small <= 16 * 18_000 + 64 * 1024

    def test_counts_the_checks_that_ran(self):
        kw = dict(gamma=1.0, p=2.0, n_couplings=200, seed=6)
        res = sdpi_pair_sampler(NoiseModel.gaussian(), diag_bound=lambda t: 0.0, **kw)
        assert (res.diag_checks, res.horiz_checks) == (200, 0)
        # a capacity just above the largest I(W;Y) brings couplings within _EPS_MAX
        # of it; a check runs where the horizontal bound is a number, not nan or None
        cap = float(res.samples[:, 1].max()) + 0.5 * oracle._EPS_MAX
        near = int(np.sum(cap - res.samples[:, 1] <= oracle._EPS_MAX))
        for bound, checks in ((lambda e: 0.0, near), (lambda e: math.nan, 0), (lambda e: None, 0)):
            res = sdpi_pair_sampler(NoiseModel.gaussian(), horiz_bound=bound, capacity=cap, **kw)
            assert (res.diag_checks, res.horiz_checks, res.violation_count) == (0, checks, 0)
        assert near >= 1
