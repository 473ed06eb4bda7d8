import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdpi import core_prob
from sdpi.channels import DMCKernel, NoiseModel
from sdpi.core_prob import (
    LOG2, DiscretePMF, GridDensity, binary_entropy, binary_entropy_inv, bisect,
    char_fn, convolve, csv_rows, csv_text, gauss_hermite,
    ks_distance, levy_concentration, mi_joint, q_function, simplex_lattice,
    tv_after_noise, tv_distance, uniform_mixture_entropy, v_window,
    xlogx, zoom_max,
)
from sdpi.errors import DomainError, ShapeError


def std_normal_grid(lo=-8.0, hi=8.0, step=0.01):
    return GridDensity.from_function(lambda x: np.exp(-0.5 * x * x), lo, hi, step)


GOLDEN_Q = GridDensity.from_csv((Path(__file__).parent / "golden" / "Q.csv").read_text())


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(LOG2, abs=1e-15)

    def test_quarter(self):
        # -0.25 log 0.25 - 0.75 log 0.75
        assert binary_entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)

    @given(st.floats(0.0, LOG2))
    def test_inverse_roundtrip(self, h):
        p = binary_entropy_inv(h)
        assert 0.0 <= p <= 0.5
        assert binary_entropy(p) == pytest.approx(h, abs=1e-10)

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            binary_entropy_inv(LOG2 + 1e-6)
        with pytest.raises(DomainError):
            binary_entropy_inv(-1e-9)


class TestQFunction:
    def test_values(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
        # Q(1) = 0.158655...
        assert q_function(1.0) == pytest.approx(0.15865525393145707, abs=1e-14)
        assert q_function(-1.0) == pytest.approx(1.0 - 0.15865525393145707, abs=1e-14)

    def test_tail(self):
        # deep tail stays positive (no premature underflow)
        assert 0.0 < q_function(30.0) < 1e-190


class TestDiscretePMF:
    def test_unsorted_atoms_rejected(self):
        with pytest.raises(DomainError):
            DiscretePMF(np.array([1.0, -1.0]), np.array([0.25, 0.75]))

    def test_bad_weights(self):
        with pytest.raises(DomainError):
            DiscretePMF(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_duplicate_atoms(self):
        with pytest.raises(DomainError):
            DiscretePMF(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("atoms, weights", [
        ([0.0, math.nan], [0.5, 0.5]),
        ([math.nan], [1.0]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, 0.5]),
        ([0.0, 1.0], [math.nan, math.nan]),
    ])
    def test_nan_and_inf_rejected(self, atoms, weights):
        with pytest.raises(DomainError):
            DiscretePMF(np.array(atoms), np.array(weights))

    def test_moments(self):
        P = DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert P.mean() == pytest.approx(0.0, abs=1e-15)
        assert P.var() == pytest.approx(1.0, abs=1e-15)
        assert P.abs_moment(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_csv_roundtrip(self):
        P = DiscretePMF(np.array([-0.5, 0.25, 2.0]), np.array([0.2, 0.3, 0.5]))
        text = P.to_csv()
        assert text.splitlines()[0] == "atom,weight"
        Q = DiscretePMF.from_csv(text)
        assert np.array_equal(P.atoms, Q.atoms)
        assert np.array_equal(P.weights, Q.weights)

    def test_point_mass(self):
        P = DiscretePMF.point_mass(0.3)
        assert P.var() == 0.0
        assert P.cdf(0.3) == 1.0
        assert P.cdf(0.29) == 0.0


class TestGridDensity:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            GridDensity(0.0, 1.0, 0.5, np.array([5.0, 5.0, 5.0]))

    def test_from_function_normalizes(self):
        g = std_normal_grid()
        assert np.trapezoid(g.values, dx=g.step) == pytest.approx(1.0, abs=1e-10)

    def test_max_density(self):
        g = std_normal_grid()
        assert g.max_density() == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-4)

    def test_moments(self):
        g = std_normal_grid()
        assert g.mean() == pytest.approx(0.0, abs=1e-10)
        assert g.var() == pytest.approx(1.0, abs=1e-5)

    def test_csv_roundtrip(self):
        g = std_normal_grid(-2, 2, 0.1)
        h = GridDensity.from_csv(g.to_csv())
        assert np.allclose(g.values, h.values)
        assert h.step == pytest.approx(g.step)

    @pytest.mark.parametrize("nodes", [2, 3, 4, 41, 42, 1000, 1001])
    def test_csv_step_is_numpy_median(self, nodes):
        # jittered nodes, so the steps differ and the middle ones decide the median
        rng = np.random.default_rng(nodes)
        x = -1.0 + 0.05 * np.arange(nodes) + rng.uniform(-1e-12, 1e-12, nodes)
        h = GridDensity.from_csv(csv_text("x,value", x, np.full(nodes, 1.0 / (x[-1] - x[0]))))
        assert h.step == float(np.median(np.diff(x)))

    def test_csv_nan_node_rejected(self):
        # the median step of these nodes is finite; the nan steps must still fail
        x = [0.0, 0.5, 1.0, math.nan, 2.0, 2.5, 3.0]
        with pytest.raises(ShapeError):
            GridDensity.from_csv(csv_text("x,value", x, np.full(7, 1.0 / 3.0)))

    @pytest.mark.parametrize("name", ["noise.csv", "Q.csv"])
    def test_golden_csv_step_is_numpy_median(self, name):
        text = (Path(__file__).parent / "golden" / name).read_text()
        x = csv_rows(text, "x,value", 2)[:, 0]
        assert GridDensity.from_csv(text).step == float(np.median(np.diff(x)))

    def test_csv_plain_floats(self):
        g = std_normal_grid(-1, 1, 0.5)
        for line in g.to_csv().splitlines()[1:]:
            for cell in line.split(","):
                float(cell)
                assert "(" not in cell


class TestWindowFunction:
    def test_at_zero(self):
        assert v_window(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_taylor_seam(self):
        # value and the series agree across the small-argument switch
        for x in (9.9e-3, 1.01e-2):
            direct = (math.sin(x / 2.0) / (x / 2.0)) ** 2
            assert v_window(x) == pytest.approx(direct, rel=1e-12)

    def test_rejects_non_finite(self):
        for x in (math.inf, -math.inf, math.nan, np.array([0.5, math.inf])):
            with pytest.raises(DomainError):
                v_window(x)

    @given(st.floats(-50.0, 50.0))
    def test_range(self, x):
        v = float(v_window(x))
        assert 0.0 <= v <= 1.0 + 1e-15

    def test_plancherel_identity(self):
        # E_P[v(T X)] equals the triangular-window CF integral within 1e-4
        P = DiscretePMF(np.array([-0.7, 0.3, 1.1]), np.array([0.2, 0.5, 0.3]))
        T = 2.3
        lhs = float(np.sum(P.weights * v_window(T * P.atoms)))
        om = np.linspace(-T, T, 20001)
        phi = np.array([char_fn(P, w) for w in om])
        rhs = float(np.real(np.trapezoid(phi * (1.0 - np.abs(om) / T), om)) / T)
        assert lhs == pytest.approx(rhs, abs=1e-4)


class TestDistances:
    def test_tv_atoms(self):
        P = DiscretePMF(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        Q = DiscretePMF(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
        assert tv_distance(P, Q) == pytest.approx(0.25, abs=1e-12)

    def test_tv_disjoint(self):
        P = DiscretePMF.point_mass(0.0)
        Q = DiscretePMF.point_mass(1.0)
        assert tv_distance(P, Q) == 1.0

    def test_ks_vs_tv(self):
        P = DiscretePMF(np.array([-1.0, 0.0, 2.0]), np.array([0.3, 0.3, 0.4]))
        Q = DiscretePMF(np.array([-1.0, 0.5, 2.0]), np.array([0.1, 0.6, 0.3]))
        assert ks_distance(P, Q) <= tv_distance(P, Q) + 1e-12

    def test_ks_mixed_kinds(self):
        P = DiscretePMF.point_mass(0.0)
        Q = std_normal_grid()
        # sup_x |1{x >= 0} - Phi(x)| = 1/2 at x = 0
        assert ks_distance(P, Q) == pytest.approx(0.5, abs=1e-3)

class TestLevyConcentration:
    def test_at_zero_equals_max_atom(self):
        P = DiscretePMF(np.array([-0.7, 0.3, 1.1]), np.array([0.2, 0.5, 0.3]))
        assert levy_concentration(P, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_full_width(self):
        P = DiscretePMF(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert levy_concentration(P, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_grid(self):
        g = std_normal_grid()
        # P[|Z| <= 0.5] = 2 Phi(0.5) - 1
        expected = 1.0 - 2.0 * q_function(0.5)
        assert levy_concentration(g, 0.5) == pytest.approx(expected, abs=1e-3)
        assert levy_concentration(g, math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_grid_sup_between_nodes(self):
        # the best window has an edge at a node and its centre off the nodes
        g = GridDensity(0.0, 2.0, 1.0, np.array([0.1, 0.1, 1.7]))
        assert levy_concentration(g, 0.25) == pytest.approx(0.45, abs=1e-15)

    def test_grid_against_dense_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = GridDensity.from_function(lambda x: rng.uniform(0.0, 1.0, len(x)),
                                          0.0, 0.1 * (n - 1), 0.1)
            delta = float(rng.uniform(0.0, 0.5))
            h = 1e-5
            x = np.arange(g.x_min - delta, g.x_max + delta + h, h)
            dense = float(np.max(g.cdf(x + delta) - g.cdf(x - delta)))
            got = levy_concentration(g, delta)
            # a window mass with slope at most 2 max f is within h max f of its sup
            assert dense <= got + 1e-12
            assert got <= dense + h * g.max_density() + 1e-12

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_monotone_in_radius(self, r1, r2):
        P = DiscretePMF(np.array([-1.0, 0.5, 2.0]), np.array([0.25, 0.5, 0.25]))
        lo, hi = sorted((r1, r2))
        assert levy_concentration(P, lo) <= levy_concentration(P, hi) + 1e-12


class TestCharFn:
    def test_at_zero(self):
        P = DiscretePMF(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
        assert char_fn(P, 0.0) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(-20.0, 20.0))
    def test_modulus(self, w):
        P = DiscretePMF(np.array([-1.0, 0.3, 2.0]), np.array([0.2, 0.5, 0.3]))
        assert abs(char_fn(P, w)) <= 1.0 + 1e-12

    def test_symmetric_real(self):
        P = DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert abs(char_fn(P, 1.7).imag) < 1e-14
        assert char_fn(P, 1.7).real == pytest.approx(math.cos(1.7), abs=1e-14)

    def test_gaussian_grid_cf(self):
        g = std_normal_grid()
        for w in (0.5, 1.0, 2.0):
            assert abs(char_fn(g, w)) == pytest.approx(math.exp(-0.5 * w * w), abs=1e-4)

    @pytest.mark.parametrize("P", [
        DiscretePMF(np.array([-1.0, 0.3, 2.0]), np.array([0.2, 0.5, 0.3])),
        std_normal_grid(step=0.05),
    ])
    def test_many_frequencies_match_one_at_a_time(self, P):
        # more than one 512-frequency block, with a partial last block; the
        # frequencies are no progression, so a grid P takes the direct sum too
        omegas = np.sort(np.random.default_rng(3).uniform(-20.0, 20.0, 1300)).reshape(2, 650)
        together = char_fn(P, omegas)
        assert together.shape == omegas.shape
        one_by_one = np.array([char_fn(P, float(w)) for w in omegas.ravel()])
        np.testing.assert_allclose(together.ravel(), one_by_one, rtol=0, atol=1e-15)


def direct_cf(P, omega):
    """Reference: sum_j m_j exp(i w x_j) over P's atoms or trapezoid node masses."""
    x, m = P.masses()
    w = np.asarray(omega, dtype=float)
    rows = [(m * np.exp(1j * b[:, None] * x)).sum(axis=1) for b in np.array_split(w.ravel(), 64)]
    return np.concatenate(rows).reshape(w.shape)


def triangle_grid():
    """The 601-node triangular density on [-3, 3] at step 0.01."""
    return GridDensity.from_function(lambda x: np.maximum(1.0 - np.abs(x) / 3.0, 0.0),
                                     -3.0, 3.0, 0.01)


def gaussian_grid(sig):
    """Criterion 8's Q: a Gaussian of scale sig on [-8 sig, 8 sig] at step 0.01."""
    return GridDensity.from_function(lambda x: np.exp(-0.5 * (x / sig) ** 2),
                                     -8 * sig, 8 * sig, 0.01)


class TestCharFnChirpZ:
    """A grid density on a frequency progression takes the chirp-z path,
    which must match the direct sum within 1e-12."""

    @pytest.fixture
    def chirp_calls(self, monkeypatch):
        calls = []
        chirp_z = core_prob._chirp_z

        def counted(*args):
            calls.append(args)
            return chirp_z(*args)

        monkeypatch.setattr(core_prob, "_chirp_z", counted)
        return calls

    @pytest.mark.parametrize("P, omegas", [
        # esseen_bound's frequencies: linspace(0, T, n + 1)[1:]
        (GOLDEN_Q, np.linspace(0.0, 1.77, 4097)[1:]),
        (gaussian_grid(0.7), np.linspace(0.0, 1.0, 4097)[1:]),
        (gaussian_grid(1.3), np.linspace(0.0, 1.0, 4097)[1:]),
        (gaussian_grid(1.3), np.linspace(0.0, 4.0, 4097)[1:]),
        # deconv_root_residual's scan blocks on a 601-node grid noise
        (triangle_grid(), 5e-5 * np.arange(0, 8192)),
        (triangle_grid(), 5e-5 * np.arange(409_600, 409_600 + 8192)),
        (triangle_grid(), 5e-5 * np.arange(41_000_000, 41_000_000 + 8192)),
        # GridNoise.cf_decay's frequencies
        (triangle_grid(), np.arange(0.0, 128.0 + 0.01, 0.01)),
        # negative frequencies, a descending progression, a 2-d omega
        (GOLDEN_Q, np.linspace(-30.0, 10.0, 3001)),
        (GOLDEN_Q, np.linspace(12.0, -3.0, 1001)),
        (GOLDEN_Q, np.linspace(-5.0, 5.0, 1200).reshape(3, 400)),
    ])
    def test_matches_direct_sum(self, P, omegas, chirp_calls):
        got = char_fn(P, omegas)
        assert len(chirp_calls) == 1
        assert got.shape == omegas.shape
        np.testing.assert_allclose(got, direct_cf(P, omegas), rtol=0, atol=1e-12)

    def test_range_split_by_phase_cap(self, chirp_calls):
        # T = 20 at n = 20,000: alpha n^2 / 2 = 2,000 radians, many tiles
        omegas = np.linspace(0.0, 20.0, 20001)[1:]
        alpha = (omegas[1] - omegas[0]) * GOLDEN_Q.step
        assert alpha * len(omegas) ** 2 / 2.0 > 10.0 * core_prob._CZ_PHASE
        got = char_fn(GOLDEN_Q, omegas)
        assert len(chirp_calls) == 1
        np.testing.assert_allclose(got, direct_cf(GOLDEN_Q, omegas), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("P, omegas", [
        # not a progression: a jittered lattice, a nan, an inf
        (GOLDEN_Q, np.linspace(0.0, 2.0, 500) + 1e-9 * (np.arange(500) % 2)),
        (GOLDEN_Q, np.array([0.0, 1.0, math.nan])),
        (GOLDEN_Q, np.array([0.0, 1.0, math.inf])),
        # a single frequency has no spacing
        (GOLDEN_Q, np.array([0.7])),
        (GOLDEN_Q, 0.7),
        # atoms always take the direct sum
        (DiscretePMF(np.array([-1.0, 0.3, 2.0]), np.array([0.2, 0.5, 0.3])),
         np.linspace(0.0, 20.0, 2001)),
    ])
    def test_direct_sum_elsewhere(self, P, omegas, chirp_calls):
        with np.errstate(invalid="ignore"):  # exp(i inf x) is nan
            got, want = char_fn(P, omegas), direct_cf(P, omegas)
        assert chirp_calls == []
        np.testing.assert_array_equal(got, want)


def zoom_linspace(f, lo, hi, n, tol):
    """`zoom_max` from f on np.linspace(lo, hi, n), as `GridNoise.eta_tv` calls it."""
    xs = np.linspace(lo, hi, n)
    return zoom_max(f, xs, f(xs), tol)


class TestSearches:
    @staticmethod
    def counted(f, calls, limit=100):
        def g(x):
            calls.append(np.array(x))
            assert len(calls) <= limit, "zoom_max did not stop"
            return f(x)
        return g

    def test_zoom_max_within_tol(self):
        calls = []
        tol = 1e-9
        best = zoom_linspace(self.counted(lambda x: -(x - 0.3137) ** 2, calls),
                             0.0, 1.0, 101, tol)
        xs = np.concatenate(calls)
        x = xs[np.argmax(-(xs - 0.3137) ** 2)]
        assert abs(x - 0.3137) <= tol
        assert best == -(x - 0.3137) ** 2
        # the scan, then one 17-point call per 8x narrowing of a two-cell bracket
        rounds = math.ceil(math.log(2 * 0.01 / tol, 8))
        assert len(calls) <= 1 + rounds
        assert all(len(c) == 17 for c in calls[1:])

    def test_zoom_max_at_bracket_edge(self):
        calls = []
        assert zoom_linspace(self.counted(lambda x: x, calls), 2.0, 3.0, 11, 1e-8) == 3.0

    def test_zoom_max_zero_tol_returns(self):
        # the bracket stops shrinking at adjacent floats
        calls = []
        best = zoom_linspace(self.counted(lambda x: np.cos(x - 0.3), calls), 0.0, 1.0, 11, 0.0)
        assert best == pytest.approx(1.0, abs=1e-15)
        assert len(calls) < 30

    def test_bisect_smallest_true(self):
        x, it, (lo, hi) = bisect(lambda v: v >= 0.3, 0.0, 1.0, 1e-12)
        assert x == hi and lo < 0.3 <= hi
        assert hi - lo <= 1e-12
        assert it > 0

    def test_bisect_to_adjacent_floats(self):
        # tol 0: stops once the midpoint no longer splits the bracket
        x, _, (lo, hi) = bisect(lambda v: v >= 0.3, 0.0, 1.0)
        assert x == 0.3
        assert lo == np.nextafter(0.3, 0.0)

    def test_bisect_threshold_of_decreasing_function(self):
        x, _, _ = bisect(lambda v: math.exp(-v) <= 0.25, 0.0, 10.0, 1e-12)
        assert x == pytest.approx(math.log(4.0), abs=1e-12)


class TestSimplexLattice:
    @pytest.mark.parametrize("parts", range(1, 8))
    def test_matches_product_reference(self, parts):
        # itertools.product is lexicographic, so the filtered product is the reference order
        for n in range(9):
            got = np.vstack(list(simplex_lattice(n, parts))).tolist()
            ref = [list(c) for c in itertools.product(range(n + 1), repeat=parts)
                   if sum(c) == n]
            assert got == ref

    @pytest.mark.parametrize("n, parts", [(0, 5), (3, 1), (8, 4), (7, 5), (6, 7), (5, 9), (40, 6)])
    def test_one_bounded_int32_batch_per_head(self, n, parts):
        batches, k = list(simplex_lattice(n, parts)), max(parts - 4, 0)
        assert all(b.dtype == np.int32 for b in batches)
        assert max(len(b) for b in batches) <= math.comb(n + 3, 3)
        # the heads (the first k parts) are constant in a batch and distinct across batches
        heads = [tuple(b[0, :k]) for b in batches]
        assert all((b[:, :k] == h).all() for b, h in zip(batches, heads))
        assert len(set(heads)) == len(batches) == math.comb(n + k, k)


class TestMutualInformation:
    def test_xlogx(self):
        v = np.array([0.0, 0.5, 1.0, 2.0])
        np.testing.assert_array_equal(xlogx(v), [0.0, 0.5 * math.log(0.5), 0.0, 2.0 * math.log(2.0)])

    def test_mi_joint_matches_entropy_form(self):
        rng = np.random.default_rng(5)
        for shape in ((2, 2), (3, 4), (4, 6)):
            q = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
            q[0, 0] = 0.0  # exercise the 0 log 0 convention
            q /= q.sum()
            entropy_form = (xlogx(q).sum() - xlogx(q.sum(axis=1)).sum()
                            - xlogx(q.sum(axis=0)).sum())
            assert mi_joint(q) == pytest.approx(entropy_form, abs=1e-12)

    def test_mi_joint_matches_mi_dmc_and_bsc_closed_form(self):
        delta, p = 0.1, 0.3
        K = DMCKernel.bsc(delta)
        w = np.array([p, 1.0 - p])
        closed = binary_entropy(p * (1 - delta) + (1 - p) * delta) - binary_entropy(delta)
        assert mi_joint(w[:, None] * K.matrix) == pytest.approx(closed, abs=1e-14)

    def test_mi_joint_subnormal_row_weights(self):
        # the outer product of the marginals underflows to 0 in the first row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = mi_joint(np.array([[5e-324, 5e-324], [0.25, 0.75]]))
        assert 0.0 <= val < 1e-300

    def test_independent_joint_is_zero(self):
        assert mi_joint(np.outer([0.2, 0.8], [0.5, 0.25, 0.25])) == 0.0

    def test_uniform_mixture_entropy(self):
        # one component: log(b - a); two disjoint halves: log 2 + log(b - a)
        assert uniform_mixture_entropy(np.array([0.0]), np.array([1.0]), 0.0, 3.0) \
            == pytest.approx(math.log(3.0), abs=1e-15)
        h = uniform_mixture_entropy(np.array([0.0, 5.0]), np.array([0.5, 0.5]), 0.0, 1.0)
        assert h == pytest.approx(LOG2, abs=1e-15)

    def test_uniform_mixture_entropy_rows(self):
        mu = np.array([0.0, 0.4, 3.0])
        v = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        np.testing.assert_array_equal(uniform_mixture_entropy(mu, v, -0.5, 1.0),
                                      [uniform_mixture_entropy(mu, r, -0.5, 1.0) for r in v])


H_GAUSS = 0.5 * math.log(2.0 * math.pi * math.e)


def mixture_entropy(mu, v):
    """h(sum_k v_k N(mu_k, 1)) from the Gaussian noise's excess entropy."""
    return NoiseModel.gaussian().excess_entropy(mu, v) + H_GAUSS


class TestGaussianMixtureEntropy:
    @staticmethod
    def quad_entropy(mu, v):
        """-int p log p by adaptive quadrature, independent of the trapezoid rule."""
        from scipy.integrate import quad

        def integrand(y):
            p = float(np.sum(v * np.exp(-0.5 * (y - mu) ** 2))) / math.sqrt(2.0 * math.pi)
            return -p * math.log(p) if p > 0 else 0.0

        cuts = np.sort(mu)
        pieces = np.concatenate([[cuts[0] - 12.0], cuts, [cuts[-1] + 12.0]])
        return sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(pieces[:-1], pieces[1:]))

    @pytest.mark.parametrize("mu, v", [
        ([-1.0, 1.0], [0.5, 0.5]),
        ([-2.0, 0.3, 0.5, 2.5], [0.1, 0.4, 0.2, 0.3]),
        ([0.0, 1.5, 3.0], [0.7, 0.05, 0.25]),
    ])
    def test_matches_quadrature(self, mu, v):
        mu, v = np.array(mu), np.array(v)
        assert mixture_entropy(mu, v) == pytest.approx(
            self.quad_entropy(mu, v), rel=1e-10)

    def test_separated_atoms_known_error(self):
        # atoms 4-10 noise deviations apart, where log p turned over between
        # the nodes of a 127-node Gauss-Hermite rule (off by ~1e-8 relative)
        mu, v = np.array([0.0, 6.0, 7.5]), np.array([0.7, 0.05, 0.25])
        assert mixture_entropy(mu, v) == pytest.approx(
            self.quad_entropy(mu, v), rel=1e-12)

    def test_single_component(self):
        assert mixture_entropy(np.array([2.5]), np.array([1.0])) \
            == pytest.approx(H_GAUSS, rel=1e-14)

    def test_zero_weight_far_atom_finite(self):
        # a zero or tiny weight 60 deviations off: no nan, no warning
        for tiny in (0.0, 1e-300, 1e-320):
            with warnings.catch_warnings(), np.errstate(invalid="raise", over="raise"):
                warnings.simplefilter("error")
                h = mixture_entropy(np.array([0.0, 60.0]), np.array([1.0, tiny]))
            assert math.isfinite(h)
            assert h == pytest.approx(H_GAUSS, rel=1e-14)

    def test_rows_match_single_calls(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(0.0, 2.0, 5)
        v = rng.dirichlet(np.ones(5), size=4)
        v[1, 2] = 0.0
        v[1] /= v[1].sum()
        np.testing.assert_allclose(mixture_entropy(mu, v),
                                   [mixture_entropy(mu, r) for r in v],
                                   rtol=1e-15, atol=0.0)


class TestGaussHermite:
    def test_standard_normal_moments(self):
        nodes, weights = gauss_hermite(127)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert weights @ nodes ** 2 == pytest.approx(1.0, abs=1e-13)
        assert weights @ nodes ** 4 == pytest.approx(3.0, abs=1e-12)

    def test_cached_and_read_only(self):
        nodes, weights = gauss_hermite(5)
        assert gauss_hermite(5)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable


class TestTvAfterNoise:
    Z = NoiseModel.gaussian().to_grid(0.01)

    def test_same_input_is_zero(self):
        P = DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert tv_after_noise(P, P, self.Z) == pytest.approx(0.0, abs=1e-12)

    def test_far_apart_inputs_near_one(self):
        P, Q = DiscretePMF.point_mass(-10.0), DiscretePMF.point_mass(10.0)
        assert tv_after_noise(P, Q, self.Z) == pytest.approx(1.0, abs=1e-9)

    def test_contracts_tv(self):
        P = DiscretePMF(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        Q = DiscretePMF(np.array([0.0, 1.0]), np.array([0.2, 0.8]))
        d = tv_after_noise(P, Q, self.Z)
        assert 0.0 < d < tv_distance(P, Q)


class TestConvolve:
    def test_atomic_grid_is_mixture(self):
        P = DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        g = std_normal_grid()
        R = convolve(P, g)
        mid = np.interp(0.0, R.grid, R.values)
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert mid == pytest.approx(expected, rel=1e-3)

    def test_atomic_grid_mass(self):
        P = DiscretePMF(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        g = std_normal_grid()
        R = convolve(P, g)
        assert np.trapezoid(R.values, dx=R.step) == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_sum_variance(self):
        g = std_normal_grid()
        R = convolve(g, g)
        assert R.var() == pytest.approx(2.0, rel=1e-3)

    def test_mean_additivity(self):
        P = DiscretePMF(np.array([0.25, 1.0]), np.array([0.4, 0.6]))
        g = std_normal_grid()
        R = convolve(P, g)
        assert R.mean() == pytest.approx(P.mean(), abs=1e-6)


class TestGaussianGrid:
    def test_default(self):
        g = NoiseModel.gaussian().to_grid(0.01)
        assert g.step == pytest.approx(0.01)
        assert g.max_density() == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-4)


class TestZoomStencil:
    """zoom_max's 17-point rounds are np.linspace over the best point's neighbours."""

    @staticmethod
    def assert_linspace_rounds(f, lo, hi, n, tol):
        calls = []
        zoom_linspace(lambda x: calls.append(np.array(x)) or f(x), lo, hi, n, tol)
        assert calls[0].tobytes() == np.linspace(lo, hi, n).tobytes()
        for prev, xs in zip(calls, calls[1:]):
            i = int(np.argmax(f(prev)))
            a, b = prev[max(i - 1, 0)], prev[min(i + 1, len(prev) - 1)]
            assert xs.tobytes() == np.linspace(a, b, 17).tobytes(), (a, b)
        return calls

    def test_random_brackets(self):
        # tol = 0 runs the zoom down to brackets a few ulps wide
        rng = np.random.default_rng(11)
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(-1e3, 1e3, 2) * 10.0 ** rng.integers(-6, 4))
            peak = rng.uniform(lo, hi)
            calls = self.assert_linspace_rounds(lambda x: -np.abs(x - peak), lo, hi,
                                                int(rng.integers(3, 50)), 0.0)
            assert len(calls) > 2

    def test_bracket_at_zero(self):
        # a = 0 every round, down to subnormal widths where (b - a) / 16 is 0
        calls = self.assert_linspace_rounds(lambda x: -x, 0.0, 0.5, 2001, 0.0)
        assert calls[-1][-1] < 32 * 5e-324
