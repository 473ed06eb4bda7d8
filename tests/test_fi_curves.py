import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdpi.channels import DMCKernel
from sdpi.contraction import eta_kl_dmc
from sdpi.core_prob import LOG2, ThresholdReport, binary_entropy, mi_joint, xlogx
from sdpi import fi_curves
from sdpi.errors import DomainError
from sdpi.fi_curves import (
    _LATTICE_POINTS, _best_split, _interior_lattice,
    fi_bsc, fi_dmc_envelope, fi_erasure,
    fi_properties_check, mrs_gerber,
)


class TestFiErasure:
    def test_linear_below_cap(self):
        assert fi_erasure(0.4, 0.3, 2) == pytest.approx(0.28, abs=1e-12)

    def test_caps_at_log_alphabet(self):
        assert fi_erasure(5.0, 0.3, 2) == pytest.approx(0.7 * LOG2, abs=1e-12)

    def test_alpha_extremes(self):
        assert fi_erasure(0.5, 1.0, 2) == 0.0
        assert fi_erasure(0.5, 0.0, 2) == pytest.approx(0.5, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            fi_erasure(-0.1, 0.3, 2)
        # t = inf used to give (1 - alpha) log |X|
        with pytest.raises(DomainError, match="t must be finite"):
            fi_erasure(math.inf, 0.3, 2)
        with pytest.raises(DomainError):
            fi_erasure(0.5, 1.3, 2)
        # a size of 2.5 used to give (1 - alpha) min(t, log 2.5)
        for size in (0, 2.5, 3.0, "3"):
            with pytest.raises(DomainError):
                fi_erasure(0.5, 0.3, size)

    def test_one_letter_alphabet_is_zero(self):
        # the kernels' rule: a one-letter alphabet carries no information
        assert fi_erasure(0.5, 0.3, 1) == 0.0


class TestMrsGerber:
    def test_endpoints(self):
        assert mrs_gerber(0.0, 0.1) == pytest.approx(binary_entropy(0.1), abs=1e-12)
        assert mrs_gerber(LOG2, 0.1) == pytest.approx(LOG2, abs=1e-9)

    def test_delta_zero_identity(self):
        for x in (0.1, 0.3, 0.6):
            assert mrs_gerber(x, 0.0) == pytest.approx(x, abs=1e-9)

    def test_delta_half_constant(self):
        for x in (0.0, 0.2, 0.5):
            assert mrs_gerber(x, 0.5) == pytest.approx(LOG2, abs=1e-12)

    @settings(max_examples=60)
    @given(st.floats(0.0, LOG2), st.floats(0.0, LOG2), st.floats(0.01, 0.49))
    def test_convexity(self, x1, x2, delta):
        mid = 0.5 * (x1 + x2)
        lhs = mrs_gerber(mid, delta)
        rhs = 0.5 * (mrs_gerber(x1, delta) + mrs_gerber(x2, delta))
        assert lhs <= rhs + 1e-9

    @given(st.floats(0.0, LOG2 - 1e-6), st.floats(0.01, 0.49))
    def test_nondecreasing(self, x, delta):
        assert mrs_gerber(x, delta) <= mrs_gerber(min(x + 1e-4, LOG2), delta) + 1e-12


class TestFiBsc:
    def test_zero(self):
        assert fi_bsc(0.0, 0.1) == 0.0

    def test_capacity_endpoint(self):
        assert fi_bsc(LOG2, 0.1) == pytest.approx(
            LOG2 - binary_entropy(0.1), abs=1e-12)
        assert fi_bsc(LOG2, 0.1) == pytest.approx(0.3680642071684971, abs=1e-12)

    def test_frozen_points(self):
        # pinned against the exhaustive coupling-lattice oracle
        assert fi_bsc(0.1, 0.1) == pytest.approx(0.0631785480385314, abs=1e-12)
        assert fi_bsc(0.2, 0.1) == pytest.approx(0.1244634225, abs=1e-9)
        assert fi_bsc(0.4, 0.3) == pytest.approx(0.0559005346, abs=1e-9)

    def test_flat_beyond_log2(self):
        assert fi_bsc(2.0, 0.1) == pytest.approx(fi_bsc(LOG2, 0.1), abs=1e-12)

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_rejects_negative_nan_and_infinite_t(self, t):
        # t = inf used to give the flat value beyond log 2, 0.368 at delta = 0.1
        with pytest.raises(DomainError):
            fi_bsc(t, 0.1)

    def test_noisier_channel_smaller(self):
        for t in (0.1, 0.3, 0.6):
            assert fi_bsc(t, 0.3) < fi_bsc(t, 0.1)

    @given(st.floats(0.0, LOG2), st.floats(0.0, 0.5))
    def test_below_diagonal(self, t, delta):
        assert fi_bsc(t, delta) <= t + 1e-12


class TestEnvelope:
    def test_identity_kernel(self):
        ts = np.linspace(0.0, 1.0, 11)
        curve = fi_dmc_envelope(DMCKernel.identity(2), ts,
                                {"n_lambdas": 16})
        for t, v in zip(ts, curve.values):
            assert v == pytest.approx(min(t, LOG2), abs=2e-3)

    def test_erasure_matches_closed_form(self):
        ts = np.linspace(0.0, LOG2, 8)
        curve = fi_dmc_envelope(DMCKernel.erasure(0.3, 2), ts,
                                {"n_lambdas": 16})
        for t, v in zip(ts, curve.values):
            assert v == pytest.approx(fi_erasure(t, 0.3, 2), abs=2e-3)

    def test_bsc_matches_closed_form(self):
        ts = np.linspace(0.0, LOG2, 8)
        curve = fi_dmc_envelope(DMCKernel.bsc(0.1), ts,
                                {"n_lambdas": 32})
        for t, v in zip(ts, curve.values):
            assert fi_bsc(t, 0.1) - v <= 2e-3
            assert v <= fi_bsc(t, 0.1) + 1e-9  # never exceeds the true curve

    def test_meta_fields(self):
        curve = fi_dmc_envelope(DMCKernel.bsc(0.2), np.linspace(0, 0.6, 4),
                                {"n_lambdas": 8})
        assert curve.meta["capacity"] == pytest.approx(LOG2 - binary_entropy(0.2), abs=1e-15)
        assert 0.0 <= curve.meta["capacity_upper"] - curve.meta["capacity"] <= 1e-12
        assert curve.meta["capacity_steps"] == 0  # the uniform input is optimal
        assert curve.meta["lattice_resolution"] == 1000
        assert curve.meta["n_lambdas"] >= 8
        assert curve.meta["no_improve_restarts"] == 0

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            fi_dmc_envelope(DMCKernel.bsc(0.1), np.array([0.2, 0.1]))

    def test_erasure_three_inputs_matches_closed_form(self):
        # log 3 needs the uniform input, which the 43-resolution lattice lacks
        ts = np.append(np.linspace(0.0, 1.0, 11), math.log(3.0))
        for alpha in (0.3, 0.6):
            curve = fi_dmc_envelope(DMCKernel.erasure(alpha, 3), ts)
            closed = np.array([fi_erasure(t, alpha, 3) for t in ts])
            assert np.all(curve.values <= closed + 1e-9)
            assert np.max(np.abs(curve.values - closed)) <= 1e-9

    def test_deterministic(self):
        K = DMCKernel(np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]))
        ts = np.linspace(0.0, 1.0, 21)
        params = {"n_lambdas": 8, "refinements": 4}
        assert fi_dmc_envelope(K, ts, params).points == fi_dmc_envelope(K, ts, params).points

    def test_no_search_from_lambda_one(self, monkeypatch):
        # from lambda = 1 on I(W;Y) <= I(W;X) makes the trivial coupling optimal,
        # and for BSC(delta) already above eta_KL = (1 - 2 delta)^2, the slope of
        # F_I at 0, where phi is convex; recover each searched lambda from
        # phi = H(PK) - lambda H(P)
        points = _interior_lattice(2)[1]
        searched = []

        def spy(pts, f, f_vertices):
            searched.append(float(np.median((h_y - f) / h_x)))
            return _best_split(pts, f, f_vertices)

        monkeypatch.setattr(fi_curves, "_best_split", spy)
        for delta in (0.1, 0.3):
            K = DMCKernel.bsc(delta)
            h_x, h_y = -xlogx(points).sum(axis=1), -xlogx(points @ K.matrix).sum(axis=1)
            for params in ({"n_lambdas": 8, "refinements": 4}, None):
                searched.clear()
                fi_dmc_envelope(K, np.linspace(0.0, LOG2, 5), params)
                assert searched and max(searched) < (1.0 - 2.0 * delta) ** 2

    @pytest.mark.parametrize("delta, gap", [(0.1, 1.7e-5), (0.3, 9.4e-6)])
    def test_bsc_default_settings_gap(self, delta, gap):
        # the gaps of the random-restart ascent this solver replaced, on
        # acceptance criterion 10's grid
        ts = np.linspace(0.0, 0.65, 14)
        curve = fi_dmc_envelope(DMCKernel.bsc(delta), ts)
        closed = np.array([fi_bsc(t, delta) for t in ts])
        assert np.all(curve.values <= closed + 1e-9)
        assert np.max(closed - curve.values) <= gap

    @pytest.mark.parametrize("t", [-0.1, math.inf])
    def test_rejects_negative_and_infinite_t(self, t):
        # t = inf used to give the capacity, t < 0 the value 0
        grid = [t, 0.0, 0.1] if t < 0 else [0.0, 0.1, t]
        with pytest.raises(DomainError):
            fi_dmc_envelope(DMCKernel.bsc(0.1), grid)
        with pytest.raises(DomainError):
            fi_dmc_envelope(DMCKernel.bsc(0.1), [0.0, math.nan])

    def test_lattice_within_budget(self):
        for nx in (2, 3, 4, 5, 10, 44, 45, 2000):
            n, points = _interior_lattice(nx)
            assert n >= 1 and points.shape[1] == nx
            assert len(points) + nx <= max(_LATTICE_POINTS, nx)
            assert np.allclose(points.sum(axis=1), 1.0) and np.all(points < 1.0)
        assert [_interior_lattice(nx)[0] for nx in (2, 3, 4)] == [1000, 43, 16]
        assert len(_interior_lattice(3)[1]) + 3 == 45 * 44 // 2 + 1
        # with no interior lattice point the curve is the trivial lower bound
        curve = fi_dmc_envelope(DMCKernel.identity(50), np.linspace(0.0, 1.0, 5))
        assert curve.meta["lattice_resolution"] == 1
        assert np.all(curve.values == 0.0)

    @pytest.mark.parametrize("params", [{"n_lambdas": 0}, {"n_lambdas": -3},
                                        {"n_lambdas": 2.5}, {"n_lambdas": 8.0},
                                        {"n_lambdas": "8"}, {"refinements": -1},
                                        {"refinements": math.nan}, {"refinements": 1.5}],
                             ids=["n0", "n-3", "n2.5", "n8.0", "n-str", "r-1", "r-nan", "r1.5"])
    def test_rejects_bad_solver_params(self, params):
        with pytest.raises(DomainError, match=next(iter(params))):
            fi_dmc_envelope(DMCKernel.bsc(0.1), [0.0, 0.5], params)

    def test_ignores_other_solver_params(self):
        ts = np.linspace(0.0, 0.6, 4)
        params = {"n_lambdas": np.int64(8), "refinements": 4}
        assert (fi_dmc_envelope(DMCKernel.bsc(0.1), ts, {**params, "restarts": 4, "seed": 3})
                == fi_dmc_envelope(DMCKernel.bsc(0.1), ts, params))
        one = fi_dmc_envelope(DMCKernel.bsc(0.1), ts, {"n_lambdas": 1, "refinements": 0})
        assert one.meta["n_lambdas"] == 1 and np.all(one.values >= 0.0)

    def test_no_bracket_without_an_interior_point(self, monkeypatch):
        def fail(K):
            raise AssertionError("eta_kl_dmc called")

        monkeypatch.setattr(fi_curves, "eta_kl_dmc", fail)
        curve = fi_dmc_envelope(DMCKernel.identity(45), [0.0, 0.5], {"n_lambdas": 4})
        assert np.all(curve.values == 0.0)


def _qhull_lagrangian(K: DMCKernel, lam: float) -> float:
    """max of phi - (lower convex envelope of phi) on the solver's lattice,
    with the envelope taken from scipy's Qhull."""
    from scipy.spatial import ConvexHull
    Km = K.matrix
    nx = Km.shape[0]
    pts = np.vstack([np.eye(nx), _interior_lattice(nx)[1]])
    phi = -xlogx(pts @ Km).sum(axis=1) + lam * xlogx(pts).sum(axis=1)
    eq = ConvexHull(np.column_stack([pts[:, :-1], phi])).equations
    lower = eq[eq[:, -2] < -1e-12]
    env = (-(pts[:, :-1] @ lower[:, :-2].T + lower[:, -1]) / lower[:, -2]).max(axis=1)
    return float(np.max(phi - env))


_RNG = np.random.default_rng(11)
_SPLIT_KERNELS = [DMCKernel.bsc(0.1)] + [
    DMCKernel(_RNG.dirichlet(np.ones(ny), size=3)) for ny in (3, 4)]


class TestBestSplit:
    @pytest.mark.parametrize("K", _SPLIT_KERNELS, ids=["bsc", "random3x3", "random3x4"])
    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.6, 0.9])
    def test_matches_qhull_lower_hull(self, K, lam):
        Km = K.matrix
        pts = _interior_lattice(Km.shape[0])[1]
        phi = -xlogx(pts @ Km).sum(axis=1) + lam * xlogx(pts).sum(axis=1)
        q = _best_split(pts, phi, -xlogx(Km).sum(axis=1))
        assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-15)
        value = mi_joint(q @ Km) - lam * mi_joint(q)
        assert value == pytest.approx(_qhull_lagrangian(K, lam), abs=1e-12)


def _depth_first_split(points, f, f_vertices):
    """The envelope split as it was before rounds: one simplex at a time, from a stack."""
    nx = len(f_vertices)
    best, coupling = 0.0, np.full((1, nx), 1.0 / nx)
    stack = [(np.eye(nx), points, f - points @ f_vertices)] if len(points) else []
    while stack:
        verts, coords, gap = stack.pop()
        top, low = int(np.argmax(gap)), int(np.argmin(gap))
        if gap[top] > best:
            best, coupling = gap[top], coords[top][:, None] * verts
        depth = -gap[low]
        if depth <= 1e-13 or gap[top] + depth <= best:
            continue
        c, rest = coords[low], np.arange(len(gap)) != low
        coords, gap = coords[rest], gap[rest]
        ratio = np.where(c > 0, coords / np.where(c > 0, c, 1.0), np.inf)
        child = np.argmin(ratio, axis=1)
        share = ratio[np.arange(len(child)), child]
        coords = coords - share[:, None] * c
        coords[np.arange(len(child)), child] = share
        gap = gap + share * depth
        for j in np.unique(child):
            sel = child == j
            child_verts = np.where(np.arange(nx)[:, None] == j, c @ verts, verts)
            stack.append((child_verts, coords[sel], gap[sel]))
    coupling = np.maximum(coupling, 0.0)
    return coupling / coupling.sum()


def _parent_split(points, f, f_vertices):
    """`_best_split` as it was before its rounds were streamlined: segment ids
    rebuilt from `starts` by np.repeat, first top and low points of every segment
    by where/reduceat, child keys by np.unique, and a last round that splits nothing."""
    nx = len(f_vertices)
    best, coupling = 0.0, np.full((1, nx), 1.0 / nx)
    coords, gap = points, f - points @ f_vertices
    starts, verts = np.zeros(min(len(points), 1), dtype=np.intp), np.eye(nx)[None]
    while len(starts):
        seg = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(gap)))
        tops, lows = np.maximum.reduceat(gap, starts), np.minimum.reduceat(gap, starts)
        pos = np.arange(len(gap))
        top = np.minimum.reduceat(np.where(gap == tops[seg], pos, len(gap)), starts)
        low = np.minimum.reduceat(np.where(gap == lows[seg], pos, len(gap)), starts)
        k = int(np.argmax(tops))
        if tops[k] > best:
            best, coupling = tops[k], coords[top[k]][:, None] * verts[k]
        depth = -lows
        split = (depth > 1e-13) & (tops + depth > best)
        c, verts, depth = coords[low[split]], verts[split], depth[split]
        parent = np.cumsum(split) - 1
        rest = split[seg]
        rest[low] = False
        coords, gap, seg = coords[rest], gap[rest], parent[seg[rest]]
        cp = c[seg]
        ratio = np.where(cp > 0, coords / np.where(cp > 0, cp, 1.0), np.inf)
        child = np.argmin(ratio, axis=1)
        share = ratio[np.arange(len(child)), child]
        coords = coords - share[:, None] * cp
        coords[np.arange(len(child)), child] = share
        gap = gap + share * depth[seg]
        key = seg * nx + child
        order = np.argsort(key, kind="stable")
        coords, gap = coords[order], gap[order]
        keys, starts = np.unique(key[order], return_index=True)
        p, j = np.divmod(keys, nx)
        apex = np.matmul(c[:, None], verts)[:, 0]
        verts = verts[p]
        verts[np.arange(len(keys)), j] = apex[p]
    coupling = np.maximum(coupling, 0.0)
    return coupling / coupling.sum()


class _CountingNumpy:
    """numpy for `fi_curves`, counting `_best_split`'s splitting rounds (one
    argsort each) and the child simplices they make (the keys of one divmod each)."""

    def __init__(self):
        self.rounds = self.children = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self.rounds += 1
        return np.argsort(*args, **kwargs)

    def divmod(self, keys, *args, **kwargs):
        self.children += len(keys)
        return np.divmod(keys, *args, **kwargs)


def _phi(K: DMCKernel, lam: float):
    Km = K.matrix
    pts = _interior_lattice(Km.shape[0])[1]
    return pts, -xlogx(pts @ Km).sum(axis=1) + lam * xlogx(pts).sum(axis=1), -xlogx(Km).sum(axis=1)


def _flat_phi():
    """BSC(0.1)'s lattice with phi within 1e-13 below the chord everywhere: a facet."""
    pts, _, fv = _phi(DMCKernel.bsc(0.1), 0.5)
    return pts, pts @ fv - 5e-14 * np.random.default_rng(0).uniform(size=len(pts)), fv


_ROUND_KERNELS = [DMCKernel.bsc(0.1), DMCKernel.erasure(0.3, 2), DMCKernel.erasure(0.3, 3)] + [
    DMCKernel(np.random.default_rng(5).dirichlet(np.ones(n), size=n)) for n in (2, 3, 4)]


class TestSplitRounds:
    @pytest.mark.parametrize("K", _ROUND_KERNELS, ids=["bsc", "erasure2", "erasure3",
                                                       "random2x2", "random3x3", "random4x4"])
    def test_matches_depth_first_split(self, K, monkeypatch):
        Km = K.matrix
        for lam in np.linspace(0.0, 0.999, 12):
            pts, f, fv = _phi(K, lam)
            counter = _CountingNumpy()
            monkeypatch.setattr(fi_curves, "np", counter)
            q = _best_split(pts, f, fv)
            monkeypatch.undo()
            ref = _depth_first_split(pts, f, fv)
            assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-15)
            value = mi_joint(q @ Km) - lam * mi_joint(q)
            assert value == pytest.approx(mi_joint(ref @ Km) - lam * mi_joint(ref), abs=1e-15)
            assert counter.rounds <= len(pts)

    def test_empty_lattice_gives_uniform_coupling(self):
        q = _best_split(np.zeros((0, 3)), np.zeros(0), np.zeros(3))
        assert np.array_equal(q, np.full((1, 3), 1.0 / 3.0))

    def test_flat_phi_is_not_split(self, monkeypatch):
        # every point within 1e-13 below the chord: a facet, gap 0, no child simplex
        counter = _CountingNumpy()
        monkeypatch.setattr(fi_curves, "np", counter)
        q = _best_split(*_flat_phi())
        assert counter.children == 0
        assert np.array_equal(q, np.full((1, 2), 0.5))

    @pytest.mark.parametrize("K, lam", [(DMCKernel.bsc(0.1), 0.6), (_ROUND_KERNELS[-2], 0.1),
                                        (_ROUND_KERNELS[-1], 0.1)])
    def test_pruning_bounds_the_splits(self, K, lam, monkeypatch):
        # a simplex whose top + depth cannot beat the best gap is not split:
        # these make 18, 12 and 24 child simplices, and 378, 317 and 228 without that rule
        pts, f, fv = _phi(K, lam)
        counter = _CountingNumpy()
        monkeypatch.setattr(fi_curves, "np", counter)
        _best_split(pts, f, fv)
        assert 0 < counter.children <= 50


_SHORTCUT_RNG = np.random.default_rng(28)
# kernels for the eta_KL shortcut: Dirichlet rows from spiky to near-equal, 2 and 3
# inputs, and structured ones whose phi is nearly flat (BSC near 1/2, rows 1e-9 apart)
_SHORTCUT_KERNELS = {
    **{f"dirichlet{a}": [_SHORTCUT_RNG.dirichlet(np.full(ny, a), size=2)
                         for ny in (2, 3, 4, 6) for _ in range(2)]
       for a in (0.3, 1.0, 5.0, 50.0)},
    **{f"dirichlet{a}-3": [_SHORTCUT_RNG.dirichlet(np.full(ny, a), size=3)
                           for ny in (2, 3, 4)]
       for a in (0.3, 1.0, 5.0)},
    "structured": [DMCKernel.bsc(d).matrix for d in (0.0, 0.01, 0.1, 0.2, 0.45, 0.499)]
    + [DMCKernel.erasure(a, 2).matrix for a in (0.1, 0.5, 0.9)]
    + [np.array([[1.0, 0.0], [e, 1.0 - e]]) for e in (0.1, 0.5)]
    + [np.array([[0.3, 0.7], [0.3 + 1e-9, 0.7 - 1e-9]])],
    "erasure3": [DMCKernel.erasure(a, 3).matrix for a in (0.1, 0.3, 0.6, 0.9)],
}


def _no_bracket(K):
    """`eta_kl_dmc` with an infinite upper end: every multiplier below 1 searched."""
    return ThresholdReport(math.inf, 0, (0.0, math.inf))


class TestConvexShortcut:
    """Above the upper end of the eta_KL bracket phi is convex and no search runs."""

    @pytest.mark.parametrize("family", list(_SHORTCUT_KERNELS))
    def test_certified_phi_has_the_trivial_split(self, family):
        # above the upper end of the eta_KL bracket the search finds the trivial coupling
        certified = 0
        for Km in _SHORTCUT_KERNELS[family]:
            nx = Km.shape[0]
            pts = _interior_lattice(nx)[1]
            upper = eta_kl_dmc(DMCKernel(Km)).bracket[1]
            h_x, h_y, h_rows = (-xlogx(a).sum(axis=1) for a in (pts, pts @ Km, Km))
            for lam in np.linspace(0.0, 0.999, 80):
                if lam > upper:
                    certified += 1
                    q = _best_split(pts, h_y - lam * h_x, h_rows)
                    assert np.array_equal(q, fi_curves._trivial_coupling(nx))
        assert certified > 0

    def test_three_inputs_are_skipped(self, monkeypatch):
        # eta_KL of erasure(0.3, 3) is 0.7, so lambda = 0.99 lies above the bracket and no
        # multiplier there is searched, though the search alone visits some; recover
        # each searched lambda from phi = H(PK) - lambda H(P)
        K = DMCKernel.erasure(0.3, 3)
        upper = eta_kl_dmc(K).bracket[1]
        assert upper < 0.99
        points = _interior_lattice(3)[1]
        h_x, h_y = -xlogx(points).sum(axis=1), -xlogx(points @ K.matrix).sum(axis=1)
        searched = []

        def spy(pts, f, f_vertices):
            searched.append(float(np.median((h_y - f) / h_x)))
            return _best_split(pts, f, f_vertices)

        monkeypatch.setattr(fi_curves, "_best_split", spy)
        fi_dmc_envelope(K, np.linspace(0.0, 1.0, 5))
        assert searched and max(searched) < upper
        searched.clear()
        monkeypatch.setattr(fi_curves, "eta_kl_dmc", _no_bracket)
        fi_dmc_envelope(K, np.linspace(0.0, 1.0, 5))
        assert max(searched) > upper

    @pytest.mark.parametrize("K", [DMCKernel.bsc(0.1), DMCKernel.erasure(0.3, 2),
                                   DMCKernel.erasure(0.3, 3),
                                   DMCKernel(_SHORTCUT_KERNELS["dirichlet1.0"][0]),
                                   DMCKernel(_SHORTCUT_KERNELS["dirichlet1.0"][2]),
                                   DMCKernel(_SHORTCUT_KERNELS["dirichlet1.0-3"][0]),
                                   DMCKernel(_SHORTCUT_KERNELS["dirichlet1.0-3"][1])],
                             ids=["bsc", "erasure2", "erasure3", "random2x2", "random2x3",
                                  "random3x2", "random3x3"])
    @pytest.mark.parametrize("params", [{"n_lambdas": 8, "refinements": 4}, None],
                             ids=["8-4", "defaults"])
    def test_curve_is_bit_identical_to_the_search(self, K, params, monkeypatch):
        ts = np.linspace(0.0, 1.0, 21)
        fast = fi_dmc_envelope(K, ts, params)
        monkeypatch.setattr(fi_curves, "eta_kl_dmc", _no_bracket)
        searched = fi_dmc_envelope(K, ts, params)
        assert fast.points == searched.points and fast.meta == searched.meta


_RUN_RNG = np.random.default_rng(33)
# Dirichlet rows from spiky to near-equal, with the structured kernels beside them
_RUN_KERNELS = {
    **{f"dirichlet{a}-{nx}x3": DMCKernel(_RUN_RNG.dirichlet(np.full(3, a), size=nx))
       for a in (0.3, 1.0, 3.0) for nx in (2, 3, 4)},
    "bsc0.1": DMCKernel.bsc(0.1), "erasure2": DMCKernel.erasure(0.3, 2),
    "erasure3": DMCKernel.erasure(0.3, 3), "identity3": DMCKernel.identity(3),
    "K2": DMCKernel(np.loadtxt(Path(__file__).parent / "golden" / "K2.csv", delimiter=",")),
}


def _full_first_pass(solve, lambdas) -> list:
    """The first pass without runs: every multiplier searched."""
    return [solve(lam) for lam in lambdas]


class TestFirstPassRuns:
    @pytest.mark.parametrize("name", list(_RUN_KERNELS))
    @pytest.mark.parametrize("params", [{"n_lambdas": 8, "refinements": 4}, None],
                             ids=["8-4", "defaults"])
    def test_matches_a_full_first_pass(self, name, params, monkeypatch):
        ts = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 10)
        runs = fi_dmc_envelope(_RUN_KERNELS[name], ts, params)
        monkeypatch.setattr(fi_curves, "_solve_in_runs", _full_first_pass)
        full = fi_dmc_envelope(_RUN_KERNELS[name], ts, params)
        assert runs.points == full.points and runs.meta == full.meta

    def test_bsc_runs_fewer_splits(self, monkeypatch):
        ts = np.linspace(0.0, 1.0, 21)
        calls = []

        def counting(*args):
            calls.append(1)
            return _best_split(*args)

        monkeypatch.setattr(fi_curves, "_best_split", counting)
        fi_dmc_envelope(DMCKernel.bsc(0.1), ts)
        runs = len(calls)
        calls.clear()
        monkeypatch.setattr(fi_curves, "_solve_in_runs", _full_first_pass)
        fi_dmc_envelope(DMCKernel.bsc(0.1), ts)
        assert 0 < runs < len(calls)

    def test_equal_ends_fill_the_run(self):
        solved = []

        def solve(lam):
            solved.append(lam)
            return (0.0, 0.0) if lam >= 4 else (1.0, float(lam >= 2))

        assert fi_curves._solve_in_runs(solve, list(range(9))) == (
            [(1.0, 0.0)] * 2 + [(1.0, 1.0)] * 2 + [(0.0, 0.0)] * 5)
        assert sorted(solved) == [0, 1, 2, 3, 4, 8]
        solved.clear()
        assert fi_curves._solve_in_runs(solve, [0.0]) == [(1.0, 0.0)] and solved == [0.0]


def _tied_phi(nx: int):
    """phi on the nx-input lattice with gaps to a chord in steps of 1/8: many
    points share a segment's top or its lowest gap, and simplices share a top."""
    pts = _interior_lattice(nx)[1]
    fv = np.arange(nx, dtype=float)
    wave = np.round(8 * np.sin(13.0 * pts[:, 0] + 5.0 * pts[:, -1])) / 8
    return pts, pts @ fv + wave, fv


class TestSplitBitIdentity:
    """`_best_split` against `_parent_split`, the loop before its rounds were
    streamlined, array for array."""

    @pytest.mark.parametrize("name", [n for n in _RUN_KERNELS if n != "erasure2"])
    def test_matches_the_parent_split(self, name):
        for lam in (0.0, 1e-3, 1e-2, 0.1, 0.3, 0.6, 0.9):
            args = _phi(_RUN_KERNELS[name], lam)
            assert np.array_equal(_best_split(*args), _parent_split(*args)), lam

    @pytest.mark.parametrize("args", [_flat_phi(), (np.zeros((0, 3)), np.zeros(0), np.zeros(3))]
                             + [_tied_phi(nx) for nx in (2, 3, 4)],
                             ids=["flat", "empty", "tied2", "tied3", "tied4"])
    def test_edge_cases(self, args):
        assert np.array_equal(_best_split(*args), _parent_split(*args))


def _properties_check_loop(curve) -> dict:
    """`fi_properties_check` as a loop over numpy scalars, the reference."""
    tol = 1e-6
    ts = curve.arguments
    vs = curve.values
    if len(ts) < 3:
        raise DomainError("need at least 3 curve points")
    failures = []
    i0 = int(np.argmin(np.abs(ts)))
    if abs(ts[i0]) < tol and abs(vs[i0]) > tol:
        failures.append(("zero_at_zero", (float(ts[i0]), float(vs[i0]))))
    for i in range(len(ts) - 1):
        if vs[i + 1] < vs[i] - tol:
            failures.append(("nondecreasing", (float(ts[i]), float(ts[i + 1]))))
    for t, v in zip(ts, vs):
        if v > t + tol:
            failures.append(("below_diagonal", (float(t), float(v))))
    ratio_prev = None
    for t, v in zip(ts, vs):
        if t <= tol:
            continue
        r = v / t
        if ratio_prev is not None and r > ratio_prev + tol:
            failures.append(("ratio_nonincreasing", (float(t), float(r))))
        ratio_prev = r
    lookup = {round(t, 9): v for t, v in zip(ts, vs)}
    for i in range(len(ts)):
        for j in range(i, len(ts)):
            key = round(ts[i] + ts[j], 9)
            if key in lookup and lookup[key] > vs[i] + vs[j] + tol:
                failures.append(("subadditive", (float(ts[i]), float(ts[j]))))
    return {"passed": not failures, "failures": failures}


class TestPropertiesCheck:
    def test_matches_the_loop(self):
        from sdpi.core_prob import Ccurve
        grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 10)
        passing = [fi_dmc_envelope(K, ts, {"n_lambdas": 8, "refinements": 4})
                   for K in (DMCKernel.bsc(0.1), DMCKernel.erasure(0.3, 3), _RUN_KERNELS["K2"],
                             _RUN_KERNELS["dirichlet1.0-3x3"])
                   for ts in (grid, np.linspace(0.0, LOG2, 15))]
        failing = {
            "zero_at_zero": ((0.0, 0.1), (0.5, 0.3), (1.0, 0.4)),
            "nondecreasing": ((0.0, 0.0), (0.5, 0.4), (1.0, 0.2)),
            "below_diagonal": ((0.0, 0.0), (0.1, 0.3), (0.2, 0.3)),
            "ratio_nonincreasing": ((0.0, 0.0), (0.3, 0.1), (0.7, 0.5)),
            # failing pairs (1, 1), (1, 2), (1, 3), (2, 2): row-major, not column-major
            "subadditive": ((0.0, 0.0), (0.1, 0.01), (0.2, 0.05), (0.3, 0.2), (0.4, 0.3)),
            # 0.1 and 0.1 + 1e-11 share the key 0.1, the later point standing for it
            "shared key": ((0.0, 0.0), (0.1, 0.05), (0.1 + 1e-11, 0.08), (0.2, 0.3)),
            "negative": ((-0.2, 0.0), (-0.1, 0.0), (0.0, 0.0), (0.1, 0.2)),
        }
        kinds = set()
        for curve in passing + [Ccurve(p) for p in failing.values()]:
            report = fi_properties_check(curve)
            assert report == _properties_check_loop(curve)
            assert [type(x) for f in report["failures"] for x in f[1]] == (
                [float] * 2 * len(report["failures"]))
            kinds |= {f[0] for f in report["failures"]}
        assert all(fi_properties_check(curve)["passed"] for curve in passing)
        assert kinds == set(failing) - {"shared key", "negative"}

    def test_valid_curve_passes(self):
        ts = np.linspace(0.0, LOG2, 15)
        curve = fi_dmc_envelope(DMCKernel.bsc(0.1), ts,
                                {"n_lambdas": 16})
        report = fi_properties_check(curve)
        assert report["passed"], report["failures"]

    def test_violations_detected(self):
        from sdpi.core_prob import Ccurve
        bad = Ccurve(((0.0, 0.1), (0.5, 0.05), (1.0, 1.5)), {})
        report = fi_properties_check(bad)
        assert not report["passed"]
        names = {f[0] for f in report["failures"]}
        assert "zero_at_zero" in names
        assert "below_diagonal" in names

    def test_too_few_points(self):
        from sdpi.core_prob import Ccurve
        with pytest.raises(DomainError):
            fi_properties_check(Ccurve(((0.0, 0.0), (1.0, 0.5)), {}))
