"""Independent brute-force ground truth.

Nothing here shares a code path with the closed forms it validates beyond
the primitives in core_prob (`xlogx`, `mi_joint`, `bisect`, the lattice
enumerator `simplex_lattice`) and the noise laws' own `density`, `sample` and
`excess_entropy` (the output entropy h(Y) - h(Z) of a finite input, which
`mi_additive` reads too): the methods are the oracle's own
(lattice search, Monte Carlo, random couplings), so that agreement is
evidence, not circularity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .channels import DMCKernel, GaussianNoise, NoiseModel
from .core_prob import DiscretePMF, bisect, mi_joint, simplex_lattice, xlogx
from .errors import BudgetError, DomainError


# ---------------------------------------------------------------------------
# exhaustive coupling search on the simplex lattice
# ---------------------------------------------------------------------------

# the largest coupling lattice fi_bruteforce_dmc enumerates
_MAX_POINTS = 3e7


@functools.lru_cache(maxsize=8)
def _bruteforce_envelope(matrix: bytes, shape: tuple[int, int], w_size: int,
                         resolution: int):
    """Staircase: bin_width, running max of I_WY over bins of I_WX, and the
    per-bin argmax couplings (used as warm starts for the polish step).  The
    kernel comes as matrix bytes and shape, so repeated calls hit the cache."""
    Km = np.frombuffer(matrix).reshape(shape)
    nx, ny = shape
    cells = w_size * nx
    n = resolution
    total = comb(n + cells - 1, cells - 1)
    if total > _MAX_POINTS:
        raise BudgetError(f"{total} lattice points exceed the budget {_MAX_POINTS:g}")
    xlx = xlogx(np.arange(n + 1) / n)
    bin_w = 1e-4
    n_bins = int(math.log(min(nx, w_size) + 1) / bin_w) + 2
    bin_vals = np.full(n_bins, -np.inf)
    bin_rows = np.zeros((n_bins, cells))
    for batch in simplex_lattice(n, cells):
        c = batch.reshape(len(batch), w_size, nx)
        h_wx = xlx[c].sum(axis=(1, 2))
        h_w = xlx[c.sum(axis=2)].sum(axis=1)
        h_x = xlx[c.sum(axis=1)].sum(axis=1)
        i_wx = np.maximum(h_wx - h_w - h_x, 0.0)
        q = c / n
        p_wy = q @ Km
        i_wy = xlogx(p_wy).sum(axis=(1, 2)) - h_w \
            - xlogx(p_wy.sum(axis=1)).sum(axis=1)
        # data processing: 0 <= I(W;Y) <= I(W;X), which rounding can break
        i_wy = np.clip(i_wy, 0.0, i_wx)
        # bin by the ceiling so bin b only holds samples with I_WX <= b*bin_w
        bins = np.ceil(i_wx / bin_w - 1e-12).astype(np.int64)
        bins = np.clip(bins, 0, n_bins - 1)
        np.maximum.at(bin_vals, bins, i_wy)
        hit = i_wy >= bin_vals[bins]
        bin_rows[bins[hit]] = q.reshape(len(q), cells)[hit]
    return bin_w, np.maximum.accumulate(bin_vals), bin_vals, bin_rows


def _joint_mi_pair(q: np.ndarray, Km: np.ndarray, w_size: int) -> tuple[float, float]:
    """(I(W;X), I(W;Y)) for a joint pmf q over W x X, Y = X through Km."""
    j = np.clip(q, 0.0, None).reshape(w_size, Km.shape[0])
    j = j / j.sum()
    return mi_joint(j), mi_joint(j @ Km)


def _polish_coupling(q0: np.ndarray, Km: np.ndarray, w_size: int,
                     t: float) -> float:
    """Local continuous refinement of the best lattice coupling.

    Runs SLSQP on max I(W;Y) s.t. I(W;X) <= t from the lattice argmax, then
    re-evaluates the polished point exactly and enforces the constraint (by
    mixing toward the product of its marginals if needed), so the returned
    value is still a certified achievable point.
    """
    from scipy.optimize import minimize
    cells = q0.size
    start = 0.98 * q0 + 0.02 / cells

    def neg_iwy(q):
        return -_joint_mi_pair(q, Km, w_size)[1]

    def slack(q):
        return t - _joint_mi_pair(q, Km, w_size)[0]

    res = minimize(neg_iwy, start, method="SLSQP",
                   bounds=[(0.0, 1.0)] * cells,
                   constraints=[{"type": "eq", "fun": lambda q: q.sum() - 1.0},
                                {"type": "ineq", "fun": slack}],
                   options={"maxiter": 200, "ftol": 1e-12})
    q = np.clip(res.x, 0.0, None)
    if q.sum() <= 0:
        return 0.0
    q = q / q.sum()
    prod = np.outer(q.reshape(w_size, -1).sum(axis=1),
                    q.reshape(w_size, -1).sum(axis=0)).ravel()
    if _joint_mi_pair(q, Km, w_size)[0] > t:
        # mix toward independence until feasible
        lam, _, _ = bisect(
            lambda lam: _joint_mi_pair((1 - lam) * q + lam * prod, Km, w_size)[0] <= t,
            0.0, 1.0, 2.0 ** -60)
        q = (1 - lam) * q + lam * prod
    i_wx, i_wy = _joint_mi_pair(q, Km, w_size)
    return i_wy if i_wx <= t + 1e-15 else 0.0


def fi_bruteforce_dmc(K: DMCKernel, t: float, w_size: int = 3,
                      resolution: int = 60) -> float:
    """Exhaustive lattice search: max I(W;Y) over couplings with I(W;X) <= t.

    The coupling simplex is discretized on the (k/n) lattice; the result is
    a certified lower bound on F_I(t) at the stated resolution.
    """
    if not t >= 0:
        raise DomainError("t must be nonnegative")
    nx = K.matrix.shape[0]
    if nx > 3:
        raise BudgetError("brute force restricted to |X| <= 3")
    if not 1 <= w_size <= nx + 1:
        raise DomainError("w_size must lie in [1, |X| + 1]")
    if resolution < 10:
        raise DomainError("resolution must be >= 10")
    bin_w, stair, bin_vals, bin_rows = _bruteforce_envelope(
        K.matrix.tobytes(), K.matrix.shape, w_size, resolution)
    b = int(math.floor(t / bin_w + 1e-12))
    b = min(b, len(stair) - 1)
    val = float(max(stair[b], 0.0))
    if t > 0 and np.isfinite(stair[b]):
        best = int(np.argmax(bin_vals[:b + 1]))
        polished = _polish_coupling(bin_rows[best].copy(), K.matrix, w_size, t)
        val = max(val, polished)
    return val


# ---------------------------------------------------------------------------
# Monte Carlo mutual information
# ---------------------------------------------------------------------------

def mc_mutual_info(input: DiscretePMF, noise: NoiseModel, gamma: float,
                   n_samples: int = 10 ** 6, seed: int = 0) -> tuple[float, float]:
    """MI estimate by density-ratio averaging; returns (estimate, 3-sigma)."""
    if n_samples < 10 ** 5:
        raise DomainError("need at least 1e5 samples")
    if not 0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    rng = np.random.default_rng(seed)
    atoms, weights = input.atoms, input.weights
    mu = math.sqrt(gamma) * atoms
    idx = rng.choice(len(atoms), size=n_samples, p=weights)
    z = noise.sample(n_samples, rng)
    y = mu[idx] + z
    chunk = 200_000
    vals = np.empty(n_samples)
    for i in range(0, n_samples, chunk):
        yc = y[i:i + chunk]
        dens = np.stack([np.asarray(noise.density(yc - m)) for m in mu], axis=1)
        log_py = np.log(np.maximum((dens * weights[None, :]).sum(axis=1), 1e-300))
        cond = dens[np.arange(len(yc)), idx[i:i + chunk]]
        log_cond = np.log(np.maximum(cond, 1e-300))
        vals[i:i + chunk] = log_cond - log_py
    est = float(vals.mean())
    ci = 3.0 * float(vals.std(ddof=1)) / math.sqrt(n_samples)
    return est, ci


# ---------------------------------------------------------------------------
# random coupling sweeps
# ---------------------------------------------------------------------------

# slack of the diagonal check, the largest capacity gap the horizontal check
# reads, and the slack of the horizontal check
_DIAG_TOLERANCE = 3e-4
_EPS_MAX = 1e-3
_HORIZ_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SweepResult:
    samples: np.ndarray  # columns: I_WX, I_WY
    violation_count: int
    violations: tuple = field(default_factory=tuple)


def sdpi_pair_sampler(noise: NoiseModel, gamma: float, p: float,
                      n_couplings: int, seed: int = 0,
                      diag_bound=None, horiz_bound=None,
                      capacity: float | None = None) -> SweepResult:
    """Random couplings (2 to 4 values of W, 2 to 6 atoms of X) with the
    budget met with equality, for any noise family.

    Computes (I(W;X), I(W;Y)) per coupling and counts violations against the
    supplied diagonal bound curve (t -> g_d(t)) and, when `capacity` is set,
    the horizontal curve (eps -> minimal I(W;X); may return None or nan when
    the bound is not applicable at that eps).
    """
    if not 0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    if not 1 <= p < math.inf:
        raise DomainError("p must be >= 1 and finite")
    if not n_couplings >= 0:
        raise DomainError("n_couplings must be nonnegative")
    # the paper's conventions: AWGN (E|X|^p = 1, the channel applies
    # sqrt(gamma)) for Gaussian noise, Y = X + Z with E|X|^p = gamma otherwise
    budget, gain = (1.0, math.sqrt(gamma)) if isinstance(noise, GaussianNoise) else (gamma, 1.0)
    rng = np.random.default_rng(seed)
    samples = np.empty((n_couplings, 2))
    violations = []
    for i in range(n_couplings):
        nw = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        atoms = np.sort(rng.standard_normal(k))
        while np.any(np.diff(atoms) < 1e-6):
            atoms = np.sort(rng.standard_normal(k))
        pw = rng.dirichlet(np.ones(nw))
        rows = rng.dirichlet(np.ones(k), size=nw)
        px = pw @ rows
        moment = float(px @ np.abs(atoms) ** p)
        i_wx = mi_joint(pw[:, None] * rows)
        # I(W;Y) = h(Y) - sum_w p_w h(Y | W = w), with h(Z) taken off each term
        e = noise.excess_entropy(gain * atoms * (budget / moment) ** (1.0 / p),
                                 np.vstack([px, rows]))
        i_wy = max(float(e[0] - pw @ e[1:]), 0.0)
        samples[i] = (i_wx, i_wy)
        if diag_bound is not None and i_wx > 0:
            gd = diag_bound(i_wx)
            if i_wy > i_wx - gd + _DIAG_TOLERANCE:
                violations.append(("diag", i, i_wx, i_wy))
        if horiz_bound is not None and capacity is not None:
            eps = capacity - i_wy
            if 0 < eps <= _EPS_MAX:
                t_min = horiz_bound(eps)
                if t_min is not None and i_wx < t_min - _HORIZ_TOLERANCE:
                    violations.append(("horiz", i, i_wx, i_wy))
    return SweepResult(samples, len(violations), tuple(violations))
