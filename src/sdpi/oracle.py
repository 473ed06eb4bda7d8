"""Independent brute-force ground truth.

Nothing here shares a code path with the closed forms it validates beyond
the primitives in core_prob (`xlogx`, `mi_joint`, `bisect`) and the noise
laws' own `density`, `sample` and `excess_entropy` (the output entropy
h(Y) - h(Z) of a finite input, which `mi_additive` reads too): the methods
are the oracle's own (lattice search over the W-orbits of the couplings,
polished by Newton steps on the exact derivatives of mutual information,
Monte Carlo, random couplings), so that agreement is evidence, not
circularity.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .channels import DMCKernel, NoiseModel
from .core_prob import DiscretePMF, bisect, mi_joint, xlogx
from .errors import BudgetError, DomainError


# ---------------------------------------------------------------------------
# exhaustive coupling search on the simplex lattice
# ---------------------------------------------------------------------------

# the largest coupling lattice fi_bruteforce_dmc enumerates, counted in
# compositions (each W-orbit is one or more of them); the orbits come in blocks
# of at most _BLOCK couplings
_MAX_POINTS = 3e7
_BLOCK = 2 ** 14


def _orbits(n: int, nx: int, w_size: int):
    """Yield the W-orbits of the couplings on the 1/n lattice, each exactly once,
    as (w_size, k) blocks of base-(n + 1) count-row indices, k <= _BLOCK.

    A coupling is w_size count rows in [0, n]^nx whose entries sum to n, and
    relabelling W permutes its rows.  Order the rows by total, then by index:
    an orbit is a nondecreasing tuple of positions in that order.  The rows of
    total <= r fill positions [0, end[r]), end[r] = C(r + nx, nx), so with
    budget r left for the k last rows, the next row is a position in
    [last, end[r // k]) (the smallest of k rows has at most r // k), the last
    one in [max(last, end[r - 1]), end[r]).  Every range is nonempty and every
    partial tuple has a completion, so nothing is filtered: each column reads
    its candidates off the ranges, one window of _BLOCK at a time at every
    depth, so no array grows with the lattice."""
    end = np.array([comb(r + nx, nx) for r in range(n + 1)])
    below = np.concatenate([[0], end[:-1]])  # the rows of total < r
    total = np.indices((n + 1,) * nx).sum(axis=0).ravel()
    order = np.argsort(total, kind="stable")[:end[n]]  # position -> index
    total = total[order]

    def grow(heads, r):
        k = w_size - len(heads)
        if k == 0:
            yield order[heads]
            return
        last = heads[-1] if len(heads) else np.zeros_like(r)
        if k > 1:
            lo, hi = last, end[r // k]
        else:
            lo, hi = np.maximum(last, below[r]), end[r]
        counts = hi - lo
        cum = np.cumsum(counts)
        for start in range(0, cum[-1], _BLOCK):
            # candidates start.. of the flattened ranges, head by head
            g = np.arange(start, min(start + _BLOCK, cum[-1]))
            i = np.searchsorted(cum, g, side="right")
            pos = lo[i] + g - (cum[i] - counts[i])
            yield from grow(np.vstack([heads[:, i], pos]), r[i] - total[pos])

    yield from grow(np.zeros((0, 1), dtype=np.intp), np.array([n]))


@functools.lru_cache(maxsize=8)
def _bruteforce_envelope(matrix: bytes, shape: tuple[int, int], w_size: int,
                         resolution: int):
    """Staircase: bin_width, running max of I_WY over bins of I_WX, and the
    per-bin argmax couplings (used as warm starts for the polish step).  The
    kernel comes as matrix bytes and shape, so repeated calls hit the cache.

    A coupling is w_size count rows c_w in [0, n]^|X| summing to m, |m| = n:
    I(W;X) = sum_w [r_X(c_w) - s(c_w)] - r_X(m), r_X(c) = sum_x xlogx(c/n),
    and I(W;Y) likewise with r_Y(c) = sum_y xlogx((c/n)K); s(c) = xlogx(|c|/n).
    So the logarithms are taken once, on a table over all (n+1)^|X| rows
    indexed in base n + 1, and m's index is the sum of the c_w's.  Both sums
    are symmetric in the rows, so the walk takes one coupling per W-orbit
    (`_orbits`), its rows in the enumerator's order."""
    Km = np.frombuffer(matrix).reshape(shape)
    nx, ny = shape
    cells = w_size * nx
    n = resolution
    total = comb(n + cells - 1, cells - 1)
    if total > _MAX_POINTS:
        raise BudgetError(f"{total} lattice points exceed the budget {_MAX_POINTS:g}")
    rows = np.indices((n + 1,) * nx).reshape(nx, -1).T  # the count row of each index
    r_x, r_y = xlogx(rows / n).sum(axis=1), xlogx(rows / n @ Km).sum(axis=1)
    s = xlogx(rows.sum(axis=1) / n)
    g_x, g_y = r_x - s, r_y - s
    bin_w = 1e-4
    n_bins = int(math.log(min(nx, w_size) + 1) / bin_w) + 2
    bin_vals = np.full(n_bins, -np.inf)
    bin_rows = np.zeros((n_bins, cells))
    for idx in _orbits(n, nx, w_size):  # (w_size, block)
        # rows added one by one: numpy's reduce over a short axis 0 is ~10x slower
        m = sum(idx)
        i_wx = np.maximum(sum(g_x[idx]) - r_x[m], 0.0)
        # data processing: 0 <= I(W;Y) <= I(W;X), which rounding can break
        i_wy = np.clip(sum(g_y[idx]) - r_y[m], 0.0, i_wx)
        # bin by the ceiling so bin b only holds samples with I_WX <= b*bin_w
        bins = np.ceil(i_wx / bin_w - 1e-12).astype(np.int64)
        bins = np.clip(bins, 0, n_bins - 1)
        np.maximum.at(bin_vals, bins, i_wy)
        hit = i_wy >= bin_vals[bins]
        bin_rows[bins[hit]] = rows[idx[:, hit].T].reshape(-1, cells) / n
    return bin_w, np.maximum.accumulate(bin_vals), bin_vals, bin_rows


def _joint_mi_pair(q: np.ndarray, Km: np.ndarray, w_size: int) -> tuple[float, float]:
    """(I(W;X), I(W;Y)) for a joint pmf q over W x X, Y = X through Km."""
    j = np.clip(q, 0.0, None).reshape(w_size, Km.shape[0])
    j = j / j.sum()
    return mi_joint(j), mi_joint(j @ Km)


def _mi_derivatives(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of I over the cells of a joint pmf j, flattened by rows.

    dI/dj = log j - log j_w - log j_x up to a constant, which moves nothing on
    {sum j = 1}; the Hessian is diag(1/j) - [same row]/j_w - [same column]/j_x.
    An empty cell, row or column reads 0 in both."""
    def inv(v):
        return np.divide(1.0, v, out=np.zeros_like(v), where=v > 0)

    def log(v):
        return np.log(v, out=np.zeros_like(v), where=v > 0)

    jw, jx = j.sum(axis=1), j.sum(axis=0)
    grad = log(j) - log(jw)[:, None] - log(jx)[None, :]
    m, n = j.shape
    hess = (np.diag(inv(j).ravel()) - np.kron(np.diag(inv(jw)), np.ones((n, n)))
            - np.kron(np.ones((m, m)), np.diag(inv(jx))))
    return grad.ravel(), hess


# a cell below _DEAD_MASS is dropped; a step may take a cell at most _TO_BOUNDARY
# of the way to 0; _FLOOR is the reduced Hessian's eigenvalue floor, relative to
# its largest; loop caps
_DEAD_MASS = 1e-6
_TO_BOUNDARY = 0.97
_FLOOR = 1e-4
_NEWTON_STEPS = 100
_HALVINGS = 40


def _newton_ascent(q: np.ndarray, Km: np.ndarray, t: float) -> np.ndarray:
    """Local maximiser of I(W;Y) s.t. I(W;X) <= t from a positive joint pmf q.

    Reduced-space SQP (Nocedal & Wright, ch. 18) on the live cells, in the
    coordinates dq / sqrt(q): a Newton step on the tangent space of
    {sum q = 1}, or, when that step would cross t or q is above it, a normal
    step onto the linearised {sum q = 1, I(W;X) = t} plus a Newton step on
    its tangent space.  The reduced Hessian of the Lagrangian is made
    negative definite by flipping its eigenvalues and flooring them at
    _FLOOR of the largest (a W value whose conditional repeats another's
    leaves it singular).  The exact penalty I(W;Y) - nu max(I(W;X) - t, 0)
    picks the step length, each trial point of a constrained step corrected
    back onto I(W;X) = t along the normal, so the curvature of I(W;X) does
    not cut the step.  A cell whose mass falls below _DEAD_MASS, as on a W
    value or input letter the optimum leaves empty, is set to zero and the
    search goes on over the rest."""
    m, nx = q.shape
    big = np.kron(np.eye(m), Km)  # q.ravel() @ big = (q @ Km).ravel()

    def merit(q):
        return mi_joint(q @ Km) - nu * max(mi_joint(q) - t, 0.0)

    def newton_step(b, A, rhs, h, scale):
        """The step and the largest reduced gradient for the constraints A s = rhs;
        1e-6 scale floors the curvature where h cancels to rounding."""
        _, sv, vt = np.linalg.svd(A)
        Z = vt[int((sv > 1e-12 * sv[0]).sum()):].T
        s_n = np.linalg.lstsq(A, rhs, rcond=None)[0]
        r = Z.T @ (b + h @ s_n)
        e, v = np.linalg.eigh(Z.T @ h @ Z)
        e = np.maximum(np.abs(e), max(_FLOOR * np.abs(e).max(initial=0.0), 1e-6 * scale))
        return s_n + Z @ (v @ ((v.T @ r) / e)), np.abs(r).max(initial=0.0)

    nu = 0.0
    live = np.ones(q.size, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        live &= q.ravel() >= _DEAD_MASS
        q = np.where(live.reshape(m, nx), q, 0.0)
        q = q / q.sum()
        if (q.sum(axis=1) > 0).sum() < 2 or (q.sum(axis=0) > 0).sum() < 2:
            break  # I(W;X) = 0 on what is left
        c = mi_joint(q) - t
        a, h_x = _mi_derivatives(q)
        g_r, h_r = _mi_derivatives(q @ Km)
        b, h_y = big @ g_r, big @ h_r @ big.T
        x = q.ravel()[live]
        # in the coordinates s = dq / sqrt(q) a cell's curvature 1/q reads 1
        sc = np.sqrt(x)
        a, b = sc * a[live], sc * b[live]
        h_x = sc[:, None] * h_x[np.ix_(live, live)] * sc
        h_y = sc[:, None] * h_y[np.ix_(live, live)] * sc
        A = np.vstack([sc, a])
        lam = np.linalg.lstsq(A.T, b, rcond=None)[0][1]
        nu = max(nu, 2.0 * abs(lam))
        scale = np.abs(h_y).max() + np.abs(h_x).max()
        # the constraint binds when q is above t, or when the step without it
        # crosses t and the step with it still ascends
        s, r = newton_step(b, A[:1], [0.0], h_y, scale)
        active = c > 0 or c + a @ s > 0
        if active:
            s_c, r_c = newton_step(b, A, [0.0, -c], h_y - lam * h_x, scale)
            active = c > 0 or b @ s_c > 0
            if active:
                s, r = s_c, r_c
        slope = b @ s + nu * max(c, 0.0)  # the merit's, along s
        converged = r <= 1e-10 and (not active or abs(c) <= 1e-14)
        if converged or not slope > 0:
            break
        d = sc * s
        shrink = d < 0
        step = min(1.0, _TO_BOUNDARY * float(np.min(-x[shrink] / d[shrink], initial=np.inf)))
        phi = merit(q)
        for _ in range(_HALVINGS):
            trial = q.ravel().copy()
            trial[live] = x + step * d
            if active:
                gap = t - mi_joint(trial.reshape(m, nx))
                back = sc * np.linalg.lstsq(A, [0.0, gap], rcond=None)[0]
                if np.all(trial[live] + back > 0):
                    trial[live] += back
            trial = trial.reshape(m, nx)
            if merit(trial) >= phi + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        q = trial
    return q


def _polish_coupling(q0: np.ndarray, Km: np.ndarray, w_size: int,
                     t: float) -> float:
    """Local continuous refinement of the best lattice coupling.

    Runs `_newton_ascent` on max I(W;Y) s.t. I(W;X) <= t from the lattice
    argmax, then re-evaluates the polished point exactly and enforces the
    constraint (by mixing toward the product of its marginals if needed), so
    the returned value is still a certified achievable point.
    """
    cells = q0.size
    start = 0.98 * q0 + 0.02 / cells
    q = _newton_ascent(start.reshape(w_size, -1), Km, t).ravel()
    q = np.clip(q, 0.0, None)
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
    if not 0 <= t < math.inf:
        raise DomainError("t must be nonnegative and finite")
    nx = K.matrix.shape[0]
    if nx > 3:
        raise BudgetError("brute force restricted to |X| <= 3")
    if not (isinstance(w_size, numbers.Integral) and 1 <= w_size <= nx + 1):
        raise DomainError("w_size must be an integer in [1, |X| + 1]")
    if not (isinstance(resolution, numbers.Integral) and resolution >= 10):
        raise DomainError("resolution must be an integer >= 10")
    if min(nx, w_size) == 1:
        return 0.0  # I(W;X) = 0 on every coupling
    bin_w, stair, bin_vals, bin_rows = _bruteforce_envelope(
        K.matrix.tobytes(), K.matrix.shape, int(w_size), int(resolution))
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
    if not (isinstance(n_samples, numbers.Integral) and n_samples >= 10 ** 5):
        raise DomainError("n_samples must be an integer >= 1e5")
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
# couplings drawn, then evaluated together, at a time; at most _MAX_W values of W
# and _MAX_ATOMS atoms of X
_WINDOW, _MAX_W, _MAX_ATOMS = 128, 4, 6


@dataclass(frozen=True)
class SweepResult:
    samples: np.ndarray  # columns: I_WX, I_WY
    violation_count: int
    violations: tuple = field(default_factory=tuple)
    # checks that ran: couplings with I_WX > 0 against the diagonal bound, and
    # couplings within _EPS_MAX of capacity where the horizontal bound is a number
    diag_checks: int = 0
    horiz_checks: int = 0


def _draw(rng, n: int):
    """n couplings, drawn one after another in a fixed order of rng calls: the
    atom counts, and the atoms of X, p_W and the rows p_{X|W=w}, zero-padded to
    _MAX_ATOMS atoms and _MAX_W values of W.

    p_W and each row are Dirichlet(1, ..., 1): Exp(1) variates over their sum
    (Devroye 1986, ch. XI).  numpy's `Generator.dirichlet` draws it that way at
    alpha = 1, so one `standard_exponential` fill per coupling reads the variates
    of its two Dirichlet calls (p_W, then the nw rows) in their order.  The window
    is then normalised as `dirichlet` does it, bit for bit: each group times
    1/acc, acc its running sum (a cumsum's last entry; the padding adds exact
    zeros), and a padded row of W stays 0."""
    ks = np.empty(n, dtype=int)
    atoms, pw = np.zeros((n, _MAX_ATOMS)), np.zeros((n, _MAX_W))
    rows = np.zeros((n, _MAX_W, _MAX_ATOMS))
    for i in range(n):
        nw = int(rng.integers(2, _MAX_W + 1))
        k = int(rng.integers(2, _MAX_ATOMS + 1))
        a = sorted(rng.standard_normal(k).tolist())
        while any(y - x < 1e-6 for x, y in zip(a, a[1:])):
            a = sorted(rng.standard_normal(k).tolist())
        ks[i], atoms[i, :k] = k, a
        e = rng.standard_exponential(nw * (k + 1))
        pw[i, :nw] = e[:nw]
        rows[i, :nw, :k] = e[nw:].reshape(nw, k)
    pw *= 1.0 / np.cumsum(pw, axis=1)[:, -1:]
    acc = np.cumsum(rows, axis=2)[..., -1:]
    rows *= np.divide(1.0, acc, out=np.zeros_like(acc), where=acc > 0.0)
    return ks, atoms, pw, rows


def sdpi_pair_sampler(noise: NoiseModel, gamma: float, p: float,
                      n_couplings: int, seed: int = 0,
                      diag_bound=None, horiz_bound=None,
                      capacity: float | None = None) -> SweepResult:
    """Random couplings (2 to 4 values of W, 2 to 6 atoms of X) of the channel
    Y = X + Z with the budget E|X|^p = gamma met with equality, for any noise
    family: for p = 2 and Gaussian Z, the AWGN channel at snr gamma.

    Computes (I(W;X), I(W;Y)) per coupling and counts violations against the
    supplied diagonal bound curve (t -> g_d(t)) and, when `capacity` is set,
    the horizontal curve (eps -> minimal I(W;X); may return None or nan when
    the bound is not applicable at that eps), and the checks of each kind that
    ran.

    The couplings come in windows of _WINDOW: a window is drawn first, then
    evaluated at once, with one `mi_joint` call for its I(W;X) and one
    `excess_entropy` call per atom count for its I(W;Y); then the bounds are
    called coupling by coupling.  So memory does not grow with n_couplings,
    apart from the (n_couplings, 2) samples.
    """
    if not 0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    if not 1 <= p < math.inf:
        raise DomainError("p must be >= 1 and finite")
    if not (isinstance(n_couplings, numbers.Integral) and n_couplings >= 0):
        raise DomainError("n_couplings must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    samples = np.empty((n_couplings, 2))
    violations = []
    diag_checks = horiz_checks = 0
    for start in range(0, n_couplings, _WINDOW):
        ks, atoms, pw, rows = _draw(rng, min(_WINDOW, n_couplings - start))
        joint = pw[:, :, None] * rows
        px = joint.sum(axis=1)
        moment = (px * np.abs(atoms) ** p).sum(axis=1)
        # the float power of each coupling alone: numpy's array power rounds some
        # values differently
        mu = atoms * np.array([(gamma / m) ** (1.0 / p) for m in moment.tolist()])[:, None]
        window = samples[start:start + len(ks)]
        window[:, 0] = mi_joint(joint)
        for k in sorted(set(ks.tolist())):
            at = ks == k
            # I(W;Y) = h(Y) - sum_w p_w h(Y | W = w), with h(Z) taken off each term;
            # a padded W value is a zero row, and its p_w is 0
            e = noise.excess_entropy(mu[at, :k], np.concatenate(
                [px[at, None, :k], rows[at, :, :k]], axis=1))
            window[at, 1] = np.maximum(e[:, 0] - (pw[at] * e[:, 1:]).sum(axis=1), 0.0)
        for i, (i_wx, i_wy) in enumerate(window.tolist(), start):
            if diag_bound is not None and i_wx > 0:
                diag_checks += 1
                if i_wy > i_wx - diag_bound(i_wx) + _DIAG_TOLERANCE:
                    violations.append(("diag", i, i_wx, i_wy))
            eps = math.inf if capacity is None else capacity - i_wy
            if horiz_bound is not None and 0 < eps <= _EPS_MAX:
                t_min = horiz_bound(eps)
                if t_min is not None and not math.isnan(t_min):
                    horiz_checks += 1
                    if i_wx < t_min - _HORIZ_TOLERANCE:
                        violations.append(("horiz", i, i_wx, i_wy))
    return SweepResult(samples, len(violations), tuple(violations), diag_checks, horiz_checks)
