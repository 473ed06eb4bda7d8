"""Channel models and mutual-information / MMSE evaluation.

Two channel families: row-stochastic discrete kernels and additive-noise
channels Y = sqrt(gamma) X + Z, where each noise family is a `NoiseModel`
subclass that owns the family's rules: its closed forms, its output entropy
`excess_entropy` and its TV contraction `eta_tv`.  Mutual information is
I(X;Y) = h(Y) - h(Z), the excess entropy of the input's atoms, by one piece
rule: -int p log p over pieces where p_Y is smooth, less h(Z) on the same
pieces; by Gauss-Legendre for Gaussian and Laplace noise, on the nodes
`mmse_numeric` reads, and exactly by `_LinearNoise` for grid and uniform noise.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core_prob import (DiscretePMF, GridDensity, ThresholdReport, char_fn, erf,
                        gauss_legendre, mi_joint, q_function, xlogx)
from .errors import DomainError, ProfileFailureError, ShapeError


@dataclass(frozen=True)
class DMCKernel:
    """Row-stochastic |X| x |Y| matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ShapeError("kernel must be a 2-d matrix")
        if m.size == 0:
            raise DomainError("kernel matrix is empty")
        if not np.all(m >= 0):
            raise DomainError("kernel entries must be nonnegative")
        if not np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12):
            raise DomainError("every kernel row must sum to 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def bsc(delta: float) -> "DMCKernel":
        if not 0.0 <= delta <= 1.0:
            raise DomainError("crossover must lie in [0, 1]")
        return DMCKernel(np.array([[1 - delta, delta], [delta, 1 - delta]]))

    @staticmethod
    def erasure(alpha: float, size: int = 2) -> "DMCKernel":
        if not 0.0 <= alpha <= 1.0:
            raise DomainError("erasure probability must lie in [0, 1]")
        size = _alphabet_size(size)
        return DMCKernel(np.column_stack([(1 - alpha) * np.eye(size), np.full(size, alpha)]))

    @staticmethod
    def identity(size: int) -> "DMCKernel":
        return DMCKernel(np.eye(_alphabet_size(size)))


def _alphabet_size(size) -> int:
    """size as an int, for an integer (numpy's too) of at least 1."""
    if not (isinstance(size, numbers.Integral) and size >= 1):
        raise DomainError(f"alphabet size must be an integer >= 1, not {size!r}")
    return int(size)


# elements of a `_copies` or `_pieces` chunk (a memory bound: 2 MiB an array, and a
# block's temporaries peak at 15.6 MiB by tracemalloc for 400 six-atom inputs of 5 rows
# on tests/golden/noise.csv's law, 13.2 MiB for Gaussian noise), Gauss-Legendre nodes
# per piece; GridNoise.eta_tv stops within _ETA_TOL of the sup or after _ETA_EVALS thetas
_SHIFT_BLOCK, _GL_NODES, _ETA_TOL, _ETA_EVALS = 1 << 18, 32, 1e-10, 1000


def _blocks(n_batch: int, n_atoms: int, n_nodes: int):
    """Yield (batch slice, node slices) over a batch of inputs of n_atoms atoms and
    n_nodes nodes each, at most max(_SHIFT_BLOCK, n_atoms) copy values a block.  The
    node slices do not depend on n_batch, so neither do an input's bits."""
    size = max(1, _SHIFT_BLOCK // n_atoms)
    step = max(1, _SHIFT_BLOCK // (n_atoms * min(size, n_nodes)))
    nodes = [slice(j, j + size) for j in range(0, n_nodes, size)]
    for b in range(0, n_batch, step):
        yield slice(b, b + step), nodes


class NoiseModel:
    """Additive noise law: one frozen subclass per family, built by the factories.

    Besides the methods below, a family has `m1` (sup of the density),
    `support` (tails cut at density 1e-16), `sample(n, rng)` and `cf_decay()`,
    the CF decay profile (label, g, h, g1) with g1 on (0, 1]; a family whose
    |phi| is nonincreasing on [0, inf) takes g = `abs_cf`.
    The base `eta_tv` holds for any law; a family overrides it where it has a
    closed form or needs another method.  `excess_entropy` is one piece rule:
    `_LinearNoise` (grid, uniform) overrides only its `_plogp`.
    """

    # grid cells added beyond the support on each side by `to_grid`
    _grid_pad = 0

    @staticmethod
    def gaussian(sigma: float = 1.0) -> "GaussianNoise":
        return GaussianNoise(float(sigma))

    @staticmethod
    def uniform(a: float = 0.0, b: float = 1.0) -> "UniformNoise":
        return UniformNoise(float(a), float(b))

    @staticmethod
    def laplace(b: float = 1.0) -> "LaplaceNoise":
        return LaplaceNoise(float(b))

    @staticmethod
    def from_grid(density: GridDensity) -> "GridNoise":
        return GridNoise(density)

    def density(self, x) -> np.ndarray:
        out = self._density(np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def abs_cf(self, omega) -> np.ndarray:
        """|phi_Z(omega)|, closed form where available."""
        out = self._abs_cf(np.asarray(omega, dtype=float))
        return out if np.ndim(out) else float(out)

    def to_grid(self, step: float) -> GridDensity:
        """The law, renormalized, on the multiples of step that cover its support."""
        lo, hi = self.support()
        lo, hi = lo - self._grid_pad * step, hi + self._grid_pad * step
        return GridDensity.from_function(self.density, math.floor(lo / step) * step,
                                         math.ceil(hi / step) * step, step)

    def theta(self, delta: float) -> float:
        """TV distance between the noise and its delta-translate."""
        d = abs(float(delta))
        if math.isnan(d):
            raise DomainError("delta must be a number")
        return self._theta(d)

    def eta_tv(self, A: float) -> float:
        """sup of theta(delta) over |delta| <= 2A, for A > 0: theta(2A), as
        theta is nondecreasing in |delta| for a unimodal law."""
        return self.theta(2.0 * A)

    def eta_tv_complement(self, A: float) -> float:
        """1 - eta_tv(A); the closed-form families avoid its cancellation."""
        return 1.0 - self.eta_tv(A)

    def excess_entropy(self, mu: np.ndarray, v: np.ndarray):
        """h(M + Z) - h(Z) for M ~ sum_k v_k delta_{mu_k}: -int p log p over the
        pieces of `_plogp`, less h(Z) as the first atom's copy alone on them, so one
        atom gives exactly 0.  Atoms are measured from the first.

        A 1-d mu is one input: a float for a 1-d v, one value per row of a 2-d v.
        A 2-d mu (batch, atoms) is a batch of inputs with v (batch, rows, atoms):
        one value per row of each input.  Each value is the same bit for bit
        whatever the other rows and inputs in the call."""
        mu, v = np.asarray(mu, dtype=float), np.asarray(v, dtype=float)
        batch, rows = (mu, v) if mu.ndim == 2 else (mu[None], np.atleast_2d(v)[None])
        copy = np.broadcast_to(np.eye(1, batch.shape[1]), (len(batch), 1, batch.shape[1]))
        rows = np.concatenate([copy, rows], axis=1)
        total = np.empty(rows.shape[:2])
        blocks = self._plogp(batch - batch[:, :1], rows)
        for b, group in itertools.groupby(blocks, key=lambda block: block[0]):
            # the node blocks' sums added pairwise: a running sum over many short
            # blocks loses digits
            total[b] = np.stack([np.einsum("brj,bj->br", plogp, w) for _, w, plogp in group],
                                axis=-1).sum(axis=-1)
        e = total[:, :1] - total[:, 1:]
        if mu.ndim == 2:
            return e
        return e[0] if v.ndim == 2 else float(e[0, 0])

    def _plogp(self, mu: np.ndarray, rows: np.ndarray):
        """Yield (batch slice, w, p log p) on the blocks of `_copies`, p[b, r] =
        rows[b, r] @ D[b] by einsum, which (unlike BLAS) sums each entry in one
        order whatever the block's shape, with `xlogx`'s 0 log 0 = 0."""
        for b, w, D in self._copies(mu):
            yield b, w, xlogx(np.einsum("brk,bkj->brj", rows[b], D))

    def _copies(self, mu: np.ndarray):
        """Yield (batch slice, w, D) for a batch of inputs mu (batch, atoms), D[b, k, j]
        = p_Z(y[b, j] - mu[b, k]), in the blocks of `_blocks`, over the nodes y and
        weights w of _GL_NODES-point Gauss-Legendre rules on the pieces between an
        input's sorted atoms, their midpoints and each atom plus either end of
        `support()`.  Each copy is smooth on a piece, and log p_Y's complex
        singularities, about pi/gap off the axis near a gap's midpoint, sit near
        piece ends, not over a piece."""
        (lo, hi), (x, wx) = self.support(), gauss_legendre(_GL_NODES)
        for b, nodes in _blocks(*mu.shape, (4 * mu.shape[1] - 2) * _GL_NODES):
            s = np.sort(mu[b], axis=1)
            cuts = np.sort(np.concatenate([s, 0.5 * (s[:, 1:] + s[:, :-1]), s + lo, s + hi],
                                          axis=1), axis=1)
            half = 0.5 * (cuts[:, 1:, None] - cuts[:, :-1, None])
            y = ((cuts[:, :-1, None] + half) + half * x).reshape(len(s), -1)
            w = (half * wx).reshape(len(s), -1)
            for j in nodes:
                yield b, w[:, j], self.density(y[:, None, j] - mu[b, :, None])


class _LinearNoise(NoiseModel):
    """A density linear between the nodes (x, f) = `_nodes()`, 0 outside [x_0, x_n]."""

    def _density(self, x):
        return np.interp(x, *self._nodes(), left=0.0, right=0.0)

    @property
    def m1(self) -> float:
        return float(self._nodes()[1].max())

    def _pieces(self, mu: np.ndarray, rows: np.ndarray):
        """Yield (batch slice, h, p0, p1) for a batch of inputs mu (batch, atoms), in
        the blocks of `_blocks`, over the pieces between an input's sorted breakpoints
        mu_k + x_i: their widths, and the end values of each of its rows' mixture of
        the copies f(y - mu_k).  A copy, linear on a piece, is extrapolated to its
        ends from its quarter points, u(0) = 1.5 u(1/4) - 0.5 u(3/4), so a jump stays
        on its own side."""
        x, f = self._nodes()
        for b, pieces in _blocks(*mu.shape, mu.shape[1] * len(x) - 1):
            y = np.sort((mu[b, :, None] + x).reshape(len(mu[b]), -1), axis=1)
            for j in pieces:
                ends = y[:, j.start:j.stop + 1]
                h = np.diff(ends, axis=1)
                q = ends[:, :-1] + 0.25 * h
                u1 = np.interp(q[:, None] - mu[b, :, None], x, f, left=0.0, right=0.0)
                q += 0.5 * h
                u3 = np.interp(q[:, None] - mu[b, :, None], x, f, left=0.0, right=0.0)
                d = u3 - u1
                d *= 0.5
                u1 -= d
                u3 += d
                # in place, freed before the yield: a block holds a few arrays at a time
                del q, d
                p0 = np.einsum("brk,bkj->brj", rows[b], u1)
                del u1
                p1 = np.einsum("brk,bkj->brj", rows[b], u3)
                del u3
                yield b, h, p0, p1

    def _plogp(self, mu: np.ndarray, rows: np.ndarray):
        """Exactly: yield (batch slice, h, mean of p log p) over `_pieces`.  On a piece
        from lo to hi the mean is (G(hi) - G(lo))/(hi - lo), G(u) = u^2 log(u)/2 - u^2/4,
        or m (log(hi) - 1/2) + lo log1p(t)/(2t), t = (hi - lo)/lo, m the mean of p, in
        which no two terms cancel, even as hi -> lo and log1p(t)/t -> 1."""
        for b, h, p0, p1 in self._pieces(mu, rows):
            # hi and t overwrite the block's p0 and p1, which `_pieces` does not reuse
            lo = np.maximum(np.minimum(p0, p1), 0.0)
            hi = np.maximum(np.maximum(p0, p1, out=p0), 0.0, out=p0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # inf where lo = 0 or lo < 1e-308 hi: its term is then 0
                t = np.divide(np.subtract(hi, lo, out=p1), lo, out=p1)
                tail = np.where(t < np.inf, 0.5 * lo * np.where(t > 0.0, np.log1p(t) / t, 1.0), 0.0)
                del t, p1
                mean = np.where(hi > 0.0, 0.5 * (lo + hi) * (np.log(hi) - 0.5) + tail, 0.0)
            del lo, hi, p0, tail
            yield b, h, mean


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise DomainError("sigma must be positive and finite")

    def _density(self, x):
        """exp(-(x/sigma)^2/2)/(sigma sqrt(2 pi)) on one temporary, argument
        untouched: the closed form's operations in its order, so its bits."""
        u = np.divide(x, self.sigma, out=np.empty_like(x))
        np.square(u, out=u)
        u *= -0.5
        np.exp(u, out=u)
        u /= self.sigma * math.sqrt(2 * math.pi)
        return u

    @property
    def m1(self) -> float:
        return 1.0 / (self.sigma * math.sqrt(2 * math.pi))

    def _abs_cf(self, omega):
        return np.exp(-0.5 * (self.sigma * omega) ** 2)

    def support(self) -> tuple[float, float]:
        return (-9.0 * self.sigma, 9.0 * self.sigma)

    def _theta(self, d: float) -> float:
        # 1 - 2 Q(d / (2 sigma))
        return erf(d / (2.0 * self.sigma * math.sqrt(2.0)))

    def eta_tv_complement(self, A: float) -> float:
        return 2.0 * q_function(A / self.sigma)

    def sample(self, n: int, rng) -> np.ndarray:
        return self.sigma * rng.standard_normal(n)

    def cf_decay(self):
        return ("gaussian", self.abs_cf, lambda T: 0.0,
                lambda u: math.sqrt(-math.log(u)) / self.sigma if u < 1.0 else 0.0)


@dataclass(frozen=True)
class UniformNoise(_LinearNoise):
    a: float
    b: float
    _grid_pad = 2  # keeps the jumps of the density inside the grid

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise DomainError("need finite a < b")

    def _abs_cf(self, omega):
        u = 0.5 * (self.b - self.a) * omega
        return np.abs(np.sinc(u / math.pi))

    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def _theta(self, d: float) -> float:
        return min(d / (self.b - self.a), 1.0)

    def eta_tv_complement(self, A: float) -> float:
        return max(1.0 - 2.0 * A / (self.b - self.a), 0.0)

    def _nodes(self):
        return np.array([self.a, self.b]), np.full(2, 1.0 / (self.b - self.a))

    def sample(self, n: int, rng) -> np.ndarray:
        return rng.uniform(self.a, self.b, n)

    def cf_decay(self):
        w = self.b - self.a
        if w < 1.0 - 1e-12:
            raise ProfileFailureError(
                "closed-form uniform profile certified only for width >= 1")
        return ("uniform",
                lambda T: (w * T) ** -1.5 if T > 0 else 1.0,
                math.sqrt,
                lambda u: u ** (-1.0 / 3.0) / w)


@dataclass(frozen=True)
class LaplaceNoise(NoiseModel):
    b: float

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise DomainError("scale must be positive and finite")

    def _density(self, x):
        return np.exp(-np.abs(x) / self.b) / (2.0 * self.b)

    @property
    def m1(self) -> float:
        return 1.0 / (2.0 * self.b)

    def _abs_cf(self, omega):
        return 1.0 / (1.0 + (self.b * omega) ** 2)

    def support(self) -> tuple[float, float]:
        return (-38.0 * self.b, 38.0 * self.b)

    def _theta(self, d: float) -> float:
        return 1.0 - math.exp(-d / (2.0 * self.b))

    def eta_tv_complement(self, A: float) -> float:
        return math.exp(-A / self.b)

    def sample(self, n: int, rng) -> np.ndarray:
        return rng.laplace(0.0, self.b, n)

    def cf_decay(self):
        return ("laplace", self.abs_cf, lambda T: 0.0,
                lambda u: math.sqrt(max(u ** -0.5 - 1.0, 0.0)) / self.b)


# hashed by identity: the density array has no value hash
@dataclass(frozen=True, eq=False)
class GridNoise(_LinearNoise):
    grid_density: GridDensity

    def __post_init__(self):
        if not isinstance(self.grid_density, GridDensity):
            raise DomainError("grid noise requires a GridDensity")

    def _abs_cf(self, omega):
        return np.abs(char_fn(self.grid_density, omega))

    def support(self) -> tuple[float, float]:
        return (self.grid_density.x_min, self.grid_density.x_max)

    def _nodes(self):
        return self.grid_density.grid, self.grid_density.values

    def _theta(self, d: float) -> float:
        # (1/2) int |f - f_d| by pieces: h(|a| + |b|)/2, or h(a^2 + b^2)/(2(|a| + |b|)) across 0
        if d >= self.grid_density.x_max - self.grid_density.x_min:
            return 1.0
        total = 0.0
        for _, h, p0, p1 in self._pieces(np.array([[0.0, d]]), np.array([[[1.0, -1.0]]])):
            a, b = p0[0, 0], p1[0, 0]
            s, across = np.abs(a) + np.abs(b), a * b < 0.0
            total += h[0] @ np.where(across, (a * a + b * b) / np.where(across, s, 1.0), s)
        return min(0.25 * float(total), 1.0)

    def eta_tv(self, A: float) -> float:
        """An upper bound on sup theta over [0, 2A] (1 once 2A reaches the span): theta
        is V/2-Lipschitz, V = sum |f_{i+1} - f_i| + f_0 + f_n, so on a cell [a, b] it is at
        most (theta(a) + theta(b))/2 + (b - a) V/4 (Shubert, SIAM J. Numer. Anal. 9(3), 1972).
        The cell of the largest bound is halved until that bound, returned capped at 1,
        is within _ETA_TOL of the best theta, or for _ETA_EVALS thetas."""
        g = self.grid_density
        if A >= 0.5 * (g.x_max - g.x_min):
            return 1.0
        quarter_v = 0.25 * float(np.abs(np.diff(g.values)).sum() + g.values[0] + g.values[-1])
        best = self._theta(2.0 * A)
        cells = [(-0.5 * best - 2.0 * A * quarter_v, 0.0, 2.0 * A, 0.0, best)]
        for _ in range(_ETA_EVALS):
            bound, a, b, ta, tb = cells[0]
            if -bound <= best + _ETA_TOL or best >= 1.0:
                break
            m = 0.5 * (a + b)
            best = max(best, tm := self._theta(m))
            heapq.heapreplace(cells, (-0.5 * (ta + tm) - (m - a) * quarter_v, a, m, ta, tm))
            heapq.heappush(cells, (-0.5 * (tm + tb) - (b - m) * quarter_v, m, b, tm, tb))
        return min(max(-cells[0][0], best), 1.0)

    def sample(self, n: int, rng) -> np.ndarray:
        return self.grid_density.quantile(rng.uniform(0.0, 1.0, n))

    def cf_decay(self):
        """No closed-form floor g; g1(u) is the largest dyadic T with the
        measure of {|phi_Z| <= sqrt(u), |w| <= T} at most sqrt(T)."""
        step = 1e-2
        t_candidates = [2.0 ** k for k in range(-6, 8)]
        omegas = np.arange(0.0, t_candidates[-1] + step, step)
        cf = self.abs_cf(omegas)

        def g1(u: float) -> float:
            root_u = math.sqrt(u)
            below = cf <= root_u
            cum = np.concatenate([[0], np.cumsum(below)])
            best = None
            failed_T = None
            for T in t_candidates:
                k = int(T / step)
                measure = 2.0 * step * cum[min(k, len(cum) - 1)]
                if measure <= math.sqrt(T):
                    best = T
                elif best is not None:
                    failed_T = T
                    break
            if best is None:
                raise ProfileFailureError(f"no admissible T for u = {u}")
            if failed_T is not None and u < 1e-6:
                # distinguish a hard CF zero-interval from a mere threshold issue
                k = int(failed_T / step)
                hard_zero = 2.0 * step * np.count_nonzero(cf[:k + 1] <= 1e-10)
                if hard_zero > math.sqrt(failed_T):
                    raise ProfileFailureError(
                        "characteristic function vanishes on an interval; "
                        "no deconvolution inequality is possible")
            return best

        return ("grid", lambda T: None, math.sqrt, g1)


# ---------------------------------------------------------------------------
# discrete channels
# ---------------------------------------------------------------------------

# the capacity solver stops once its bracket is this narrow, or after this many
# Newton steps; the best bracket seen is a certificate either way
_CAPACITY_GAP = 1e-12
_CAPACITY_STEPS = 100


def dmc_capacity(K: DMCKernel) -> ThresholdReport:
    """Certified capacity bracket [I(p), max_x D(K_x || pK)], as the record
    (lower end, Newton steps, bracket).

    Every input pmf p gives I(p) <= C <= max_x D(K_x || pK) (Arimoto 1972;
    Blahut 1972), so the bracket is sound whatever method found p.  p follows
    the log-barrier path of max I(p) + mu sum_x log p_x over the simplex: each
    Newton step solves the (|X|+1)-dimensional KKT system with Hessian
    -K diag(1/q) K^T - mu diag(1/p^2), halves until p stays positive, and a
    full step cuts mu tenfold.  The solver stops once upper - lower <= 1e-12,
    or after 100 steps with the best bounds seen.
    """
    m = K.matrix[:, K.matrix.sum(axis=0) > 0]
    nx = len(m)
    # log 1 = 0 stands in for log 0: the zero entries of m then add nothing
    logm = np.log(np.where(m > 0, m, 1.0))
    p, mu = np.full(nx, 1.0 / nx), 1e-2
    lower, upper = 0.0, math.inf
    kkt, rhs = np.ones((nx + 1, nx + 1)), np.zeros(nx + 1)
    kkt[nx, nx] = 0.0
    for steps in range(_CAPACITY_STEPS + 1):
        q = p @ m
        d = (m * (logm - np.log(q))).sum(axis=1)  # D(K_x || q)
        lower, upper = max(lower, mi_joint(p[:, None] * m)), min(upper, float(d.max()))
        if upper - lower <= _CAPACITY_GAP or steps == _CAPACITY_STEPS:
            break
        # the gradient of I is d - 1; the constant joins the multiplier of sum p = 1
        kkt[:nx, :nx] = -(m / q) @ m.T - np.diag(mu / p ** 2)
        rhs[:nx] = -(d + mu / p)
        dp = np.linalg.solve(kkt, rhs)[:nx]
        s = 1.0
        while np.any(p + s * dp <= 0):
            s *= 0.5
        if s == 1.0:
            mu *= 0.1
        p = p + s * dp
        p /= p.sum()
    # crossed ends are rounding: drop the lower end, as the curve is capped at it
    lower = min(lower, upper)
    return ThresholdReport(lower, steps, (lower, upper))


# ---------------------------------------------------------------------------
# additive-noise mutual information
# ---------------------------------------------------------------------------

def mi_additive(input: DiscretePMF, noise: NoiseModel, gamma: float) -> float:
    """I(X; sqrt(gamma) X + Z) in nats."""
    if not 0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    atoms, weights = input.atoms, input.weights
    if len(atoms) == 1 or gamma == 0.0:
        return 0.0
    keep = weights > 0
    return max(noise.excess_entropy(math.sqrt(gamma) * atoms[keep], weights[keep]), 0.0)


def awgn_capacity(gamma: float) -> float:
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    return 0.5 * math.log1p(gamma)


# ---------------------------------------------------------------------------
# MMSE
# ---------------------------------------------------------------------------

def lmmse(gamma: float) -> float:
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    return 1.0 / (1.0 + gamma)


def mmse_numeric(input: DiscretePMF, gamma: float) -> float:
    """E (X - E[X|Y_gamma])^2 for standard Gaussian noise, unit-variance X."""
    if not 0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    if gamma == 0.0:
        return input.var()
    keep = input.weights > 0
    atoms, weights = input.atoms[keep], input.weights[keep]
    second = 0.0  # E (E[X|Y])^2 = int num^2 / p_Y, num = sum_k w_k x_k p_Z(y - mu_k)
    for _, (w,), (D,) in NoiseModel.gaussian()._copies(math.sqrt(gamma) * atoms[None]):
        num, den = (weights * atoms) @ D, weights @ D
        # where p_Y underflows, so does num^2 / p_Y
        second += float(w @ np.divide(num * num, den, out=np.zeros_like(num), where=den > 0))
    return max(float(weights @ atoms ** 2) - second, 0.0)
