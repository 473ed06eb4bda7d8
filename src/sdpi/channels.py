"""Channel models and mutual-information / MMSE evaluation.

Two channel families: row-stochastic discrete kernels and additive-noise
channels Y = sqrt(gamma) X + Z, where each noise family is a `NoiseModel`
subclass that owns the family's rules: its closed forms, its output entropy
`excess_entropy` and its TV contraction `eta_tv`.  Mutual information is
I(X;Y) = h(Y) - h(Z), the excess entropy of the input's atoms: Gaussian and
uniform noise take it from the mixture entropies of `core_prob`
(Gauss-Hermite quadrature, or exact for the piecewise-constant uniform output
density); other noise laws use trapezoid quadrature on a fine grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_prob import (_GH_ORDER, DiscretePMF, GridDensity, _gh_exponent_blocks,
                        char_fn, gauss_hermite, gaussian_mixture_entropy, mi_joint,
                        q_function, scan_max, simpson, uniform_mixture_entropy)
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
        m = np.zeros((size, size + 1))
        for i in range(size):
            m[i, i] = 1 - alpha
            m[i, size] = alpha
        return DMCKernel(m)

    @staticmethod
    def identity(size: int) -> "DMCKernel":
        return DMCKernel(np.eye(size))


class NoiseModel:
    """Additive noise law: one frozen subclass per family, built by the factories.

    Besides the methods below, a family has `m1` (sup of the density),
    `variance`, `support` (tails cut at density 1e-16), `sample(n, rng)` and
    `cf_decay()`, the CF decay profile (label, g, h, g1) with g1 on (0, 1]; a
    family whose |phi| is nonincreasing on [0, inf) takes g = `abs_cf`.
    The base `eta_tv` and `excess_entropy` hold for any law; a family
    overrides them where it has a closed form or needs another method.
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

    def to_grid(self, step: float = 0.005) -> GridDensity:
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
        """h(M + Z) - h(Z) for M ~ sum_k v_k delta_{mu_k}, one value per row of
        a 2-d v.

        Equal to sum_k v_k D(p_Z(. - mu_k) || p_Y), by the trapezoid rule on a
        0.002 grid over the support: k^2 density evaluations and a rows x grid
        output density at a time.
        """
        rows = np.atleast_2d(np.asarray(v, dtype=float))
        step = 0.002
        lo, hi = self.support()
        z = np.arange(math.floor(lo / step), math.ceil(hi / step) + 1) * step
        pz = np.asarray(self.density(z))
        mask = pz > 0
        total = np.zeros(len(rows))
        for k in range(len(mu)):
            # a zero-weight atom adds nothing, and p_Y may vanish on its shift
            live = rows[:, k] > 0
            py = np.zeros((np.count_nonzero(live), len(z)))
            for l in range(len(mu)):
                py += rows[live, l, None] * np.asarray(self.density(mu[k] + z - mu[l]))
            # p_Y >= v_k p_Z on the mask, so the ratio is finite
            ratio = np.zeros_like(py)
            ratio[:, mask] = pz[mask] * np.log(pz[mask] / py[:, mask])
            total[live] += rows[live, k] * np.trapezoid(ratio, dx=step, axis=1)
        return total if np.ndim(v) == 2 else float(total[0])


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise DomainError("sigma must be positive and finite")

    def _density(self, x):
        return np.exp(-0.5 * (x / self.sigma) ** 2) / (self.sigma * math.sqrt(2 * math.pi))

    @property
    def m1(self) -> float:
        return 1.0 / (self.sigma * math.sqrt(2 * math.pi))

    def variance(self) -> float:
        return self.sigma ** 2

    def _abs_cf(self, omega):
        return np.exp(-0.5 * (self.sigma * omega) ** 2)

    def support(self) -> tuple[float, float]:
        return (-9.0 * self.sigma, 9.0 * self.sigma)

    def _theta(self, d: float) -> float:
        # 1 - 2 Q(d / (2 sigma))
        from scipy.special import erf
        return float(erf(d / (2.0 * self.sigma * math.sqrt(2.0))))

    def eta_tv_complement(self, A: float) -> float:
        return 2.0 * q_function(A / self.sigma)

    def excess_entropy(self, mu: np.ndarray, v: np.ndarray):
        # in units of sigma: unit-variance components, h(Z) = log(2 pi e) / 2
        return gaussian_mixture_entropy(mu / self.sigma, v) \
            - 0.5 * math.log(2.0 * math.pi * math.e)

    def sample(self, n: int, rng) -> np.ndarray:
        return self.sigma * rng.standard_normal(n)

    def cf_decay(self):
        return ("gaussian", self.abs_cf, lambda T: 0.0,
                lambda u: math.sqrt(-math.log(u)) / self.sigma if u < 1.0 else 0.0)


@dataclass(frozen=True)
class UniformNoise(NoiseModel):
    a: float
    b: float
    _grid_pad = 2  # keeps the jumps of the density inside the grid

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise DomainError("need finite a < b")

    def _density(self, x):
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    @property
    def m1(self) -> float:
        return 1.0 / (self.b - self.a)

    def variance(self) -> float:
        return (self.b - self.a) ** 2 / 12.0

    def _abs_cf(self, omega):
        u = 0.5 * (self.b - self.a) * omega
        return np.abs(np.sinc(u / math.pi))

    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def _theta(self, d: float) -> float:
        return min(d / (self.b - self.a), 1.0)

    def eta_tv_complement(self, A: float) -> float:
        return max(1.0 - 2.0 * A / (self.b - self.a), 0.0)

    def excess_entropy(self, mu: np.ndarray, v: np.ndarray):
        return uniform_mixture_entropy(mu, v, self.a, self.b) - math.log(self.b - self.a)

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

    def variance(self) -> float:
        return 2.0 * self.b ** 2

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
class GridNoise(NoiseModel):
    grid_density: GridDensity

    def __post_init__(self):
        if not isinstance(self.grid_density, GridDensity):
            raise DomainError("grid noise requires a GridDensity")

    def _density(self, x):
        g = self.grid_density
        return np.interp(x, g.grid, g.values, left=0.0, right=0.0)

    @property
    def m1(self) -> float:
        return self.grid_density.max_density()

    def variance(self) -> float:
        return self.grid_density.var()

    def _abs_cf(self, omega):
        return np.abs(char_fn(self.grid_density, omega))

    def support(self) -> tuple[float, float]:
        return (self.grid_density.x_min, self.grid_density.x_max)

    def to_grid(self, step: float = 0.005) -> GridDensity:
        return self.grid_density

    def _theta(self, d: float) -> float:
        # |f - f_d| on the grid, plus the mass of f_d pushed past x_max
        g = self.grid_density
        if d >= g.x_max - g.x_min:
            return 1.0
        x, c = g.grid, g.cdf_values()
        shifted = np.interp(x, x + d, g.values, left=0.0, right=0.0)
        inside = np.trapezoid(np.abs(g.values - shifted), dx=g.step)
        beyond = c[-1] - np.interp(g.x_max - d, x, c)
        return min(float(0.5 * (inside + beyond)), 1.0)

    def eta_tv(self, A: float) -> float:
        """theta of a grid law need not be monotone: a 512-point scan of
        [0, 2A], refined by `scan_max`'s 17-point zoom."""
        return scan_max(lambda ds: np.array([self.theta(d) for d in ds]),
                        0.0, 2.0 * A, 512, 1e-8 * max(1.0, A))

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

def mi_dmc(input: DiscretePMF | np.ndarray, K: DMCKernel) -> float:
    """I(X;Y) for a discrete input through a row-stochastic kernel."""
    w = input.weights if isinstance(input, DiscretePMF) else np.asarray(input, dtype=float)
    if len(w) != K.matrix.shape[0]:
        raise ShapeError("input length does not match the kernel rows")
    return mi_joint(w[:, None] * K.matrix)


# the capacity solver stops once its bracket is this narrow, or after this many
# Newton steps; the best bracket seen is a certificate either way
_CAPACITY_GAP = 1e-12
_CAPACITY_STEPS = 100


class CapacityBracket(NamedTuple):
    """lower <= C <= upper, found in `steps` Newton steps."""

    lower: float
    upper: float
    steps: int


def dmc_capacity(K: DMCKernel) -> CapacityBracket:
    """Certified capacity bracket [I(p), max_x D(K_x || pK)].

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
    # both ends are bounds, so an upper below the lower is rounding
    return CapacityBracket(lower, max(upper, lower), steps)


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
# MMSE and the I-MMSE check
# ---------------------------------------------------------------------------

def normalize_input(input: DiscretePMF) -> DiscretePMF:
    """Shift and scale to mean 0, variance 1."""
    v = input.var()
    if not v > 0:
        raise DomainError("zero-variance input cannot be normalized")
    m = input.mean()
    return DiscretePMF((input.atoms - m) / math.sqrt(v), input.weights)


def lmmse(gamma: float) -> float:
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    return 1.0 / (1.0 + gamma)


def mmse_numeric(input: DiscretePMF, gamma: float) -> float:
    """E (X - E[X|Y_gamma])^2 for standard Gaussian noise, unit-variance X."""
    if not 0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    var = input.var()
    if gamma == 0.0:
        return var
    atoms, weights = input.atoms, input.weights
    keep = weights > 0
    atoms, weights = atoms[keep], weights[keep]
    logw = np.log(weights)
    _, gh_weights = gauss_hermite(_GH_ORDER)
    second = 0.0  # E (E[X|Y])^2
    for blk, E in _gh_exponent_blocks(math.sqrt(gamma) * atoms):
        z = logw + np.ascontiguousarray(E.transpose(1, 2, 0))  # (atom k, node j, component l)
        ez = np.exp(z - z.max(axis=2, keepdims=True))
        cond_mean = (ez @ atoms) / ez.sum(axis=2)  # E[X | Y = mu_k + s_j]
        second += float(weights[blk] @ (cond_mean ** 2 @ gh_weights))
    ex2 = float(weights @ atoms ** 2)
    return max(ex2 - second, 0.0)


def immse_gap_check(input: DiscretePMF, gamma: float) -> tuple[float, float]:
    """Capacity gap two ways: direct and via the I-MMSE integral, by the
    composite Simpson rule on 128 intervals."""
    gap_direct = awgn_capacity(gamma) - mi_additive(input, NoiseModel.gaussian(), gamma)
    gaps = [1.0 / (1.0 + s) - mmse_numeric(input, s) for s in np.linspace(0.0, gamma, 129)]
    gap_integral = 0.5 * simpson(np.array(gaps), gamma / 128)
    return float(gap_direct), float(gap_integral)
