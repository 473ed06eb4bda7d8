"""Channel models and mutual-information / MMSE evaluation.

Two channel families: row-stochastic discrete kernels and additive-noise
channels Y = sqrt(gamma) X + Z.  Gaussian-noise integrals run on a 127-node
Gauss-Hermite rule with log-sum-exp mixtures; uniform noise is handled
exactly through its piecewise-constant output density; other noise laws fall
back to trapezoid quadrature on a fine grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core_prob import (DiscretePMF, GridDensity, char_fn, mi_joint,
                        uniform_mixture_entropy)
from .errors import DomainError, ShapeError

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(127)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DMCKernel:
    """Row-stochastic |X| x |Y| matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ShapeError("kernel must be a 2-d matrix")
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


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise law: analytic family or a grid-backed density."""

    kind: str
    params: tuple = ()
    grid_density: GridDensity | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "laplace", "grid"):
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if self.kind == "grid" and self.grid_density is None:
            raise DomainError("grid noise requires a GridDensity")

    @staticmethod
    def gaussian(sigma: float = 1.0) -> "NoiseModel":
        if not 0 < sigma < math.inf:
            raise DomainError("sigma must be positive and finite")
        return NoiseModel("gaussian", (float(sigma),))

    @staticmethod
    def uniform(a: float = 0.0, b: float = 1.0) -> "NoiseModel":
        if not -math.inf < a < b < math.inf:
            raise DomainError("need finite a < b")
        return NoiseModel("uniform", (float(a), float(b)))

    @staticmethod
    def laplace(b: float = 1.0) -> "NoiseModel":
        if not 0 < b < math.inf:
            raise DomainError("scale must be positive and finite")
        return NoiseModel("laplace", (float(b),))

    @staticmethod
    def from_grid(density: GridDensity) -> "NoiseModel":
        return NoiseModel("grid", (), density)

    # -- density and friends -------------------------------------------

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            s, = self.params
            out = np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2 * math.pi))
        elif self.kind == "uniform":
            a, b = self.params
            out = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
        elif self.kind == "laplace":
            b, = self.params
            out = np.exp(-np.abs(x) / b) / (2.0 * b)
        else:
            g = self.grid_density
            out = np.interp(x, g.grid, g.values, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    @property
    def m1(self) -> float:
        """Sup of the noise density."""
        if self.kind == "gaussian":
            return 1.0 / (self.params[0] * math.sqrt(2 * math.pi))
        if self.kind == "uniform":
            a, b = self.params
            return 1.0 / (b - a)
        if self.kind == "laplace":
            return 1.0 / (2.0 * self.params[0])
        return self.grid_density.max_density()

    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.params[0] ** 2
        if self.kind == "uniform":
            a, b = self.params
            return (b - a) ** 2 / 12.0
        if self.kind == "laplace":
            return 2.0 * self.params[0] ** 2
        return self.grid_density.var()

    def mean(self) -> float:
        if self.kind == "gaussian":
            return 0.0
        if self.kind == "uniform":
            a, b = self.params
            return 0.5 * (a + b)
        if self.kind == "laplace":
            return 0.0
        return self.grid_density.mean()

    def abs_cf(self, omega) -> np.ndarray:
        """|phi_Z(omega)|, closed form where available."""
        omega = np.asarray(omega, dtype=float)
        if self.kind == "gaussian":
            s, = self.params
            out = np.exp(-0.5 * (s * omega) ** 2)
        elif self.kind == "uniform":
            a, b = self.params
            u = 0.5 * (b - a) * omega
            out = np.abs(np.sinc(u / math.pi))
        elif self.kind == "laplace":
            b, = self.params
            out = 1.0 / (1.0 + (b * omega) ** 2)
        else:
            out = np.abs(char_fn(self.grid_density, omega))
        return out if np.ndim(out) else float(out)

    def support(self) -> tuple[float, float]:
        """Effective support interval (tails cut at density 1e-16)."""
        if self.kind == "gaussian":
            s, = self.params
            return (-9.0 * s, 9.0 * s)
        if self.kind == "uniform":
            return self.params
        if self.kind == "laplace":
            b, = self.params
            return (-38.0 * b, 38.0 * b)
        return (self.grid_density.x_min, self.grid_density.x_max)

    def to_grid(self, step: float = 0.005) -> GridDensity:
        if self.kind == "grid":
            return self.grid_density
        lo, hi = self.support()
        if self.kind == "uniform":
            # keep the jump inside the grid
            lo, hi = lo - 2 * step, hi + 2 * step
        return GridDensity.from_function(self.density, math.floor(lo / step) * step,
                                         math.ceil(hi / step) * step, step)

    def theta(self, delta: float) -> float:
        """TV distance between the noise and its delta-translate."""
        d = abs(float(delta))
        if d == 0.0:
            return 0.0
        if self.kind == "gaussian":
            from scipy.special import erf
            s, = self.params
            # 1 - 2 Q(d / (2 sigma))
            return float(erf(d / (2.0 * s * math.sqrt(2.0))))
        if self.kind == "uniform":
            a, b = self.params
            return min(d / (b - a), 1.0)
        if self.kind == "laplace":
            b, = self.params
            return 1.0 - math.exp(-d / (2.0 * b))
        g = self.grid_density
        shifted = np.interp(g.grid, g.grid + d, g.values, left=0.0, right=0.0)
        return float(0.5 * np.trapezoid(np.abs(g.values - shifted), dx=g.step))


@dataclass(frozen=True)
class AdditiveChannel:
    """Y = sqrt(gamma) X + Z."""

    noise: NoiseModel
    gamma: float

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise DomainError("gamma must be nonnegative and finite")


# ---------------------------------------------------------------------------
# discrete channels
# ---------------------------------------------------------------------------

def mi_dmc(input: DiscretePMF | np.ndarray, K: DMCKernel) -> float:
    """I(X;Y) for a discrete input through a row-stochastic kernel."""
    w = input.weights if isinstance(input, DiscretePMF) else np.asarray(input, dtype=float)
    if len(w) != K.matrix.shape[0]:
        raise ShapeError("input length does not match the kernel rows")
    return mi_joint(w[:, None] * K.matrix)


def dmc_capacity(K: DMCKernel, tol: float = 1e-10, max_iter: int = 5000) -> float:
    """Channel capacity by the Blahut-Arimoto iteration."""
    m = K.matrix
    nx = m.shape[0]
    p = np.full(nx, 1.0 / nx)
    logm = np.where(m > 0, np.log(np.where(m > 0, m, 1.0)), -np.inf)
    for _ in range(max_iter):
        q = p @ m
        logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), -np.inf)
        # D(row_x || q) for each x
        d = np.array([np.sum(m[i][m[i] > 0] * (logm[i][m[i] > 0] - logq[m[i] > 0]))
                      for i in range(nx)])
        new = p * np.exp(d - d.max())
        new /= new.sum()
        if np.abs(new - p).max() < tol:
            p = new
            break
        p = new
    return mi_dmc(p, K)


# ---------------------------------------------------------------------------
# additive-noise mutual information
# ---------------------------------------------------------------------------

def _log_mixture_gaussian(y: np.ndarray, mu: np.ndarray, logw: np.ndarray) -> np.ndarray:
    """log p_Y(y) for a Gaussian mixture with unit variance components."""
    z = logw[None, :] - 0.5 * (y[:, None] - mu[None, :]) ** 2
    return logsumexp(z, axis=1) - _LOG_SQRT_2PI


def _mi_gaussian_noise(atoms: np.ndarray, weights: np.ndarray, gamma: float,
                       sigma: float) -> float:
    mu = math.sqrt(gamma) * atoms / sigma
    logw = np.log(weights)
    s = math.sqrt(2.0) * _GH_NODES
    total = 0.0
    for k in range(len(mu)):
        y = mu[k] + s
        log_pz = -0.5 * s * s - _LOG_SQRT_2PI
        integrand = log_pz - _log_mixture_gaussian(y, mu, logw)
        total += weights[k] * float((_GH_WEIGHTS / math.sqrt(math.pi)) @ integrand)
    return max(total, 0.0)


def _mi_uniform_noise(atoms: np.ndarray, weights: np.ndarray, gamma: float,
                      a: float, b: float) -> float:
    """Exact MI for uniform noise: output density is piecewise constant."""
    h_y = uniform_mixture_entropy(math.sqrt(gamma) * atoms, weights, a, b)
    return max(h_y - math.log(b - a), 0.0)


def _mi_generic_noise(atoms: np.ndarray, weights: np.ndarray, gamma: float,
                      noise: NoiseModel, step: float = 0.002) -> float:
    mu = math.sqrt(gamma) * atoms
    lo, hi = noise.support()
    z = np.arange(math.floor(lo / step), math.ceil(hi / step) + 1) * step
    pz = np.asarray(noise.density(z))
    total = 0.0
    for k in range(len(mu)):
        py = np.zeros_like(z)
        for l in range(len(mu)):
            py += weights[l] * np.asarray(noise.density(mu[k] + z - mu[l]))
        mask = pz > 0
        # p_Y >= w_k p_Z on the mask, so the ratio is finite
        ratio = np.zeros_like(z)
        ratio[mask] = pz[mask] * np.log(pz[mask] / py[mask])
        total += weights[k] * float(np.trapezoid(ratio, dx=step))
    return max(total, 0.0)


def mi_additive(input: DiscretePMF, ch: AdditiveChannel) -> float:
    """I(X; sqrt(gamma) X + Z) in nats."""
    atoms, weights = input.atoms, input.weights
    if len(atoms) == 1:
        return 0.0
    if ch.gamma == 0.0:
        return 0.0
    keep = weights > 0
    atoms, weights = atoms[keep], weights[keep]
    noise = ch.noise
    if noise.kind == "gaussian":
        return _mi_gaussian_noise(atoms, weights, ch.gamma, noise.params[0])
    if noise.kind == "uniform":
        return _mi_uniform_noise(atoms, weights, ch.gamma, *noise.params)
    return _mi_generic_noise(atoms, weights, ch.gamma, noise)


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
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    var = input.var()
    if gamma == 0.0:
        return var
    atoms, weights = input.atoms, input.weights
    keep = weights > 0
    atoms, weights = atoms[keep], weights[keep]
    mu = math.sqrt(gamma) * atoms
    logw = np.log(weights)
    s = math.sqrt(2.0) * _GH_NODES
    second = 0.0  # E (E[X|Y])^2
    for k in range(len(mu)):
        y = mu[k] + s
        z = logw[None, :] - 0.5 * (y[:, None] - mu[None, :]) ** 2
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        cond_mean = (ez @ atoms) / ez.sum(axis=1)
        second += weights[k] * float((_GH_WEIGHTS / math.sqrt(math.pi)) @ cond_mean ** 2)
    ex2 = float(weights @ atoms ** 2)
    return max(ex2 - second, 0.0)


def immse_gap_check(input: DiscretePMF, gamma: float) -> tuple[float, float]:
    """Capacity gap two ways: direct and via the I-MMSE integral."""
    ch = AdditiveChannel(NoiseModel.gaussian(), gamma)
    gap_direct = awgn_capacity(gamma) - mi_additive(input, ch)

    def f(s):
        return 1.0 / (1.0 + s) - mmse_numeric(input, s)

    n = 64  # composite Simpson, refined once
    prev = None
    for n in (64, 128):
        xs = np.linspace(0.0, gamma, n + 1)
        ys = np.array([f(s) for s in xs])
        h = gamma / n
        simpson = h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        if prev is not None and abs(simpson - prev) < 1e-6:
            break
        prev = simpson
    gap_integral = 0.5 * simpson
    return float(gap_direct), float(gap_integral)
