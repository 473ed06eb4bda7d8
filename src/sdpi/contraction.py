"""Contraction coefficients and the threshold solvers they feed.

theta(delta) is the TV distance between the noise law and its translate;
eta_tv(A) is its sup over shifts |delta| <= 2A, or for grid noise an upper
bound on it, from each noise family's `eta_tv` and `eta_tv_complement`.  For
additive noise the KL contraction coefficient is never computed: every
consumer substitutes the TV upper bound, which is sound for all the bounds
built on top.  For a discrete kernel `eta_kl_dmc` brackets eta_KL itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channels import DMCKernel, NoiseModel
from .core_prob import ThresholdReport, bisect, bisect_up
from .errors import DomainError, NoSolutionError

_BISECT_TOL = 1e-9
_ALPHA_REL_TOL = 1e-10


def eta_tv_amplitude(noise: NoiseModel, A: float) -> float:
    """sup of theta(delta) over |delta| <= 2A, or an upper bound: the family's `eta_tv`."""
    if not A >= 0:
        raise DomainError("A must be nonnegative")
    return noise.eta_tv(A) if A > 0 else 0.0


def eta_tv_complement(noise: NoiseModel, A: float) -> float:
    """1 - eta_tv(A), computed without cancellation where the family can.

    For large amplitudes eta_tv is within a few ulps of 1 and the difference
    underflows in `1 - eta_tv_amplitude(...)`; the closed-form families give
    the complement directly.
    """
    if not A >= 0:
        raise DomainError("A must be nonnegative")
    return noise.eta_tv_complement(A) if A > 0 else 1.0


# eta_kl_dmc: cells a stage, stages at most, the relative width it stops at, the
# elements of one array of a block (a memory bound: 512 KiB an array), and the cap on
# a slope at an end of [0, 1]
_ETA_CELLS, _ETA_STAGES, _ETA_KL_RTOL, _PAIR_BLOCK, _SLOPE_CAP = 128, 8, 1e-7, 1 << 16, 1e150


@functools.lru_cache(maxsize=8)
def _row_pairs(nx: int) -> tuple[np.ndarray, np.ndarray]:
    """The row indices x < x' of every pair of inputs, read-only."""
    pairs = np.triu_indices(nx, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _binary_chi2(u, b, e, a) -> np.ndarray:
    """g and g' at a in (0, 1), stacked (2, pairs, points), for the rows u, b and
    e = b - u, shape (|Y|, pairs, 1): g(a) = a (1 - a) sum_y e_y^2 / L_y with
    L = (1 - a) u + a b.

    With r = e / L, g = a (1 - a) sum e r and g' = (1 - 2a) sum e r - a (1 - a) sum e r^2,
    as dr/da = -r^2; |r| <= max(1/a, 1/(1 - a)), so nothing overflows.  Where L
    underflows to 0 both entries are below 1e-307, and the term is dropped."""
    L = (1.0 - a) * u + a * b
    r = e / np.where(L > 0, L, np.inf)
    er, c = e * r, a * (1.0 - a)
    ger = er.sum(axis=0)
    return np.stack((c * ger, (1.0 - 2.0 * a) * ger - c * (er * r).sum(axis=0)))


def _cell_upper(at_lo: np.ndarray, at_hi: np.ndarray, width: np.ndarray) -> float:
    """Upper bound on concave functions over cells [lo, lo + width], from their
    (value, slope) at the ends, slope > 0 at lo and <= 0 at hi: the largest
    value where the two tangent lines, each above the function, meet."""
    (g_lo, s_lo), (g_hi, s_hi) = at_lo, at_hi
    t = np.minimum(np.maximum((g_hi - g_lo - s_hi * width) / (s_lo - s_hi), 0.0), width)
    return float((g_lo + s_lo * t).max())


def _pair_brackets(u: np.ndarray, b: np.ndarray) -> tuple[float, float, int]:
    """Bracket on the largest, over row pairs (u[:, i], b[:, i]), of sup_a g(a) on
    [0, 1], and the grid stages it took.

    g is concave: a term's second derivative is -2 u_y b_y e_y^2 / L_y^3.  Its
    ends are closed forms, g(0) = sum of b_y over u_y = 0 and
    g'(0) = sum of e_y^2 / u_y over u_y > 0 less g(0), likewise at 1, so the sup
    is g(0) where g'(0) <= 0 and g(1) where g'(1) >= 0.  Elsewhere it lies in a
    cell [lo, hi] with g'(lo) > 0 >= g'(hi), from [0, 1] on; a stage evaluates
    g at `_ETA_CELLS` - 1 points inside the cell, each a lower end, and keeps the
    subcell where g' first drops to 0 or below.  `_cell_upper` on the cell is
    the upper end.  A line through (lo, g(lo)) steeper than g'(lo) is still
    above g right of lo, so an end slope is capped at `_SLOPE_CAP`: g'(0) is
    +inf where u has a subnormal entry."""
    e = b - u
    g_lo, g_hi = np.where(u == 0, b, 0.0).sum(axis=0), np.where(b == 0, u, 0.0).sum(axis=0)
    with np.errstate(over="ignore"):  # an inf is capped below
        s_lo = (e * e / np.where(u > 0, u, np.inf)).sum(axis=0) - g_lo
        s_hi = g_hi - (e * e / np.where(b > 0, b, np.inf)).sum(axis=0)
    lower = max(g_lo.max(), g_hi.max())
    exact = max(np.where(s_lo <= 0, g_lo, 0.0).max(), np.where(s_hi >= 0, g_hi, 0.0).max())
    live = (s_lo > 0) & (s_hi < 0)
    if not live.any():
        return float(lower), float(exact), 0
    u, b, e = (v[:, live, None] for v in (u, b, e))
    at_lo = np.stack((g_lo[live], np.minimum(s_lo[live], _SLOPE_CAP)))
    at_hi = np.stack((g_hi[live], np.maximum(s_hi[live], -_SLOPE_CAP)))
    lo, hi = np.zeros(at_lo.shape[1]), np.ones(at_lo.shape[1])
    rows, frac = np.arange(len(lo)), np.arange(_ETA_CELLS + 1) / _ETA_CELLS
    upper = _cell_upper(at_lo, at_hi, hi - lo)
    stages = 0
    while stages < _ETA_STAGES and upper - lower > _ETA_KL_RTOL * upper:
        stages += 1
        width = (hi - lo)[:, None]
        gs = _binary_chi2(u, b, e, lo[:, None] + width * frac[1:-1])
        lower = max(lower, gs[0].max())
        gs = np.concatenate((at_lo[:, :, None], gs, at_hi[:, :, None]), axis=2)
        j = np.argmax(gs[1] <= 0, axis=1)
        at_lo, at_hi = gs[:, rows, j - 1], gs[:, rows, j]
        lo, hi = lo + width[:, 0] * frac[j - 1], lo + width[:, 0] * frac[j]
        upper = min(upper, _cell_upper(at_lo, at_hi, hi - lo))
    return float(lower), max(upper, float(exact)), stages


def eta_kl_dmc(K: DMCKernel) -> ThresholdReport:
    """Bracket [lower, upper] on eta_KL(K), the KL contraction coefficient of a
    kernel: `value` is the upper end, `iterations` the most grid stages a block
    of row pairs took.

    eta_KL(K) = sup_P eta_chi2(P, K), and inputs on two letters attain the sup
    (Ordentlich and Polyanskiy, "Strong data processing constant is achieved
    by binary inputs", IEEE T-IT 68(3), 2022).  On the letters x, x' with
    weights (1 - a, a), eta_chi2 is g(a) = a (1 - a) sum_y e_y^2 / L_y, where
    e = K_x' - K_x and L = (1 - a) K_x + a K_x'.  g is concave, and
    `_pair_brackets` brackets its sup for the pairs of rows in blocks of at most
    `_PAIR_BLOCK` grid values.  The bracket is within `_ETA_KL_RTOL` relative
    unless `_ETA_STAGES` stages fall short; the upper end is widened by 1e-12
    relative against the rounding of the sums, and capped at 1.  A kernel with
    one input has eta_KL = 0.
    """
    m = K.matrix
    first, second = _row_pairs(m.shape[0])
    block = max(1, _PAIR_BLOCK // (m.shape[1] * _ETA_CELLS))
    lower = upper = 0.0
    stages = 0
    for s in range(0, len(first), block):
        lo, up, st = _pair_brackets(m.T[:, first[s:s + block]], m.T[:, second[s:s + block]])
        lower, upper, stages = max(lower, lo), max(upper, up), max(stages, st)
    upper = min(upper * (1.0 + 1e-12), 1.0)
    return ThresholdReport(upper, stages, (min(lower, upper), upper))


@functools.lru_cache(maxsize=8)
def alpha_star(noise: NoiseModel) -> ThresholdReport:
    """Smallest alpha in (0, 1e6] with eta_tv(1/(2 alpha)) <= 1/3, to within
    2e-10 relative; cached, as a2_star asks for it at every t."""
    target, search_max = 1.0 / 3.0, 1e6

    def ok(alpha):
        return eta_tv_amplitude(noise, 1.0 / (2.0 * alpha)) <= target

    if not ok(search_max):
        raise NoSolutionError(
            "eta_tv stays above 1/3 over the whole search range; "
            "the noise does not contract at any amplitude")
    # halve to a bracket [hi/2, hi] that fails at its lower end, down to the
    # smallest positive float at most, and bisect it to a relative width
    hi = search_max
    while hi > math.ulp(0.0) and ok(hi / 2.0):
        hi /= 2.0
    return bisect(ok, hi / 2.0, hi, _ALPHA_REL_TOL * hi)


def a2_star(noise: NoiseModel, t: float, gamma: float, p: float) -> ThresholdReport:
    """Smallest A with 18 gamma A^-p log(A^p) <= t above the amplitude floor.

    Floor: A^p >= max{e, 2 gamma, alpha* e^3 / gamma}.
    """
    if not t > 0:
        raise DomainError("t must be positive")
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    if not p >= 1:
        raise DomainError("p must be >= 1")
    astar = alpha_star(noise).value
    floor_a = max(math.e, 2.0 * gamma, astar * math.e ** 3 / gamma) ** (1.0 / p)

    def cond(A):
        ap = A ** p
        return 18.0 * gamma * math.log(ap) / ap <= t

    found = bisect_up(cond, floor_a, _BISECT_TOL, 1e12)
    if found is None:
        raise NoSolutionError("a2_star search exceeded range")
    return found
