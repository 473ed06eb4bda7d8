"""Gaussian-channel bounds: diagonal and horizontal gaps plus achievability.

The horizontal constants are not pinned numerically by the theory; they are
assembled here once, conservatively, from the explicit inequality chain and
reported alongside every bound (see `horizontal_constants`).  All bounds are
one-sided certificates: they may be loose but are never unsound on their
stated validity range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import NoiseModel, awgn_capacity, mi_additive
from .core_prob import DiscretePMF, binary_entropy, bisect_up, gauss_hermite, q_function
from .errors import AccuracyError, DomainError

A0 = 24.0 / math.pi ** 1.5
A1 = math.sqrt(2.0) / math.pi
A2 = 108.0
# constants entering the horizontal chain; a3/a4 absorb the factor 2 in
# front of the KS distance
A3 = 2.0 * math.sqrt(2.0) * A0
A4 = 2.0 * math.sqrt(2.0) * A1
A5 = 1.0 + 2.0 / math.e + math.log(2.0)


# ---------------------------------------------------------------------------
# diagonal bounds
# ---------------------------------------------------------------------------

def _gd_bracket(x: np.ndarray, t: float, gamma: float) -> np.ndarray:
    """2 Q(sqrt(gamma/x)) (t - B(x)), clipped at 0, where
    B(x) = h_b(x) + (x/2) log(1 + gamma/x)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    amp, b = _gd_terms(x[pos], gamma)
    out[pos] = np.maximum(amp * (t - b), 0.0)
    return out


def _gd_terms(xp: np.ndarray, gamma: float):
    """The t-free factors of `_gd_bracket` at x > 0: 2 Q(sqrt(gamma/x)) and B(x)."""
    return (2.0 * q_function(np.sqrt(gamma / xp)),
            -xp * np.log(xp) - (1 - xp) * np.log1p(-xp) + 0.5 * xp * np.log1p(gamma / xp))


# gd_lower's first scan of x over [0, 1/2]
_GD_X = np.linspace(0.0, 0.5, 2001)
_GD_X.setflags(write=False)


@functools.lru_cache(maxsize=8)
def _gd_scan_terms(gamma: float):
    """`_gd_terms` on `_GD_X`, zero at x = 0, where the bracket is 0."""
    terms = np.zeros((2, len(_GD_X)))
    terms[:, 1:] = _gd_terms(_GD_X[1:], gamma)
    terms.setflags(write=False)
    return terms


_SQRT_8PI = math.sqrt(8.0 * math.pi)


def _gd_point(x: float, t: float, gamma: float) -> tuple[float, float]:
    """`_gd_bracket` at one x in [0, 1/2], and the sign of its slope there:
    phi(u) u / (2 x Q(u)) (t - B(x)) - B'(x) at u = sqrt(gamma/x), with
    B'(x) = log((1 - x)/x) + (1/2) log1p(gamma/x) - gamma/(2 (x + gamma)),
    which is (t - B(x)) times the slope of the bracket's log where the bracket
    is positive.  Where Q(u) underflows (x = 0 among them) the bracket is 0 and
    rises, and the slope reads +inf."""
    q = q_function(math.sqrt(gamma / x)) if x > 0.0 else 0.0
    if q == 0.0:
        return 0.0, math.inf
    snr = gamma / x
    log1p_snr = math.log1p(snr)
    gap = t - (-x * math.log(x) - (1.0 - x) * math.log1p(-x) + 0.5 * x * log1p_snr)
    mills = math.exp(-0.5 * snr) * math.sqrt(snr) / (_SQRT_8PI * x * q)
    db = math.log((1.0 - x) / x) + 0.5 * log1p_snr - gamma / (2.0 * (x + gamma))
    return max(2.0 * q * gap, 0.0), mills * gap - db


# gd_lower's refinement stops at this relative width of its x-bracket, or
# after this many evaluations
_GD_XTOL = 1e-10
_GD_STEPS = 100


def gd_lower(t: float, gamma: float) -> float:
    """Lower bound on the diagonal gap g_d(t) for the AWGN channel.

    The bracket's largest value on `_GD_X`, refined by an Illinois secant
    (Dowell and Jarratt, BIT 11, 1971) on the slope of `_gd_point` between
    the best grid point and its neighbour on the side where the bracket rises;
    a step that leaves that interval bisects it.  Returns the largest value
    of the bracket seen, so the bracket at one point.
    """
    if not 0 <= t < math.inf:
        raise DomainError("t must be nonnegative and finite")
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    if t == 0.0:
        return 0.0
    # the first scan from the cached terms: only t - B depends on t
    amp, b = _gd_scan_terms(gamma)
    vals = amp * (t - b)
    i = int(np.argmax(vals))
    x0 = float(_GD_X[i])
    v0, s0 = _gd_point(x0, t, gamma)
    best = max(float(vals[i]), v0)
    j = i + 1 if s0 > 0.0 else i - 1
    if not 0 <= j < len(_GD_X):
        return best
    x1 = float(_GD_X[j])
    v1, s1 = _gd_point(x1, t, gamma)
    best = max(best, v1)
    if not s0 * s1 < 0.0:
        return best
    (lo, s_lo), (hi, s_hi) = sorted([(x0, s0), (x1, s1)])
    kept = 0  # +1 after a step that moved lo, -1 after one that moved hi
    for _ in range(_GD_STEPS):
        if hi - lo <= _GD_XTOL * hi:
            break
        x = hi - s_hi * (hi - lo) / (s_hi - s_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        v, s = _gd_point(x, t, gamma)
        best = max(best, v)
        if s > 0.0:
            lo, s_lo = x, s
            if kept > 0:  # hi kept twice running: Illinois halves its slope
                s_hi *= 0.5
            kept = 1
        elif s < 0.0:
            hi, s_hi = x, s
            if kept < 0:
                s_lo *= 0.5
            kept = -1
        else:
            break
    return best


def diag_achievability(a: float, gamma: float) -> tuple[float, float, float]:
    """Two-atom sparse input: entropy, Fano lower bound, exact MI.

    X takes value a with probability 1/a^2 (so E X^2 = 1) and 0 otherwise;
    the minimum-distance estimate errs with probability at most
    Q(sqrt(gamma) a / 2), giving I >= H(X) - h_b(Q(sqrt(gamma) a / 2)).
    """
    if not a > 1.0:
        raise DomainError("need a > 1 so that 1/a^2 < 1")
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    q = 1.0 / (a * a)
    x = DiscretePMF(np.array([0.0, a]), np.array([1.0 - q, q]))
    h_x = binary_entropy(q)
    pe = q_function(0.5 * math.sqrt(gamma) * a)
    fano = h_x - binary_entropy(min(pe, 0.5))
    mi = mi_additive(x, NoiseModel.gaussian(), gamma)
    return h_x, fano, mi


# ---------------------------------------------------------------------------
# KS-distance bounds from near-optimality
# ---------------------------------------------------------------------------

def ks_from_mmse_gap(epsilon: float, gamma: float) -> float:
    """KS distance to the standard Gaussian from an MMSE gap epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    L = math.log(1.0 / epsilon)
    return A0 * math.sqrt(1.0 / (gamma * L)) + A1 * (1.0 + gamma) * epsilon ** 0.25 * math.sqrt(gamma * L)


def ks_from_capacity_gap(epsilon: float, gamma: float) -> float:
    """KS distance to the standard Gaussian from a capacity gap epsilon."""
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if not gamma > 4.0 * epsilon:
        raise DomainError("need gamma > 4 epsilon")
    L = math.log(gamma / (4.0 * epsilon))
    return (A0 * math.sqrt(2.0 / (gamma * L))
            + A1 * (1.0 + gamma) * (gamma * epsilon) ** 0.25 * math.sqrt(2.0 * L))


def ks_talagrand(epsilon: float, gamma: float) -> float:
    """Transportation-inequality variant of the capacity-gap KS bound."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    L = math.log(1.0 / epsilon)
    return (24.0 / (math.pi ** 1.5 * math.sqrt(gamma * L))
            + 2.0 * math.sqrt(2.0 * (1.0 + gamma)) * epsilon ** 0.25 * math.sqrt(L) / math.pi)


def concentration_radius(epsilon: float) -> tuple[float, float]:
    """(radius, mass bound): P[|X| > eps^{1/8}] <= 108 eps^{1/8} under a
    2-eps KL proximity of P_X * N(0,1) to N(0,1)."""
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must lie in (0, 1]")
    r = epsilon ** 0.125
    return r, A2 * r


# ---------------------------------------------------------------------------
# horizontal bound: constant assembly and the lower bounds built on it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HorizontalConstants:
    gamma: float
    kappa: float
    a5: float
    c1: float
    log_c1: float
    log_eps0: float  # validity threshold: need log(1/eps) >= -log_eps0


def _kappa(gamma: float) -> float:
    """kappa(gamma): sup over L >= 8 of the three-term chain times sqrt(L).

    term 1: sqrt(2) e^{-L/8} / sqrt(pi gamma), sup of e^{-L/8} sqrt(L) at L=8;
    term 2: A3 / sqrt(gamma log(gamma/4 eps)) with log(gamma/4 eps) >= L/2;
    term 3: A4 (1+gamma) (gamma eps)^{1/4} sqrt(log(gamma/4 eps)) with
            log(gamma/4 eps) <= 2L and sup of e^{-L/4} L at L=8.
    """
    t1 = math.sqrt(2.0) * math.sqrt(8.0) * math.exp(-1.0) / math.sqrt(math.pi * gamma)
    t2 = math.sqrt(2.0) * A3 / math.sqrt(gamma)
    t3 = math.sqrt(2.0) * A4 * (1.0 + gamma) * gamma ** 0.25 * 8.0 * math.exp(-2.0)
    return t1 + t2 + t3


def horizontal_constants(gamma: float) -> HorizontalConstants:
    """Assemble kappa(gamma), c1(gamma) and the validity threshold eps0."""
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    kappa = _kappa(gamma)
    c1_sq = math.exp(A5) * kappa
    log_c1 = 0.5 * (A5 + math.log(kappa))
    # validity: all conditions on L = log(1/eps)
    lmin = max(
        8.0,                                   # sup bounds above
        2.0 * math.log(4.0 / gamma) if gamma < 4.0 else math.log(gamma / 4.0),
        math.log(4.0 / gamma) + 1e-12,         # gamma > 4 eps
        8.0 * math.log(2.0 * A2),              # a2 eps^{1/8} <= 1/2
        4.0 * kappa * kappa,                   # kappa L^{-1/2} <= 1/2
    )
    # a2 e^{-L/8} (log L / 2 + |log kappa|) <= 1, monotone for L >= 8
    def cond(L):
        return A2 * math.exp(-L / 8.0) * (0.5 * math.log(L) + abs(math.log(kappa))) <= 1.0

    hi, _, _ = bisect_up(cond, lmin, 0.0, 1e300)  # the cap only bounds the loop
    return HorizontalConstants(gamma, kappa, A5, math.sqrt(c1_sq), log_c1, -hi)


def t_lower_from_gap(epsilon: float, gamma: float, log_eps: float | None = None) -> float:
    """Certified lower bound on I(W;X) given a capacity gap at most epsilon.

    Returns (1/4) log log(1/epsilon) - log c1(gamma).  Pass log_eps for
    epsilon values below the floating-point range.  Outside the validity
    range (epsilon >= eps0) the bound asserts nothing and a DomainError
    reporting the threshold is raised.
    """
    hc = horizontal_constants(gamma)
    if log_eps is None:
        if not epsilon > 0.0:
            raise DomainError("epsilon must be positive (or pass log_eps)")
        log_eps = math.log(epsilon)
    if not log_eps <= hc.log_eps0:
        raise DomainError(
            f"epsilon outside validity range: need log(eps) <= {hc.log_eps0:.6g} "
            f"(eps0 = exp({hc.log_eps0:.6g}))")
    L = -log_eps
    return 0.25 * math.log(L) - hc.log_c1


# ---------------------------------------------------------------------------
# horizontal achievability
# ---------------------------------------------------------------------------

def gauss_hermite_input(m: int) -> DiscretePMF:
    """m-atom zero-mean unit-variance input on Gauss-Hermite nodes."""
    if m < 1:
        raise DomainError("m must be >= 1")
    atoms, w = gauss_hermite(m)
    return DiscretePMF(atoms, w / w.sum())


def gh_upper_achievability(t: float, gamma: float) -> tuple[int, float, float]:
    """Capacity-gap achievability at t: m = floor(e^t) Gauss-Hermite atoms.

    Returns (m, closed-form gap bound 4(1+gamma)(gamma/(1+gamma))^{2m},
    numerically measured gap C(gamma) - I(X_m; Y_gamma)).
    """
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    if not t >= math.log(2.0) - 1e-12:
        raise DomainError("need t >= log 2 so that m >= 2")
    # m = floor(e^t) > 64, checked before e^t can overflow
    if t > math.log(65.0):
        raise AccuracyError("quadrature accuracy not certified beyond m = 64")
    m = int(math.floor(math.exp(t)))
    bound = 4.0 * (1.0 + gamma) * (gamma / (1.0 + gamma)) ** (2 * m)
    if gamma == 0.0:
        return m, 0.0, 0.0
    x = gauss_hermite_input(m)
    gap = awgn_capacity(gamma) - mi_additive(x, NoiseModel.gaussian(), gamma)
    return m, bound, gap
