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
import numbers
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


# gd_lower's table runs over x in [gamma/1420, 1/2]: at and below its first
# point (gamma/x above twice core_prob._MAXLOG) `erfc` gives 2 Q(sqrt(gamma/x))
# = 0 exactly, and so the bracket is 0 there
_GD_SNR_MAX = 1420.0
_GD_POINTS = 2001
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@functools.lru_cache(maxsize=8)
def _gd_table(gamma: float):
    """gd_lower's table for one gamma: the geometric grid x of `_GD_POINTS`
    points from gamma/`_GD_SNR_MAX` (1/2 for gamma >= 710, where the bracket
    is 0 everywhere) to 1/2, `_gd_terms` there (amp = 2 Q(sqrt(gamma/x)) and
    B), the level L = B + B'/M of `_gd_point`, and the runs of the grid on
    which L does not fall, as (first, last) index pairs."""
    x = np.geomspace(min(gamma / _GD_SNR_MAX, 0.5), 0.5, _GD_POINTS)
    amp, b = _gd_terms(x, gamma)
    snr = gamma / x
    db = np.log((1.0 - x) / x) + 0.5 * np.log1p(snr) - gamma / (2.0 * (x + gamma))
    inv_m = np.divide(_SQRT_2PI * x * amp, np.exp(-0.5 * snr) * np.sqrt(snr),
                      out=np.zeros_like(x), where=amp > 0.0)
    level = b + db * inv_m
    rises = np.concatenate(([False], np.diff(level) >= 0.0, [False]))
    edges = np.flatnonzero(rises[1:] != rises[:-1])
    runs = tuple(zip(edges[0::2].tolist(), edges[1::2].tolist()))
    for a in (x, amp, b, level):
        a.setflags(write=False)
    return x, amp, b, level, runs


def _gd_point(x: float, t: float, gamma: float) -> tuple[float, float]:
    """`_gd_bracket` at one x in (0, 1/2], and the level L(x) = B(x) + B'(x)/M(x)
    there, with M = phi(u) u / (2 x Q(u)) at u = sqrt(gamma/x) and
    B'(x) = log((1 - x)/x) + (1/2) log1p(gamma/x) - gamma/(2 (x + gamma)).
    The bracket's log-slope is M - B'/(t - B) = M (t - L)/(t - B), so the
    bracket rises at x exactly when t > L(x).  Where Q(u) underflows, 1/M
    reads 0 and L(x) = B(x), as in `_gd_table`."""
    amp = 2.0 * q_function(math.sqrt(gamma / x))
    snr = gamma / x
    log1p_snr = math.log1p(snr)
    b = -x * math.log(x) - (1.0 - x) * math.log1p(-x) + 0.5 * x * log1p_snr
    db = math.log((1.0 - x) / x) + 0.5 * log1p_snr - gamma / (2.0 * (x + gamma))
    inv_m = _SQRT_2PI * x * amp / (math.exp(-0.5 * snr) * math.sqrt(snr)) if amp > 0.0 else 0.0
    return max(amp * (t - b), 0.0), b + db * inv_m


# gd_lower's refinement stops at this relative width of its x-bracket, or
# after this many evaluations
_GD_XTOL = 1e-10
_GD_STEPS = 100


def gd_lower(t: float, gamma: float) -> float:
    """Lower bound on the diagonal gap g_d(t) for the AWGN channel:
    max over x in (0, 1/2] of the bracket 2 Q(sqrt(gamma/x)) (t - B(x)).

    Where the bracket is positive its log-slope is M (t - L)/(t - B), with
    M(x) = phi(u) u / (2 x Q(u)) > 0 at u = sqrt(gamma/x) and the level
    L = B + B'/M (`_gd_point`), so the bracket rises at x exactly when
    t > L(x).  Each local maximum is therefore an up-crossing of t by L, or
    the end x = 1/2.  `_gd_table` holds L on a geometric grid, once per
    gamma.  On each run of the grid where L rises (one run, L rising and
    then falling, at each of 3,000 log-spaced gamma in [1e-7, 710) checked)
    a binary search finds the cell where t is crossed; below the table's
    first point the bracket is 0, so a crossing there adds nothing.  From
    the cell's ends and their levels in the table, with no evaluation, an
    Illinois secant (Dowell and Jarratt, BIT 11, 1971) on t - L(x) refines
    the crossing; a step that leaves the cell bisects it.  Returns the
    largest bracket value seen (the cell's ends and x = 1/2 from the table,
    and every evaluated point), so the bracket at one point.
    """
    if not 0 <= t < math.inf:
        raise DomainError("t must be nonnegative and finite")
    if not 0 < gamma < math.inf:
        raise DomainError("gamma must be positive and finite")
    if t == 0.0:
        return 0.0
    xs, amp, b, level, runs = _gd_table(gamma)
    best = max(0.0, float(amp[-1]) * (t - float(b[-1])))  # 0.0 first: max keeps it over -0.0
    for first, last in runs:
        k = first + int(np.searchsorted(level[first:last + 1], t))
        if not first < k <= last:  # t is not crossed inside this run
            continue
        lo, hi = float(xs[k - 1]), float(xs[k])
        g_lo, g_hi = t - float(level[k - 1]), t - float(level[k])
        best = max(best, float(amp[k - 1]) * (t - float(b[k - 1])),
                   float(amp[k]) * (t - float(b[k])))
        kept = 0  # +1 after a step that moved lo, -1 after one that moved hi
        for _ in range(_GD_STEPS):
            if hi - lo <= _GD_XTOL * hi:
                break
            x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            v, lev = _gd_point(x, t, gamma)
            best = max(best, v)
            g = t - lev
            if g > 0.0:
                lo, g_lo = x, g
                if kept > 0:  # hi kept twice running: Illinois halves its value
                    g_hi *= 0.5
                kept = 1
            elif g < 0.0:
                hi, g_hi = x, g
                if kept < 0:
                    g_lo *= 0.5
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
# concentration of a near-optimal input
# ---------------------------------------------------------------------------

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

    # no threshold once 4 kappa^2 overflows (gamma outside about [7.27e-306, 6.747e122])
    report = bisect_up(cond, lmin, 0.0, 1e300)
    if report is None:
        raise DomainError(f"gamma = {gamma!r} out of range: the validity threshold overflows")
    return HorizontalConstants(kappa, A5, math.sqrt(c1_sq), log_c1, -report.value)


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
    if not (isinstance(m, numbers.Integral) and m >= 1):
        raise DomainError(f"m must be an integer >= 1, not {m!r}")
    atoms, w = gauss_hermite(m)
    return DiscretePMF(atoms, w / w.sum())


def gh_upper_achievability(t: float, gamma: float) -> tuple[int, float, float]:
    """Capacity-gap achievability at t: m = floor(e^t) Gauss-Hermite atoms.

    Returns (m, closed-form gap bound 4(1+gamma)(gamma/(1+gamma))^{2m},
    numerically measured gap C(gamma) - I(X_m; Y_gamma)).
    """
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    # m is the largest integer with log m <= t + 1e-12: exp(log m) can round
    # below m, and e^t overflows for large t
    slack = t + 1e-12
    if not math.log(2.0) <= slack:
        raise DomainError("need t >= log 2 so that m >= 2")
    if math.log(65.0) <= slack:
        raise AccuracyError("quadrature accuracy not certified beyond m = 64")
    m = max(k for k in range(2, 65) if math.log(k) <= slack)
    bound = 4.0 * (1.0 + gamma) * (gamma / (1.0 + gamma)) ** (2 * m)
    if gamma == 0.0:
        return m, 0.0, 0.0
    x = gauss_hermite_input(m)
    gap = awgn_capacity(gamma) - mi_additive(x, NoiseModel.gaussian(), gamma)
    return m, bound, gap
