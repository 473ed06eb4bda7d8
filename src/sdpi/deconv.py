"""Deconvolution bounds: Esseen smoothing, the KS-from-TV theorem and the
no-zero-CF corollary.

All bounds here upper-bound a pre-convolution distance (KS between P and Q)
in terms of a post-convolution one (TV between P*P_Z and Q*P_Z).  The noise
enters only through its density bound m1 and a characteristic-function decay
profile (g, h, g1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import GaussianNoise, NoiseModel
from .core_prob import Distribution, char_fn, simpson
from .errors import BudgetError, DomainError, ProfileFailureError

# the most frequency nodes esseen_bound integrates over (T up to about 4,194)
_ESSEEN_MAX_NODES = 2 ** 22


@dataclass(frozen=True)
class CfProfile:
    """Characteristic-function decay profile of a noise law.

    Outside an exceptional frequency set of measure at most h(T), the CF
    modulus stays above g(T) on [-T, T]; g1 inverts the decay.
    """

    kind: str
    g_of_T: Callable[[float], float]
    h_of_T: Callable[[float], float]
    g1_of_u: Callable[[float], float]


def _check_constants(m2: float, first_moments: tuple[float, ...] = ()) -> None:
    if not (0 < m2 < math.inf and all(0 <= m < math.inf for m in first_moments)):
        raise DomainError("need m2 in (0, inf) and first moments in [0, inf)")


# ---------------------------------------------------------------------------
# Esseen smoothing inequality
# ---------------------------------------------------------------------------

def esseen_bound(P: Distribution, Q: Distribution, m2: float, T: float) -> float:
    """KS bound (1/pi) int_{-T}^{T} |phi_P - phi_Q| / |w| dw + 24 m2 / (pi T).

    Q must have a density bounded by m2.  The removable singularity at 0 is
    handled through |phi_P - phi_Q| <= |w| (E|X_P| + E|X_Q|).
    """
    if not 0 < T < math.inf:
        raise DomainError("T must be positive and finite")
    _check_constants(m2)
    step = min(1e-3, T / 4096.0)
    n = int(math.ceil(T / step))
    if n % 2 == 1:
        n += 1
    if n > _ESSEEN_MAX_NODES:
        raise BudgetError(f"T = {T:g} needs {n} frequency nodes, "
                          f"more than {_ESSEEN_MAX_NODES}")
    omegas = np.linspace(0.0, T, n + 1)
    diff = np.abs(char_fn(P, omegas[1:]) - char_fn(Q, omegas[1:]))
    integrand = np.empty(n + 1)
    integrand[1:] = diff / omegas[1:]
    # limit at 0 from the first-moment Lipschitz bound
    integrand[0] = min(abs(P.mean() - Q.mean()),
                       P.abs_moment(1.0) + Q.abs_moment(1.0))
    return 2.0 * simpson(integrand, T / n) / math.pi + 24.0 * m2 / (math.pi * T)


# ---------------------------------------------------------------------------
# decay profiles
# ---------------------------------------------------------------------------

def g1_profile(noise: NoiseModel) -> CfProfile:
    """Decay profile (g, h, g1) of the noise characteristic function."""
    kind, g, h, g1 = noise.cf_decay()

    def checked_g1(u: float) -> float:
        if not 0.0 < u <= 1.0:
            raise DomainError("u must lie in (0, 1]")
        return g1(u)

    return CfProfile(kind, g, h, checked_g1)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def ks_from_tv_bound(noise: NoiseModel, m2: float, first_moments: tuple[float, float],
                     profile: CfProfile, T: float, d_tv: float) -> float:
    """KS bound from a post-convolution TV distance, given a (g, h) profile.

    T h(T)/pi + (24 m2 + 2 (E_P|X| + E_Q|X|)) / (pi T)
      + (2T)^{3/2} / (sqrt(pi) g(T)) sqrt(m1 d_tv).
    """
    if not T > 0:
        raise DomainError("T must be positive")
    if not 0.0 <= d_tv <= 1.0:
        raise DomainError("d_tv must lie in [0, 1]")
    _check_constants(m2, first_moments)
    mp, mq = first_moments
    term1 = T * profile.h_of_T(T) / math.pi
    term2 = (24.0 * m2 + 2.0 * (mp + mq)) / (math.pi * T)
    g = profile.g_of_T(T)
    if g is None or g <= 0:
        raise ProfileFailureError("profile has no positive CF floor at this T")
    term3 = (2.0 * T) ** 1.5 / (math.sqrt(math.pi) * g) * math.sqrt(noise.m1 * d_tv)
    return term1 + term2 + term3


def ks_deconv_solve(noise: NoiseModel, d_tv: float, m2: float,
                    first_moments: tuple[float, float]) -> float:
    """KS bound 2 C0 / T where T solves g(T)^2 = d_tv T^5, g = inf |phi_Z|.

    Gaussian noise takes the fast path T = sqrt(log(1/d_tv)/2); other noise
    takes T from `deconv_root_residual`.
    """
    if not 0.0 < d_tv < 1.0:
        raise DomainError("d_tv must lie in (0, 1)")
    _check_constants(m2, first_moments)
    mp, mq = first_moments
    c0 = max(24.0 * m2 + 2.0 * (mp + mq), math.sqrt(8.0 * noise.m1 * math.pi)) / math.pi
    if isinstance(noise, GaussianNoise):
        T = math.sqrt(math.log(1.0 / d_tv) / 2.0) / noise.sigma
    else:
        T, _ = deconv_root_residual(noise, d_tv)
    return 2.0 * c0 / T


def deconv_root_residual(noise: NoiseModel, d_tv: float) -> tuple[float, float]:
    """Root T of g(T)^2 = d_tv T^5 on the running-minimum CF envelope g, and
    the residual |g(T)^2 - d_tv T^5| at it.

    The envelope is scanned from 0 in blocks, carrying the running minimum.
    g^2 - d_tv w^5 is strictly decreasing, so the scan stops at its first
    negative sample: T lies before any CF zero and no zero enters the
    working frequency range.
    """
    if not 0.0 < d_tv < 1.0:
        raise DomainError("d_tv must lie in (0, 1)")
    # on grid noise each block is one char_fn call on a progression, so one
    # chirp-z transform (within about 1e-14 of the direct sum, 2.2e-14 at
    # w = 2,048), not 16 blocks of the direct sum's 512 frequencies
    step, block = 5e-5, 8192
    n_max = math.ceil((2.0 ** 16 + step) / step)  # the scan stops at w = 2^16
    g_prev = math.inf
    for i0 in range(0, n_max, block):
        omegas = step * np.arange(i0, min(i0 + block, n_max))
        env = np.minimum(np.minimum.accumulate(noise.abs_cf(omegas)), g_prev)
        neg = np.flatnonzero(env ** 2 - d_tv * omegas ** 5 < 0)
        if neg.size:
            break
        g_prev = env[-1]
    else:
        raise ProfileFailureError("no root found: CF decays too slowly")
    k = int(neg[0])
    if i0 + k == 0:
        raise DomainError("d_tv too large: no positive root")
    # g is (numerically) constant across one sample step; solve exactly there
    g0 = env[k - 1] if k else g_prev
    if g0 <= 1e-300:
        raise ProfileFailureError("characteristic function has a zero before the root")
    T = (g0 * g0 / d_tv) ** 0.2
    T = min(max(T, step * (i0 + k - 1)), omegas[k])
    return T, abs(g0 * g0 - d_tv * T ** 5)
