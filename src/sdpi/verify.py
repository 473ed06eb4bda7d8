"""Fast validation suites behind `sdpi verify --suite ...`.

These are scaled-down versions of the full test-suite sweeps: small enough
to run in seconds to a couple of minutes, strict enough to catch a broken
bound.  Every suite returns a JSON-serializable report with a `violations`
count; the CLI exits nonzero when it is positive.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import DMCKernel, NoiseModel, awgn_capacity
from .core_prob import DiscretePMF, GridDensity, ks_distance, tv_after_noise
from .deconv import esseen_bound, g1_profile, ks_deconv_solve, ks_from_tv_bound
from .errors import DomainError
from .fi_curves import fi_bsc
from .gaussian_sdpi import gd_lower, t_lower_from_gap
from .oracle import fi_bruteforce_dmc, sdpi_pair_sampler


def _suite_bsc(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    delta = float(rng.choice([0.1, 0.2, 0.3]))
    K = DMCKernel.bsc(delta)
    mismatches = []
    for t in (0.1, 0.3, 0.5):
        bf = fi_bruteforce_dmc(K, t, w_size=3, resolution=40)
        ref = fi_bsc(t, delta)
        if bf > ref + 1e-9 or ref - bf > 5e-3:
            mismatches.append({"t": t, "bruteforce": bf, "closed_form": ref})
    return {"suite": "bsc", "delta": delta, "violations": len(mismatches),
            "details": mismatches}


def _suite_diag(seed: int) -> dict:
    noise = NoiseModel.gaussian()
    res = sdpi_pair_sampler(noise, gamma=1.0, p=2.0, n_couplings=500, seed=seed,
                            diag_bound=lambda t: gd_lower(t, 1.0))
    return {"suite": "diag", "gamma": 1.0, "n_couplings": 500,
            "violations": res.violation_count,
            "details": [v[:2] for v in res.violations]}


def _suite_horiz(seed: int) -> dict:
    noise = NoiseModel.gaussian()

    def horiz(eps):
        try:
            return t_lower_from_gap(eps, 1.0)
        except DomainError:
            return None  # bound not applicable at this gap

    res = sdpi_pair_sampler(noise, gamma=1.0, p=2.0, n_couplings=500, seed=seed,
                            horiz_bound=horiz, capacity=awgn_capacity(1.0))
    return {"suite": "horiz", "gamma": 1.0, "n_couplings": 500,
            "violations": res.violation_count,
            "details": [v[:2] for v in res.violations]}


def _random_pair(rng):
    k = int(rng.integers(2, 5))
    atoms = np.sort(rng.uniform(-1.5, 1.5, k))
    while np.any(np.diff(atoms) < 0.05):
        atoms = np.sort(rng.uniform(-1.5, 1.5, k))
    w = rng.dirichlet(np.ones(k))
    P = DiscretePMF(atoms, w)
    sig = float(rng.uniform(0.7, 1.3))
    Q = GridDensity.from_function(
        lambda x: np.exp(-0.5 * (x / sig) ** 2), -8 * sig, 8 * sig, 0.01)
    return P, Q


def _suite_deconv(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    violations = []
    for trial in range(6):
        noise = NoiseModel.gaussian() if trial % 2 == 0 else NoiseModel.uniform(0.0, 2.0)
        P, Q = _random_pair(rng)
        d_tv = tv_after_noise(P, Q, noise.to_grid(step=0.01))
        d_tv = min(max(d_tv, 1e-12), 1.0 - 1e-12)
        d_ks = ks_distance(P, Q)
        m2 = Q.max_density()
        mom = (P.abs_moment(1.0), Q.abs_moment(1.0))
        profile = g1_profile(noise)
        T = profile.g1_of_u(min(noise.m1 * d_tv, 1.0))
        checks = {
            "ks_from_tv": ks_from_tv_bound(noise, m2, mom, profile, T, d_tv),
            "ks_deconv_solve": ks_deconv_solve(noise, d_tv, m2, mom),
            "esseen": esseen_bound(P, Q, m2, max(T, 1.0)),
        }
        for name, bound in checks.items():
            if bound < d_ks - 1e-6:
                violations.append({"trial": trial, "check": name,
                                   "bound": bound, "d_ks": d_ks})
    return {"suite": "deconv", "trials": 6, "violations": len(violations),
            "details": violations}


_SUITES = {"bsc": _suite_bsc, "diag": _suite_diag,
           "horiz": _suite_horiz, "deconv": _suite_deconv}


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    report = _SUITES[name](seed)
    report["seed"] = seed
    return report
