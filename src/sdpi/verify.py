"""Fast validation suites behind `sdpi verify --suite ...`.

These are scaled-down versions of the full test-suite sweeps: small enough
to run in seconds to a couple of minutes, strict enough to catch a broken
bound; `deconv` and `horiz` check the CLI's own `deconv_report` and
`t_lower_or_nan`.  Every suite returns a JSON-serializable report with a
`violations` count; the CLI exits nonzero when it is positive.  `diag` and
`horiz` also report how many of their checks ran as `checks`.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import DMCKernel, NoiseModel, awgn_capacity
from .cli import deconv_report, t_lower_or_nan
from .core_prob import DiscretePMF, GridDensity
from .errors import DomainError
from .fi_curves import fi_bsc
from .gaussian_sdpi import gd_lower
from .oracle import fi_bruteforce_dmc, sdpi_pair_sampler


def _suite_bsc(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    delta = float(rng.choice([0.1, 0.2, 0.3]))
    K = DMCKernel.bsc(delta)
    mismatches = []
    for t in (0.1, 0.3, 0.5):
        bf = fi_bruteforce_dmc(K, t, w_size=3, resolution=40)
        ref = fi_bsc(t, delta)
        if bf > ref + 1e-9 or ref - bf > 1e-8:
            mismatches.append({"t": t, "bruteforce": bf, "closed_form": ref})
    return {"suite": "bsc", "delta": delta, "violations": len(mismatches),
            "details": mismatches}


def _sampler_suite(name: str, seed: int, **bounds) -> dict:
    """500 random couplings of the AWGN channel at gamma = 1 against `bounds`, and
    how many checks ran (each suite passes one bound)."""
    res = sdpi_pair_sampler(NoiseModel.gaussian(), gamma=1.0, p=2.0, n_couplings=500,
                            seed=seed, **bounds)
    return {"suite": name, "gamma": 1.0, "n_couplings": 500,
            "checks": res.diag_checks + res.horiz_checks,
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
    """`sdpi deconv`'s KS bounds against its d_KS; a missing bound is a violation."""
    rng = np.random.default_rng(seed)
    violations = []
    for trial in range(6):
        noise = NoiseModel.gaussian() if trial % 2 == 0 else NoiseModel.uniform(0.0, 2.0)
        P, Q = _random_pair(rng)
        report = deconv_report(P, Q, noise, 0.01)
        d_ks = report["d_ks"]
        for name in ("ks_from_tv_bound", "ks_deconv_solve", "esseen_bound"):
            bound = report.get(name, math.nan)
            if not bound >= d_ks - 1e-6:
                violations.append({"trial": trial, "check": name,
                                   "bound": bound, "d_ks": d_ks})
    return {"suite": "deconv", "trials": 6, "violations": len(violations),
            "details": violations}


_SUITES = {
    "bsc": _suite_bsc,
    "diag": lambda seed: _sampler_suite("diag", seed, diag_bound=lambda t: gd_lower(t, 1.0)),
    "horiz": lambda seed: _sampler_suite("horiz", seed, capacity=awgn_capacity(1.0),
                                         horiz_bound=lambda e: t_lower_or_nan(e, 1.0)),
    "deconv": _suite_deconv,
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    report = _SUITES[name](seed)
    report["seed"] = seed
    return report
