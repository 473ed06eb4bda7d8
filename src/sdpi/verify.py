"""The oracle checks of the library, each written once.

`sdpi verify --suite ...` runs them at small fixed sizes, in seconds, and
tests/test_acceptance.py runs the same loops at its own sizes, seeds and
gates: criteria 1, 4/7 and 8 are the `bsc`, `diag`/`horiz` and `deconv`
checks.  A new check goes here, once, for both.  `deconv` and `horiz` check
the CLI's own `deconv_report` and `t_lower_or_nan`.  Every suite returns a
JSON-serializable report with a `violations` count; the CLI exits nonzero
when it is positive.  `diag` and `horiz` also report how many of their checks
ran as `checks`.
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


def _bsc_pairs(delta: float, ts, resolution: int) -> list:
    """(t, brute force, closed form) of F_I for BSC(delta) at each t: the lattice
    search over 3-valued W at `resolution` against `fi_bsc`."""
    K = DMCKernel.bsc(delta)
    return [(t, fi_bruteforce_dmc(K, t, w_size=3, resolution=resolution), fi_bsc(t, delta))
            for t in ts]


def _suite_bsc(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    delta = float(rng.choice([0.1, 0.2, 0.3]))
    mismatches = [{"t": t, "bruteforce": bf, "closed_form": ref}
                  for t, bf, ref in _bsc_pairs(delta, (0.1, 0.3, 0.5), 40)
                  if bf > ref + 1e-9 or ref - bf > 1e-8]
    return {"suite": "bsc", "delta": delta, "violations": len(mismatches),
            "details": mismatches}


def _awgn_bounds(gamma: float) -> dict:
    """The `sdpi_pair_sampler` bounds of the AWGN channel at snr gamma: g_d as
    `gd_lower`, and the horizontal bound `sdpi bounds horiz` prints, with the
    capacity it is measured from."""
    return {"diag_bound": lambda t: gd_lower(t, gamma),
            "horiz_bound": lambda eps: t_lower_or_nan(eps, gamma),
            "capacity": awgn_capacity(gamma)}


def _sampler_suite(name: str, seed: int, *bounds: str) -> dict:
    """500 random couplings of the AWGN channel at gamma = 1 against the named
    `_awgn_bounds`, and how many checks ran."""
    chosen = {k: v for k, v in _awgn_bounds(1.0).items() if k in bounds}
    res = sdpi_pair_sampler(NoiseModel.gaussian(), gamma=1.0, p=2.0, n_couplings=500,
                            seed=seed, **chosen)
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


def _suite_deconv(seed: int, trials: int = 6) -> dict:
    """`sdpi deconv`'s KS bounds against its d_KS on `trials` random pairs, the
    noise Gaussian on even trials and uniform on [0, 2] on odd ones; a missing
    bound is a violation."""
    rng = np.random.default_rng(seed)
    violations = []
    for trial in range(trials):
        noise = NoiseModel.gaussian() if trial % 2 == 0 else NoiseModel.uniform(0.0, 2.0)
        P, Q = _random_pair(rng)
        report = deconv_report(P, Q, noise, 0.01)
        d_ks = report["d_ks"]
        for name in ("ks_from_tv_bound", "ks_deconv_solve", "esseen_bound"):
            bound = report.get(name, math.nan)
            if not bound >= d_ks - 1e-6:
                violations.append({"trial": trial, "check": name,
                                   "bound": bound, "d_ks": d_ks})
    return {"suite": "deconv", "trials": trials, "violations": len(violations),
            "details": violations}


_SUITES = {
    "bsc": _suite_bsc,
    "diag": lambda seed: _sampler_suite("diag", seed, "diag_bound"),
    "horiz": lambda seed: _sampler_suite("horiz", seed, "horiz_bound", "capacity"),
    "deconv": _suite_deconv,
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    report = _SUITES[name](seed)
    report["seed"] = seed
    return report
