"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library at its stated
tolerance and runtime budget, and prints a single PASS/FAIL line.  The
slow random-coupling sweep is shared between the diagonal and horizontal
soundness checks through a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from sdpi.channels import (
    DMCKernel, NoiseModel, awgn_capacity, mi_additive,
)
from sdpi.contraction import eta_tv_amplitude
from sdpi.core_prob import (
    Ccurve, DiscretePMF, GridDensity, binary_entropy, char_fn, ks_distance,
    levy_concentration, q_function, tv_after_noise, v_hat, v_window,
)
from sdpi.deconv import esseen_bound, g1_profile, ks_deconv_solve, ks_from_tv_bound
from sdpi.errors import DomainError
from sdpi.fi_curves import fi_bsc, fi_dmc_envelope, fi_properties_check, mrs_gerber
from sdpi.gaussian_sdpi import (
    diag_achievability, gd_lower, gh_upper_achievability, t_lower_from_gap,
)
from sdpi.general_sdpi import strict_contraction_check
from sdpi.oracle import fi_bruteforce_dmc, mc_mutual_info, sdpi_pair_sampler


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def joint_mi(joint):
    joint = np.asarray(joint, dtype=float)
    pw = joint.sum(axis=1)
    px = joint.sum(axis=0)
    mask = joint > 0
    val = float(np.sum(joint[mask] * np.log(joint[mask])))
    val -= float(np.sum(pw[pw > 0] * np.log(pw[pw > 0])))
    val -= float(np.sum(px[px > 0] * np.log(px[px > 0])))
    return max(val, 0.0)


@pytest.fixture(scope="module")
def coupling_sweep():
    """10^4 random couplings per gamma, checked against both gap bounds."""
    capacity = {g: awgn_capacity(g) for g in (0.5, 1.0, 4.0)}

    def horiz(gamma):
        def bound(eps):
            try:
                return t_lower_from_gap(eps, gamma)
            except DomainError:
                return None  # gap too large for the certified regime
        return bound

    start = time.monotonic()
    results = {}
    for gamma in (0.5, 1.0, 4.0):
        results[gamma] = sdpi_pair_sampler(
            NoiseModel.gaussian(), gamma=gamma, p=2.0, n_couplings=10 ** 4,
            seed=2024, diag_bound=lambda t, g=gamma: gd_lower(t, g),
            horiz_bound=horiz(gamma), capacity=capacity[gamma])
    return results, time.monotonic() - start


def test_criterion_1_bsc_bruteforce_agreement():
    start = time.monotonic()
    worst = 0.0
    for delta in (0.1, 0.3):
        K = DMCKernel.bsc(delta)
        for t in (0.1, 0.2, 0.4, 0.6):
            bf = fi_bruteforce_dmc(K, t, w_size=3, resolution=60)
            worst = max(worst, abs(bf - fi_bsc(t, delta)))
    elapsed = time.monotonic() - start
    ok = worst <= 2e-3 and elapsed <= 120.0
    report(1, ok, f"max |bruteforce - closed form| = {worst:.3e} nats "
                  f"in {elapsed:.1f}s")
    assert worst <= 2e-3
    assert elapsed <= 120.0


def test_criterion_2_erasure_identity():
    alpha = 0.3
    K = DMCKernel.erasure(alpha, size=3)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        nw = int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(3 * nw)).reshape(nw, 3)
        i_wx = joint_mi(joint)
        i_wy = joint_mi(joint @ K.matrix)
        worst = max(worst, abs(i_wy - (1.0 - alpha) * i_wx))
    ok = worst <= 1e-9
    report(2, ok, f"max |I(W;Y) - (1-alpha) I(W;X)| = {worst:.3e}")
    assert ok


def test_criterion_3_gaussian_eta_closed_form():
    noise = NoiseModel.gaussian()
    worst = 0.0
    for A in np.linspace(0.0, 6.0, 50):
        exact = 1.0 - 2.0 * q_function(float(A))
        worst = max(worst, abs(eta_tv_amplitude(noise, float(A)) - exact))
    ok = worst <= 1e-8
    report(3, ok, f"max |eta_tv - (1 - 2Q(A))| = {worst:.3e}")
    assert ok


def test_criterion_4_diagonal_soundness(coupling_sweep):
    results, elapsed = coupling_sweep
    diag = {g: sum(1 for v in r.violations if v[0] == "diag")
            for g, r in results.items()}
    total = sum(diag.values())
    ok = total == 0 and elapsed <= 600.0
    report(4, ok, f"diagonal violations {diag} over 3x10^4 couplings "
                  f"in {elapsed:.1f}s")
    assert total == 0
    assert elapsed <= 600.0


def test_criterion_5_sparse_input_tightness():
    gamma = 1.0
    bound_ok, mc_ok = True, True
    ratio = None
    for a in (4.0, 6.0, 8.0, 10.0):
        h_x, _, mi = diag_achievability(a, gamma)
        gap = h_x - mi
        cap = binary_entropy(min(q_function(0.5 * math.sqrt(gamma) * a), 0.5))
        bound_ok &= gap <= cap + 1e-12
        q = 1.0 / (a * a)
        x = DiscretePMF(np.array([0.0, a]), np.array([1.0 - q, q]))
        est, ci = mc_mutual_info(x, NoiseModel.gaussian(), gamma, 10 ** 6, seed=31)
        mc_ok &= abs(est - mi) <= ci + 1e-4
        if a == 10.0:
            ratio = math.log(gap) / (-(gamma / h_x) * math.log(1.0 / h_x))
    ratio_ok = 0.5 <= ratio <= 2.0
    ok = bound_ok and mc_ok and ratio_ok
    report(5, ok, f"gap <= h_b(Q) {bound_ok}, MC within CI {mc_ok}, "
                  f"log-gap ratio at a=10 is {ratio:.4f} (gate [0.5, 2])")
    assert bound_ok
    assert mc_ok
    assert ratio_ok


def test_criterion_6_horizontal_achievability():
    gamma = 1.0
    ok = True
    m2_bound = None
    for m in range(2, 9):
        t = math.log(m) + 1e-9
        mm, bound, gap = gh_upper_achievability(t, gamma)
        assert mm == m
        target = 4.0 * (1.0 + gamma) * (gamma / (1.0 + gamma)) ** (2 * m)
        ok &= gap <= target + 1e-12 and bound == pytest.approx(target, rel=1e-12)
        if m == 2:
            m2_bound = bound
    ok &= m2_bound == 0.5
    report(6, ok, f"Gauss-Hermite gaps below 4(1+g)(g/(1+g))^(2m) for m=2..8, "
                  f"m=2 bound = {m2_bound}")
    assert ok


def test_criterion_7_horizontal_soundness(coupling_sweep):
    results, elapsed = coupling_sweep
    horiz = {g: sum(1 for v in r.violations if v[0] == "horiz")
             for g, r in results.items()}
    small_gap = {g: int(np.sum(awgn_capacity(g) - r.samples[:, 1] <= 1e-3))
                 for g, r in results.items()}
    total = sum(horiz.values())
    ok = total == 0
    report(7, ok, f"horizontal violations {horiz} "
                  f"(couplings with gap <= 1e-3: {small_gap})")
    assert ok


def test_criterion_8_deconv_domination():
    start = time.monotonic()
    rng = np.random.default_rng(12)
    step = 0.01
    violations = 0
    for trial in range(60):
        noise = NoiseModel.gaussian() if trial % 2 == 0 else NoiseModel.uniform(0.0, 2.0)
        k = int(rng.integers(2, 5))
        atoms = np.sort(rng.uniform(-1.5, 1.5, k))
        while np.any(np.diff(atoms) < 0.05):
            atoms = np.sort(rng.uniform(-1.5, 1.5, k))
        P = DiscretePMF(atoms, rng.dirichlet(np.ones(k)))
        sig = float(rng.uniform(0.7, 1.3))
        Q = GridDensity.from_function(
            lambda x: np.exp(-0.5 * (x / sig) ** 2), -8 * sig, 8 * sig, step)

        d_tv = tv_after_noise(P, Q, noise.to_grid(step=step))
        d_tv = min(max(d_tv, 1e-12), 1.0 - 1e-12)
        d_ks = ks_distance(P, Q)
        m2 = Q.max_density()
        mom = (P.abs_moment(1.0), Q.abs_moment(1.0))
        profile = g1_profile(noise)
        T = profile.g1_of_u(min(noise.m1 * d_tv, 1.0))
        for bound in (ks_from_tv_bound(noise, m2, mom, profile, T, d_tv),
                      ks_deconv_solve(noise, d_tv, m2, mom),
                      esseen_bound(P, Q, m2, max(T, 1.0))):
            if bound < d_ks - 1e-6:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed <= 300.0
    report(8, ok, f"{violations} domination failures over 60 triples "
                  f"in {elapsed:.1f}s")
    assert violations == 0
    assert elapsed <= 300.0


def test_criterion_9_concentration():
    y = np.arange(-14.0, 16.0, 1e-3)
    phi = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    worst_margin = -math.inf
    checked = 0
    for q in (1e-3, 1e-2, 5e-2):
        for b in (0.5, 1.0, 2.0):
            f = (1.0 - q) * phi + q * np.exp(-0.5 * (y - b) ** 2) / math.sqrt(2.0 * math.pi)
            kl = float(np.trapezoid(phi * np.log(phi / f), dx=1e-3))
            eps = kl / 2.0
            if eps <= 0.0:
                continue
            r = eps ** 0.125
            tail = q if b > r else 0.0
            worst_margin = max(worst_margin, tail - 108.0 * r)
            checked += 1
    ok = checked > 0 and worst_margin <= 0.0
    report(9, ok, f"max P[|X| > eps^(1/8)] - 108 eps^(1/8) = {worst_margin:.3e} "
                  f"over {checked} families")
    assert ok


def test_criterion_10_property_suites():
    failures = []

    # Mrs. Gerber convexity: nonnegative second differences
    for delta in (0.1, 0.3):
        xs = np.linspace(0.0, math.log(2.0), 200)
        vals = np.array([mrs_gerber(float(x), delta) for x in xs])
        if np.min(np.diff(vals, 2)) < -1e-9:
            failures.append(f"mrs_gerber convexity delta={delta}")

    # structural curve properties on every generated curve
    t_grid = np.linspace(0.0, 0.65, 14)
    curves = [fi_dmc_envelope(DMCKernel.bsc(0.1), t_grid),
              fi_dmc_envelope(DMCKernel.erasure(0.3, size=3), np.linspace(0, 1.0, 11)),
              Ccurve([(float(t), fi_bsc(float(t), 0.2)) for t in t_grid])]
    for i, curve in enumerate(curves):
        chk = fi_properties_check(curve)
        if not chk["passed"]:
            failures.append(f"curve {i} properties {chk['failures']}")

    # Levy concentration at radius zero equals the largest atom
    P = DiscretePMF(np.array([-1.0, 0.5, 2.0]), np.array([0.2, 0.5, 0.3]))
    if levy_concentration(P, 0.0) != pytest.approx(0.5, abs=1e-12):
        failures.append("levy at zero")

    # Plancherel identity: E v(X - X') = (1/2pi) int v_hat |phi|^2
    omega = np.linspace(-1.0, 1.0, 4001)
    lhs = float(np.sum(P.weights[:, None] * P.weights[None, :]
                       * v_window(P.atoms[:, None] - P.atoms[None, :])))
    rhs = float(np.trapezoid(v_hat(omega) * np.abs(char_fn(P, omega)) ** 2,
                             omega)) / (2.0 * math.pi)
    if abs(lhs - rhs) > 1e-4:
        failures.append(f"plancherel {abs(lhs - rhs):.2e}")

    # strict-contraction verdicts
    g = strict_contraction_check(NoiseModel.gaussian().to_grid(step=0.005),
                                 np.linspace(-5.0, 5.0, 101))
    if g.verdict != "STRICT":
        failures.append("gaussian not strict")
    u = strict_contraction_check(NoiseModel.uniform(0.0, 1.0).to_grid(step=0.005),
                                 np.linspace(-2.0, 2.0, 81))
    if u.verdict != "NOT-STRICT" or abs(u.witness - 1.0) > 1e-9:
        failures.append("uniform witness")

    ok = not failures
    report(10, ok, "all property suites clean" if ok else "; ".join(failures))
    assert ok
