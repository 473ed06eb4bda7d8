"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library at its stated
tolerance and runtime budget, and prints a single PASS/FAIL line.  Criteria
1, 4/7 and 8 run the oracle loops of `sdpi verify`'s `bsc`, `diag`/`horiz`
and `deconv` suites (`sdpi.verify`) at their own sizes, seeds and gates, so a
new check is written once, there.  The slow random-coupling sweep is shared
between the diagonal and horizontal soundness checks through a module-scoped
fixture.
"""

import math
import time

import numpy as np
import pytest

from sdpi import verify
from sdpi.channels import DMCKernel, NoiseModel, awgn_capacity
from sdpi.contraction import eta_tv_amplitude
from sdpi.core_prob import (
    Ccurve, DiscretePMF, binary_entropy, char_fn, levy_concentration, mi_joint, q_function,
    v_hat, v_window,
)
from sdpi.fi_curves import fi_bsc, fi_dmc_envelope, fi_properties_check, mrs_gerber
from sdpi.gaussian_sdpi import (
    concentration_radius, diag_achievability, gh_upper_achievability,
)
from sdpi.general_sdpi import strict_contraction_check
from sdpi.oracle import mc_mutual_info, sdpi_pair_sampler


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def coupling_sweep():
    """10^4 random couplings per gamma, checked against both gap bounds of the
    `diag` and `horiz` suites."""
    start = time.monotonic()
    results = {gamma: sdpi_pair_sampler(NoiseModel.gaussian(), gamma=gamma, p=2.0,
                                        n_couplings=10 ** 4, seed=2024,
                                        **verify._awgn_bounds(gamma))
               for gamma in (0.5, 1.0, 4.0)}
    return results, time.monotonic() - start


def test_criterion_1_bsc_bruteforce_agreement():
    start = time.monotonic()
    worst = max(abs(bf - ref) for delta in (0.1, 0.3)
                for _, bf, ref in verify._bsc_pairs(delta, (0.1, 0.2, 0.4, 0.6), 60))
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
        i_wx = mi_joint(joint)
        i_wy = mi_joint(joint @ K.matrix)
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
    violations = verify._suite_deconv(12, trials=60)["violations"]
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
            r, mass = concentration_radius(eps)
            tail = q if b > r else 0.0
            worst_margin = max(worst_margin, tail - mass)
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
