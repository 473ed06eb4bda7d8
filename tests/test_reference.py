"""High-precision references for the additive-noise quadrature: 40-digit
mpmath and adaptive `scipy.integrate.quad`, each computed without the
package's own rules."""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from sdpi.channels import NoiseModel, mmse_numeric
from sdpi.core_prob import DiscretePMF, GridDensity, gauss_legendre, q_function

mpmath.mp.dps = 40


@pytest.mark.parametrize("d", [3, 4, 6, 8, 10, 15])
def test_gaussian_excess_entropy_two_atoms(d):
    # atoms 0 and d with weights (1/2, 1/2): by symmetry
    # h(Y) - h(Z) = log 2 - E log(1 + exp(-d Z - d^2 / 2)), Z ~ N(0, 1)
    D = mpmath.mpf(d)
    tail = mpmath.quad(lambda z: mpmath.npdf(z) * mpmath.log1p(mpmath.exp(-D * z - D * D / 2)),
                       [-mpmath.inf, -D / 2, 0, mpmath.inf])
    ref = float(mpmath.log(2) - tail)
    got = NoiseModel.gaussian().excess_entropy(np.array([0.0, float(d)]), np.array([0.5, 0.5]))
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def laplace_excess_entropy(mu, v, b):
    """h(Y) - h(Z) for Laplace(b) noise at 40 digits.  Between consecutive atoms
    lo < hi, p_Y = (L e^{-(y - lo)/b} + R e^{-(hi - y)/b})/(2b), L and R the
    weights of the atoms at or below lo and at or above hi discounted to it; its
    -int p log p is by quad there, and in closed form, -(C/2)(log(C/(2b)) - 1),
    on each tail p_Y = C e^{-|y - end|/b}/(2b) beyond the extreme atoms."""
    b = mpmath.mpf(b)
    mu, v = zip(*sorted(zip(map(mpmath.mpf, mu), map(mpmath.mpf, v))))

    def mass(at, side):
        return sum(w * mpmath.exp(-abs(at - m) / b) for w, m in zip(v, mu) if side(m))

    h = 0
    for lo, hi in zip(mu, mu[1:]):
        L, R = mass(lo, lambda m: m <= lo), mass(hi, lambda m: m >= hi)

        def plogp(y):
            p = (L * mpmath.exp(-(y - lo) / b) + R * mpmath.exp(-(hi - y) / b)) / (2 * b)
            return p * mpmath.log(p)

        h -= mpmath.quad(plogp, [lo, (lo + hi) / 2, hi])
    for end in (mu[0], mu[-1]):
        C = mass(end, lambda m: True)
        h -= C / 2 * (mpmath.log(C / (2 * b)) - 1)
    return float(h - 1 - mpmath.log(2 * b))


def test_laplace_excess_entropy():
    # 2 to 6 atoms spread over up to 40 b, b from 1e-2 to 10; p_Y has a kink at
    # every atom
    rng = np.random.default_rng(0)
    for _ in range(12):
        k, b = int(rng.integers(2, 7)), float(10.0 ** rng.uniform(-2.0, 1.0))
        mu, v = b * rng.uniform(0.0, 40.0, k), rng.dirichlet(np.ones(k))
        got = NoiseModel.laplace(b).excess_entropy(mu, v)
        assert got == pytest.approx(laplace_excess_entropy(mu, v, b), rel=1e-13, abs=0.0)


def test_gauss_legendre_weights():
    # 2/((1 - x^2) P_32'(x)^2) at 40-digit roots of P_32, from the float nodes
    nodes, weights = gauss_legendre(32)
    for x, w in zip(nodes, weights):
        r = mpmath.findroot(lambda t: mpmath.legendre(32, t), mpmath.mpf(float(x)))
        assert abs(x - r) <= 2 * np.spacing(1.0)
        ref = 2 / ((1 - r * r) * mpmath.diff(lambda t: mpmath.legendre(32, t), r) ** 2)
        assert w == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def entropy_by_pieces(noise, x, mu, w):
    """-int p log p of sum_k w_k p_Z(y - mu_k) by quad on each piece between
    the breakpoints mu_k + x_i, where the density is linear."""
    def integrand(y):
        p = sum(wk * noise.density(y - m) for wk, m in zip(w, mu))
        return -p * math.log(p) if p > 0 else 0.0

    cuts = np.unique(np.add.outer(mu, x))
    return sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=5e-14, limit=200)[0]
               for lo, hi in zip(cuts, cuts[1:]))


def test_grid_noise_excess_entropy_by_pieces():
    # the golden noise, and random densities with jumps at both ends; 2 to 5 atoms
    rng = np.random.default_rng(11)
    laws = [GridDensity.from_csv((Path(__file__).parent / "golden" / "noise.csv").read_text())]
    for _ in range(3):
        n, step = int(rng.integers(5, 30)), float(rng.uniform(0.05, 0.5))
        v = rng.uniform(0.05, 1.0, n)
        laws.append(GridDensity(0.0, step * (n - 1), step, v / np.trapezoid(v, dx=step)))
    for g in laws:
        noise = NoiseModel.from_grid(g)
        for k in (2, 3, 5):
            mu = rng.uniform(-1.0, 1.0, k) * (g.x_max - g.x_min)
            w = rng.dirichlet(np.ones(k))
            ref = (entropy_by_pieces(noise, g.grid, mu, w)
                   - entropy_by_pieces(noise, g.grid, mu[:1], [1.0]))
            assert noise.excess_entropy(mu, w) == pytest.approx(ref, rel=1e-13, abs=0.0)


def piecewise_constant_entropy(mu, v, a, b):
    """h(Y) - h(Z) for uniform noise on [a, b] as an exact sum over the pieces
    between the sorted interval ends, where the density is constant."""
    edges = np.unique(np.concatenate([mu + a, mu + b]))
    h = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        dens = v[(mid >= mu + a) & (mid <= mu + b)].sum() / (b - a)
        if dens > 0:
            h -= (hi - lo) * dens * math.log(dens)
    return h - math.log(b - a)


def test_uniform_noise_matches_piecewise_constant_sum():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(10.0 ** rng.uniform(-1.0, 1.0))
        mu, v = rng.uniform(-3.0, 3.0, k), rng.dirichlet(np.ones(k))
        got = NoiseModel.uniform(a, b).excess_entropy(mu, v)
        worst = max(worst, abs(got - piecewise_constant_entropy(mu, v, a, b)))
    assert worst <= 1e-14


def expected_posterior_variance(atoms, weights, gamma):
    """E Var(X | sqrt(gamma) X + Z) by quad: a sum of squares at every y, so
    it has none of the cancellation of E X^2 - E E[X|Y]^2."""
    mu = math.sqrt(gamma) * atoms
    logw = np.log(weights)

    def integrand(y):
        e = logw - 0.5 * (y - mu) ** 2
        top = e.max()
        p = np.exp(e - top)
        mean = p @ atoms / p.sum()
        return math.exp(top) / math.sqrt(2.0 * math.pi) * float(p @ (atoms - mean) ** 2)

    # the integrand lives where the posterior is mixed, between adjacent atoms
    cuts = np.unique(np.concatenate([mu, 0.5 * (mu[1:] + mu[:-1]), [mu[0] - 12.0, mu[-1] + 12.0]]))
    return sum(quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(cuts, cuts[1:]))


def test_mmse_matches_posterior_variance():
    # 150 seeded inputs of 1 to 6 atoms, some 60 apart, some with a zero weight
    rng = np.random.default_rng(9)
    worst = 0.0
    for i in range(150):
        k = int(rng.integers(1, 7))
        atoms = np.sort(rng.uniform(-3.0, 3.0, k)) + 0.01 * np.arange(k)
        if i % 5 == 0 and k > 1:
            atoms[-1] += 60.0
        w = rng.dirichlet(np.ones(k))
        if i % 3 == 0 and k > 1:
            w[0] = 0.0
            w /= w.sum()
        gamma = float(rng.uniform(0.1, 20.0))
        keep = w > 0
        ref = expected_posterior_variance(atoms[keep], w[keep], gamma)
        worst = max(worst, abs(mmse_numeric(DiscretePMF(atoms, w), gamma) - ref))
    assert worst <= 1e-11


def test_q_function_tail():
    ref = float(mpmath.erfc(30 / mpmath.sqrt(2)) / 2)
    assert q_function(30.0) == pytest.approx(ref, rel=1e-12, abs=0.0)
