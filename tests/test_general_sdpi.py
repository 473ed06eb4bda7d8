import numpy as np
import pytest

from sdpi.channels import GridNoise, NoiseModel
from sdpi.core_prob import GridDensity
from sdpi.errors import DomainError
from sdpi.general_sdpi import (
    StrictVerdict, general_diag_bound, general_diag_report, strict_contraction_check,
)


class TestGeneralDiagBound:
    def test_alpha_star_solved_once_per_noise(self, monkeypatch):
        noise = NoiseModel.from_grid(GridDensity.from_function(
            lambda x: np.maximum(1.0 - np.abs(x) / 3.0, 0.0), -3.0, 3.0, 0.05))
        real, calls = GridNoise.eta_tv, []

        def counted(z, A):
            calls.append(A)
            return real(z, A)

        monkeypatch.setattr(GridNoise, "eta_tv", counted)
        per_t = []
        for t in (0.05, 0.2, 1.0):
            n0 = len(calls)
            # A2* >= 8.8 and the noise spans 6, so eta_tv(A2*) = 1: the bound is 0
            assert general_diag_bound(t, noise, 2.0, 1.0) == 0.0
            per_t.append(len(calls) - n0)
        # alpha* bisects on the first t; later t only evaluate eta_tv(A2*)
        assert per_t[0] > 10
        assert per_t[1:] == [1, 1]

    def test_non_contracting_noise_gives_zero(self):
        # support 1e-7 wide: eta_tv(A) = 1 for every A of alpha*'s search range, so
        # there is no amplitude with eta_tv <= 1/3 and the bound is the trivial 0
        rep = general_diag_report(0.5, NoiseModel.uniform(0.0, 1e-7), 2.0, 1.0)
        assert rep.points == ((0.5, 0.0),)
        assert rep.meta == {}
        assert "non-contracting: no amplitude with eta_tv <= 1/3" in rep.notes

    def test_gaussian_positive(self):
        # tiny but strictly positive: the complement path avoids underflow
        val = general_diag_bound(0.5, NoiseModel.gaussian(), 2.0, 1.0)
        assert val == pytest.approx(1.5801007476730856e-43, rel=1e-6, abs=0.0)
        assert val > 0.0

    def test_laplace_positive(self):
        val = general_diag_bound(0.5, NoiseModel.laplace(1.0), 2.0, 1.0)
        assert val > 0.0

    def test_uniform_vacuous(self):
        # bounded-support noise never contracts at the required amplitude
        assert general_diag_bound(0.5, NoiseModel.uniform(0.0, 1.0), 2.0, 1.0) == 0.0

    def test_linear_in_t_coefficient_monotone(self):
        z = NoiseModel.laplace(1.0)
        g1 = general_diag_bound(0.5, z, 2.0, 1.0)
        g2 = general_diag_bound(1.0, z, 2.0, 1.0)
        assert g2 <= 2.0 * g2 + 1e-18
        assert g2 >= g1  # A2* nonincreasing in t makes the coefficient grow

    def test_domain(self):
        with pytest.raises(DomainError):
            general_diag_bound(0.0, NoiseModel.gaussian(), 2.0, 1.0)


class TestGeneralDiagReport:
    def test_gaussian_constants(self):
        rep = general_diag_report(0.5, NoiseModel.gaussian(), 2.0, 1.0)
        assert rep.meta["A2_star"] == pytest.approx(13.734369331018176, rel=1e-6)
        assert rep.meta["one_minus_eta_tv"] > 0.0
        assert any("TV upper bound" in n for n in rep.notes)

    def test_uniform_flags_vacuous(self):
        rep = general_diag_report(0.5, NoiseModel.uniform(0.0, 1.0), 2.0, 1.0)
        assert any("non-contracting" in n for n in rep.notes)


class TestStrictContraction:
    def test_gaussian_strict_inside_support(self):
        g = NoiseModel.gaussian().to_grid(step=0.005)
        v = strict_contraction_check(g, np.linspace(-5.0, 5.0, 101))
        assert v.verdict == "STRICT"
        assert v.witness is None
        assert v.grid_step == pytest.approx(0.005, rel=1e-9)

    def test_uniform_witness_one(self):
        u = NoiseModel.uniform(0.0, 1.0).to_grid(step=0.005)
        v = strict_contraction_check(u, np.linspace(-2.0, 2.0, 81))
        assert v.verdict == "NOT-STRICT"
        assert v.witness == pytest.approx(1.0, abs=1e-12)

    def test_positive_witness_preferred(self):
        u = NoiseModel.uniform(0.0, 1.0).to_grid(step=0.005)
        v = strict_contraction_check(u, np.array([-1.0, 1.0]))
        assert v.witness == 1.0

    def test_verdict_property(self):
        assert StrictVerdict(True, None, 0.01).verdict == "STRICT"
        assert StrictVerdict(False, 1.0, 0.01).verdict == "NOT-STRICT"
