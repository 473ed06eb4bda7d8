"""Non-linear strong data-processing inequality curves and deconvolution
bounds for additive-noise and discrete channels."""

__version__ = "0.1.0"

from .core_prob import (  # noqa: F401
    LOG2, Ccurve, DiscretePMF, GridDensity,
    binary_entropy, binary_entropy_inv, char_fn, convolve,
    kl_divergence, ks_distance, levy_concentration, max_entropy_integer,
    q_function, q_inverse, tv_distance, v_hat, v_window, wasserstein,
)
from .channels import (  # noqa: F401
    DMCKernel, NoiseModel, awgn_capacity, dmc_capacity,
    immse_gap_check, lmmse, mi_additive, mi_dmc, mmse_numeric, normalize_input,
)
from .contraction import (  # noqa: F401
    ThresholdReport, a1_star, a2_star, alpha_star, dobrushin_dmc,
    eta_tv_amplitude, eta_tv_complement,
)
from .fi_curves import (  # noqa: F401
    fi_bsc, fi_dmc_envelope, fi_erasure, fi_fixed_marginal_bsc,
    fi_properties_check, mrs_gerber,
)
from .gaussian_sdpi import (  # noqa: F401
    concentration_radius, diag_achievability, gauss_hermite_input, gd_lower,
    gd_rate_small_t, gd_subgaussian, gh_lower, gh_upper_achievability,
    horizontal_constants, ks_from_capacity_gap, ks_from_mmse_gap, ks_talagrand,
    t_lower_from_gap,
)
from .deconv import (  # noqa: F401
    C_WINDOW, CfProfile, deconv_v_bound, esseen_bound, g1_profile,
    ks_deconv_solve, ks_from_tv_bound,
)
from .general_sdpi import (  # noqa: F401
    StrictVerdict, diag_master_bound, discrete_grid_bound, general_diag_bound,
    general_diag_report, rho_eps0, rho_horizontal, strict_contraction_check,
)
from .oracle import (  # noqa: F401
    SweepResult, fi_bruteforce_dmc, mc_mutual_info, sdpi_pair_sampler,
)
from . import errors  # noqa: F401
