"""Non-linear strong data-processing inequality curves and deconvolution
bounds for additive-noise and discrete channels.

The functions live in the submodules (`sdpi.channels`, `sdpi.fi_curves`,
`sdpi.gaussian_sdpi`, ...); the package root holds only `__version__`, so
`import sdpi` loads none of them."""

__version__ = "0.1.0"
