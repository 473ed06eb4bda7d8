"""Command-line front end.

Emits CSV curve data (with a `# meta:` header recording the version and the
constants used) or JSON reports.  Identical arguments produce byte-identical
output; `verify`, the one randomized command, takes its seed as `--seed`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import DMCKernel, NoiseModel
from .contraction import eta_tv_amplitude
from .core_prob import (DiscretePMF, GridDensity, csv_lines, csv_rows, csv_text, ks_distance,
                        tv_after_noise)
from .deconv import esseen_bound, g1_profile, ks_deconv_solve, ks_from_tv_bound
from .errors import DomainError, ProfileFailureError
from .fi_curves import fi_bsc, fi_dmc_envelope, fi_erasure
from .gaussian_sdpi import gd_lower, horizontal_constants, t_lower_from_gap
from .general_sdpi import general_diag_bound, strict_contraction_check


_MAX_GRID_STEPS = 10 ** 6


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise DomainError(f"bad grid spec {spec!r}, expected lo:hi:step")
    if not (-math.inf < lo <= hi < math.inf and 0 < step < math.inf
            and (hi - lo) / step <= _MAX_GRID_STEPS):
        raise DomainError(f"bad grid spec {spec!r}: need finite lo <= hi, step > 0 "
                          f"and at most {_MAX_GRID_STEPS} steps")
    # the last point is the largest lo + n * step <= hi, up to rounding of the quotient
    n = math.floor((hi - lo) / step + 1e-9)
    return lo + step * np.arange(n + 1)


def _spec_number(spec: str, text: str, cast=float):
    """cast(text), or a DomainError naming the spec when text is malformed."""
    try:
        return cast(text)
    except ValueError:
        raise DomainError(
            f"malformed spec {spec!r}: cannot read {text!r} as {cast.__name__}") from None


def _spec_file(spec: str, path: str) -> str:
    """The text of the file a spec names, or a DomainError naming the spec when the path is empty."""
    if not path:
        raise DomainError(f"malformed spec {spec!r}: empty file path")
    return Path(path).read_text()


def _parse_channel(spec: str):
    """The F_I curve of a channel spec, as a function of the t array.

    The kernel is built for every kind, so its constructor rejects bad
    parameters before any curve is computed.
    """
    kind, _, arg = spec.partition(":")
    if kind == "bsc":
        delta = _spec_number(spec, arg)
        DMCKernel.bsc(delta)
        return lambda ts: [fi_bsc(t, delta) for t in ts]
    if kind == "erasure":
        alpha, _, size = arg.partition(":")
        alpha = _spec_number(spec, alpha)
        size = _spec_number(spec, size, int) if size else 2
        DMCKernel.erasure(alpha, size)
        return lambda ts: [fi_erasure(t, alpha, size) for t in ts]
    if kind == "identity":  # the erasure channel at alpha = 0
        size = _spec_number(spec, arg, int)
        DMCKernel.identity(size)
        return lambda ts: [fi_erasure(t, 0.0, size) for t in ts]
    if kind == "csv":
        K = DMCKernel(csv_rows(_spec_file(spec, arg), None, None))
        return lambda ts: fi_dmc_envelope(K, ts).values
    raise DomainError(f"unknown channel {spec!r}")


def _parse_noise(spec: str) -> NoiseModel:
    kind, _, arg = spec.partition(":")
    if kind == "gaussian":
        return NoiseModel.gaussian(_spec_number(spec, arg) if arg else 1.0)
    if kind == "uniform":
        a, _, b = arg.partition(",") if arg else ("0", ",", "1")
        return NoiseModel.uniform(_spec_number(spec, a), _spec_number(spec, b))
    if kind == "laplace":
        return NoiseModel.laplace(_spec_number(spec, arg) if arg else 1.0)
    if kind == "grid":
        return NoiseModel.from_grid(GridDensity.from_csv(_spec_file(spec, arg)))
    raise DomainError(f"unknown noise {spec!r}")


def _load_distribution(path: str):
    text = Path(path).read_text()
    header = (csv_lines(text) or [""])[0].strip().lower()
    if header == "atom,weight":
        return DiscretePMF.from_csv(text)
    return GridDensity.from_csv(text)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, header: str, xs, values, **constants):
    """Emit the `# meta:` line (version, constants), the header and one
    `x,value` row per point, each number as its exact repr."""
    parts = [f"version={__version__}"]
    for k, v in constants.items():
        parts.append(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}")
    _emit(args, "# meta: " + " ".join(parts) + "\n" + csv_text(header, xs, values))


def _cmd_fi_curve(args):
    curve = _parse_channel(args.channel)
    ts = _parse_grid(args.t_grid)
    _emit_csv(args, "t,fi", ts, curve(ts), channel=args.channel)
    return 0


def t_lower_or_nan(eps: float, gamma: float) -> float:
    """t_lower_from_gap, or nan where eps lies outside its validity range."""
    try:
        return t_lower_from_gap(eps, gamma)
    except DomainError:
        return math.nan


def _cmd_bounds(args):
    if args.bound == "diag":
        ts = _parse_grid(args.t_grid)
        _emit_csv(args, "t,gd", ts, [gd_lower(t, args.gamma) for t in ts], gamma=args.gamma)
    elif args.bound == "horiz":
        eps = _parse_grid(args.eps_grid)
        hc = horizontal_constants(args.gamma)
        _emit_csv(args, "eps,t_lower", eps, [t_lower_or_nan(e, args.gamma) for e in eps],
                  gamma=args.gamma, c1=hc.c1, kappa=hc.kappa, a5=hc.a5, log_eps0=hc.log_eps0)
    else:  # general-diag
        noise = _parse_noise(args.noise)
        ts = _parse_grid(args.t_grid)
        _emit_csv(args, "t,gd", ts, [general_diag_bound(t, noise, args.p, args.gamma) for t in ts],
                  gamma=args.gamma, p=args.p, noise=args.noise,
                  note="eta replaced by eta_tv upper bound")
    return 0


def _cmd_contraction(args):
    noise = _parse_noise(args.noise)
    grid = _parse_grid(args.t_grid)
    if args.what == "theta":
        _emit_csv(args, "delta,theta", grid, [noise.theta(d) for d in grid], noise=args.noise)
    else:
        _emit_csv(args, "A,eta_tv", grid, [eta_tv_amplitude(noise, a) for a in grid],
                  noise=args.noise)
    return 0


def deconv_report(P, Q, noise: NoiseModel, step: float) -> dict:
    """The `sdpi deconv` report: d_TV after noise on a `step` grid and d_KS,
    then, when Q is a density and 0 < d_TV < 1, the three KS bounds at
    T = g1(m1 d_TV)."""
    d_tv = tv_after_noise(P, Q, noise.to_grid(step=step))
    report = {"d_tv_conv": d_tv, "d_ks": ks_distance(P, Q)}
    if isinstance(Q, GridDensity) and 0 < d_tv < 1:
        m2 = Q.max_density()
        mom = (P.abs_moment(1.0), Q.abs_moment(1.0))
        profile = g1_profile(noise)
        T = profile.g1_of_u(min(noise.m1 * d_tv, 1.0))
        try:
            report["ks_from_tv_bound"] = ks_from_tv_bound(noise, m2, mom, profile, T, d_tv)
        except ProfileFailureError as e:  # profile without a closed-form floor
            report["ks_from_tv_bound_error"] = str(e)
        report["ks_deconv_solve"] = ks_deconv_solve(noise, d_tv, m2, mom)
        report["esseen_bound"] = esseen_bound(P, Q, m2, T)
        report["T"] = T
    return report


def _cmd_deconv(args):
    if args.step is not None and not 0 < args.step < math.inf:
        args.command_parser.error(f"--step must be positive and finite, not {args.step!r}")
    noise = _parse_noise(args.noise)
    P = _load_distribution(args.p_dist)
    Q = _load_distribution(args.q_dist)
    grids = [d for d in (Q, P) if isinstance(d, GridDensity)]
    if grids:
        if args.step is not None:
            args.command_parser.error("--step applies when --p and --q are both discrete; "
                                      "a grid input sets the step")
        # the mean node spacing: exact for nodes written as x_min + i * step,
        # where the median of the rounded differences may be off by ulps
        step = (grids[0].x_max - grids[0].x_min) / (len(grids[0].values) - 1)
    else:
        step = 0.01 if args.step is None else args.step
        if (noise.support()[1] - noise.support()[0]) / step > _MAX_GRID_STEPS:
            raise DomainError(f"--step {step!r} puts over {_MAX_GRID_STEPS} cells on the noise")
    _emit(args, json.dumps(deconv_report(P, Q, noise, step), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_check_strict(args):
    density = GridDensity.from_csv(Path(args.density).read_text())
    if args.shift_grid:
        shifts = _parse_grid(args.shift_grid)
    else:
        span = density.x_max - density.x_min
        shifts = np.linspace(-span, span, 81)
    v = strict_contraction_check(density, shifts)
    _emit(args, json.dumps({"verdict": v.verdict, "witness": v.witness,
                            "grid_step": v.grid_step}, sort_keys=True) + "\n")
    return 0


def _cmd_verify(args):
    if args.seed < 0:
        args.command_parser.error(f"--seed must be nonnegative, not {args.seed}")
    from .verify import run_suite
    report = run_suite(args.suite, args.seed)
    _emit(args, json.dumps(report, indent=2, sort_keys=True, default=float) + "\n")
    return 0 if report["violations"] == 0 else 1


def _read_config(path: str) -> dict:
    """The `key = value` lines of a --config file, keys spelled as option dests."""
    config = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            key, _, val = ln.partition("=")
            config[key.strip().replace("-", "_")] = val.strip()
    return config


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sdpi", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, func):
        sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None)
        sp.set_defaults(func=func, command_parser=sp)

    sp = sub.add_parser("fi-curve", help="F_I curve of a discrete channel")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--t-grid", dest="t_grid", required=True)
    common(sp, _cmd_fi_curve)

    kinds = sub.add_parser("bounds", help="diagonal / horizontal gap bounds").add_subparsers(
        dest="bound", required=True)
    options = {"--gamma": dict(type=float, default=1.0), "--p": dict(type=float, default=2.0),
               "--noise": dict(default="gaussian"), "--t-grid": dict(default="0.1:1:0.1"),
               "--eps-grid": dict(default="1e-6:1e-5:1e-6")}
    for kind, names in (("diag", "--gamma --t-grid"), ("horiz", "--gamma --eps-grid"),
                        ("general-diag", "--gamma --p --noise --t-grid")):
        sp = kinds.add_parser(kind)
        for name in names.split():
            sp.add_argument(name, **options[name])
        common(sp, _cmd_bounds)

    sp = sub.add_parser("contraction", help="theta and eta_tv curves")
    sp.add_argument("--noise", required=True)
    sp.add_argument("--what", choices=["theta", "eta"], default="theta")
    sp.add_argument("--t-grid", dest="t_grid", default="0:4:0.05")
    common(sp, _cmd_contraction)

    sp = sub.add_parser("deconv", help="deconvolution bounds for a (P, Q) pair")
    sp.add_argument("--noise", default="gaussian")
    sp.add_argument("--p", dest="p_dist", required=True, help="CSV of P")
    sp.add_argument("--q", dest="q_dist", required=True, help="CSV of Q")
    sp.add_argument("--step", type=float, default=None,
                    help="noise grid step when --p and --q are both discrete (default 0.01)")
    common(sp, _cmd_deconv)

    sp = sub.add_parser("check", help="structural checks")
    sp.add_argument("what", choices=["strict"])
    sp.add_argument("--density", required=True)
    sp.add_argument("--shift-grid", dest="shift_grid", default=None)
    common(sp, _cmd_check_strict)

    sp = sub.add_parser("verify", help="run a validation suite")
    sp.add_argument("--suite", choices=["diag", "horiz", "bsc", "deconv"], required=True)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, _cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the command's defaults: argparse converts
            # them with each option's declared type and command-line flags win;
            # only the command's own options take a value, not argparse's
            # bookkeeping attributes such as func
            sp = args.command_parser
            options = {a.dest for a in sp._actions if a.option_strings} - {"help"}
            sp.set_defaults(**{
                k: v for k, v in _read_config(args.config).items() if k in options})
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except Exception as e:
        sys.stderr.write(json.dumps({"error": type(e).__name__, "message": str(e)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
