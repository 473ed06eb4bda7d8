"""Seeded inputs, ops and correctness checks of the benchmark workloads.

Every workload is a closed loop with one op in flight.  Ops are grouped in
cycles (one pass over the workload's op kinds) so that a run always holds
whole cycles and the op mix does not depend on where the run is cut.  The
first cycle of every run uses the inputs of DEFAULT_SEED, whose outputs are
stored in refs/ and compared on every run; later cycles use the run's seed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracer import AWGN_SITES, DMC_SITES

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
DEFAULT_SEED = 0
# solver-path outputs may drift by this much against the references
REF_RTOL, REF_ATOL = 1e-6, 1e-12


def _streams(seed: int):
    """(reference-cycle generator, run generator)."""
    return np.random.default_rng(DEFAULT_SEED), np.random.default_rng([seed, 1])


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REF_RTOL * abs(b) + REF_ATOL


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def close_text(out: str, ref: str) -> bool:
    """Same text apart from numbers, and every number within the tolerance."""
    if _NUMBER.split(out) != _NUMBER.split(ref):
        return False
    a, b = _NUMBER.findall(out), _NUMBER.findall(ref)
    return len(a) == len(b) and all(_close(float(x), float(y)) for x, y in zip(a, b))


@functools.cache
def _refs(name: str) -> list:
    """Reference outputs of the first cycle; a missing file is an error."""
    return json.loads((REFS / f"{name}.json").read_text())["ops"]


# ---------------------------------------------------------------------------
# awgn-sweep: random-coupling oracle sweeps of the AWGN channel
# ---------------------------------------------------------------------------

class AwgnSweep:
    """One op: a 25-coupling `sdpi_pair_sampler` sweep checked against the
    diagonal bound gd_lower and the horizontal bound t_lower_from_gap."""

    name = "awgn-sweep"
    gammas = (0.5, 1.0, 4.0)
    cycle = len(gammas)
    n_couplings = 25
    max_rate = 300.0  # ops/s the input pool is sized for

    sites = AWGN_SITES

    def __init__(self, seed: int, seconds: float, workdir: Path):
        from sdpi import channels, gaussian_sdpi, oracle
        from sdpi.errors import DomainError
        self.channels, self.gd, self.oracle = channels, gaussian_sdpi, oracle
        self.domain_error = DomainError
        ref_rng, rng = _streams(seed)
        n = max(self.cycle, int(seconds * self.max_rate))
        self.op_seeds = np.concatenate([ref_rng.integers(2 ** 62, size=self.cycle),
                                        rng.integers(2 ** 62, size=n)[self.cycle:]])

    def __len__(self):
        return len(self.op_seeds)

    def run(self, i: int, tracer=None):
        gamma = self.gammas[i % self.cycle]
        horiz_checks = [0]
        diag = []  # (t, gd_lower(t)) of every diagonal check

        def diag_bound(t):
            gd = self.gd.gd_lower(t, gamma)
            diag.append((t, gd))
            return gd

        def horiz(eps):
            horiz_checks[0] += 1
            try:
                return self.gd.t_lower_from_gap(eps, gamma)
            except self.domain_error:
                return None  # bound not applicable at this gap

        cap = self.channels.awgn_capacity(gamma)
        res = self.oracle.sdpi_pair_sampler(
            self.channels.NoiseModel.gaussian(), gamma, p=2.0,
            n_couplings=self.n_couplings, seed=int(self.op_seeds[i]),
            diag_bound=diag_bound, horiz_bound=horiz, capacity=cap)
        return res, cap, horiz_checks[0], diag

    def check(self, i: int, out) -> list[str]:
        res, cap, horiz_checks, diag = out
        self.counts["couplings"] += len(res.samples)
        self.counts["horiz_checks"] += horiz_checks
        errs = []
        if res.violation_count:
            errs.append(f"{res.violation_count} bound violations: {res.violations[:3]}")
        i_wx, i_wy = res.samples[:, 0], res.samples[:, 1]
        if np.any(i_wy > i_wx + 1e-6):
            errs.append("I(W;Y) > I(W;X): data processing broken")
        if np.any(i_wy > cap + 1e-9):
            errs.append("I(W;Y) above the AWGN capacity")
        if any(not 0.0 <= gd <= t for t, gd in diag):
            errs.append("gd_lower(t) outside [0, t]")
        if i < self.cycle:
            mine, ref = self.ref_entry(out), _refs(self.name)[i]
            got = np.ravel(mine["samples"] + mine["diag"]).tolist()
            want = np.ravel(ref["samples"] + ref["diag"]).tolist()
            if len(got) != len(want) or not all(_close(a, b) for a, b in zip(got, want)):
                errs.append("(I_WX, I_WY) pairs or gd_lower values differ from the reference")
        return errs

    def ref_entry(self, out):
        return {"samples": out[0].samples.tolist(), "diag": [list(d) for d in out[3]]}

    @staticmethod
    def new_counts() -> dict:
        return {"couplings": 0, "horiz_checks": 0}


def _kronecker(d: int) -> np.ndarray:
    """Step of the d-dimensional Kronecker (R_d) sequence: the powers of
    1/phi_d, where phi_d is the positive root of x^(d+1) = x + 1."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return phi ** -np.arange(1.0, d + 1.0)


def _lattice_point(shift: np.ndarray, k: int) -> np.ndarray:
    """k-th point of the randomly shifted Kronecker sequence in [0, 1)^d:
    each point is uniform, and any run of consecutive points covers the
    cube evenly."""
    return (shift + k * _kronecker(shift.size)) % 1.0


def _dirichlet2_rows(u: np.ndarray) -> np.ndarray:
    """Rows with the Dirichlet(2, ..., 2) law from uniforms, one row per row of
    u (its length one less than the row's): stick breaking through the
    inverse CDFs of the Beta marginals."""
    from scipy.special import betaincinv
    rows = np.empty((u.shape[0], u.shape[1] + 1))
    rest = np.ones(u.shape[0])
    for j in range(u.shape[1]):
        share = betaincinv(2.0, 2.0 * (u.shape[1] - j), u[:, j])
        rows[:, j] = rest * share
        rest = rest - rows[:, j]
    rows[:, -1] = rest
    return rows


# ---------------------------------------------------------------------------
# dmc-envelope: Lagrangian F_I envelope of discrete channels
# ---------------------------------------------------------------------------

class DmcEnvelope:
    """One op: `fi_dmc_envelope` of one kernel on t = 0:1:0.05.

    Kernel kinds cycle BSC, erasure, random, random; every op draws a new
    kernel.  BSC and erasure envelopes are checked against the closed forms.
    Op cost depends mostly on the kernel (from 0.15 to 1.4 s for random
    kernels of one shape), so each run takes δ, α and the rows of the random
    kernels of each shape from a randomly shifted Kronecker sequence
    (randomized quasi-Monte Carlo): every kernel has the stated law, any
    prefix of a run covers the parameter space evenly, and runs of different
    seeds differ little in cost.
    """

    name = "dmc-envelope"
    kinds = ("bsc", "erasure", "random", "random")
    cycle = len(kinds)
    shapes = ((2, 2), (2, 3), (3, 2), (3, 3))
    t_grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 10)
    solver = {"restarts": 4, "n_lambdas": 8, "refinements": 4}
    # closed form minus envelope may not exceed this (nats); the largest gap
    # seen over 180 BSC kernels with these solver settings was 1.1e-2
    gap_tol = 0.02
    max_rate = 20.0

    sites = DMC_SITES

    def __init__(self, seed: int, seconds: float, workdir: Path):
        from sdpi import fi_curves
        from sdpi.channels import DMCKernel
        self.fi = fi_curves
        ref_rng, rng = _streams(seed)
        n = max(self.cycle, int(seconds * self.max_rate))
        self.ops = (self._draw(ref_rng, self.cycle, DMCKernel)
                    + self._draw(rng, n, DMCKernel)[self.cycle:])

    def _draw(self, rng, n: int, DMCKernel) -> list:
        shift = {kind: rng.uniform(size=1) for kind in ("bsc", "erasure")}
        shift.update({(nx, ny): rng.uniform(size=nx * (ny - 1)) for nx, ny in self.shapes})
        count = dict.fromkeys(self.kinds, 0)
        ops = []
        for i in range(n):
            kind = self.kinds[i % self.cycle]
            k = count[kind]
            count[kind] += 1
            if kind == "bsc":
                u = _lattice_point(shift[kind], k)[0]
                params = (0.05 + 0.4 * u,)
                K = DMCKernel.bsc(*params)
            elif kind == "erasure":
                u = _lattice_point(shift[kind], k)[0]
                params = (0.1 + 0.6 * u, 2 + k % 2)
                K = DMCKernel.erasure(*params)
            else:
                shape = self.shapes[k % len(self.shapes)]
                u = _lattice_point(shift[shape], k // len(self.shapes))
                params = ()
                K = DMCKernel(_dirichlet2_rows(u.reshape(shape[0], shape[1] - 1)))
            ops.append((K, int(rng.integers(2 ** 31)), kind, params))
        return ops

    def __len__(self):
        return len(self.ops)

    def run(self, i: int, tracer=None):
        K, seed, _, _ = self.ops[i]
        return self.fi.fi_dmc_envelope(K, self.t_grid, dict(self.solver, seed=seed))

    def _closed_form(self, kind: str, params: tuple):
        if kind == "bsc":
            return [self.fi.fi_bsc(t, *params) for t in self.t_grid]
        if kind == "erasure":
            return [self.fi.fi_erasure(t, *params) for t in self.t_grid]
        return None

    def check(self, i: int, curve) -> list[str]:
        self.counts["no_improve_restarts"] += curve.meta["no_improve_restarts"]
        errs = []
        props = self.fi.fi_properties_check(curve)
        if not props["passed"]:
            errs.append(f"fi_properties_check failed: {props['failures'][:3]}")
        closed = self._closed_form(*self.ops[i][2:])
        if closed is not None:
            gap = np.asarray(closed) - curve.values
            self.counts["closed_form_gap_max"] = max(self.counts["closed_form_gap_max"],
                                                     float(gap.max()))
            if gap.min() < -1e-9 or gap.max() > self.gap_tol:
                errs.append(f"closed form minus envelope in [{gap.min():.3g}, "
                            f"{gap.max():.3g}], allowed [-1e-9, {self.gap_tol}]")
        return errs

    @staticmethod
    def new_counts() -> dict:
        return {"no_improve_restarts": 0, "closed_form_gap_max": 0.0}


# ---------------------------------------------------------------------------
# cli-readme: the README commands, each a fresh `python -m sdpi.cli` process
# ---------------------------------------------------------------------------

# commands whose stdout must match the reference byte for byte; the rest run
# solvers and are compared number by number within REF_RTOL / REF_ATOL
EXACT = {"fi-curve-bsc", "bounds-horiz", "contraction-eta", "check-strict", "verify-bsc"}
COMMANDS = ("fi-curve-bsc", "bounds-diag", "bounds-horiz", "bounds-general-diag",
            "contraction-eta", "deconv", "check-strict", "verify-bsc")
STEP = 0.01


def _csv(header: str, xs, vs) -> str:
    return header + "\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(xs, vs))


def _grid_density_csv(xs: np.ndarray, vs: np.ndarray) -> str:
    vs = vs / np.trapezoid(vs, dx=STEP)
    return _csv("x,value", xs.tolist(), vs.tolist())


def _rows(stdout: str, header: str) -> list[list[float]]:
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# meta:") or lines[1] != header:
        raise ValueError("missing meta line or header")
    return [[float(c) for c in ln.split(",")] for ln in lines[2:]]


class CliReadme:
    """One op: one README command in a fresh interpreter, as a user runs it."""

    name = "cli-readme"
    cycle = len(COMMANDS)
    max_rate = 8.0
    sites = ()  # traced_cli.py installs CLI_SITES in each command process

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        ref_rng, rng = _streams(seed)
        n_cycles = max(1, int(seconds * self.max_rate / self.cycle))
        self.ops = []
        for c in range(n_cycles):
            self.ops += self._draw_cycle(ref_rng if c == 0 else rng, c)
        self.peak_rss_kb = 0

    def _draw_cycle(self, rng, c: int) -> list:
        delta = rng.uniform(0.05, 0.45)
        gamma_d, gamma_h = rng.uniform(0.5, 4.0, size=2)
        laplace_b = rng.uniform(0.5, 2.0)
        sigma_n = rng.uniform(0.5, 1.5)  # Gaussian noise width
        k = int(rng.integers(2, 5))
        atoms = np.sort(rng.uniform(-1.5, 1.5, k))
        while np.any(np.diff(atoms) < 0.05):
            atoms = np.sort(rng.uniform(-1.5, 1.5, k))
        weights = rng.dirichlet(np.ones(k))
        sigma_q = rng.uniform(0.7, 1.3)
        width = rng.uniform(1.0, 4.0)  # support width of the strict-check density
        verify_seed = int(rng.integers(2 ** 31))
        r = lambda x: repr(round(float(x), 6))  # noqa: E731

        p_path = self.workdir / f"P{c}.csv"
        p_path.write_text(_csv("atom,weight", atoms.tolist(), weights.tolist()))
        m = math.ceil(8.0 * sigma_q / STEP)
        xs = STEP * np.arange(-m, m + 1)
        q_path = self.workdir / f"Q{c}.csv"
        q_path.write_text(_grid_density_csv(xs, np.exp(-0.5 * (xs / sigma_q) ** 2)))
        xs = STEP * np.arange(-300, 301)
        noise_path = self.workdir / f"noise{c}.csv"
        noise_path.write_text(_grid_density_csv(xs, (np.abs(xs) <= width / 2).astype(float)))
        return [
            ("fi-curve-bsc", ["fi-curve", "--channel", f"bsc:{r(delta)}",
                              "--t-grid", "0:0.6:0.01"], {}),
            ("bounds-diag", ["bounds", "diag", "--gamma", r(gamma_d),
                             "--t-grid", "0.1:1:0.05"], {}),
            ("bounds-horiz", ["bounds", "horiz", "--gamma", r(gamma_h),
                              "--eps-grid", "1e-6:1e-5:1e-6"], {}),
            ("bounds-general-diag", ["bounds", "general-diag", "--noise",
                                     f"laplace:{r(laplace_b)}", "--t-grid", "0.1:1:0.1"], {}),
            ("contraction-eta", ["contraction", "--noise", f"gaussian:{r(sigma_n)}",
                                 "--what", "eta", "--t-grid", "0:6:0.1"], {}),
            ("deconv", ["deconv", "--noise", f"gaussian:{r(sigma_n)}",
                        "--p", str(p_path), "--q", str(q_path)], {}),
            ("check-strict", ["check", "strict", "--density", str(noise_path),
                              "--shift-grid=-5:5:0.25"], {"width": float(width)}),
            ("verify-bsc", ["verify", "--suite", "bsc", "--seed", str(verify_seed)], {}),
        ]

    def __len__(self):
        return len(self.ops)

    def run(self, i: int, tracer=None):
        label, argv, _ = self.ops[i]
        if tracer is None:
            cmd = [sys.executable, "-m", "sdpi.cli", *argv]
        else:
            spans_path = self.workdir / f"spans{i}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                   label, str(i), *argv]
        code, out, err, rss_kb = run_child(cmd, self.env, self.workdir)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if tracer is not None and spans_path.is_file():
            tracer.adopt(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return code, out, err

    def check(self, i: int, result) -> list[str]:
        code, out, err = result
        label, _, info = self.ops[i]
        if code != 0:
            return [f"{label}: exit code {code}: {err.strip()[-300:]}"]
        try:
            errs = self._check_output(label, out, info)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            errs = [f"unparsable output: {e!r}"]
        if i < self.cycle:
            ref = _refs(self.name)[i]
            same = out == ref if label in EXACT else close_text(out, ref)
            if not same:
                errs.append("stdout differs from the reference")
        return [f"{label}: {e}" for e in errs]

    @staticmethod
    def _check_output(label: str, out: str, info: dict) -> list[str]:
        errs = []
        if label == "fi-curve-bsc":
            rows = _rows(out, "t,fi")
            if len(rows) != 61 or any(not 0.0 <= fi <= t + 1e-12 for t, fi in rows):
                errs.append("need 61 rows with 0 <= fi <= t")
        elif label == "bounds-diag":
            rows = _rows(out, "t,gd")
            if len(rows) != 19 or any(not 0.0 <= gd <= t for t, gd in rows):
                errs.append("need 19 rows with 0 <= gd <= t")
        elif label == "bounds-horiz":
            rows = _rows(out, "eps,t_lower")
            if len(rows) != 10 or any(math.isinf(v) for _, v in rows):
                errs.append("need 10 rows of finite values or nan")
        elif label == "bounds-general-diag":
            rows = _rows(out, "t,gd")
            if len(rows) != 10 or any(not 0.0 <= gd <= 0.5 * t for t, gd in rows):
                errs.append("need 10 rows with 0 <= gd <= t/2")
        elif label == "contraction-eta":
            rows = _rows(out, "A,eta_tv")
            eta = [v for _, v in rows]
            if (len(rows) != 61 or eta[0] != 0.0 or any(not 0.0 <= v <= 1.0 for v in eta)
                    or any(b < a for a, b in zip(eta, eta[1:]))):
                errs.append("need 61 rows of eta_tv nondecreasing in [0, 1] from 0")
        elif label == "deconv":
            rep = json.loads(out)
            if not 0.0 < rep["d_tv_conv"] < 1.0:
                errs.append(f"d_tv_conv = {rep['d_tv_conv']} outside (0, 1)")
            for key in ("ks_from_tv_bound", "ks_deconv_solve", "esseen_bound"):
                if not rep[key] >= rep["d_ks"]:
                    errs.append(f"{key} = {rep[key]} below d_ks = {rep['d_ks']}")
        elif label == "check-strict":
            rep = json.loads(out)
            # a support of width w stops overlapping its translates near |x| = w
            w = info["width"]
            if rep["verdict"] != "NOT-STRICT" or not w - 0.02 <= abs(rep["witness"]) <= w + 0.27:
                errs.append(f"verdict {rep['verdict']} witness {rep['witness']} for width {w:.4f}")
        elif label == "verify-bsc":
            rep = json.loads(out)
            if rep["suite"] != "bsc" or rep["violations"] != 0:
                errs.append(f"{rep['violations']} violations")
        return errs

    def ref_entry(self, result):
        return result[1]

    @staticmethod
    def new_counts() -> dict:
        return {}


def run_child(cmd: list[str], env: dict, cwd: Path):
    """Run a process to completion: (exit code, stdout, stderr, peak RSS in KiB)."""
    with open(cwd / "stderr.txt", "w+") as err_file:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err_file, text=True)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        err_file.seek(0)
        err = err_file.read()
    return proc.returncode, out, err, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (AwgnSweep, DmcEnvelope, CliReadme)}
