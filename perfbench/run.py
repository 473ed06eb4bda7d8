"""Benchmark of the sdpi package: one command per workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): awgn-sweep, dmc-envelope, cli-readme.  With
--trace 0 the run measures the end-to-end metrics with tracing off; with
--trace 1 it runs a fixed number of cycles, each untraced and then traced,
and reports per-layer metrics plus the tracing overhead.  Every op's output is
checked.  The last stdout line is the JSON result; the lines before it list
each metric with its unit and the environment.  `--write-refs` regenerates
refs/<workload>.json from the default seed.

The sdpi package is imported from <repo>/src, never from an installed copy.
All files are written under <repo>/.perfbench/, which the run creates.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".perfbench"
WORKLOADS = ("awgn-sweep", "dmc-envelope", "cli-readme")
DEADLINE_S = 170.0  # the whole run, all child processes included
SETUP_PROBES = 4  # extra set-up-only processes; setup_s is the median of all
# baseline cycles/s (see workloads.py), used only to size the fixed length
# of a traced run so that each of its two halves takes about seconds/2
TRACE_CYCLE_RATE = {"awgn-sweep": 3.3, "dmc-envelope": 0.5, "cli-readme": 0.16}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("ok_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
TRACED_FUNCTIONS = (
    "oracle.sdpi_pair_sampler", "gaussian_sdpi.gd_lower", "gaussian_sdpi.t_lower_from_gap",
    "fi_curves.fi_dmc_envelope", "channels.dmc_capacity", "oracle.fi_bruteforce_dmc",
    "core_prob.convolve", "core_prob.char_fn", "deconv.esseen_bound",
    "deconv.ks_deconv_solve", "deconv.g1_profile", "contraction.eta_tv_amplitude",
    "general_sdpi.general_diag_bound",
)


class Runner:
    """Starts child processes under one deadline and stops them all."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    def run(self, cmd: list[str]) -> tuple[float, str]:
        """(wall seconds, stdout) of a child that must exit 0."""
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.tmp, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except BaseException:
            with contextlib.suppress(ProcessLookupError):  # the child and its children
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd[1:3]} exited with {proc.returncode}")
        return wall, out

    def worker(self, workload: str, seed: int, seconds: float, mode: str, *extra) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(self.tmp),
               "--mode", mode, *extra, "--t0", repr(time.monotonic())]
        _, out = self.run(cmd)
        return json.loads(out.strip().splitlines()[-1])

    def median_wall(self, code: str, n: int = 3) -> float:
        return statistics.median(self.run([sys.executable, "-c", code])[0] for _ in range(n))


def harrell_davis(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  With under a hundred ops it varies much less from run
    to run than one or two order statistics near the quantile do."""
    from scipy.special import betainc
    n = len(xs)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((b - a) * x for a, b, x in zip(edges, edges[1:], sorted(xs))))


def timing(phase: dict, prefix: str = "") -> dict:
    """Throughput, latency and pass ratio of a phase: its times scaled to the
    reference speed (see worker.py), or as measured with prefix "raw_"."""
    lat = phase[prefix + "latencies_ms"]
    n = len(lat)
    return {
        "ops_per_s": n / phase[prefix + "elapsed_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": harrell_davis(lat, 0.9),
        "ok_ratio": (n - phase["failed"]) / n,
    }


def per_layer(summary: dict, counters: dict, plain: dict, traced: dict,
              interpreter_s: float, import_s: float) -> dict:
    """Per-layer metrics of the traced half; overhead compares it with the
    untraced half (set-up and peak memory are shared by both halves)."""
    m = {}
    for name in TRACED_FUNCTIONS:
        s = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        m[f"{name}.calls"] = (s["calls"], "count")
        m[f"{name}.busy_s"] = (s["busy_s"], "s")
    m["oracle.sdpi_pair_sampler.self_s"] = (
        summary.get("oracle.sdpi_pair_sampler", {}).get("self_s", 0.0), "s")
    couplings = counters.get("couplings", 0)
    m["oracle.couplings"] = (couplings, "count")
    m["oracle.horiz_checked_ratio"] = (
        counters.get("horiz_checks", 0) / couplings if couplings else 0.0, "ratio")
    m["fi_curves.no_improve_restarts"] = (counters.get("no_improve_restarts", 0), "count")
    m["fi_curves.closed_form_gap_max"] = (counters.get("closed_form_gap_max", 0.0), "nats")
    m["cli.interpreter_s"] = (interpreter_s, "s")
    m["cli.import_s"] = (import_s, "s")
    from workloads import COMMANDS
    for cmd in COMMANDS:
        m[f"cli.{cmd}.busy_s"] = (summary.get(f"cli.{cmd}", {}).get("busy_s", 0.0), "s")
    op = summary["op"]
    m["trace.ops"] = (op["calls"], "count")
    m["trace.covered_share"] = (1.0 - op["self_s"] / op["busy_s"], "ratio")
    for name, a in plain.items():
        b = traced[name]
        m[f"trace.overhead.{name}"] = (b - a if name == "ok_ratio" else b / a - 1.0, "ratio")
    return m


def environment() -> dict:
    import platform
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true")
    args = ap.parse_args()

    if not (REPO / "src" / "sdpi" / "__init__.py").is_file():
        print(f"error: no sdpi package under {REPO / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        return measure(args, Runner(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, runner: Runner) -> int:
    w, seed, seconds = args.workload, args.seed, args.seconds
    if args.write_refs:
        if w == "dmc-envelope":
            print("dmc-envelope is checked against closed forms; it has no refs",
                  file=sys.stderr)
            return 2
        _, out = runner.run([sys.executable, str(HERE / "worker.py"), "--workload", w,
                             "--seed", "0", "--seconds", "1", "--workdir", str(runner.tmp),
                             "--mode", "refs", "--t0", "0"])
        (HERE / "refs").mkdir(exist_ok=True)
        (HERE / "refs" / f"{w}.json").write_text(out)
        return 0

    if args.trace == 0:
        setups = [runner.worker(w, seed, seconds, "setup") for _ in range(SETUP_PROBES)]
        res = runner.worker(w, seed, seconds, "run")
        setups.append(res)
        values = dict(timing(res["run"]),
                      setup_s=statistics.median(s["setup_s"] for s in setups),
                      peak_rss_mb=res["peak_rss_mb"])
        units = dict(END_TO_END)
        metrics = {k: (values[k], units[k]) for k in units}
        raw = dict(timing(res["run"], "raw_"),
                   setup_s=statistics.median(s["raw_setup_s"] for s in setups))
        print(f"speed {res['run']['speed']:.4g} (yardstick reference over measured); "
              "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        phases = [res["run"]]
    else:
        n = max(1, round(TRACE_CYCLE_RATE[w] * seconds / 2))
        spans_path = OUT / f"trace-{w}-seed{seed}.json"
        res = runner.worker(w, seed, seconds, "trace", "--cycles", str(n),
                            "--spans-out", str(spans_path))
        interpreter_s = runner.median_wall("pass")
        import_s = runner.median_wall("import sdpi.cli") - interpreter_s
        from tracer import summary
        spans = json.loads(spans_path.read_text())
        metrics = per_layer(summary(spans), res["traced"]["counters"], timing(res["plain"]),
                            timing(res["traced"]), interpreter_s, import_s)
        phases = [res["plain"], res["traced"]]
        print(f"spans: {spans_path}")

    attempted = sum(len(p["latencies_ms"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    for p in phases:
        for msg in p["failures"]:
            print(f"FAIL {msg}")
    print("env " + json.dumps(dict(environment(), **res["env"])))
    print(f"workload {w} seed {seed} ops {attempted} failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
