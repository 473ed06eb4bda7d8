"""One workload process: set up, run ops in a closed loop, report raw numbers.

Started by run.py, which passes the monotonic time at which it launched this
process (`--t0`), so that set-up time counts interpreter start, `import
sdpi`, input generation and one warm-up op.  The last line of stdout is a
JSON object with the set-up time, per-op latencies, failures, peak RSS and
the workload's counters.

The host's speed drifts by tens of percent over seconds to minutes (other
tenants share its cores), so a fixed computation that uses no sdpi code, the
yardstick, runs before every op and after set-up.  Every time is reported
twice: as measured (`raw_*`), and scaled to the reference speed at which the
yardstick takes YARDSTICK_REF_S, by the median yardstick time of the nearest
ops.  A change to sdpi cannot change the yardstick, so it moves the scaled
times as much as the raw ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import special

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# yardstick time at the usual speed of the 2-core host of the baseline
YARDSTICK_REF_S = 2.5e-3
# an op's time is scaled by the median yardstick of the ops within this many
# places of it, its own included
SPEED_HALF_WINDOW = 4
SETUP_YARDSTICKS = 2 * SPEED_HALF_WINDOW + 1
_X = np.linspace(-8.0, 8.0, 4001)


def yardstick() -> float:
    """Seconds taken by a fixed computation of about 2.5 ms: numpy array
    arithmetic, scipy.special calls and an interpreted loop, the kinds of work
    the ops do."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(20):
        p = np.exp(-0.5 * (_X - 0.01 * k) ** 2)
        acc += float(np.sum(p * np.log1p(p))) + float(special.erfc(0.1 * k))
    n = 0
    for k in range(20000):
        n += (k * 7) % 13
    return time.perf_counter() - t0


def speed_scale(probes: list[float]) -> list[float]:
    """Per op, the reference yardstick time over the median of its neighbours'."""
    h = SPEED_HALF_WINDOW
    return [YARDSTICK_REF_S / statistics.median(probes[max(0, i - h):i + h + 1])
            for i in range(len(probes))]


def import_sdpi():
    """Import sdpi from <repo>/src and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import sdpi
    where = Path(sdpi.__file__).resolve()
    if where.parent != (SRC / "sdpi").resolve():
        raise SystemExit(f"sdpi resolves to {where}, outside {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    import sdpi
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "sdpi": str(Path(sdpi.__file__).parent)}


class Phase:
    """Latencies, wall time, failures and counters of one set of ops."""

    def __init__(self, wl):
        self.latencies_s: list[float] = []  # op start to completion
        self.costs_s: list[float] = []  # op start to the end of its check
        self.probes_s: list[float] = []  # the yardstick run just before the op
        self.failed = 0
        self.failures: list[str] = []
        self.counts = wl.new_counts()

    def report(self) -> dict:
        scale = speed_scale(self.probes_s)
        return {"elapsed_s": sum(c * k for c, k in zip(self.costs_s, scale)),
                "latencies_ms": [1e3 * t * k for t, k in zip(self.latencies_s, scale)],
                "raw_elapsed_s": sum(self.costs_s),
                "raw_latencies_ms": [1e3 * t for t in self.latencies_s],
                "speed": YARDSTICK_REF_S / statistics.median(self.probes_s),
                "failed": self.failed, "failures": self.failures[:10], "counters": self.counts}


def run_cycle(wl, c: int, phase: Phase, tracer=None) -> None:
    """Run and check the ops of cycle c, one at a time."""
    wl.counts = phase.counts
    for i in range(c * wl.cycle, (c + 1) * wl.cycle):
        phase.probes_s.append(yardstick())
        t0 = time.perf_counter()
        out, errs = None, []
        try:
            if tracer is None:
                out = wl.run(i)
            else:
                tracer.op = i
                with tracer.span("op"):
                    out = wl.run(i, tracer)
        except Exception as e:  # an op that raises counts as failed
            errs = [f"op {i} raised {type(e).__name__}: {e}"]
        phase.latencies_s.append(time.perf_counter() - t0)
        if not errs:
            errs = wl.check(i, out)
        phase.costs_s.append(time.perf_counter() - t0)
        if errs:
            phase.failed += 1
            phase.failures += errs[:2]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=["run", "setup", "refs", "trace"], default="run")
    ap.add_argument("--cycles", type=int, default=1, help="cycles of a trace run")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    import_sdpi()
    from tracer import Tracer
    from workloads import WORKLOADS, CliReadme

    workdir = Path(tempfile.mkdtemp(prefix="w", dir=args.workdir))
    wl = WORKLOADS[args.workload](args.seed, args.seconds, workdir)

    if args.mode == "refs":
        outs = [wl.ref_entry(wl.run(i)) for i in range(wl.cycle)]
        print(json.dumps({"seed": 0, "ops": outs}, indent=1))
        return 0

    wl.run(0)  # warm-up op
    raw_setup_s = time.monotonic() - args.t0
    setup = {"raw_setup_s": raw_setup_s, "setup_s": raw_setup_s * YARDSTICK_REF_S
             / statistics.median(yardstick() for _ in range(SETUP_YARDSTICKS))}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    n_cycles = len(wl) // wl.cycle
    if args.mode == "trace":
        # each cycle runs untraced, then traced on the same inputs, so both
        # halves see the same machine conditions
        tracer, plain, traced = Tracer(), Phase(wl), Phase(wl)
        for c in range(min(args.cycles, n_cycles)):
            run_cycle(wl, c, plain)
            tracer.install(wl.sites)
            run_cycle(wl, c, traced, tracer)
            tracer.uninstall()
        tracer.dump(args.spans_out)
        phases = {"plain": plain.report(), "traced": traced.report()}
    else:
        phase, c = Phase(wl), 0
        start = time.perf_counter()
        while c < n_cycles and time.perf_counter() - start < args.seconds:
            run_cycle(wl, c, phase)
            c += 1
        phases = {"run": phase.report()}

    if isinstance(wl, CliReadme):
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({**setup, "peak_rss_mb": rss_kb / 1024.0,
                      "env": environment(), **phases}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
