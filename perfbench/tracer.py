"""In-memory span tracer that wraps public functions of the sdpi package.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (or -1) and `op` the index of the benchmark op that caused it.
Functions are wrapped at the module attribute their caller looks up, so a
function imported by name into another module is wrapped there too.  Spans
stay in a list until the run ends; `summary` turns them into per-name
calls / busy / self times, where self time is busy time minus the time
covered by direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute looked up by the caller, span name)
AWGN_SITES = (
    ("sdpi.oracle", "sdpi_pair_sampler", "oracle.sdpi_pair_sampler"),
    ("sdpi.gaussian_sdpi", "gd_lower", "gaussian_sdpi.gd_lower"),
    ("sdpi.gaussian_sdpi", "t_lower_from_gap", "gaussian_sdpi.t_lower_from_gap"),
)
DMC_SITES = (
    ("sdpi.fi_curves", "fi_dmc_envelope", "fi_curves.fi_dmc_envelope"),
    ("sdpi.fi_curves", "dmc_capacity", "channels.dmc_capacity"),
)
CLI_SITES = (
    ("sdpi.cli", "gd_lower", "gaussian_sdpi.gd_lower"),
    ("sdpi.verify", "fi_bruteforce_dmc", "oracle.fi_bruteforce_dmc"),
    ("sdpi.core_prob", "convolve", "core_prob.convolve"),
    ("sdpi.deconv", "char_fn", "core_prob.char_fn"),
    ("sdpi.cli", "esseen_bound", "deconv.esseen_bound"),
    ("sdpi.cli", "ks_deconv_solve", "deconv.ks_deconv_solve"),
    ("sdpi.cli", "g1_profile", "deconv.g1_profile"),
    ("sdpi.cli", "eta_tv_amplitude", "contraction.eta_tv_amplitude"),
    ("sdpi.contraction", "eta_tv_amplitude", "contraction.eta_tv_amplitude"),
    ("sdpi.cli", "general_diag_bound", "general_sdpi.general_diag_bound"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.op)

    def install(self, sites) -> None:
        for mod_name, attr, name in sites:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)

            @functools.wraps(fn)
            def traced(*args, _fn=fn, _name=name, **kwargs):
                with self.span(_name):
                    return _fn(*args, **kwargs)

            setattr(mod, attr, traced)
            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def adopt(self, spans) -> None:
        """Append spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans += [(n, t0, t1, base + p if p >= 0 else parent, op)
                       for n, t0, t1, p, op in spans]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def summary(spans) -> dict:
    """{name: {"calls", "busy_s", "self_s"}} over a list of spans."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["busy_s"] += t1 - t0
        s["self_s"] += t1 - t0 - child_time[i]
    return out
