"""Run one sdpi CLI command under the span tracer, in a fresh process.

Usage: traced_cli.py SPANS_JSON LABEL OP_INDEX CLI_ARGS...
Stdout, stderr and the exit code are those of the command; the spans go to
SPANS_JSON.
"""

import sys
from pathlib import Path

from tracer import CLI_SITES, Tracer


def main() -> int:
    spans_path, label, op = sys.argv[1], sys.argv[2], int(sys.argv[3])
    argv = sys.argv[4:]
    import sdpi.cli
    import sdpi.verify  # noqa: F401  (its import-time bindings are wrapped below)
    src = Path(__file__).resolve().parent.parent / "src" / "sdpi"
    if Path(sdpi.cli.__file__).resolve().parent != src.resolve():
        raise SystemExit(f"sdpi resolves to {sdpi.cli.__file__}, outside {src}")
    tracer = Tracer()
    tracer.op = op
    tracer.install(CLI_SITES)
    with tracer.span(f"cli.{label}"):
        code = sdpi.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
