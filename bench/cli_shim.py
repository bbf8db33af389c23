"""Traced stand-in for `python -m structcon.cli`, used by the traced cli_cold pass.

    python bench/cli_shim.py SPANS_OUT SPAWN_STAMP CLI_ARG...

Records the interpreter start (from SPAWN_STAMP, the parent's clock reading
just before it started this process), the import of structcon.cli and the
call to structcon.cli.main with the cross-module wrappers installed, writes
the spans to SPANS_OUT as JSON, and exits with main's exit code.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out, spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import_start = time.perf_counter()
    import structcon.cli as cli
    import_end = time.perf_counter()
    from tracing import Tracer, install

    tracer = Tracer()
    tracer.add("cli.interp_start", spawn, STARTED)
    tracer.add("cli.import", import_start, import_end)
    install(tracer, {name: sys.modules[f"structcon.{name}"]
                     for name in ("algebra", "verdict", "graphs", "analysis", "cli")})
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
