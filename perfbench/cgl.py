"""The ``cgl`` console script, run from the source tree.

Usage: python3 perfbench/cgl.py ARGS...

Does what the installed ``cgl`` entry point does.  With PERFBENCH_TRACE=1 in
the environment it also wraps the library's public names with
``tracing.Tracer`` and writes one line ``PERFBENCH_TRACE <json>`` to stderr
after the command has run.  Otherwise it runs ``hostspeed.Probe`` around the
command and writes its reading as one line ``PERFBENCH_SPEED <json>`` to
stderr at the end.
"""

import json
import os
import sys

import tracing

TRACE_MARK = "PERFBENCH_TRACE"
SPEED_MARK = "PERFBENCH_SPEED"


def main() -> int:
    if os.environ.get(TRACE_MARK) != "1":
        import hostspeed

        probe = hostspeed.Probe()
        probe.start()
        try:
            from conformal_gap_lab.cli import main as cgl_main

            return cgl_main()
        finally:
            probe.stop()
            sys.stdout.flush()
            print(SPEED_MARK, json.dumps(probe.reading()), file=sys.stderr)

    from conformal_gap_lab.cli import main as cgl_main

    tracer = tracing.Tracer()
    builds = tracing.table_builds()
    tracing.install(tracer)
    code = cgl_main()
    summary = tracer.summary()
    summary["jets.tables.builds"] = tracing.table_builds() - builds
    sys.stdout.flush()
    print(TRACE_MARK, json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
