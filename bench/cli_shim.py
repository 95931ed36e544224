"""``python -m apwords.cli``, timed from inside, with or without the layer
tracer installed.

    python3 bench/cli_shim.py trace|plain SUMMARY_JSON ARGV...

Imports the CLI, runs ``cli.main(ARGV)`` (under a tracer with ``trace``),
writes the import time, the dispatch time and the trace summary (null with
``plain``) to SUMMARY_JSON, and exits with the CLI's exit code.  Its standard
output is the CLI's.  The dispatch time of a ``trace`` child includes the
tracer's own cost; ``plain`` children give the program's own figure.
"""

import json
import sys
import time


def main():
    mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    from apwords import cli
    t1 = time.perf_counter()
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.job_id = 0
    t2 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    sys.stdout.flush()
    with open(path, "w") as fh:
        json.dump({"import_ms": (t1 - t0) * 1e3, "dispatch_ms": (t3 - t2) * 1e3,
                   "summary": tracer and tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
