"""Run ``zzkit.cli.main`` once per argument list in one process.

Usage: python cli_batch.py JOBS.json

JOBS.json holds {"trace": SPANS_OUT or null, "argvs": [[...], ...]}.  With a
trace path, every traced zzkit function is wrapped before the first call and
the spans are written to SPANS_OUT when the process ends.  The exit code is
the first nonzero code returned by ``main``, else 0.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    with open(sys.argv[1]) as fh:
        jobs = json.load(fh)
    import zzkit.cli

    tracer = Tracer()
    if jobs["trace"]:
        tracer.install()
    codes = []
    try:
        for argv in jobs["argvs"]:
            codes.append(zzkit.cli.main(argv))
    finally:
        if jobs["trace"]:
            with open(jobs["trace"], "w") as fh:
                json.dump(tracer.spans, fh)
    return next((c for c in codes if c), 0)


if __name__ == "__main__":
    sys.exit(main())
