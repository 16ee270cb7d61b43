"""One pass of a workload in a fresh interpreter.

Reads a JSON spec on stdin: ``src`` (directory holding the s3double
package), ``spawned_at`` (the parent's ``time.monotonic()`` just before it
started this process), ``jobs`` (CLI argument lists) and ``trace``.  Loads
the package, runs each job through ``s3double.cli.run`` with stdout
captured, and prints one JSON object: set-up time, per-job exit code, time
and output, peak resident memory and, when tracing, the per-layer metrics.

Set-up time runs from the parent's spawn stamp until ``s3double.cli`` is
imported and the F/R table is parsed; it relies on ``time.monotonic`` being
one system-wide clock (CLOCK_MONOTONIC on Linux).
"""

import contextlib
import io
import json
import resource
import sys
import time


def main():
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, spec["src"])
    from s3double import category, cli

    category.default_category()
    setup_s = time.monotonic() - spec["spawned_at"]

    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    jobs = []
    for argv in spec["jobs"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(argv)
            except Exception as exc:  # a crashing job is a failed check, not a crashed pass
                rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        jobs.append(
            {"rc": rc, "seconds": seconds, "stdout": out.getvalue(), "error": error}
        )

    result = {
        "setup_s": setup_s,
        "jobs": jobs,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.metrics() if tracer else None,
        "edges": tracer.edge_counts() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
