"""One fresh interpreter of the benchmark: import ``swkb.cli``, run CLI
commands in-process, and print one JSON record on stdout.

Usage: python3 child.py '<job json>'

The job holds ``src`` (the directory that contains the ``swkb`` package),
``commands`` (a list of argv lists, run in order) and ``trace`` (wrap the
public functions of every module and report per-layer metrics).  The record
holds the import time, each command's exit code, time and captured stdout,
and the peak resident set size of this process.  A command's time is given
twice: as measured (``wall_s``) and at reference machine speed
(``wall_ref_s``, see ``speed.py``).  The import time is as measured: it is
mostly loading scipy, which the probe's kernel does not resemble.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback

from speed import SpeedProbe


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    cli = importlib.import_module("swkb.cli")
    setup_s = time.perf_counter() - t0

    tracer = None
    if job["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    runs = []
    for argv in job["commands"]:
        out = io.StringIO()
        error = None
        with SpeedProbe() as probe:
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed invocation, reported to the harness
                rc, error = -1, traceback.format_exc(limit=5)
        runs.append({"argv": argv, "rc": rc, "wall_s": probe.own_s, "wall_ref_s": probe.ref_s,
                     "stdout": out.getvalue(), "error": error})

    record = {
        "setup_s": setup_s,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # Spans include the probe's samples, spread over the layers in
        # proportion to their time; scale self times to reference speed.
        layers = layer_metrics(tracer.spans)
        scale = probe.ref_s / probe.elapsed_s
        record["layers"] = {k: v * scale if k.endswith("_s") else v
                            for k, v in layers.items()}
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
