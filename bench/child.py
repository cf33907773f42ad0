"""One fresh interpreter of the benchmark: import the CLI, run its calls.

Started by ``run.py`` as ``python3 bench/child.py SPEC.json``.  The spec
names the source tree, the CLI calls (argv, stdout file, output files) and
whether to trace; the child writes its timings to the spec's result file.
A fresh interpreter per child matters: the package caches exact moments and
csyk index maps per process, and users pay for them on every CLI call.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _provenance() -> dict:
    import mpmath
    import numpy
    import platform
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import sectormagic.harness.cli as cli
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)

    import sectormagic
    src = os.path.realpath(spec["src"])
    if os.path.commonpath([os.path.realpath(sectormagic.__file__), src]) != src:
        print(f"sectormagic imported from {sectormagic.__file__}, not {src}",
              file=sys.stderr)
        return 4

    tracer = contextlib.nullcontext()
    if spec["trace"]:
        sys.path.insert(0, spec["bench"])
        from tracer import Tracer, layer_metrics
        tracer = Tracer()

    calls = []
    with tracer:
        for call in spec["calls"]:
            with open(call["stdout"], "w") as out, \
                    contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(call["argv"])
                except Exception:  # a traceback is a failed call, not a crash
                    traceback.print_exc()
                    rc = 1
                t1 = time.perf_counter()
            calls.append({"rc": rc, "work_s": t1 - t0})

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"imported": imported, "calls": calls,
              "peak_rss_mb": rss_kb / 1024.0, "provenance": _provenance()}
    if spec["trace"]:
        written = sum(os.path.getsize(p) for call in spec["calls"]
                      for p in [call["stdout"], *call["files"]]
                      if os.path.exists(p))
        metrics, work, layer_self = layer_metrics(tracer.spans, tracer.counts,
                                                  written)
        result["trace"] = {"metrics": metrics, "work_s": work,
                           "layer_self_s": layer_self}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
