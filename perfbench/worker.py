"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py SPEC_JSON

`run.py` starts this with PYTHONPATH pointing at the checkout's `src`, so
the package's caches start empty, as they do for a command-line user.
The worker imports the package, parses its inputs, runs the timed phase,
then the checks, and prints one JSON object on stdout.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = spec["workload"]
    src = Path(spec["root"]) / "src"

    import frobetti

    if Path(frobetti.__file__).resolve().parent != (src / "frobetti").resolve():
        print(f"worker: imported {frobetti.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    from checks import CHECKS
    from tracer import MODULES, Tracer
    from workloads import Round, parse_inputs, run_round

    for name in MODULES:
        importlib.import_module(f"frobetti.{name}")
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    forms = parse_inputs(workload, spec["inputs"])

    rnd = Round()
    t_ready = time.monotonic()
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    results = run_round(workload, spec["inputs"], forms, rnd)
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rnd.finish()
    failures = CHECKS[workload](results)
    out = {
        "t_ready": t_ready,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "stage_s": dict(rnd.stage_s),
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "check_failures": failures,
        "results": results,
        "traced": tracer is not None,
        "layers": None,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s)
        out["missing_boundaries"] = tracer.missing
        tracer.write_spans(spec["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
