"""Benchmark of frobetti: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {betti-q2,link-q49,grid-qp} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each round of the workload runs in a
fresh worker process (see worker.py), so the package's caches start cold
in every round.  Rounds repeat until S seconds have passed; every round
attempts the same operations.  With --trace 0 the last line of stdout
reports the end-to-end metrics; with --trace 1 rounds alternate untraced
and traced, and it reports the per-layer metrics.  Per-round details go
to perfbench/out/.  See perfbench/README.md.
"""

import time

T0 = time.monotonic()  # setup_s runs from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no round starts that would pass this

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "profile_s": "s",
    "hk_s": "s",
}


def _parse(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_worker(spec: dict, env: dict) -> dict:
    left = RUN_LIMIT_S - (time.monotonic() - T0)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=env,
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(left, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(rounds) -> dict:
    stage = lambda key: statistics.median(r["stage_s"].get(key, 0.0) for r in rounds)  # noqa: E731
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": rounds[0]["t_ready"] - T0,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        "profile_s": stage("profile"),
        "hk_s": stage("hk"),
    }


def _per_layer(rounds) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    )
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "frobetti" / "__init__.py").is_file():
        print(f"run.py: no frobetti package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    from tracer import METRICS
    from workloads import make_inputs

    inputs = make_inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: BLAS_THREADS for var in THREAD_VARS})

    rounds = []
    start = time.monotonic()
    while True:
        k = len(rounds)
        traced = bool(args.trace) and k % 2 == 1
        spec = {
            "workload": args.workload,
            "root": str(ROOT),
            "inputs": inputs,
            "trace": traced,
            "spans_path": str(OUT / f"spans-{stem}-round{k}.json"),
        }
        t = time.monotonic()
        rounds.append(_run_worker(spec, env))
        took = time.monotonic() - t
        now = time.monotonic()
        pair_done = not args.trace or len(rounds) % 2 == 0
        if pair_done and (now - start >= args.seconds or now - T0 + took * (1 + args.trace) > RUN_LIMIT_S):
            break

    for r in rounds:
        for msg in r["errors"]:
            print(f"failed operation: {msg}", file=sys.stderr)
        for msg in r["check_failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
    if args.trace:
        values = _per_layer(rounds)
        metrics = {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}
    else:
        values = _end_to_end(rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": all(not r["check_failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "result": result, "rounds": rounds}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
