"""Command line driver: compression checks, Betti tables, the golden
corpus, socles, Hilbert-Kunz values, tail certification, and truncated
generator ledgers.

stdout carries only the deterministic result (grids or JSON validated
against the shipped schemas); progress and timing go to stderr, so one
configuration always produces byte-identical output.  Imports of the
numpy-backed modules are deferred until after argument parsing so that
--threads can cap the BLAS pool before numpy loads.

Exit codes: 0 success, 2 usage, 3 mathematical precondition failure,
4 golden corpus mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_GOLDEN = 4

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# --- schema validation (stdlib-only subset of JSON Schema) ---

_TYPE_MAP = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


def load_schema(kind: str) -> dict:
    text = resources.files("frobetti").joinpath("schemas/cli.json").read_text()
    return json.loads(text)[kind]


def validate_output(obj, schema, path: str = "$") -> list[str]:
    """Check obj against the schema subset used by the shipped schemas.

    Supports type (single or union), enum, required, properties,
    additionalProperties (false or a schema), and items.  Returns a list
    of human-readable problems; empty means valid.
    """
    errors = []
    if "enum" in schema:
        if obj not in schema["enum"]:
            errors.append(f"{path}: {obj!r} not in {schema['enum']}")
        return errors
    types = schema.get("type")
    if types is not None:
        allowed = [types] if isinstance(types, str) else list(types)
        ok = any(
            isinstance(obj, _TYPE_MAP[t]) and not (t == "integer" and isinstance(obj, bool))
            for t in allowed
        )
        if not ok:
            errors.append(f"{path}: expected {types}, got {type(obj).__name__}")
            return errors
    if isinstance(obj, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, value in obj.items():
            if key in props:
                errors.extend(validate_output(value, props[key], f"{path}.{key}"))
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                errors.extend(validate_output(value, extra, f"{path}.{key}"))
    elif isinstance(obj, list) and "items" in schema:
        for k, value in enumerate(obj):
            errors.extend(validate_output(value, schema["items"], f"{path}[{k}]"))
    return errors


# --- argument plumbing ---


def _q_list(text: str) -> list[int]:
    try:
        qs = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad q list {text!r}")
    if not qs:
        raise argparse.ArgumentTypeError("empty q list")
    return qs


def _usage(message: str) -> "int":
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _check_job(args) -> None:
    from .ffla import is_power_of, is_prime

    if not is_prime(args.p):
        _usage(f"p = {args.p} is not prime")
    if getattr(args, "q", None) and not args.allow_any_q:
        for q in args.q:
            if not is_power_of(q, args.p):
                _usage(
                    f"q = {q} is not a positive power of p = {args.p}"
                    " (pass --allow-any-q to override)"
                )


def _resolve_f(args, q0: int):
    from .invsys import SearchFailure, random_compressed_search
    from .polyring import parse_poly

    if args.f != "random":
        return parse_poly(args.f, args.p, args.n)
    if args.d is None or args.seed is None:
        _usage("-f random requires -d and --seed")
    got = random_compressed_search(args.p, args.n, args.d, q0, args.seed)
    if isinstance(got, SearchFailure):
        raise ValueError(
            f"no compressed degree-{args.d} form found at q={q0}"
            f" in {got.attempts} attempts (seed {args.seed})"
        )
    print(f"sampled f = {got}", file=sys.stderr)
    return got


def _emit(args, obj: dict, table_text: str) -> None:
    if args.format == "json":
        problems = validate_output(obj, load_schema(obj["kind"]))
        if problems:
            raise AssertionError("output does not match shipped schema: " + "; ".join(problems))
        print(json.dumps(obj, indent=1))
    else:
        print(table_text, end="")


def _dims_str(dims: dict[int, int]) -> str:
    inner = ", ".join(f"{k}: {v}" for k, v in sorted(dims.items()))
    return "{" + inner + "}"


# --- subcommands ---


def cmd_check_compressed(args) -> int:
    from .invsys import is_relatively_compressed

    _check_job(args)
    f = _resolve_f(args, args.q[0])
    results = []
    lines = [f"p = {args.p}  n = {args.n}  f = {f}\n"]
    for q in args.q:
        rep = is_relatively_compressed(f, q, mode=args.mode)
        results.append(
            {
                "q": q,
                "d": rep.d,
                "s": rep.s,
                "verdict": bool(rep),
                "checks": [[int(a), int(b), int(c)] for a, b, c in rep.checks],
            }
        )
        verdict = "compressed" if rep else "not compressed"
        lines.append(f"q = {q}: {verdict} (s = {rep.s}, mode = {rep.mode})\n")
    obj = {
        "kind": "check-compressed",
        "p": args.p,
        "n": args.n,
        "f": str(f),
        "mode": args.mode,
        "results": results,
    }
    _emit(args, obj, "".join(lines))
    return EXIT_OK


def _tail_diff(n: int, q0: int, tab0, q1: int, tab1) -> dict:
    from .linkage import frobenius_shift
    from .resolution import detect_periodic_tail

    head = f"q = {q0} vs q = {q1}"
    try:
        shift = frobenius_shift(n, q0, q1)
        why = None if shift is not None else "shift 3(q1-q0)/2 is not an integer"
    except ValueError as e:
        why = str(e)
    if why:
        return {"q0": q0, "q1": q1, "shift": 0, "agree": False, "detail": f"{head}: {why}"}
    a = detect_periodic_tail(tab0)
    b = detect_periodic_tail(tab1)
    if not a.found or not b.found:
        bad = a if not a.found else b
        agree, detail = False, f"{head}: {bad.message}"
    elif (
        a.start == b.start
        and a.rank == b.rank
        and a.gaps == b.gaps
        and tuple(t + shift for t in a.twists) == tuple(b.twists)
    ):
        agree = True
        detail = f"{head}: tails equal after shift {shift} (rank {a.rank}, gaps {a.gaps})"
    else:
        agree, detail = False, f"{head}: tails differ after shift {shift}"
    return {"q0": q0, "q1": q1, "shift": shift, "agree": agree, "detail": detail}


def cmd_betti(args) -> int:
    from .resolution import betti_over_R

    _check_job(args)
    f = _resolve_f(args, args.q[0])
    if args.degree_cap is not None:
        # a user cap windows the table; rows beyond it are simply unexplored,
        # which looks exactly like finite projective dimension
        print(
            f"note: degree cap {args.degree_cap} set; zero columns past the "
            "cap are unexplored, not certified zero",
            file=sys.stderr,
        )
    tables = []
    for q in args.q:
        t0 = time.time()
        tab = betti_over_R(f, q, args.steps, degree_cap=args.degree_cap)
        print(f"q = {q}: {time.time() - t0:.1f}s", file=sys.stderr)
        tables.append((q, tab))
    stability = [
        _tail_diff(args.n, q0, tab0, q1, tab1)
        for (q0, tab0), (q1, tab1) in zip(tables, tables[1:])
    ]
    parts = [f"p = {args.p}  n = {args.n}  f = {f}\n"]
    for q, tab in tables:
        parts.append(f"q = {q}\n{tab.to_grid()}")
    for rec in stability:
        parts.append(rec["detail"] + "\n")
    obj = {
        "kind": "betti",
        "p": args.p,
        "n": args.n,
        "f": str(f),
        "steps": args.steps,
        "tables": [
            {
                "q": q,
                "ring": tab.ring,
                "steps": tab.steps,
                "entries": [[i, j, b] for (i, j), b in sorted(tab.entries.items())],
            }
            for q, tab in tables
        ],
        "stability": stability,
    }
    _emit(args, obj, "".join(parts))
    return EXIT_OK


def _golden_root():
    env = os.environ.get("FROBETTI_GOLDEN_DIR")
    if env:
        from pathlib import Path

        return Path(env)
    return resources.files("frobetti").joinpath("golden")


def _run_case(case: dict, root) -> tuple[bool, str]:
    from .polyring import parse_poly
    from .resolution import BettiTable, betti_over_R

    name = case["name"]
    try:
        want_grid = root.joinpath(name + ".txt").read_text()
        want_json = root.joinpath(name + ".json").read_text()
        BettiTable.from_json(want_json)
    except Exception as e:  # missing or garbled golden data
        return False, f"golden file unreadable: {e}"
    f = parse_poly(case["f"], case["p"], case["n"])
    tab = betti_over_R(f, case["q"], case["steps"])
    if tab.to_grid() != want_grid:
        return False, "grid mismatch"
    if tab.to_json() + "\n" != want_json:
        return False, "json mismatch"
    return True, "ok"


def cmd_reproduce_examples(args) -> int:
    root = _golden_root()
    try:
        manifest = json.loads(root.joinpath("cases.json").read_text())
    except Exception as e:
        print(f"golden corpus unreadable: {e}", file=sys.stderr)
        return EXIT_GOLDEN
    names = [case["name"] for case in manifest]
    if args.only is not None:
        if args.only not in names:
            _usage(f"unknown golden case {args.only!r}; known: {', '.join(names)}")
        manifest = [case for case in manifest if case["name"] == args.only]
    cases = []
    all_ok = True
    for case in manifest:
        t0 = time.time()
        ok, detail = _run_case(case, root)
        print(f"{case['name']}: {time.time() - t0:.1f}s", file=sys.stderr)
        cases.append({"name": case["name"], "ok": ok, "detail": detail})
        all_ok = all_ok and ok
    lines = [
        f"{c['name']}: {'ok' if c['ok'] else 'FAIL (' + c['detail'] + ')'}\n" for c in cases
    ]
    lines.append(f"{sum(c['ok'] for c in cases)}/{len(cases)} ok\n")
    obj = {
        "kind": "reproduce-examples",
        "golden_dir": str(root),
        "cases": cases,
        "all_ok": bool(all_ok),
    }
    _emit(args, obj, "".join(lines))
    return EXIT_OK if all_ok else EXIT_GOLDEN


def cmd_socle(args) -> int:
    from .linkage import KUShiftReport, require_ku_shift, socle_direct, socle_via_link

    _check_job(args)
    f = _resolve_f(args, args.q[0])
    results, shifts, vias = [], [], []
    lines = [f"p = {args.p}  n = {args.n}  f = {f}\n"]
    for q in args.q:
        t0 = time.time()
        direct = socle_direct(f, q)
        via = socle_via_link(f, q)
        vias.append((q, via))
        print(f"q = {q}: {time.time() - t0:.1f}s", file=sys.stderr)
        agree = direct.dims == via.dims
        results.append(
            {
                "q": q,
                "direct": {str(k): v for k, v in sorted(direct.dims.items())},
                "via_link": {str(k): v for k, v in sorted(via.dims.items())},
                "agree": agree,
                "total": direct.total,
            }
        )
        lines.append(
            f"q = {q}: direct {_dims_str(direct.dims)}  via link {_dims_str(via.dims)}"
            f"  {'agree' if agree else 'DISAGREE'}\n"
        )
    for (q0, via0), (q1, via1) in zip(vias, vias[1:]):
        require_ku_shift(f, q0, q1)
        rep = KUShiftReport.compare(q0, via0, q1, via1)
        shifts.append({"q0": q0, "q1": q1, "shift": rep.shift, "ok": bool(rep)})
        lines.append(
            f"q = {q0} vs q = {q1}: socle shift {rep.shift} {'ok' if rep else 'FAILS'}\n"
        )
    obj = {
        "kind": "socle",
        "p": args.p,
        "n": args.n,
        "f": str(f),
        "results": results,
        "shifts": shifts,
    }
    _emit(args, obj, "".join(lines))
    return EXIT_OK


def cmd_hk(args) -> int:
    from .hk import hilbert_series_check, hk_direct

    _check_job(args)
    f = _resolve_f(args, args.q[0])
    results = []
    lines = [f"p = {args.p}  n = {args.n}  f = {f}\n"]
    for q in args.q:
        t0 = time.time()
        rep = hk_direct(f, q)
        print(f"q = {q}: {time.time() - t0:.1f}s", file=sys.stderr)
        rec = {
            "q": q,
            "direct": rep.direct,
            "formula": None if rep.formula is None else str(rep.formula),
            "agrees": rep.agrees(),
            "opposite_parity": rep.opposite_parity,
            "profile": [int(v) for v in rep.profile],
        }
        line = (
            f"q = {q}: direct {rep.direct}"
            f"  formula {rep.formula if rep.formula is not None else '-'}"
            f"  {'agree' if rep.agrees() else 'differ'}"
        )
        if args.series:
            sc = hilbert_series_check(f, q)
            rec["series_check"] = sc
            line += f"  series {sc}"
        results.append(rec)
        lines.append(line + "\n")
    obj = {
        "kind": "hk",
        "p": args.p,
        "n": args.n,
        "f": str(f),
        "results": results,
    }
    _emit(args, obj, "".join(lines))
    return EXIT_OK


def cmd_pfaffian_check(args) -> int:
    from .pfaffian import certify_pf_of_tail
    from .resolution import betti_over_R, detect_periodic_tail, extract_tail_mf

    _check_job(args)
    f = _resolve_f(args, args.q[0])
    results = []
    lines = [f"p = {args.p}  n = {args.n}  f = {f}\n"]
    for q in args.q:
        t0 = time.time()
        tab = betti_over_R(f, q, args.steps, degree_cap=args.degree_cap)
        tail = detect_periodic_tail(tab)
        tail_rec = {
            "found": tail.found,
            "start": tail.start,
            "rank": tail.rank,
            "gaps": None if tail.gaps is None else [int(g) for g in tail.gaps],
            "message": tail.message,
        }
        if not tail.found:
            results.append({"q": q, "tail": tail_rec, "mf": None, "certified": None})
            lines.append(f"q = {q}: {tail.message}\n")
            print(f"q = {q}: {time.time() - t0:.1f}s", file=sys.stderr)
            continue
        at_step = args.at_step if args.at_step is not None else tail.start + 1
        mf = extract_tail_mf(f, q, at_step)
        certified = certify_pf_of_tail(mf.a, f)
        print(f"q = {q}: {time.time() - t0:.1f}s", file=sys.stderr)
        results.append(
            {
                "q": q,
                "tail": tail_rec,
                "mf": {"size": mf.size, "a_degree": mf.a_degree, "b_degree": mf.b_degree},
                "certified": bool(certified),
            }
        )
        lines.append(
            f"q = {q}: tail rank {tail.rank}, gaps {tail.gaps};"
            f" factorization size {mf.size} (degrees {mf.a_degree}, {mf.b_degree});"
            f" Pfaffian certificate: {'yes' if certified else 'NO'}\n"
        )
    obj = {
        "kind": "pfaffian-check",
        "p": args.p,
        "n": args.n,
        "f": str(f),
        "steps": args.steps,
        "results": results,
    }
    _emit(args, obj, "".join(lines))
    return EXIT_OK


def cmd_ledger(args) -> int:
    from .koszul import truncated_degree_ledger
    from .linkage import link_inverse_poly

    _check_job(args)
    f = _resolve_f(args, args.q[0])
    q = args.q[0]
    phi = link_inverse_poly(f, q)
    s = phi.deg
    m = args.m if args.m is not None else (s + 1) // 2
    led = truncated_degree_ledger(phi, m)
    contained = set(led.measured) <= set(led.predicted)
    lines = [
        f"p = {args.p}  n = {args.n}  f = {f}\n",
        f"q = {q}  s = {s}  m = {m}\n",
        f"measured generator degrees of the truncation: {_dims_str(led.measured)}\n",
        f"predicted superset: {sorted(led.predicted)}\n",
        f"contained: {'yes' if contained else 'NO'}\n",
    ]
    obj = {
        "kind": "ledger",
        "p": args.p,
        "n": args.n,
        "f": str(f),
        "q": q,
        "m": m,
        "s": s,
        "measured": {str(k): v for k, v in sorted(led.measured.items())},
        "predicted": sorted(led.predicted),
        "contained": bool(contained),
        "c_ranks": {str(j): int(r) for j, r in sorted(led.c_ranks.items())},
    }
    _emit(args, obj, "".join(lines))
    return EXIT_OK


# --- parser ---


def _add_common(sp, *, poly=True, qlist=True, steps=False, mode=False):
    if poly:
        sp.add_argument("-p", type=int, required=True, help="field characteristic (prime)")
        sp.add_argument("-n", type=int, default=3, help="number of variables (default 3)")
        sp.add_argument(
            "-f",
            required=True,
            help="homogeneous polynomial, or 'random' with -d and --seed",
        )
        sp.add_argument("-d", type=int, help="degree for -f random")
        sp.add_argument("--seed", type=int, help="seed for -f random")
    if qlist:
        sp.add_argument(
            "-q", type=_q_list, required=True, help="comma list of Frobenius powers"
        )
        sp.add_argument(
            "--allow-any-q",
            action="store_true",
            help="accept q values that are not powers of p",
        )
    if steps:
        sp.add_argument("--steps", type=int, default=4, help="resolution steps (default 4)")
        sp.add_argument(
            "--degree-cap", type=int, default=None, help="certified degree cap override"
        )
    if mode:
        sp.add_argument(
            "--mode", choices=("quick", "full"), default="quick", help="check depth"
        )
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.add_argument("--threads", type=int, default=None, help="cap BLAS worker threads")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frobetti",
        description="Exact Betti tables, socles, and Hilbert-Kunz functions"
        " of hypersurface quotients by Frobenius powers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-compressed", help="relative compression of the link")
    _add_common(sp, mode=True)
    sp.set_defaults(func=cmd_check_compressed)

    sp = sub.add_parser("betti", help="Betti tables over R = P/(f), with tail diff")
    _add_common(sp, steps=True)
    sp.set_defaults(func=cmd_betti)

    sp = sub.add_parser("reproduce-examples", help="recompute the golden corpus")
    sp.add_argument("--only", default=None, help="run a single named case")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(func=cmd_reproduce_examples)

    sp = sub.add_parser("socle", help="socle two ways, plus shift checks for q pairs")
    _add_common(sp)
    sp.set_defaults(func=cmd_socle)

    sp = sub.add_parser("hk", help="Hilbert-Kunz values, direct and closed form")
    sp.add_argument("--series", action="store_true", help="also run the series check")
    _add_common(sp)
    sp.set_defaults(func=cmd_hk)

    sp = sub.add_parser("pfaffian-check", help="certify extracted tails as Pf = unit*f")
    sp.add_argument("--at-step", type=int, default=None, help="tail step to lift")
    _add_common(sp, steps=True)
    sp.set_defaults(func=cmd_pfaffian_check)

    sp = sub.add_parser("ledger", help="truncated-ideal generator degrees vs prediction")
    sp.add_argument("-m", type=int, default=None, help="truncation degree (default ceil(s/2))")
    _add_common(sp)
    sp.set_defaults(func=cmd_ledger)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "threads", None):
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
