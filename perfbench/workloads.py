"""The three workloads: inputs made from a seed, and one timed round each.

`make_inputs` is plain Python, so the parent process never loads numpy.
A round runs in a fresh worker process and calls the package only through
module attributes (`linkage.socle_direct`, not a local binding), so the
traced run sees every call.

A seed rescales the variables and the whole form by units of GF(p):
f(x, y, z) -> c * f(a x, b y, c' z).  That map fixes the Frobenius power
(x^q, y^q, z^q) and preserves the support of f, so every invariant, every
matrix shape and every rank is the same for all seeds while the
coefficients the program works on differ.  The q = p grid draws its forms
with `random_compressed_search`, whose seeds are derived from the run's.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

VARS = "xyz"

# Forms from the golden corpus, as (coefficient, exponents) terms.
ALT4 = ((1, (3, 1, 0)), (-1, (1, 3, 0)), (1, (3, 0, 1)), (-1, (1, 0, 3)), (-1, (0, 1, 3)))
CYC3 = ((1, (1, 2, 0)), (1, (0, 1, 2)), (1, (2, 0, 1)))
CYC4 = ((1, (1, 3, 0)), (1, (0, 1, 3)), (1, (3, 0, 1)))

# q = p cells of the acceptance grid: p in {5, 7, 11}, q >= d + 3.
GRID_CELLS = ((5, (2,)), (7, (2, 3, 4)), (11, (2, 3, 4, 5, 6)))
GRID_SEEDS_PER_CELL = 2

WORKLOADS = ("betti-q2", "link-q49", "grid-qp")
STEPS = 4


def scaled_form(terms, p: int, rng: random.Random) -> str:
    """The form with its variables and itself scaled by random units, as text."""
    units = [rng.randrange(1, p) for _ in range(len(VARS) + 1)]
    parts = []
    for coef, exps in terms:
        c = coef * units[-1]
        for u, e in zip(units, exps):
            c *= pow(u, e, p)
        mono = "*".join(f"{v}^{e}" for v, e in zip(VARS, exps) if e)
        parts.append(f"{c % p}*{mono}")
    return " + ".join(parts)


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "betti-q2":
        return {
            "instances": [
                {"name": "alt4", "p": 5, "f": scaled_form(ALT4, 5, rng), "qs": [25, 5],
                 "profile_q": 25, "tail_q": 25},
                {"name": "cyc3", "p": 5, "f": scaled_form(CYC3, 5, rng), "qs": [25, 5],
                 "profile_q": 25, "tail_q": None},
            ]
        }
    if workload == "link-q49":
        return {"name": "cyc4", "p": 7, "q": 49, "f": scaled_form(CYC4, 7, rng)}
    if workload == "grid-qp":
        first = GRID_SEEDS_PER_CELL * seed + 1
        return {
            "cells": [
                {"p": p, "q": p, "d": d, "seeds": list(range(first, first + GRID_SEEDS_PER_CELL))}
                for p, ds in GRID_CELLS
                for d in ds
            ],
            "tails": [
                {"name": "cyc4", "p": 7, "q": 7, "f": scaled_form(CYC4, 7, rng)},
                {"name": "alt4", "p": 5, "q": 5, "f": scaled_form(ALT4, 5, rng)},
            ],
        }
    raise ValueError(f"unknown workload {workload!r}")


class Round:
    """Operation bookkeeping of one round: an operation is one invariant
    computed (and later checked); a raised exception counts it failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stage_s: dict[str, float] = defaultdict(float)
        self._later: list = []

    def op(self, stage: str, label: str, fn, *args, **kw):
        self.attempted += 1
        t = time.perf_counter()
        try:
            return fn(*args, **kw)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            return None
        finally:
            self.stage_s[stage] += time.perf_counter() - t

    def later(self, rec: dict, key: str, fn) -> None:
        """Fill rec[key] with fn() after the timed phase: a check's own work."""
        self._later.append((rec, key, fn))

    def finish(self) -> None:
        for rec, key, fn in self._later:
            try:
                rec[key] = fn()
            except Exception as exc:  # the check reads anything but True as failed
                rec[key] = f"raised {exc!r}"
        self._later.clear()

    def skip(self, label: str, why: str, count: int = 1):
        """Operations that cannot run because one they depend on failed."""
        self.attempted += count
        self.failed += count
        self.errors.append(f"{label}: {why}")


def parse_inputs(workload: str, inputs: dict) -> dict:
    """Input parsing, part of set-up: the forms as program objects."""
    from frobetti.polyring import parse_poly

    if workload == "betti-q2":
        return {inst["name"]: parse_poly(inst["f"], inst["p"], 3) for inst in inputs["instances"]}
    if workload == "link-q49":
        return {"f": parse_poly(inputs["f"], inputs["p"], 3)}
    return {t["name"]: parse_poly(t["f"], t["p"], 3) for t in inputs["tails"]}


def run_round(workload: str, inputs: dict, forms: dict, rnd: Round) -> dict:
    """The timed phase.  Returns plain data for the checks."""
    if workload == "betti-q2":
        return _betti_q2(inputs, forms, rnd)
    if workload == "link-q49":
        return _link_q49(inputs, forms, rnd)
    return _grid_qp(inputs, forms, rnd)


def _table(tab):
    return sorted([i, j, b] for (i, j), b in tab.entries.items())


def _hk(rep):
    return {"direct": rep.direct, "profile": list(rep.profile)}


def _counts(profile):
    return {str(k): v for k, v in sorted(profile.counts.items())}


def _dims(rep):
    return {str(k): v for k, v in sorted(rep.dims.items())}


def _tail_mf(f, q):
    from frobetti import resolution

    tab = resolution.betti_over_R(f, q, STEPS)
    tail = resolution.detect_periodic_tail(tab)
    if not tail.found:
        raise ValueError(f"no periodic tail within {STEPS} steps")
    return tail, resolution.extract_tail_mf(f, q, tail.start + 1)


def _tail_ops(rnd, name, f, q):
    """Two operations: lift the periodic tail to a matrix factorization,
    then certify its Pfaffian.  The certificate needs the lift, so a failed
    lift fails both."""
    from frobetti import pfaffian

    rec = {"p": int(f.p), "q": q, "d": f.deg, "mf": None, "certified": None}
    lifted = rnd.op("other", f"tail mf {name} q={q}", _tail_mf, f, q)
    if lifted is None:
        rnd.skip(f"pfaffian {name} q={q}", "no matrix factorization to certify")
        return rec
    tail, mf = lifted
    rec["mf"] = {
        "rank": tail.rank,
        "gaps": list(tail.gaps),
        "size": mf.size,
        "a_degree": mf.a_degree,
        "b_degree": mf.b_degree,
        "verified": None,
    }
    rnd.later(rec["mf"], "verified", mf.verify)
    rec["certified"] = rnd.op("other", f"pfaffian {name} q={q}", pfaffian.certify_pf_of_tail, mf.a, f)
    return rec


def _betti_q2(inputs, forms, rnd):
    from frobetti import hk, linkage, resolution

    out = []
    for inst in inputs["instances"]:
        f = forms[inst["name"]]
        rec = {"name": inst["name"], "p": inst["p"], "d": f.deg, "tables": {}, "hk": {}}
        for q in inst["qs"]:
            tab = rnd.op("other", f"betti {inst['name']} q={q}", resolution.betti_over_R, f, q, STEPS)
            rec["tables"][str(q)] = None if tab is None else _table(tab)
        for q in inst["qs"]:
            rep = rnd.op("hk", f"hk {inst['name']} q={q}", hk.hk_direct, f, q)
            rec["hk"][str(q)] = None if rep is None else _hk(rep)
        q = inst["profile_q"]
        if q is not None:
            prof = rnd.op("profile", f"profile {inst['name']} q={q}", linkage.measured_generator_profile, f, q)
            rec["profile"] = None if prof is None else {"q": q, "counts": _counts(prof)}
        if inst["tail_q"] is not None:
            rec["tail"] = _tail_ops(rnd, inst["name"], f, inst["tail_q"])
        out.append(rec)
    return {"instances": out}


def _link_q49(inputs, forms, rnd):
    from frobetti import hk, linkage

    f, q = forms["f"], inputs["q"]
    fast = rnd.op("profile", "profile fast", linkage.measured_generator_profile, f, q)
    thorough = rnd.op("profile", "profile thorough", linkage.measured_generator_profile, f, q, thorough=True)
    socle = rnd.op("profile", "socle via link", linkage.socle_via_link, f, q)
    rep = rnd.op("hk", "hk_direct", hk.hk_direct, f, q)
    return {
        "p": inputs["p"],
        "q": q,
        "d": f.deg,
        "fast": None if fast is None else _counts(fast),
        "thorough": None if thorough is None else _counts(thorough),
        "socle": None if socle is None else _dims(socle),
        "hk": None if rep is None else _hk(rep),
    }


def _search(p, d, q, seed):
    from frobetti import invsys

    f = invsys.random_compressed_search(p, 3, d, q, seed)
    if not f:
        raise ValueError(f"no relatively compressed form in {f.attempts} attempts")
    return f


def _strand(f, q):
    from frobetti import koszul, linkage

    phi = linkage.link_inverse_poly(f, q)
    return [koszul.c_rank(phi, 1, j).rank for j in range(phi.deg // 2 + 1)]


def _grid_qp(inputs, forms, rnd):
    from frobetti import hk, linkage

    out = []
    for cell in inputs["cells"]:
        p, q, d = cell["p"], cell["q"], cell["d"]
        for seed in cell["seeds"]:
            tag = f"p={p} d={d} seed={seed}"
            rec = {"p": p, "q": q, "d": d, "seed": seed}
            f = rnd.op("other", f"search {tag}", _search, p, d, q, seed)
            if f is None:
                rnd.skip(tag, "no compressed form to work on", count=5)
                out.append(rec)
                continue
            rec["deg"] = f.deg
            direct = rnd.op("other", f"socle direct {tag}", linkage.socle_direct, f, q)
            via = rnd.op("profile", f"socle via link {tag}", linkage.socle_via_link, f, q)
            strand = rnd.op("other", f"strand {tag}", _strand, f, q)
            series = rnd.op("other", f"series {tag}", hk.hilbert_series_check, f, q)
            rep = rnd.op("hk", f"hk {tag}", hk.hk_direct, f, q)
            rec.update(
                socle_direct=None if direct is None else _dims(direct),
                socle_via_link=None if via is None else _dims(via),
                strand=strand,
                series=series,
                hk=None if rep is None else _hk(rep),
            )
            out.append(rec)
    tails = []
    for t in inputs["tails"]:
        rec = _tail_ops(rnd, t["name"], forms[t["name"]], t["q"])
        rec["name"] = t["name"]
        tails.append(rec)
    return {"instances": out, "tails": tails}
