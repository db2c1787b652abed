"""Independent checks of one round's results.

Nothing here calls the package or compares with a stored copy of its
output.  Each check is either an identity the exact answer must satisfy
(the Euler identity of a resolution, the Frobenius shift between q = p and
q = p^2) or a closed form of the paper, recomputed here in plain integer
arithmetic: the Hilbert series of R/m^[q]R, the Hilbert-Kunz value, the
link generator degrees, the socle shape, and the strand vanishing.  All
instances have n = 3 variables.

Every check returns a list of failure messages; an empty list passes.
Results of failed operations are None and are skipped: a failure there is
already counted against the operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

N = 3


def dim_P(a: int) -> int:
    return comb(a + N - 1, N - 1) if a >= 0 else 0


def dim_R(a: int, d: int) -> int:
    """Dimension of R_a for R = P/(f), deg f = d."""
    return dim_P(a) - dim_P(a - d)


def closed_hilbert(q: int, d: int, upto: int) -> list[int]:
    """Coefficients 0..upto of the Hilbert series of R/m^[q]R for a
    relatively compressed link with d and p of opposite parity:
    (1 - 3t^q - t^d + 2d t^b + 3t^(q+d) - 2d t^(b+1)) / (1-t)^3,
    b = (3q+d-1)/2."""
    b = (3 * q + d - 1) // 2
    num: dict[int, int] = {}
    for e, c in ((0, 1), (q, -3), (d, -1), (b, 2 * d), (q + d, 3), (b + 1, -2 * d)):
        num[e] = num.get(e, 0) + c
    return [sum(c * dim_P(k - e) for e, c in num.items()) for k in range(upto + 1)]


def hk_closed_form(d: int, q: int) -> Fraction:
    return Fraction(3 * d * q * q, 4) - Fraction(d**3 - d, 12)


def _ints(dims: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in dims.items()}


def _twists(entries, i: int) -> dict[int, int]:
    return {j: b for k, j, b in entries if k == i}


def _opposite(p: int, d: int) -> bool:
    return (p - d) % 2 == 1


# --- single invariants ----------------------------------------------------


def euler_identity(entries, d: int, rhs: list[int]) -> list[str]:
    """sum_i (-1)^i sum_j beta_ij dim R_(k-j) = dim (R/m^[q]R)_k for every k
    up to the lowest twist of the last step; beyond it the unknown next
    step could contribute."""
    steps = max(i for i, _, _ in entries)
    last = min(_twists(entries, steps), default=0)
    bad = []
    for k in range(last + 1):
        lhs = sum((-1) ** i * b * dim_R(k - j, d) for i, j, b in entries)
        want = rhs[k] if k < len(rhs) else 0
        if lhs != want:
            bad.append(f"Euler identity fails in degree {k}: {lhs} != {want}")
    return bad


def frobenius_shift(entries_q, entries_p, q: int, p: int, from_step: int = 2) -> list[str]:
    """From step 2 on, the q table is the p table with twists + 3(q-p)/2."""
    shift = 3 * (q - p) // 2
    steps = max(i for i, _, _ in entries_q + entries_p)
    bad = []
    for i in range(from_step, steps + 1):
        want = {j + shift: b for j, b in _twists(entries_p, i).items()}
        got = _twists(entries_q, i)
        if got != want:
            bad.append(f"step {i}: q={q} twists {got} != q={p} twists shifted by {shift}: {want}")
    return bad


def link_predicts_beta2(counts: dict, entries, q: int, d: int) -> list[str]:
    """A link generator g of degree i gives the syzygy g*f = sum a_t x_t^q of
    degree i + d, so beta_2 over R is the link profile shifted by d, less
    the n generators x_t^q themselves."""
    want = {}
    for i, c in _ints(counts).items():
        c -= N if i == q else 0
        if c:
            want[i + d] = c
    got = _twists(entries, 2)
    return [] if got == want else [f"beta_2 {got} != link profile shifted by d = {d}: {want}"]


def profile_shape(counts: dict, q: int, d: int) -> list[str]:
    """Generator degrees of a relatively compressed link: {q: 3, s/2+1: 2d}
    for even s; {q: 3, (s+1)/2: d} and at most 3d at (s+1)/2+1 for odd s."""
    counts = _ints(counts)
    s = N * (q - 1) - d
    if s % 2 == 0:
        want = {q: N, s // 2 + 1: 2 * d}
        return [] if counts == want else [f"profile {counts} != {want}"]
    h = (s + 1) // 2
    ok = (
        set(counts) <= {q, h, h + 1}
        and counts.get(q) == N
        and counts.get(h) == d
        and counts.get(h + 1, 0) <= 3 * d
    )
    return [] if ok else [f"profile {counts} breaks the odd-s shape at q={q}, d={d}"]


def socle_shape(dims: dict, q: int, d: int) -> list[str]:
    """Socle of P/(m^[q], f): 2d in degree (3(q-1)+d-2)/2 for even s; d in
    s1 = (3(q-1)+d-1)/2 and at most 3d in s1 - 1 for odd s."""
    dims = _ints(dims)
    s = N * (q - 1) - d
    if s % 2 == 0:
        want = {(N * (q - 1) + d - 2) // 2: 2 * d}
        return [] if dims == want else [f"socle {dims} != {want}"]
    s1 = (N * (q - 1) + d - 1) // 2
    ok = set(dims) <= {s1, s1 - 1} and dims.get(s1) == d and dims.get(s1 - 1, 0) <= 3 * d
    return [] if ok else [f"socle {dims} breaks the odd-s shape at q={q}, d={d}"]


def hk_value(rep: dict, p: int, q: int, d: int) -> list[str]:
    """The length is the sum of the degreewise profile; with d and p of
    opposite parity it is (3/4)dq^2 - (d^3-d)/12 and the profile is the
    expansion of the closed Hilbert series."""
    bad = []
    profile = rep["profile"]
    if sum(profile) != rep["direct"]:
        bad.append(f"HK {rep['direct']} != sum of its profile {sum(profile)}")
    if _opposite(p, d):
        want = hk_closed_form(d, q)
        if rep["direct"] != want:
            bad.append(f"HK {rep['direct']} != closed form {want}")
        series = closed_hilbert(q, d, len(profile) + d + N)
        if profile != series[: len(profile)] or any(series[len(profile):]):
            bad.append("HK profile != expansion of the closed Hilbert series")
    return bad


def strand_vanishing(ranks: list[int], q: int, d: int, socle: dict) -> list[str]:
    """C_(1,j) = 0 for j < s//2; at j = s//2 it counts the link generators
    of degree s+1-s//2: 2d for even s, the socle in degree s1 - 1 for odd s."""
    s = N * (q - 1) - d
    bad = [f"C_(1,{j}) = {r} != 0" for j, r in enumerate(ranks[: s // 2]) if r]
    if len(ranks) != s // 2 + 1:
        return bad + [f"{len(ranks)} strand ranks, expected {s // 2 + 1}"]
    boundary = ranks[s // 2]
    if s % 2 == 0:
        want = 2 * d
    else:
        want = _ints(socle).get((N * (q - 1) + d - 3) // 2, 0)
    if boundary != want or boundary < 1:
        bad.append(f"boundary C_(1,{s // 2}) = {boundary} != {want}")
    return bad


def tail_factorization(rec: dict) -> list[str]:
    """The periodic tail has rank 2d with twist gaps (1, d-1); its two maps
    compose to f times the identity, and det A is a unit times f^2."""
    d, mf = rec["d"], rec["mf"]
    if mf is None:
        return []
    bad = []
    if mf["rank"] != 2 * d or mf["size"] != 2 * d:
        bad.append(f"tail rank {mf['rank']}, size {mf['size']} != 2d = {2 * d}")
    if list(mf["gaps"]) != [1, d - 1] or (mf["a_degree"], mf["b_degree"]) != (1, d - 1):
        bad.append(f"tail gaps {mf['gaps']}, degrees {mf['a_degree']}, {mf['b_degree']} != 1, {d - 1}")
    if mf["verified"] is not True:
        bad.append("matrix factorization does not compose to f times the identity")
    if rec["certified"] is False:
        bad.append("Pfaffian certificate fails: det A is not a unit times f^2")
    return bad


# --- workloads ------------------------------------------------------------


def check_betti(results: dict) -> list[str]:
    bad = []
    for inst in results["instances"]:
        name, p, d = inst["name"], inst["p"], inst["d"]
        tables, hks = inst["tables"], inst["hk"]
        for qs, entries in tables.items():
            q = int(qs)
            if entries is None:
                continue
            if _opposite(p, d):
                rhs = closed_hilbert(q, d, max(j for _, j, _ in entries))
            elif hks.get(qs) is not None:
                rhs = hks[qs]["profile"]
            else:
                continue
            bad += [f"{name} q={q}: {m}" for m in euler_identity(entries, d, rhs)]
        qs = sorted(int(k) for k in tables)
        for lo, hi in zip(qs, qs[1:]):
            if tables[str(lo)] is not None and tables[str(hi)] is not None:
                bad += [f"{name}: {m}" for m in frobenius_shift(tables[str(hi)], tables[str(lo)], hi, lo)]
        for qs, rep in hks.items():
            if rep is not None:
                bad += [f"{name} q={qs}: {m}" for m in hk_value(rep, p, int(qs), d)]
        prof = inst.get("profile")
        if prof is not None:
            q = prof["q"]
            bad += [f"{name} q={q}: {m}" for m in profile_shape(prof["counts"], q, d)]
            if tables.get(str(q)) is not None:
                bad += [f"{name} q={q}: {m}" for m in link_predicts_beta2(prof["counts"], tables[str(q)], q, d)]
        if "tail" in inst:
            bad += [f"{name} tail: {m}" for m in tail_factorization(inst["tail"])]
    return bad


def check_link(results: dict) -> list[str]:
    p, q, d = results["p"], results["q"], results["d"]
    bad = []
    fast, thorough = results["fast"], results["thorough"]
    if fast is not None and thorough is not None and fast != thorough:
        bad.append(f"fast profile {fast} != thorough profile {thorough}")
    for label, counts in (("fast", fast), ("thorough", thorough)):
        if counts is not None:
            bad += [f"{label}: {m}" for m in profile_shape(counts, q, d)]
    if results["socle"] is not None:
        bad += socle_shape(results["socle"], q, d)
    if results["hk"] is not None:
        bad += hk_value(results["hk"], p, q, d)
    return bad


def check_grid(results: dict) -> list[str]:
    bad = []
    for inst in results["instances"]:
        p, q, d = inst["p"], inst["q"], inst["d"]
        tag = f"p={p} d={d} seed={inst['seed']}"
        if "deg" not in inst:
            continue
        if inst["deg"] != d:
            bad.append(f"{tag}: search returned a form of degree {inst['deg']}")
        direct, via = inst["socle_direct"], inst["socle_via_link"]
        if direct is not None and via is not None and direct != via:
            bad.append(f"{tag}: socle direct {direct} != via link {via}")
        if direct is not None:
            bad += [f"{tag}: {m}" for m in socle_shape(direct, q, d)]
            if inst["strand"] is not None:
                bad += [f"{tag}: {m}" for m in strand_vanishing(inst["strand"], q, d, direct)]
        want = True if _opposite(p, d) else "inapplicable"
        if inst["series"] is not None and inst["series"] != want:
            bad.append(f"{tag}: series check {inst['series']!r} != {want!r}")
        if inst["hk"] is not None:
            bad += [f"{tag}: {m}" for m in hk_value(inst["hk"], p, q, d)]
    for rec in results["tails"]:
        bad += [f"{rec['name']} q={rec['q']} tail: {m}" for m in tail_factorization(rec)]
    return bad


CHECKS = {"betti-q2": check_betti, "link-q49": check_link, "grid-qp": check_grid}
