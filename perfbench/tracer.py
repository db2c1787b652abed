"""Per-layer spans and counters, installed from outside the program.

Every boundary below is a function or method of the frobetti package.
`install` replaces it, in every loaded frobetti module that binds the same
object (so `resolution.rref` is wrapped as well as `ffla.rref`), by a
wrapper that opens a span.  A span re-entered from inside a span of the
same layer (`left_kernel` calling `kernel_basis` calling `rref`) is merged
into the outer one, so each layer's call count is the number of times the
rest of the program entered it.  A layer's self time is its span minus the
spans nested inside it, which makes the self times of all layers disjoint:
their sum plus `trace.uncovered_s` is the traced wall time.

Spans are kept in memory and written once, by `write_spans`, after the
timed phase.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("ffla", "polyring", "invsys", "linkage", "koszul", "resolution", "pfaffian", "hk")

# Per-layer metrics: name -> (unit, better).  Order is the report order.
METRICS = {
    "ffla.elim.calls": ("count", "lower"),
    "ffla.elim.self_s": ("s", "lower"),
    "ffla.elim.cells": ("cells", "lower"),
    "ffla.kernel.calls": ("count", "lower"),
    "ffla.kernel.self_s": ("s", "lower"),
    "ffla.products.calls": ("count", "lower"),
    "ffla.products.self_s": ("s", "lower"),
    "ffla.products.gflop": ("Gflop", "lower"),
    "polyring.basis.built": ("count", "lower"),
    "polyring.basis.monomials": ("count", "lower"),
    "polyring.basis.self_s": ("s", "lower"),
    "polyring.rank_rows.calls": ("count", "lower"),
    "polyring.rank_rows.rows": ("count", "lower"),
    "polyring.rank_rows.self_s": ("s", "lower"),
    "polyring.poly_mul.calls": ("count", "lower"),
    "polyring.poly_mul.self_s": ("s", "lower"),
    "resolution.syzygy.self_s": ("s", "lower"),
    "resolution.syzygy.degrees_scanned": ("count", "lower"),
    "resolution.syzygy.generator_degrees": ("count", "higher"),
    "resolution.syzygy.kernel_yield": ("ratio", "higher"),
    "resolution.assembly.self_s": ("s", "lower"),
    "resolution.shift_rows.self_s": ("s", "lower"),
    "resolution.shift_rows.cells": ("cells", "lower"),
    "resolution.cache_hits": ("count", "higher"),
    "invsys.bhat_kernel.calls": ("count", "lower"),
    "invsys.bhat_kernel.self_s": ("s", "lower"),
    "invsys.bhat_rank.calls": ("count", "lower"),
    "invsys.bhat_rank.self_s": ("s", "lower"),
    "invsys.search.forms_tried": ("count", "lower"),
    "invsys.search.self_s": ("s", "lower"),
    "linkage.span_scan.self_s": ("s", "lower"),
    "linkage.profile.degrees_scanned": ("count", "lower"),
    "linkage.profile.kernels": ("count", "lower"),
    "linkage.socle_direct.self_s": ("s", "lower"),
    "linkage.fmul_rows.self_s": ("s", "lower"),
    "koszul.c_rank.calls": ("count", "lower"),
    "koszul.c_rank.self_s": ("s", "lower"),
    "hk.direct.self_s": ("s", "lower"),
    "hk.series_check.self_s": ("s", "lower"),
    "pfaffian.certify.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
}

# Layers whose self times partition the covered time.
LAYERS = (
    "ffla.elim",
    "ffla.products",
    "polyring.basis",
    "polyring.rank_rows",
    "polyring.poly_mul",
    "resolution.syzygy",
    "resolution.assembly",
    "resolution.shift_rows",
    "invsys.bhat_kernel",
    "invsys.bhat_rank",
    "invsys.search",
    "linkage.span_scan",
    "linkage.socle_direct",
    "linkage.fmul_rows",
    "koszul.c_rank",
    "hk.direct",
    "hk.series_check",
    "pfaffian.certify",
)


def _cells(M) -> int:
    return M.rows * M.cols


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []  # id, parent, name, start, end
        self.stack: list[list] = []  # open spans: [layer, id, start, child time]
        self.depth: dict[str, int] = defaultdict(int)  # open spans and scopes per name
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.active = False  # spans and counters are kept only while True
        self._next_id = 0

    # --- wrappers -----------------------------------------------------

    def span(self, layer: str, fn, *, tag: str | None = None, enter=None, leave=None):
        """Wrap fn in a span of `layer`.  `enter(args, kw)` and
        `leave(args, kw, out)` update counters of outermost calls only;
        `tag` also books the self time under a sub-layer name."""
        name_id = self._name_id(layer)
        stack, depth, clock = self.stack, self.depth, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not self.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kw)
            if enter is not None:
                enter(args, kw)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [layer, sid, clock(), 0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                out = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                dur = end - frame[2]
                own = dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                self.self_s[layer] += own
                if tag is not None:
                    self.self_s[tag] += own
                self.spans.append((sid, stack[-1][1] if stack else -1, name_id, frame[2], end))
            if leave is not None:
                leave(args, kw, out)
            return out

        return wrapper

    def scope(self, name: str, fn):
        """Mark calls of fn as open for counters, without a span of its own."""
        depth = self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            depth[name] += 1
            try:
                return fn(*args, **kw)
            finally:
                depth[name] -= 1

        return wrapper

    def counter(self, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not self.active:
                return fn(*args, **kw)
            if before is not None:
                before(args, kw)
            out = fn(*args, **kw)
            if after is not None:
                after(args, kw, out)
            return out

        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary listed in the per-layer metric table."""
        mods = {m: importlib.import_module(f"frobetti.{m}") for m in MODULES}
        c = self.count
        d = self.depth

        def add(key, amount=1):
            c[key] += amount

        def elim_enter(key_of_cells):
            def enter(args, kw):
                add("ffla.elim.calls")
                add("ffla.elim.cells", key_of_cells(*args, **kw))
            return enter

        def kernel_enter(args, kw):
            add("ffla.kernel.calls")
            add("ffla.elim.calls")
            add("ffla.elim.cells", _cells(args[0]))

        for name in ("rref", "rank"):
            self._wrap_fn(mods, "ffla", name, lambda f: self.span("ffla.elim", f, enter=elim_enter(_cells)))
        self._wrap_fn(mods, "ffla", "solve_right", lambda f: self.span(
            "ffla.elim", f, enter=elim_enter(lambda A, B: A.rows * (A.cols + B.cols))))
        for name in ("kernel_basis", "left_kernel"):
            self._wrap_fn(mods, "ffla", name, lambda f: self.span(
                "ffla.elim", f, tag="ffla.kernel", enter=kernel_enter))

        def flops(args, kw):
            A, B = args[0], args[1]
            add("ffla.products.gflop", 2.0 * A.shape[0] * A.shape[1] * B.shape[1] / 1e9)

        def product_enter(args, kw):
            add("ffla.products.calls")

        self._wrap_fn(mods, "ffla", "_mulmod", lambda f: self.span(
            "ffla.products", self.counter(f, before=flops), enter=product_enter))
        for name in ("matmul", "reduce_rows"):
            self._wrap_fn(mods, "ffla", name, lambda f: self.span("ffla.products", f, enter=product_enter))

        # polyring: GradedBasis construction is a miss of the cached `basis`
        def basis_leave(args, kw, out):
            add("polyring.basis.built")
            add("polyring.basis.monomials", args[0].size)

        def rank_rows_enter(args, kw):
            add("polyring.rank_rows.calls")
            add("polyring.rank_rows.rows", len(args[1]))

        GB = mods["polyring"].GradedBasis
        self._wrap_attr(GB, "__init__", lambda f: self.span("polyring.basis", f, leave=basis_leave))
        self._wrap_attr(GB, "rank_rows", lambda f: self.span("polyring.rank_rows", f, enter=rank_rows_enter))
        self._wrap_fn(mods, "polyring", "poly_mul", lambda f: self.span(
            "polyring.poly_mul", f, enter=lambda a, k: add("polyring.poly_mul.calls")))

        # resolution
        def syzygy_leave(args, kw, out):
            add("resolution.syzygy.generator_degrees", len(set(out.src_degs)))

        def shift_rows_enter(args, kw):
            if d["resolution.syzygy"]:
                add("resolution.syzygy.degrees_scanned")

        def shift_rows_leave(args, kw, out):
            add("resolution.shift_rows.cells", out.shape[0] * out.shape[1])

        res = mods["resolution"]
        self._wrap_fn(mods, "resolution", "_syzygy_step", lambda f: self.span(
            "resolution.syzygy", f, leave=syzygy_leave))
        for cls, names in ((res.QuotientBasis, ("mult", "reduce_matrix", "shift")),
                           (res._PlainSlices, ("mult", "shift"))):
            for name in names:
                self._wrap_attr(cls, name, lambda f: self.span("resolution.assembly", f))
        self._wrap_fn(mods, "resolution", "_eval_matrix", lambda f: self.span("resolution.assembly", f))
        self._wrap_fn(mods, "resolution", "_shift_rows", lambda f: self.span(
            "resolution.shift_rows", f, enter=shift_rows_enter, leave=shift_rows_leave))

        resolved = [0]

        def cached_before(args, kw):
            resolved[0] = 0

        def cached_after(args, kw, out):
            if not resolved[0]:
                add("resolution.cache_hits")

        def resolve_before(args, kw):
            resolved[0] += 1

        self._wrap_fn(mods, "resolution", "resolve_over_R", lambda f: self.counter(f, before=resolve_before))
        self._wrap_fn(mods, "resolution", "_cached_resolution_R", lambda f: self.counter(
            f, before=cached_before, after=cached_after))

        # invsys
        self._wrap_fn(mods, "invsys", "bhat_kernel", lambda f: self.span(
            "invsys.bhat_kernel", f, enter=lambda a, k: add("invsys.bhat_kernel.calls")))
        self._wrap_fn(mods, "invsys", "bhat_rank", lambda f: self.span(
            "invsys.bhat_rank", f, enter=lambda a, k: add("invsys.bhat_rank.calls")))
        self._wrap_fn(mods, "invsys", "random_compressed_search", lambda f: self.span("invsys.search", f))

        def form_tried(args, kw):
            if d["invsys.search"]:
                add("invsys.search.forms_tried")

        self._wrap_fn(mods, "invsys", "_relcomp_checks", lambda f: self.counter(f, before=form_tried))

        # linkage
        def scan_step(args, kw):
            if d["linkage.profile"]:
                add("linkage.profile.degrees_scanned")

        def kernel_taken(args, kw):
            if d["linkage.profile"]:
                add("linkage.profile.kernels")

        self._wrap_fn(mods, "linkage", "_grouped_rref", lambda f: self.span("linkage.span_scan", f))
        self._wrap_fn(mods, "linkage", "_mul_into_B", lambda f: self.span("linkage.span_scan", f, enter=scan_step))
        self._wrap_fn(mods, "linkage", "_bkernel", lambda f: self.counter(f, before=kernel_taken))
        self._wrap_fn(mods, "linkage", "measured_generator_profile", lambda f: self.scope("linkage.profile", f))
        self._wrap_fn(mods, "linkage", "socle_direct", lambda f: self.span("linkage.socle_direct", f))
        self._wrap_fn(mods, "linkage", "_fmul_rows", lambda f: self.span("linkage.fmul_rows", f))

        # koszul, hk, pfaffian
        self._wrap_fn(mods, "koszul", "c_rank", lambda f: self.span(
            "koszul.c_rank", f, enter=lambda a, k: add("koszul.c_rank.calls")))
        self._wrap_fn(mods, "hk", "hk_direct", lambda f: self.span("hk.direct", f))
        self._wrap_fn(mods, "hk", "hilbert_series_check", lambda f: self.span("hk.series_check", f))
        self._wrap_fn(mods, "pfaffian", "certify_pf_of_tail", lambda f: self.span("pfaffian.certify", f))

    def _wrap_fn(self, mods, module: str, name: str, make) -> None:
        """Replace module.name at every frobetti module binding it."""
        orig = getattr(mods[module], name, None)
        if orig is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapped = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname == "frobetti" or modname.startswith("frobetti."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def _wrap_attr(self, cls, name: str, make) -> None:
        orig = cls.__dict__.get(name)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        setattr(cls, name, make(orig))

    # --- results --------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of this round; trace.overhead_s is left to the
        caller, which holds the untraced rounds."""
        out = {name: 0.0 for name in METRICS}
        for layer in LAYERS + ("ffla.kernel",):
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        for key, val in self.count.items():
            out[key] = val
        scanned = out["resolution.syzygy.degrees_scanned"]
        out["resolution.syzygy.kernel_yield"] = (
            out["resolution.syzygy.generator_degrees"] / scanned if scanned else 0.0
        )
        covered = sum(self.self_s.get(layer, 0.0) for layer in LAYERS)
        out["trace.uncovered_s"] = wall_s - covered
        return {name: out[name] for name in METRICS if name in out}

    def write_spans(self, path) -> None:
        """Write the kept spans once: a name table and one row per span."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["id", "parent", "name", "start_s", "end_s"],
                    "names": self.names,
                    "spans": self.spans,
                    "missing_boundaries": self.missing,
                },
                fh,
                separators=(",", ":"),
            )
