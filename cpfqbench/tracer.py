"""Per-layer tracing from outside the program.

`install` replaces each traced function of cpfq with a wrapper that
records a span: name, start, end, parent span and the operation it
belongs to.  The package binds names with `from .x import y`, so a
wrapper goes on every attribute of every cpfq module that holds the
function, and methods are replaced on their class (aliases such as
`Poly.__rmul__ = __mul__` included).  `uninstall` puts the originals back.

Self time is a span's duration minus the durations of its child spans.
A child's duration is taken around its whole wrapper, so the tracer's
own bookkeeping is charged to no layer; the traced run reports how much
slower the traced loop is than the same loop untraced.

Spans are kept in memory, up to a budget, and written out at the end;
the per-name totals (calls, self time, calls by direct parent) are
exact for every span, stored or not.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from array import array
from time import perf_counter

# (name, module, attribute or Class.method)
TARGETS = (
    ("cli.main", "cpfq.cli", "main"),
    ("field.field_make", "cpfq.field", "field_make"),
    ("polyring.parse", "cpfq.polyring", "parse"),
    ("polyring.factorize", "cpfq.polyring", "factorize"),
    ("polyring.monic_irreducibles", "cpfq.polyring", "monic_irreducibles"),
    ("polyring.poly_init", "cpfq.polyring", "Poly.__init__"),
    ("polyring.divmod", "cpfq.polyring", "Poly.__divmod__"),
    ("polyring.mul", "cpfq.polyring", "Poly.__mul__"),
    ("polyring.gcd", "cpfq.polyring", "gcd"),
    ("polyring.valuation", "cpfq.polyring", "valuation"),
    ("counting.count_cpf", "cpfq.counting", "count_cpf"),
    ("counting.count_polyfn", "cpfq.counting", "count_polyfn"),
    ("chen.gamma", "cpfq.chen", "gamma"),
    ("chen.is_self_chen", "cpfq.chen", "is_self_chen"),
    ("chen.density_empirical", "cpfq.chen", "density_empirical"),
    ("residue.function_table_init", "cpfq.residue", "FunctionTable.__init__"),
    ("residue.crt_split", "cpfq.residue", "crt_split"),
    ("residue.crt_combine", "cpfq.residue", "crt_combine"),
    ("wagner.decompose", "cpfq.wagner", "decompose"),
    ("wagner.eval_Qk", "cpfq.wagner", "eval_Qk"),
    ("oracle.encode_cp_problem", "cpfq.oracle", "encode_cp_problem"),
    ("oracle.PolyFnModule", "cpfq.oracle", "PolyFnModule.__init__"),
    ("oracle.is_congruence_preserving", "cpfq.oracle", "is_congruence_preserving"),
    ("oracle.census_self_chen", "cpfq.oracle", "census_self_chen"),
    ("kernels.count_exhaustive", "cpfq._kernels", "count_exhaustive"),
    ("kernels.count_backtracking", "cpfq._kernels", "count_backtracking"),
    ("kernels.enumerate_backtracking", "cpfq._kernels", "enumerate_backtracking"),
)

KERNELS = ("kernels.count_exhaustive", "kernels.count_backtracking",
           "kernels.enumerate_backtracking")


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.names = [name for name, _, _ in TARGETS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.max_spans = max_spans
        self.op = -1              # operation number, shared by its spans
        self.malloc_peak = None   # set to 0 to measure kernel allocations
        self.missing = []
        self._stack = []
        self._installed = []
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.by_parent = {}       # (parent id, id) -> calls
        self.irreducible_keys = set()
        self.irreducible_misses = 0
        self.rows_checked = 0
        self.rows_valid = 0
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0

    # ------------------------------------------------------------ wrapping
    def _wrap(self, nid, fn, before=None, after=None):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = perf_counter()
            parent = stack[-1] if stack else None
            if before is not None:
                before(args)
            names = tracer.span_name
            idx = -1
            if len(names) < tracer.max_spans:
                idx = len(names)
                names.append(nid)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer.span_parent.append(parent[2] if parent is not None else -1)
                tracer.span_op.append(tracer.op)
            else:
                tracer.dropped += 1
            frame = [nid, 0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.self_s[nid] += (t1 - t0) - frame[1]
                tracer.calls[nid] += 1
                if idx >= 0:
                    tracer.span_start[idx] = t0
                    tracer.span_end[idx] = t1
                if parent is not None:
                    key = (parent[0], nid)
                    tracer.by_parent[key] = tracer.by_parent.get(key, 0) + 1
                    parent[1] += perf_counter() - outer
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hooks(self, name):
        if name == "polyring.monic_irreducibles":
            def before(args):
                key = (args[0], args[1])
                if key not in self.irreducible_keys:
                    self.irreducible_keys.add(key)
                    self.irreducible_misses += 1
            return before, None
        if name == "kernels.count_exhaustive":
            def before(args):
                self.rows_checked += args[1] ** args[0]   # C^D

            def after(args, result):
                self.rows_valid += int(result)
            return before, after
        return None, None

    def _kernel_alloc(self, fn):
        """Wrap a kernel so that, when malloc_peak is not None, its peak

        traced allocation joins malloc_peak (tracemalloc is on only
        inside the call)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.malloc_peak is None:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.malloc_peak = max(self.malloc_peak, peak)
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "cpfq" or name.startswith("cpfq.")]
        for name, modname, attr in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = owner.__dict__.get(member) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            inner = self._kernel_alloc(orig) if name in KERNELS else orig
            wrapper = self._wrap(self.ids[name], inner, *self._hooks(name))
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._installed.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._installed):
            setattr(holder, key, orig)
        self._installed.clear()

    # ------------------------------------------------------------- reports
    def totals(self) -> dict:
        """Per-name totals and the derived per-layer quantities."""
        out = {}
        for name, i in self.ids.items():
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        # divisions made directly by factorize: its trial divisions
        key = (self.ids["polyring.factorize"], self.ids["polyring.divmod"])
        out["polyring.trial_divmods"] = self.by_parent.get(key, 0)
        out["polyring.monic_irreducibles.misses"] = self.irreducible_misses
        out["kernels.rows_checked"] = self.rows_checked
        out["kernels.rows_valid"] = self.rows_valid
        return out

    def write_spans(self, path, phases):
        """The stored spans as columns, with the phase boundaries."""
        obj = {
            "names": self.names,
            "phases": phases,
            "dropped": self.dropped,
            "columns": {
                "name": self.span_name.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
