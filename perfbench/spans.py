"""Outside tracer: times gradobs layers by wrapping their public functions.

Nothing in ``src/`` is edited.  Callers import by name (``from .mlf import
mlf``), so a wrapper is installed at every module binding that holds the
original object, found by identity across all loaded ``gradobs`` modules.
Spans (name, start, end, parent, op) stay in memory and are written once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# (module, public function, span name).  mlf spans are named per branch.
WRAPPED = (
    ("gradobs.mlf", "mlf", None),
    ("gradobs.spectral", "region_quadrature", "spectral.region_quadrature"),
    ("gradobs.spectral", "grad_adjoint", "spectral.grad_adjoint"),
    ("gradobs.spectral", "restrict_gradient", "spectral.restrict_gradient"),
    ("gradobs.sensing", "coupling_matrix", "sensing.coupling_matrix"),
    ("gradobs.sensing", "grad_coupling", "sensing.grad_coupling"),
    ("gradobs.dynamics", "response_matrix", "dynamics.response_matrix"),
    ("gradobs.dynamics", "simulate", "dynamics.simulate"),
    ("gradobs.observability", "build_g_matrices", "observability.build_g_matrices"),
    ("gradobs.observability", "strategic_test_1d", "observability.strategic_test_1d"),
    ("gradobs.observability", "gram_regional", "observability.gram_regional"),
    ("gradobs.observability", "response_kernel_matrix",
     "observability.response_kernel_matrix"),
    ("gradobs.observability", "grad_overlap_matrix", "observability.grad_overlap_matrix"),
    ("gradobs.observability", "overlap_matrix", "observability.overlap_matrix"),
    ("gradobs.hum", "solve", "hum.solve"),
    ("gradobs.hum", "apply_lambda", "hum.apply_lambda"),
    ("gradobs.hum", "rhs_from_data", "hum.rhs_from_data"),
    ("gradobs.hum", "discrepancy_regularization", "hum.discrepancy"),
    ("gradobs.hum", "reconstruction_error", "hum.reconstruction_error"),
    ("gradobs.cli", "main", "cli.main"),
    ("gradobs.cli", "read_observations", "cli.read_observations"),
)
MLF_BUCKETS = ("series", "gap", "asymptotic", "exact")


def mlf_bucket(alpha: float, beta: float, z: float, mod) -> str:
    """Branch `gradobs.mlf.mlf` takes, from its arguments and exported thresholds."""
    if alpha == 1.0 and beta == 1.0:
        return "exact"
    if z >= -1.0:
        return "series"
    log_peak = math.log(-z) / alpha
    peak = math.exp(log_peak) if log_peak < 700.0 else math.inf
    if peak <= mod.SERIES_SAFE_NATS:
        return "series"
    if peak >= mod.ASYMPTOTIC_SAFE_NATS:
        return "asymptotic"
    return "gap"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # parallel columns, one entry per span
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.counters: dict[tuple[int, str], float] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._stack_names: list[int] = []
        self._seen: set = set()
        self._bindings: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op: int) -> None:
        self.current_op = op
        self._seen = set()

    def count(self, key: str, value: float) -> None:
        k = (self.current_op, key)
        self.counters[k] = self.counters.get(k, 0.0) + value

    def _inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and nid in self._stack_names

    def _record(self, nid: int, f, args, kwargs):
        idx = len(self.name)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self._stack.append(idx)
        self._stack_names.append(nid)
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._stack_names.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, f, span: str | None):
        if span is None:  # gradobs.mlf.mlf: one span name per branch
            mod = sys.modules["gradobs.mlf"]
            ids = {b: self._id(f"mlf.{b}") for b in MLF_BUCKETS}

            @functools.wraps(f)
            def wrapper(alpha, beta, z):
                nid = ids[mlf_bucket(alpha, beta, z, mod)]
                return self._record(nid, f, (alpha, beta, z), {})

            return wrapper
        nid = self._id(span)
        if span == "dynamics.response_matrix":

            @functools.wraps(f)
            def wrapper(alpha, eigenvalues, times):
                keys = {(float(alpha), float(lam), float(t))
                        for lam in eigenvalues for t in times}
                self.count(span + ".evals", len(eigenvalues) * len(times))
                self.count(span + ".unique", len(keys - self._seen))
                self._seen |= keys
                return self._record(nid, f, (alpha, eigenvalues, times), {})

            return wrapper
        if span == "hum.solve":

            @functools.wraps(f)
            def wrapper(*args, **kwargs):
                if self._inside("hum.discrepancy"):
                    self.count("hum.discrepancy.solves", 1)
                result = self._record(nid, f, args, kwargs)
                self.count("hum.cg.iterations", result.iterations)
                return result

            return wrapper

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            return self._record(nid, f, args, kwargs)

        return wrapper

    def prepare(self) -> None:
        """Build the wrappers and find every binding; install nothing yet."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gradobs" or n.startswith("gradobs."))]
        for modname, fname, span in WRAPPED:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))
        # HumContext is constructed through its class, shared by all bindings
        hum = sys.modules["gradobs.hum"]
        init = hum.HumContext.__init__
        nid = self._id("hum.context")

        @functools.wraps(init)
        def context_init(*args, **kwargs):
            return self._record(nid, init, args, kwargs)

        self._bindings.append((hum.HumContext, "__init__", init, context_init))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summary ---

    def summarize(self, ops: set[int]) -> dict[str, float]:
        """Totals over the given op ids: calls, busy and self time per span
        name, per-layer self time, and the counters."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        for i, nid in enumerate(self.name):
            if self.op[i] not in ops:
                continue
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            add(name + ".calls", 1)
            add(name + ".self_s", dur - child[i])
            add(name.split(".")[0] + ".self_s", dur - child[i])
            # busy time counts the outermost span of a name only
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                add(name + ".busy_s", dur)
        for (op, key), value in self.counters.items():
            if op in ops:
                add(key, value)
        return out

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump({
                "meta": meta,
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "op"],
                "spans": [self.name, self.start, self.end, self.parent, self.op],
            }, handle)
