"""Span tracer wrapped around supmin's public entry points for a traced run.

Each wrapped call records one span: name, start, end, parent span, the
enclosing ``continuation_solve`` span (the solve id) and the enclosing
benchmark item.  Spans stay in memory and are written out when the run ends.
The wrappers replace the names where the package looks them up at call time
(``from ... import`` copies a function into each importing module, so every
supmin module attribute bound to the same function object is replaced), and
``uninstall`` restores the originals.
"""

import contextlib
import contextvars
import functools
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (parent span index, solve span index, item span index); -1 means none
_CONTEXT = contextvars.ContextVar("perfbench_span", default=(-1, -1, -1))

NAME, START, END, PARENT, SOLVE, ITEM, ATTRS = range(7)


class _TracedFactor:
    """Proxy around a SuperLU object that records a span per triangular solve."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        with self._tracer.span("continuation.tri_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._patches = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name, kind=None):
        parent, solve, item = _CONTEXT.get()
        rec = [name, 0.0, 0.0, parent, solve, item, None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        if kind == "solve":
            solve = idx
        elif kind == "item":
            item = idx
        token = _CONTEXT.set((idx, solve, item))
        rec[START] = time.perf_counter()
        return idx, rec, token

    def _close(self, rec, token):
        rec[END] = time.perf_counter()
        _CONTEXT.reset(token)

    def span(self, name, kind=None):
        return _Span(self, name, kind)

    def wrap(self, fn, name, kind=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _, rec, token = tracer._open(name, kind)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                tracer._close(rec, token)
            if after is not None:
                result = after(rec, result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, fn, name, kind=None, after=None):
        """Replace fn in every loaded supmin module that binds it."""
        traced = self.wrap(fn, name, kind, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "supmin" or mod_name.startswith("supmin.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, traced)

    def install(self):
        import supmin
        import supmin.cli
        import supmin.config
        import supmin.continuation
        import supmin.operators
        import supmin.verify

        def factor_done(rec, lu):
            rec[ATTRS] = {"nnz": int(lu.nnz)}
            return _TracedFactor(self, lu)

        def stage_done(rec, res):
            rec[ATTRS] = {"iterations": int(res.iterations), "stalled": bool(res.stalled)}
            return res

        def pcg_done(rec, res):
            rec[ATTRS] = {"iterations": int(res[2])}
            return res

        cont = supmin.continuation
        self._patch_function(cont.splu, "continuation.factor", after=factor_done)
        self._patch_function(cont.minimize_power_energy, "continuation.stage", after=stage_done)
        self._patch_function(cont.cold_start, "continuation.cold_start")
        self._patch_function(cont.dual_field, "continuation.dual")
        self._patch_function(cont.continuation_solve, "continuation.solve", kind="solve")
        self._patch_function(supmin.operators.apply_operator, "operators.apply")
        self._patch_function(supmin.operators.assemble_operator, "operators.assemble")
        self._patch_function(supmin.operators.dirichlet_solve, "operators.dirichlet")
        self._patch_function(supmin.operators.pcg, "operators.pcg", after=pcg_done)
        self._patch_function(supmin.verify.verify_system, "verify.verify")
        self._patch_function(supmin.bangbang.solve_bang_bang, "bangbang.oracle")
        self._patch_function(supmin.config.load_config, "config.load")
        self._patch_function(supmin.cli.main, "cli.main")
        for method, name in (("eval_field", "supremand.eval"),
                             ("grad_field", "supremand.grad"),
                             ("hess_field", "supremand.hess")):
            cls = supmin.WeightedPowerNorm
            self._patch(cls, method, self.wrap(getattr(cls, method), name))
        est = supmin.SupremalMinimizer
        self._patch(est, "fit", self.wrap(est.fit, "estimator.fit"))
        self._patch(supmin.cli, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output --------------------------------------------------------------
    def write(self, path):
        base = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('# name start_s end_s parent solve item attrs\n')
            for rec in self.spans:
                row = [rec[NAME], round(rec[START] - base, 7), round(rec[END] - base, 7),
                       rec[PARENT], rec[SOLVE], rec[ITEM], rec[ATTRS]]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


class _Span:
    def __init__(self, tracer, name, kind):
        self._tracer, self._name, self._kind = tracer, name, kind

    def __enter__(self):
        idx, self._rec, self._token = self._tracer._open(self._name, self._kind)
        return idx

    def __exit__(self, *exc):
        self._tracer._close(self._rec, self._token)
        return False


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks inherit the submitting thread's span context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class NullTracer:
    """Stand-in for untraced executions: benchmark spans record nothing."""

    def span(self, name, kind=None):
        return contextlib.nullcontext()


def span_cost_s(samples=20000):
    """Median cost of one recorded span around a no-op call, in seconds."""
    tracer = Tracer()

    def bare():
        return None

    traced = tracer.wrap(bare, "calibrate")
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            traced()
        mid = time.perf_counter()
        for _ in range(samples):
            bare()
        end = time.perf_counter()
        costs.append(((mid - start) - (end - mid)) / samples)
        tracer.spans.clear()
    return statistics.median(costs)
