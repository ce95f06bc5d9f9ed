"""Per-layer metrics computed from the spans of a traced run.

Self time of a span is its duration minus the part of its interval that its
child spans cover (children may run concurrently in the CLI's thread pool, so
their intervals are merged first).  Time and count metrics are per solve: the
total over the traced items divided by the number of ``continuation_solve``
spans in them.
"""

from collections import defaultdict

from tracer import ATTRS, END, NAME, PARENT, START


def _covered(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [
        rec[END] - rec[START] - _covered(children.get(idx, ()), rec[START], rec[END])
        for idx, rec in enumerate(spans)
    ]


def layer_metrics(spans, item_spans):
    """Per-layer metrics over the spans that descend from the given bench.item spans."""
    own = set(item_spans)
    keep = [False] * len(spans)
    for idx, rec in enumerate(spans):
        keep[idx] = idx in own or (rec[PARENT] >= 0 and keep[rec[PARENT]])
    selfs = self_times(spans)

    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    factor_ok = defaultdict(int)     # successful factorizations per stage span
    stage_attrs = {}
    nnz = []
    shift_lifts = cg_iters = cost_evals_in_stages = n_spans = 0
    cold = set()
    for idx, rec in enumerate(spans):
        if not keep[idx]:
            continue
        name, attrs = rec[NAME], rec[ATTRS] or {}
        n_spans += 1
        dur[name] += rec[END] - rec[START]
        self_s[name] += selfs[idx]
        calls[name] += 1
        if name == "continuation.cold_start":
            cold.add(idx)
        elif name == "continuation.factor":
            if "error" in attrs:
                shift_lifts += 1
            else:
                factor_ok[rec[PARENT]] += 1
                nnz.append(attrs["nnz"])
        elif name == "continuation.stage" and "error" not in attrs:
            stage_attrs[idx] = (attrs, rec[PARENT] in cold)
        elif name == "operators.pcg" and "error" not in attrs:
            cg_iters += attrs["iterations"]
        elif (name == "supremand.eval" and rec[PARENT] >= 0
              and spans[rec[PARENT]][NAME] == "continuation.stage"):
            cost_evals_in_stages += 1

    solve_ids = [idx for idx, rec in enumerate(spans) if keep[idx] and rec[NAME] == "continuation.solve"]
    n = max(len(solve_ids), 1)
    # count identity: one factorization per Newton iteration, except that a
    # stage accepted on stagnation counts one iteration that never factored
    steps = stalled = stages = mismatch = 0
    for idx, (attrs, is_cold) in stage_attrs.items():
        steps += attrs["iterations"]
        stages += not is_cold
        stalled += attrs["stalled"] and not is_cold
        overcount = attrs["iterations"] - factor_ok[idx]
        mismatch += not (overcount == 0 or (overcount == 1 and attrs["stalled"]))
    mean_nnz = sum(nnz) / len(nnz) if nnz else 0.0
    return {
        "continuation.factor_s": (dur["continuation.factor"] / n, "s"),
        "continuation.factorizations": (calls["continuation.factor"] / n - shift_lifts / n, "count"),
        "continuation.factor_nnz": (mean_nnz, "count"),
        "continuation.factor_mb_computed": (mean_nnz * 12 / 1e6, "MB"),
        "continuation.shift_lifts": (shift_lifts / n, "count"),
        "continuation.tri_solves": (calls["continuation.tri_solve"] / n, "count"),
        "continuation.tri_solve_s": (dur["continuation.tri_solve"] / n, "s"),
        "continuation.newton_self_s": (self_s["continuation.stage"] / n, "s"),
        "continuation.cost_evals_per_step": (cost_evals_in_stages / steps if steps else 0.0, "ratio"),
        "continuation.stages": (stages / n, "count"),
        "continuation.newton_steps": (steps / n, "count"),
        "continuation.stalled_stages": (stalled, "count"),
        "continuation.count_mismatch": (mismatch, "count"),
        "continuation.self_s": (self_s["continuation.solve"] / n, "s"),
        "continuation.dual_s": (dur["continuation.dual"] / n, "s"),
        "supremand.eval_calls": (calls["supremand.eval"] / n, "count"),
        "supremand.eval_s": (dur["supremand.eval"] / n, "s"),
        "supremand.grad_calls": (calls["supremand.grad"] / n, "count"),
        "supremand.grad_s": (dur["supremand.grad"] / n, "s"),
        "supremand.hess_calls": (calls["supremand.hess"] / n, "count"),
        "supremand.hess_s": (dur["supremand.hess"] / n, "s"),
        "operators.assemble_s": (dur["operators.assemble"] / n, "s"),
        "operators.apply_calls": (calls["operators.apply"] / n, "count"),
        "operators.apply_s": (dur["operators.apply"] / n, "s"),
        "operators.dirichlet_s": (dur["operators.dirichlet"] / n, "s"),
        "operators.cg_iters": (cg_iters / n, "count"),
        "verify.verify_s": (dur["verify.verify"] / n, "s"),
        "bangbang.oracle_s": (dur["bangbang.oracle"] / n, "s"),
        "estimator.fit_self_s": (self_s["estimator.fit"] / n, "s"),
        "config.parse_s": (dur["config.load"] / n, "s"),
        "cli.self_s": (self_s["cli.main"] / n, "s"),
        "trace.spans": (n_spans / n, "count"),
        "trace.unaccounted_frac": (
            self_s["bench.item"] / dur["bench.item"] if dur["bench.item"] else 0.0, "ratio"),
    }, len(solve_ids)
