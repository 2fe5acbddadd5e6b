"""Per-layer spans and counters for the benchmark, recorded from outside curveext.

`instrument(rec)` swaps public functions of the measured modules (engine,
curves, measures, lab, decomposition) for wrappers that open a span around
each call, then restores them.  Every module-level name bound to a wrapped
function is rebound, so names brought in with `from ... import` (for
example `lab.extension_eval` or `engine.affine_weight`) are traced too.
Spans carry name, start, end and parent index; they stay in memory until
the benchmark writes them out.  Self time is a span's duration minus the
time its child spans cover.

"Computed" counters are derived from call arguments and the quadrature
rules `build_rule` returns inside the call, not measured:
  engine.phase_exps   complex exponentials the kernels must form
  engine.gemm_gflop   flops of the phase-matrix products (8 per complex MAC)
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

from curveext import curves, decomposition, engine, lab, measures

# (span name, owner, attribute): the wrapped boundaries
SPANS = [
    ("engine.scatter", engine, "extension_eval"),
    ("engine.grid", engine, "extension_eval_grid"),
    ("engine.rule", engine, "build_rule"),
    ("engine.weight_zeros", engine, "weight_zeros"),
    ("engine.lp_norm", engine.TestFunction, "lp_norm"),
    ("curves.affine_weight", curves, "affine_weight"),
    ("curves.velocity_sup", curves.CurveSpec, "velocity_sup"),
    ("measures.build", measures, "make_cantor"),
    ("measures.build", measures, "make_lebesgue"),
    ("measures.build", measures, "make_appendix_a"),
    ("measures.build", measures, "graded_level_structure"),
    ("measures.audit", measures, "regularity_audit"),
    ("measures.mollify", measures, "mollified_sup"),
    ("lab.family_sup", lab, "family_sup"),
    ("lab.extension_lq", lab.GradedGrid, "extension_lq"),
    ("decomposition.tables", decomposition, "interval_values"),
    ("decomposition.tuple_search", decomposition, "best_separated_tuple"),
    ("decomposition.decompose", decomposition, "decompose_batch"),
    ("decomposition.verify", decomposition, "verify_certificate"),
]

# (metric, unit, better); `.s` is inclusive time, `.self_s` excludes children
PER_LAYER = [
    ("engine.grid.calls", "count", "lower"),
    ("engine.grid.self_s", "s", "lower"),
    ("engine.scatter.calls", "count", "lower"),
    ("engine.scatter.self_s", "s", "lower"),
    ("engine.rule.calls", "count", "lower"),
    ("engine.rule.s", "s", "lower"),
    ("engine.nodes", "count", "lower"),
    ("engine.phase_exps", "count", "lower"),
    ("engine.gemm_gflop", "GFLOP", "lower"),
    ("engine.mexp_per_s", "Mexp/s", "higher"),
    ("engine.weight_zeros.s", "s", "lower"),
    ("engine.lp_norm.s", "s", "lower"),
    ("curves.affine_weight.calls", "count", "lower"),
    ("curves.affine_weight.s", "s", "lower"),
    ("curves.torsion.points", "count", "lower"),
    ("curves.velocity_sup.calls", "count", "lower"),
    ("curves.velocity_sup.s", "s", "lower"),
    ("measures.build.s", "s", "lower"),
    ("measures.audit.s", "s", "lower"),
    ("measures.audit.ball_queries", "count", "lower"),
    ("measures.mollify.s", "s", "lower"),
    ("measures.mollify.kernel_evals", "count", "lower"),
    ("lab.family_sup.calls", "count", "lower"),
    ("lab.family_sup.self_s", "s", "lower"),
    ("lab.extension_lq.calls", "count", "lower"),
    ("lab.extension_lq.self_s", "s", "lower"),
    ("decomposition.tables.s", "s", "lower"),
    ("decomposition.tables.self_s", "s", "lower"),
    ("decomposition.tuple_search.calls", "count", "lower"),
    ("decomposition.tuple_search.s", "s", "lower"),
    ("decomposition.decompose.self_s", "s", "lower"),
    ("decomposition.verify.s", "s", "lower"),
    ("decomposition.certificates", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("speedup_nproc", "ratio", "higher"),
    ("failed_frac", "fraction", "lower"),
]

# One self time per span name: these plus trace.remainder_s add up to
# trace.wall_s.  Names listed with `.s` have no traced children.
SELF_TIME_METRICS = [
    "engine.grid.self_s", "engine.scatter.self_s", "engine.rule.s",
    "engine.weight_zeros.s", "engine.lp_norm.s", "curves.affine_weight.s",
    "curves.velocity_sup.s", "measures.build.s", "measures.audit.s",
    "measures.mollify.s", "lab.family_sup.self_s", "lab.extension_lq.self_s",
    "decomposition.tables.self_s", "decomposition.tuple_search.s",
    "decomposition.decompose.self_s", "decomposition.verify.s",
]


class Recorder:
    """In-memory spans plus counters; one recorder per traced repetition."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.counts = defaultdict(int)
        self._frames = []  # rules built inside each open engine evaluation

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def metrics(self):
        """Per-layer metrics over the recorded spans (root span first)."""
        n = len(self.spans)
        covered = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                incl_s[name] += end - start
        root = self.spans[0]
        c = self.counts
        kernel_s = self_s["engine.grid"] + self_s["engine.scatter"]
        out = {
            "trace.wall_s": root[2] - root[1],
            "trace.remainder_s": self_s[root[0]],
            "engine.nodes": c["engine.nodes"],
            "engine.phase_exps": c["engine.phase_exps"],
            "engine.gemm_gflop": c["engine.gemm_flop"] / 1e9,
            "engine.mexp_per_s": c["engine.phase_exps"] / kernel_s / 1e6 if kernel_s else 0.0,
            "curves.torsion.points": c["curves.torsion.points"],
            "measures.audit.ball_queries": c["measures.audit.ball_queries"],
            "measures.mollify.kernel_evals": c["measures.mollify.kernel_evals"],
            "decomposition.certificates": c["decomposition.certificates"],
        }
        for metric, _, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer]
            elif kind == "s":
                out[metric] = incl_s[layer]
            elif kind == "self_s":
                out[metric] = self_s[layer]
        return out


_SIGNATURES = {}


def _arguments(fn, args, kwargs):
    sig = _SIGNATURES.get(fn) or _SIGNATURES.setdefault(fn, inspect.signature(fn))
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _scatter_pass(rec, m, n, d):
    """m targets against n nodes: phase GEMM (real), exp, then a complex matvec."""
    rec.counts["engine.phase_exps"] += m * n
    rec.counts["engine.gemm_flop"] += 2 * m * d * n + 8 * m * n


def _scatter_work(rec, args, rules):
    """extension_eval: the main pass plus its strided self-check."""
    n_t = np.atleast_2d(np.asarray(args["targets"])).shape[0]
    d = args["curve"].d
    if rules:
        _scatter_pass(rec, n_t, rules[0].n, d)
    if args["self_check"] and n_t and len(rules) > 1:
        _scatter_pass(rec, len(range(0, n_t, engine.SELF_CHECK_STRIDE)),
                      rules[1].n, d)


def _grid_work(rec, args, rules):
    """extension_eval_grid: per-axis phase factors, one GEMM per trailing
    index, and a two-point scattered self-check."""
    if not rules or rules[0].n == 0:
        return
    sizes = [len(a) for a in args["axes"]]
    n = rules[0].n
    rec.counts["engine.phase_exps"] += sum(sizes) * n
    rec.counts["engine.gemm_flop"] += 8 * n * math.prod(sizes)
    if args["self_check"] and len(rules) > 1:
        _scatter_pass(rec, 2, rules[1].n, args["curve"].d)


class _CountingTree:
    """cKDTree proxy that counts ball-query centres (cKDTree cannot be subclassed)."""

    def __init__(self, rec, tree):
        self._rec, self._tree = rec, tree

    def query_ball_point(self, x, r, **kw):
        self._rec.counts["measures.audit.ball_queries"] += \
            int(np.prod(np.shape(x)[:-1])) if np.ndim(x) > 1 else 1
        return self._tree.query_ball_point(x, r, **kw)

    def __getattr__(self, attr):
        return getattr(self._tree, attr)


def _count_rule(rec, rule):
    rec.counts["engine.nodes"] += rule.n
    if rec._frames:
        rec._frames[-1].append(rule)


def _count_certificates(rec, certs):
    rec.counts["decomposition.certificates"] += len(certs)


# keyed by attribute name: work computed from an evaluation's arguments and
# rules, and counts taken from a call's result
_EVAL_WORK = {"extension_eval": _scatter_work, "extension_eval_grid": _grid_work}
_RESULT_HOOKS = {"build_rule": _count_rule, "decompose_batch": _count_certificates}


def _span_wrapper(rec, name, attr, fn):
    work, hook = _EVAL_WORK.get(attr), _RESULT_HOOKS.get(attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if work is None:
            with rec.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(rec, result)
            return result
        rec._frames.append([])
        try:
            with rec.span(name):
                result = fn(*args, **kwargs)
        finally:
            rules = rec._frames.pop()
        work(rec, _arguments(fn, args, kwargs), rules)
        return result

    return wrapper


def _wrappers(rec):
    """Replacement for each wrapped (owner, attribute): span plus counters."""
    out = {(owner, attr): _span_wrapper(rec, name, attr, getattr(owner, attr))
           for name, owner, attr in SPANS}
    torsion, kernel_profile, tree_cls = (curves.torsion, measures.kernel_profile,
                                         measures.cKDTree)

    @functools.wraps(torsion)
    def counted_torsion(curve, t):
        rec.counts["curves.torsion.points"] += np.size(t)
        return torsion(curve, t)

    @functools.wraps(kernel_profile)
    def counted_kernel_profile(r2, d):
        rec.counts["measures.mollify.kernel_evals"] += np.size(r2)
        return kernel_profile(r2, d)

    def counted_tree(data, *args, **kwargs):
        return _CountingTree(rec, tree_cls(data, *args, **kwargs))

    out[(curves, "torsion")] = counted_torsion
    out[(measures, "kernel_profile")] = counted_kernel_profile
    out[(measures, "cKDTree")] = counted_tree
    return out


@contextlib.contextmanager
def instrument(rec):
    """Trace every boundary in SPANS into `rec` for the duration of the block.

    Each replaced object is also rebound under every other name that any
    loaded curveext module holds for it.
    """
    modules = [m for k, m in sys.modules.items()
               if k == "curveext" or k.startswith("curveext.")]
    saved = []
    for (owner, attr), new in _wrappers(rec).items():
        old = getattr(owner, attr)
        saved.append((owner, attr, old))
        setattr(owner, attr, new)
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is old and (mod, name) != (owner, attr):
                    saved.append((mod, name, old))
                    setattr(mod, name, new)
    try:
        yield rec
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
