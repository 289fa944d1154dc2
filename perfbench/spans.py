"""Span recorder for the traced run.

The recorder wraps the public functions of each exthyp module from outside:
the library source is not changed.  ``from .x import f`` copies ``f`` into
the importing module, so every module-level binding of a listed function is
replaced, and installation fails if any binding is left unwrapped.

A span's self time is its duration minus the time of the spans it caused.
``calls`` counts entries into a span from outside it, so a listed function
calling another function of the same span counts once.  Spans are folded
into per-name totals as they close; nothing is written until the run ends.
"""

from __future__ import annotations

import sys
import time
import types
import weakref

import numpy as np

# span name -> [(module, attribute)]; "Class.method" wraps a method.
SPANS = {
    "quadrature.batch": [("quadrature", "integrate_unit_batch")],
    "quadrature.scalar": [("quadrature", "integrate_unit2"),
                          ("quadrature", "integrate_halfline")],
    "quadrature.grid": [("quadrature", "unit_grid"),
                        ("quadrature", "halfline_grid")],
    # the confluent kernel's vectorized 1F1 runs inside theta_eval_arr
    "kernel.theta": [("kernel", "theta_eval_arr")],
    "extbeta.batch": [("extbeta", "ext_beta_shifted_batch_arrays")],
    "extbeta.complex": [("extbeta", "ext_beta_complex_many")],
    "extbeta.scalar": [("extbeta", "ext_beta"), ("extbeta", "ext_gamma")],
    "extbeta.theta_product": [("extbeta", "safe_theta_product")],
    "hyp.ladder": [("hyp", "_CoeffLadder.__init__"),
                   ("hyp", "_CoeffLadder.ensure")],
    "hyp.series": [("hyp", "pfq_series")],
    "hyp.series_vector": [("hyp", "pfq_series_vector")],
    "hyp.euler": [("hyp", "euler_step_integral")],
    "appell.series": [("appell", "f1_series"), ("appell", "f2_series")],
    "appell.integral": [("appell", "f1_integral"), ("appell", "f2_integral"),
                        ("appell", "f2_single_integral")],
    "lauricella.series": [("lauricella", "fd_series"),
                          ("lauricella", "fa_series"),
                          ("lauricella", "fa_partial_series")],
    "lauricella.integral": [("lauricella", "fd_integral"),
                            ("lauricella", "fa_integral"),
                            ("lauricella", "fa_single_integral"),
                            ("lauricella", "fd_laplace_product"),
                            ("lauricella", "interval_product_integral")],
    "mellin.contour": [("mellin", "mb_eval")],
    "ineq": [("ineq", "lemma2_identity"), ("ineq", "weight_F"),
             ("ineq", "weight_G"), ("ineq", "weight_F_quadrature"),
             ("ineq", "weight_G_quadrature"), ("ineq", "hilbert_constant"),
             ("ineq", "hilbert_check")],
    "conformance": [("conformance", "run_conformance")],
    "cli": [("cli", "main")],
}


class BindingError(RuntimeError):
    """A listed function is missing, or a copy of it escaped wrapping."""


def _size(x) -> int:
    return int(np.size(x))


class Recorder:
    """Wraps the listed functions and folds their spans into totals."""

    def __init__(self):
        self.active = False
        self._stack = []  # [span name, child seconds] of each open span
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.counts = {}
        self._batch_keys = set()
        self._ladder_requested = weakref.WeakKeyDictionary()

    def begin_operation(self) -> None:
        """Repeats of a batch key are counted within one operation."""
        self._batch_keys.clear()

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- counters taken where the work happens ------------------------------
    # One method per listed function, named after it: (args, kwargs, out,
    # coefficients the ladder held before the call).

    def _c_integrate_unit_batch(self, args, kwargs, out, before):
        count = args[1] if len(args) > 1 else kwargs["count"]
        self.add("quadrature.batch.nodes", out[2])
        self.add("quadrature.batch.members", count)
        self.add("quadrature.unconverged", int(not out[3]))

    def _c_integrate_unit2(self, args, kwargs, out, before):
        self.add("quadrature.scalar.nodes", out.nodes_used)
        self.add("quadrature.unconverged", int(not out.converged))

    _c_integrate_halfline = _c_integrate_unit2

    def _c_theta_eval_arr(self, args, kwargs, out, before):
        self.add("kernel.theta.points", _size(out))

    def _c_ext_beta_shifted_batch_arrays(self, args, kwargs, out, before):
        key = (args, tuple(sorted(kwargs.items())))
        self.add("extbeta.batch.repeats", int(key in self._batch_keys))
        self._batch_keys.add(key)

    def _c_ext_beta_complex_many(self, args, kwargs, out, before):
        self.add("extbeta.complex.alphas", _size(args[1]))
        self.add("extbeta.complex.nodes", out[2])

    def _c_safe_theta_product(self, args, kwargs, out, before):
        self.add("extbeta.theta_product.points", _size(out))

    def _c__CoeffLadder___init__(self, args, kwargs, out, before):
        self.add("hyp.ladder.new", 1)

    def _c__CoeffLadder_ensure(self, args, kwargs, out, before):
        ladder, hi = args[0], args[1]
        self.add("hyp.ladder.built", ladder.coeffs.size - before)
        seen = self._ladder_requested.get(ladder, 0)
        if hi > seen:
            self.add("hyp.ladder.requested", hi - seen)
            self._ladder_requested[ladder] = hi

    def _c_pfq_series(self, args, kwargs, out, before):
        self.add("hyp.series.terms", out.terms_or_nodes)

    def _c_pfq_series_vector(self, args, kwargs, out, before):
        self.add("hyp.series_vector.points", _size(args[1]))

    def _c_euler_step_integral(self, args, kwargs, out, before):
        self.add("hyp.euler.nodes", out.terms_or_nodes)

    def _c_mb_eval(self, args, kwargs, out, before):
        self.add("mellin.contour.points", out.terms_or_nodes)

    def _c_run_conformance(self, args, kwargs, out, before):
        self.add("conformance.cases", len(out.cases))

    def _multivariable_counter(self, span: str):
        """Terms or nodes of an appell/lauricella evaluator.

        Evaluators returning (series, integral) pairs count their last
        member; the series member is counted by its own span.
        """
        key = f"{span}.{'terms' if span.endswith('series') else 'nodes'}"

        def count(args, kwargs, out, before):
            res = out[-1] if isinstance(out, tuple) else out
            self.add(key, res.terms_or_nodes)
        return count

    def _counter(self, span: str, target: str):
        if span.startswith(("appell.", "lauricella.")):
            return self._multivariable_counter(span)
        name = "_c_" + target.replace(".", "_")
        return getattr(self, name, None)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span: str, target: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        sized = target == "_CoeffLadder.ensure"
        count = self._counter(span, target)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = args[0].coeffs.size if sized else 0
            outer = not stack or stack[-1][0] != span
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self_s[span] += elapsed - frame[1]
                if outer:
                    calls[span] += 1
            if count is not None:
                count(args, kwargs, out, before)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every listed function in every module."""
        import exthyp
        import exthyp.cli  # the package namespace does not import the CLI

        modules = [m for name, m in sorted(sys.modules.items())
                   if isinstance(m, types.ModuleType)
                   and (name == "exthyp" or name.startswith("exthyp."))]
        originals = {}
        for span, targets in SPANS.items():
            for modname, target in targets:
                home = getattr(exthyp, modname, None)
                if home is None:
                    raise BindingError(f"module exthyp.{modname} not found")
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        raise BindingError(f"exthyp.{modname}.{target} "
                                           f"not found")
                    setattr(cls, meth, self._wrap(span, target,
                                                  vars(cls)[meth]))
                    continue
                fn = getattr(home, target, None)
                if not callable(fn):
                    raise BindingError(f"exthyp.{modname}.{target} not found")
                originals[id(fn)] = (fn, self._wrap(span, target, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for module in modules:
            for attr, value in vars(module).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    raise BindingError(
                        f"{module.__name__}.{attr} is still unwrapped")

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values, keyed by metric name."""
        c = self.counts.get
        calls, self_s = self.calls, self.self_s
        batch = calls["extbeta.batch"]
        built = c("hyp.ladder.built", 0)
        out = {}
        for span in SPANS:
            out[f"{span}.self_s"] = self_s[span]
        for span in ("quadrature.batch", "quadrature.scalar",
                     "quadrature.grid", "kernel.theta", "extbeta.batch",
                     "extbeta.complex", "extbeta.scalar", "hyp.series",
                     "hyp.series_vector", "hyp.euler", "appell.series",
                     "appell.integral", "lauricella.series",
                     "lauricella.integral", "mellin.contour", "ineq"):
            out[f"{span}.calls"] = calls[span]
        for key in ("quadrature.batch.nodes", "quadrature.batch.members",
                    "quadrature.scalar.nodes", "quadrature.unconverged",
                    "kernel.theta.points", "extbeta.complex.alphas",
                    "extbeta.complex.nodes", "extbeta.theta_product.points",
                    "hyp.ladder.new", "hyp.series.terms",
                    "hyp.series_vector.points", "hyp.euler.nodes",
                    "appell.series.terms", "appell.integral.nodes",
                    "lauricella.series.terms", "lauricella.integral.nodes",
                    "mellin.contour.points", "conformance.cases"):
            out[key] = c(key, 0)
        out["extbeta.batch.repeat_frac"] = (
            c("extbeta.batch.repeats", 0) / batch if batch else 0.0)
        out["hyp.ladder.blocks"] = built / ladder_block()
        out["hyp.ladder.useful_frac"] = (
            c("hyp.ladder.requested", 0) / built if built else 0.0)
        return out


def ladder_block() -> int:
    """Coefficients per ladder block (the ladder grows a block at a time)."""
    import exthyp.hyp

    block = getattr(exthyp.hyp, "_BLOCK", None)
    if not isinstance(block, int) or block < 1:
        raise BindingError("exthyp.hyp._BLOCK not found")
    return block
