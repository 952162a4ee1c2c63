"""Spans and counters around the public functions of each fedosov module.

The wrappers live here, in the benchmark, and are installed by
reassigning module globals and class attributes; nothing under src/ is
changed.  Every name that refers to a wrapped function, in any fedosov
module, is redirected, because the modules import each other's
functions by name.

Two kinds of wrapper share one stack of open frames:

* spans (weyl and above) record name, start, end, parent span and job
  id, and are kept in memory until the benchmark writes them out;
* aggregates (scalars and poly) only add to a call counter and a time
  total, because one certify2d job makes about a million scalar
  operations.

A frame's self time is its duration minus the durations of the frames
opened directly inside it.  Work done by the wrappers' own hooks after
the timed call is charged to neither, so it shows only as overhead.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import fedosov.abelian
import fedosov.calculus
import fedosov.cli
import fedosov.geometry
import fedosov.manifest
import fedosov.poly
import fedosov.scalars
import fedosov.twodim
import fedosov.weyl
import metrics

GaussianRational = fedosov.scalars.GaussianRational
BasePolynomial = fedosov.poly.BasePolynomial
WeylAlgebra = fedosov.weyl.WeylAlgebra

# span name -> the module holding the function
SPAN_FUNCTIONS = {
    "weyl.div_ihbar": fedosov.weyl,
    "calculus.covariant_d": fedosov.calculus,
    "calculus.delta_inv": fedosov.calculus,
    "calculus.delta": fedosov.calculus,
    "calculus.ext_d": fedosov.calculus,
    "geometry.gamma_form": fedosov.geometry,
    "geometry.curvature_form": fedosov.geometry,
    "abelian.abelian_r": fedosov.abelian,
    "abelian.check_abelian": fedosov.abelian,
    "abelian.finiteness_test": fedosov.abelian,
    "abelian.flat_section": fedosov.abelian,
    "abelian.star": fedosov.abelian,
    "twodim.square_check": fedosov.twodim,
    "twodim.cascade_solve": fedosov.twodim,
    "twodim.g_coeff": fedosov.twodim,
    "manifest.parse_manifest": fedosov.manifest,
    "manifest.parse_poly": fedosov.manifest,
    "manifest.series_to_records": fedosov.manifest,
    "cli.main": fedosov.cli,
}
SPAN_METHODS = {
    "weyl.circ": (WeylAlgebra, "circ"),
    "weyl.commutator": (WeylAlgebra, "commutator"),
}
# (class, attribute, counter name, layer)
AGGREGATES = (
    (GaussianRational, "__mul__", "scalars.mul", "scalars"),
    (GaussianRational, "__rmul__", "scalars.mul", "scalars"),
    (GaussianRational, "__add__", "scalars.add", "scalars"),
    (GaussianRational, "__radd__", "scalars.add", "scalars"),
    (GaussianRational, "__sub__", "scalars.add", "scalars"),
    (GaussianRational, "__rsub__", "scalars.add", "scalars"),
    # a poly times a scalar delegates to scale, which counts it
    (BasePolynomial, "__mul__", "poly.mul", "poly"),
    (BasePolynomial, "scale", "poly.scale", "poly"),
    (BasePolynomial, "__add__", "poly.add", "poly"),
)


def _self_key(name: str) -> str:
    return "geometry.self_s" if name.startswith("geometry.") else f"{name}.self_s"


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._saved: list = []

    # -- counters of one pass -----------------------------------------

    def reset_counters(self):
        self.self_s.clear()
        self.counts.clear()
        self.errors.clear()

    # -- installation ---------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, attr, counter, layer in AGGREGATES:
            self._set(cls, attr, self._aggregate(getattr(cls, attr), counter, layer))
        for name, (cls, attr) in SPAN_METHODS.items():
            self._set(cls, attr, self._span(getattr(cls, attr), name))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fedosov" or n.startswith("fedosov.")]
        for name, home in SPAN_FUNCTIONS.items():
            fn = getattr(home, name.rsplit(".", 1)[1])
            wrapper = self._span(fn, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- wrappers -------------------------------------------------------

    def _aggregate(self, fn, counter, layer):
        stack, self_s, counts, errors = self.stack, self.self_s, self.counts, self.errors
        pc = time.perf_counter
        is_poly = layer == "poly"
        poly_mul = counter == "poly.mul"
        self_key = f"{layer}.self_s"
        calls_key = f"{counter}.calls"

        def wrapper(*args):
            frame = [0.0]
            stack.append(frame)
            t0 = pc()
            try:
                out = fn(*args)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = pc()
                stack.pop()
                self_s[self_key] += t1 - t0 - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
            if out is NotImplemented:
                return out
            if poly_mul and not isinstance(args[1], BasePolynomial):
                return out  # counted by scale
            counts[calls_key] += 1
            if is_poly:
                n = len(out.items())
                if n > counts["poly.terms.max"]:
                    counts["poly.terms.max"] = n
                if stack:
                    stack[-1][0] += pc() - t1
            return out

        return wrapper

    def _span(self, fn, name):
        tracer = self
        stack, spans, self_s, errors = self.stack, self.spans, self.self_s, self.errors
        pc = time.perf_counter
        layer = name.split(".", 1)[0]
        self_key = _self_key(name)
        calls_key = f"{name}.calls"
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid, name, None]
            if name == "abelian.check_abelian":
                frame[3] = _check_degree(*args, **kwargs)
            stack.append(frame)
            t0 = pc()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = pc()
                stack.pop()
                self_s[self_key] += (t1 - t0) - frame[0]
                spans[sid] = (name, t0 - tracer.origin, t1 - tracer.origin,
                              parent[1] if parent else None, tracer.job)
                if parent is not None:
                    parent[0] += t1 - t0
            tracer.counts[calls_key] += 1
            if hook is not None:
                hook(args, out, parent)
                if parent is not None:
                    # the hook's own time is charged to neither frame
                    parent[0] += pc() - t1
            return out

        return wrapper

    # -- hooks: counts taken from operands and results -----------------

    def _products(self, a, b, out, pairs_per_term):
        c = self.counts
        c["weyl.term_pairs"] += pairs_per_term * len(a.terms()) * len(b.terms())
        c["weyl.terms_out"] += len(out.terms())

    def _after_weyl_circ(self, args, out, parent):
        _alg, a, b = args[:3]
        self._products(a, b, out, 1)
        if parent is None:
            return
        c = self.counts
        terms = out.terms()
        if parent[2] == "abelian.check_abelian":
            # a product term reaches the checked residual only if its
            # degree minus 2 (after dividing by i*hbar) is at most N-1
            c["check.products_formed"] += len(terms)
            c["check.products_useful"] += sum(1 for t in terms if t.degree <= parent[3] + 1)
        elif parent[2] == "abelian.finiteness_test":
            c["abelian.finiteness_test.products"] += 1
        elif parent[2] == "abelian.star":
            c["star.terms"] += len(terms)
            c["star.x_free"] += sum(1 for t in terms if not any(t.fiber))

    def _after_weyl_commutator(self, args, out, parent):
        _alg, a, b = args[:3]
        # a o b and b o a over every pair of form-degree parts
        self._products(a, b, out, 2)

    def _after_abelian_abelian_r(self, args, out, parent):
        self.counts["abelian.terms.top_grade"] += len(out.part(out.known_through).terms())

    # -- report ---------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer values gathered since the last reset_counters().

        The values the tracer cannot see (coefficient bits of the outputs,
        CLI start-up, tracing overhead) read 0 here; the worker fills them.
        """
        c = self.counts
        out = {}
        for name in metrics.PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_s[name]
            elif name.endswith(".errors"):
                out[name] = self.errors[name.split(".", 1)[0]]
            else:
                out[name] = c[name]
        out["abelian.check_abelian.useful_product_ratio"] = _ratio(
            c["check.products_useful"], c["check.products_formed"])
        out["abelian.star.sigma_yield"] = _ratio(c["star.x_free"], c["star.terms"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _check_degree(r, N=None):
    """The N that check_abelian(r, N) will use."""
    return r.known_through if N is None else N
