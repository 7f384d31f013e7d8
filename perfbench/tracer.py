"""Layer tracer for the traced benchmark run.

The tracer wraps the public functions of every ``cevpolar`` module, and the
radial, curve, angular and limit-law methods on their classes, from outside
the package. Each wrapped call is a span; the tracer keeps, per span name,
the number of calls, the array size of the call's argument (``elements``),
the time spent in outermost calls (``total_s``) and the time not covered by
wrapped callees (``self_s``). Spans are aggregated in memory as they close,
so tracing a pass costs no memory that grows with the number of calls.

Modules import names directly (``from .model import solve_b_x``), so
wrapping the defining module is not enough: :meth:`Tracer.install` rebinds
the name in every ``cevpolar`` namespace that holds the original, and then
refuses to trace if an original is still reachable elsewhere: in a
container, a default argument or a class attribute of the package.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Methods wrapped on their classes, with the span prefix they report under.
_RADIAL_METHODS = ("survival", "log_survival", "aux_psi", "inverse_log_survival",
                   "density", "quantile_b", "sample")
_CURVE_METHODS = ("u", "v", "u_inverse", "h_fn")
_ANGULAR_METHODS = ("density", "cdf", "sample")
_LIMIT_LAW_METHODS = ("cdf", "pdf", "quantile", "sample")

# Spans whose element count is the size of one argument: name -> position.
_ELEMENT_ARG = {
    "radial.survival": 1,
    "radial.log_survival": 1,
    "radial.inverse_log_survival": 1,
    "geometry.curve.u": 1,
    "geometry.curve.v": 1,
    "limits.LimitLaw.cdf": 1,
}

# (ancestor, descendant): count descendant calls made while ancestor is open.
NESTED = (
    ("model.conditional_cdf_oracle", "numerics.integrate_with_breakpoints"),
    ("model.solve_b_x", "model.survival_x_oracle"),
    ("model.solve_b_y", "model.survival_y_oracle"),
)

LAYERS = ("cli", "diagnostics", "model", "numerics", "radial", "geometry", "limits")


def _reachable(namespaces):
    """(where, value) for each namespace value and the values one level inside it."""
    for ns in namespaces:
        for attr, obj in ns.items():
            where = f"{ns.get('__name__')}.{attr}"
            yield where, obj
            if isinstance(obj, (list, tuple, set, frozenset)):
                inner = obj
            elif isinstance(obj, dict):
                inner = obj.values()
            elif isinstance(obj, types.FunctionType):
                inner = (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values())
            elif isinstance(obj, type) and obj.__module__.startswith("cevpolar"):
                inner = [getattr(v, "__func__", v) for v in vars(obj).values()]
            else:
                inner = ()
            for item in inner:
                yield where, item


class SpanStats:
    __slots__ = ("calls", "elements", "total_s", "self_s", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.elements = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.depth = 0


class Tracer:
    """Install span wrappers into the imported ``cevpolar`` package."""

    def __init__(self):
        self.stats = {}
        self.nested = {pair: 0 for pair in NESTED}
        self.integrand_points = 0
        self.sampler = {"proposed": 0, "returned": 0, "ess": 0.0, "max_weight": 0.0}
        self._stack = [[0.0]]  # child-time accumulators; index 0 is the root
        self._undo = []

    def reset(self):
        for st in self.stats.values():
            st.calls = st.elements = st.errors = 0
            st.total_s = st.self_s = 0.0
        for pair in self.nested:
            self.nested[pair] = 0
        self.integrand_points = 0
        self.sampler = {"proposed": 0, "returned": 0, "ess": 0.0, "max_weight": 0.0}

    # -- wrapping ---------------------------------------------------------------
    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        elem_pos = _ELEMENT_ARG.get(name)
        watches = [(self.stats.setdefault(anc, SpanStats()), pair)
                   for pair in NESTED for anc, desc in [pair] if desc == name]
        tracer = self

        def wrapper(*args, **kwargs):
            st.calls += 1
            if elem_pos is not None:
                st.elements += getattr(args[elem_pos], "size", 1)
            for anc, pair in watches:
                if anc.depth:
                    tracer.nested[pair] += 1
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                st.errors += 1
                raise
            finally:
                dt = clock() - t0
                st.depth -= 1
                stack.pop()
                stack[-1][0] += dt
                st.self_s += dt - frame[0]
                if not st.depth:
                    st.total_s += dt

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _special(self, name, wrapped, original):
        """Add the counters that need a look at arguments or results."""
        tracer = self
        if name == "numerics.integrate_panel":
            def panel(fn, *args, **kwargs):
                def counted(t):
                    tracer.integrand_points += getattr(t, "size", 1)
                    return fn(t)
                return wrapped(counted, *args, **kwargs)
            return functools.update_wrapper(panel, original)
        if name == "model.sample_conditional":
            def sampler(model, t, n, rng):
                ws = wrapped(model, t, n, rng)
                s = tracer.sampler
                s["proposed"] += n
                s["returned"] += len(ws)
                s["ess"] += ws.effective_size
                s["max_weight"] = max(s["max_weight"], ws.max_weight_fraction)
                return ws
            return functools.update_wrapper(sampler, original)
        return wrapped

    def _targets(self):
        """(owner, attribute, span name) for every callable to wrap."""
        import cevpolar.cli  # noqa: F401  (imports every layer module)
        from cevpolar import geometry, limits, radial

        out = []
        for layer in LAYERS:
            mod = sys.modules[f"cevpolar.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out.append((mod, attr, f"{layer}.{attr}"))
        groups = (
            (radial, radial.RadialLaw, _RADIAL_METHODS, "radial"),
            (geometry, geometry.CurveGerm, _CURVE_METHODS, "geometry.curve"),
            (geometry, geometry.AngularLaw, _ANGULAR_METHODS, "geometry.angular"),
            (limits, limits.LimitLaw, _LIMIT_LAW_METHODS, "limits.LimitLaw"),
        )
        for mod, base, methods, prefix in groups:
            for cls in vars(mod).values():
                if isinstance(cls, type) and issubclass(cls, base):
                    for attr in methods:
                        if isinstance(vars(cls).get(attr), types.FunctionType):
                            out.append((cls, attr, f"{prefix}.{attr}"))
        return out

    def install(self):
        """Wrap every target and rebind it in every namespace that holds it."""
        originals = {}  # id(original) -> (original, wrapper)
        for owner, attr, name in self._targets():
            fn = vars(owner)[attr]
            wrapper = self._special(name, self._wrap(name, fn), fn)
            originals[id(fn)] = (fn, wrapper)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, fn))
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "cevpolar" or n.startswith("cevpolar.")]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, attr, obj))
                    ns[attr] = hit[1]
        missed = sorted({where for where, obj in _reachable(namespaces)
                         if id(obj) in originals and originals[id(obj)][0] is obj})
        if missed:
            raise RuntimeError(f"tracer left unwrapped references: {missed}")

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = obj
            else:
                setattr(owner, attr, obj)
        self._undo.clear()

    # -- read-out ---------------------------------------------------------------
    def snapshot(self):
        """Flat counters of the spans recorded since the last reset."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.elements"] = st.elements
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.errors"] = st.errors
        for (anc, desc), count in self.nested.items():
            out[f"{anc}>{desc}"] = count
        out["numerics.integrand_points"] = self.integrand_points
        for key, value in self.sampler.items():
            out[f"sampler.{key}"] = value
        return out
