"""Per-layer tracing of etakit from outside the package.

`Tracer.install()` wraps every public function and method of the six
layers (`exactnum`, `grouprep`, `eta`, `f2ring`, `glrverify`, `cli`) and
rebinds every reference to them that the package holds: module
attributes (including names pulled in with `from ... import`), values of
module-level dicts such as `glrverify.SUITES`, and class attributes
(including aliases such as `__rmul__ = __mul__`).  `uninstall()` puts
every original back.  Nothing under `src/` is edited.

Each wrapper records a span.  Spans are aggregated in memory per key:
call count, inclusive time (outermost activation only, so recursion and
nested calls of one key are not counted twice) and self time (duration
minus the time covered by child spans).  A few adapters add exact work
counters at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time

LAYERS = ("exactnum", "grouprep", "eta", "f2ring", "glrverify", "cli")

# Value-type constructors are called so often that a span on them would
# dominate the overhead; their cost is attributed to the calling span.
_SKIP_INIT = {"CyclotomicNumber", "F2AlgebraElement", "VirtualCharacter"}

_DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__",
            "__rsub__", "__mul__", "__rmul__", "__truediv__",
            "__rtruediv__", "__pow__", "__neg__"}

# span key -> metric group; spans without an entry form a group of their own
GROUPS = {
    "exactnum.CyclotomicNumber.__mul__": "exactnum.mul",
    "exactnum.CyclotomicNumber.__add__": "exactnum.addsub",
    "exactnum.CyclotomicNumber.__sub__": "exactnum.addsub",
    "exactnum.CyclotomicNumber.__rsub__": "exactnum.addsub",
    "exactnum.CyclotomicNumber.__neg__": "exactnum.addsub",
    "exactnum.CyclotomicNumber.inverse": "exactnum.inverse",
    "exactnum.CyclotomicNumber.galois": "exactnum.galois",
    "exactnum.CyclotomicNumber.conjugate": "exactnum.galois",
    "exactnum.root_of_unity": "exactnum.root_of_unity",
    "grouprep.VirtualCharacter.value_at": "grouprep.value_at",
    "grouprep.CharacterTable.inner": "grouprep.inner",
    "grouprep.CharacterTable.decompose": "grouprep.decompose",
    "grouprep.restrict_virtual": "grouprep.restrict",
    "grouprep.VirtualCharacter.__mul__": "grouprep.char_mul",
    "grouprep.frobenius_schur": "grouprep.frobenius_schur",
    "grouprep.cyclic_free_rep": "grouprep.free_rep",
    "grouprep.quaternion_free_rep": "grouprep.free_rep",
    "eta.eta_lens_cyclic": "eta.lens",
    "eta.eta_lens_bundle": "eta.bundle",
    "eta.eta_donnelly": "eta.donnelly",
    "eta.thm31_modulus": "eta.thm31",
    "f2ring.PresentedF2Algebra.__init__": "f2ring.presentation",
    "f2ring.PresentedF2Algebra.graded_basis": "f2ring.graded_basis",
    "f2ring.F2AlgebraElement.__mul__": "f2ring.elem_mul",
    "f2ring.PresentedF2Algebra.normal_form": "f2ring.normal_form",
    "f2ring.dual_pushforward": "f2ring.pushforward",
    "f2ring.dual_pushforward_map": "f2ring.pushforward",
    "f2ring.SteenrodData.sq": "f2ring.steenrod",
    "f2ring.SteenrodData.total_sq": "f2ring.steenrod",
    "f2ring.wu_classes": "f2ring.wu",
    "f2ring.gf2_echelon": "f2ring.echelon",
    "cli.main": "cli.main",
}

SUITE_NAMES = ("q8", "sd16odd", "dim513", "prop41", "prop51", "prop53", "kerap")

# The per-layer metrics, in report order: (name, unit).
PER_LAYER = (
    [(f"exactnum.{g}.{f}", u)
     for g in ("mul", "addsub", "inverse", "galois", "root_of_unity")
     for f, u in (("calls", "count"), ("self_s", "s"))]
    + [("exactnum.mul.mean_phi", "phi"), ("exactnum.self_s", "s"),
       ("grouprep.value_at.calls", "count"), ("grouprep.value_at.self_s", "s"),
       ("grouprep.inner.calls", "count"), ("grouprep.inner.self_s", "s"),
       ("grouprep.decompose.calls", "count"),
       ("grouprep.restrict.calls", "count"), ("grouprep.restrict.s", "s"),
       ("grouprep.char_mul.calls", "count"),
       ("grouprep.frobenius_schur.calls", "count"),
       ("grouprep.frobenius_schur.s", "s"),
       ("grouprep.free_rep.calls", "count"), ("grouprep.free_rep.s", "s"),
       ("grouprep.table_build.s", "s"),
       ("grouprep.table_cache.hit_ratio", "ratio"),
       ("grouprep.self_s", "s")]
    + [(f"eta.{g}.{f}", u) for g in ("lens", "bundle", "donnelly")
       for f, u in (("calls", "count"), ("s", "s"))]
    + [("eta.summands", "count"), ("eta.thm31.calls", "count"),
       ("eta.thm31.s", "s"), ("eta.self_s", "s"),
       ("f2ring.presentation.calls", "count"), ("f2ring.presentation.s", "s"),
       ("f2ring.graded_basis.calls", "count"), ("f2ring.graded_basis.s", "s"),
       ("f2ring.graded_basis.monomials", "count"),
       ("f2ring.elem_mul.calls", "count"), ("f2ring.elem_mul.self_s", "s"),
       ("f2ring.normal_form.calls", "count"),
       ("f2ring.pushforward.calls", "count"), ("f2ring.pushforward.s", "s"),
       ("f2ring.steenrod.calls", "count"), ("f2ring.steenrod.s", "s"),
       ("f2ring.wu.calls", "count"), ("f2ring.wu.s", "s"),
       ("f2ring.echelon.calls", "count"), ("f2ring.echelon.rows", "count"),
       ("f2ring.echelon.s", "s"), ("f2ring.self_s", "s")]
    + [(f"glrverify.suite.{s}.s", "s") for s in SUITE_NAMES]
    + [("glrverify.self_s", "s"),
       ("cli.main.s", "s"), ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
       ("trace.overhead_ratio", "ratio")]
)

# Counters that must repeat exactly between two traced runs of one input.
EXACT_COUNTERS = ("exactnum.mul.phi_sum", "eta.summands",
                  "f2ring.graded_basis.monomials", "f2ring.echelon.rows",
                  "grouprep.table_cache.hits", "grouprep.table_cache.misses")


class Tracer:
    """Span and counter recorder; install() before the traced region and
    uninstall() after it."""

    def __init__(self):
        # key -> [calls, inclusive_s, self_s, active depth]
        self.records: dict[str, list] = {}
        self.counters: dict[str, float] = {c: 0 for c in EXACT_COUNTERS}
        self.counters["grouprep.table_build.s"] = 0.0
        self._stack: list[list[float]] = []
        self._restore: list = []

    # -- spans ----------------------------------------------------------------

    def _span(self, fn, key):
        rec = self.records.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec[0] += 1
            rec[3] += 1
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                rec[3] -= 1
                if not rec[3]:
                    rec[1] += dur
                rec[2] += dur - child[0]
                if stack:
                    stack[-1][0] += dur

        functools.update_wrapper(traced, fn)
        return traced

    # -- counters at span boundaries ---------------------------------------------

    def _adapter(self, span_key, fn):
        """Wrap `fn` with the work counter of its span, if it has one."""
        counters = self.counters
        if span_key == "exactnum.CyclotomicNumber.__mul__":
            phi_of = {}
            euler_phi = sys.modules["etakit.exactnum"].euler_phi

            def mul(a, b):
                n = math.lcm(a.order, getattr(b, "order", a.order))
                phi = phi_of.get(n)
                if phi is None:
                    phi = phi_of[n] = euler_phi(n)
                counters["exactnum.mul.phi_sum"] += phi
                return fn(a, b)
            return mul
        if span_key in ("eta.eta_lens_cyclic", "eta.eta_lens_bundle"):
            def lens(spec, rho):
                counters["eta.summands"] += spec.l - 1
                return fn(spec, rho)
            return lens
        if span_key == "eta.eta_donnelly":
            def donnelly(tau, rho):
                counters["eta.summands"] += len(tau.group.classes) - 1
                return fn(tau, rho)
            return donnelly
        if span_key == "f2ring.PresentedF2Algebra.graded_basis":
            def graded_basis(alg, n):
                out = fn(alg, n)
                counters["f2ring.graded_basis.monomials"] += len(out)
                return out
            return graded_basis
        if span_key == "f2ring.gf2_echelon":
            def echelon(rows):
                rows = list(rows)
                counters["f2ring.echelon.rows"] += len(rows)
                return fn(rows)
            return echelon
        if span_key == "grouprep.character_table":
            clock = time.perf_counter

            def character_table(tag):
                misses = fn.cache_info().misses
                start = clock()
                out = fn(tag)
                if fn.cache_info().misses > misses:
                    counters["grouprep.table_cache.misses"] += 1
                    counters["grouprep.table_build.s"] += clock() - start
                else:
                    counters["grouprep.table_cache.hits"] += 1
                return out
            return character_table
        return fn

    # -- installation ---------------------------------------------------------------

    def _targets(self):
        """(span key, original) for every public callable of every layer."""
        for layer in LAYERS:
            mod = sys.modules[f"etakit.{layer}"]
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    yield from self._class_targets(layer, obj)
                elif callable(obj) and not name.startswith("_"):
                    yield f"{layer}.{name}", obj

    @staticmethod
    def _class_targets(layer, cls):
        if issubclass(cls, BaseException):
            return
        for attr, val in vars(cls).items():
            if isinstance(val, staticmethod):
                val = val.__func__
            if not inspect.isfunction(val):
                continue
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if attr == "__init__" and (cls.__name__ in _SKIP_INIT
                                       or dataclasses.is_dataclass(cls)):
                continue
            # aliases (`__radd__ = __add__`) share the original's key
            yield f"{layer}.{val.__qualname__}", val

    def _set(self, owner, name, value, setter=setattr):
        if setter is _setitem:
            old = owner[name]
        else:
            old = vars(owner)[name]  # raw, so staticmethods come back as such
        self._restore.append((owner, name, old, setter))
        setter(owner, name, value)

    def install(self) -> None:
        replacement = {}
        for key, orig in self._targets():
            if id(orig) not in replacement:
                fn = self._adapter(key, orig)
                replacement[id(orig)] = self._span(fn, GROUPS.get(key, key))
        classes = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "etakit" and not mod_name.startswith("etakit."):
                continue
            for name, val in list(vars(mod).items()):
                if id(val) in replacement:
                    self._set(mod, name, replacement[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in replacement:
                            self._set(val, k, replacement[id(v)], _setitem)
                elif inspect.isclass(val) and val.__module__.startswith("etakit"):
                    classes[id(val)] = val
        for cls in classes.values():
            for attr, val in list(vars(cls).items()):
                static = isinstance(val, staticmethod)
                fn = val.__func__ if static else val
                if id(fn) in replacement:
                    new = replacement[id(fn)]
                    self._set(cls, attr, staticmethod(new) if static else new)
        suites = sys.modules["etakit.glrverify"].SUITES
        for name in SUITE_NAMES:
            self._set(suites, name,
                      self._span(suites[name], f"glrverify.suite.{name}"), _setitem)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, old, setter = self._restore.pop()
            setter(owner, name, old)

    # -- results ------------------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Every count that must repeat exactly for the same input."""
        out = {f"{key}.calls": rec[0] for key, rec in sorted(self.records.items())}
        out.update((c, self.counters[c]) for c in EXACT_COUNTERS)
        return out

    def layer_calls(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for key, rec in self.records.items():
            out[key.split(".", 1)[0]] += rec[0]
        return out

    def metrics(self, output_bytes: int = 0) -> dict[str, float]:
        """The per-layer metrics except `trace.overhead_ratio`, which needs
        an untraced run."""
        rec = lambda key: self.records.get(key, [0, 0.0, 0.0, 0])
        out = {}
        # span-derived fields first; counter-derived ones are set below
        for name, _unit in PER_LAYER:
            key, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = rec(key)[0]
            elif field == "s":
                out[name] = rec(key)[1]
            elif field == "self_s" and key in LAYERS:
                out[name] = sum(r[2] for k, r in self.records.items()
                                if k.startswith(key + "."))
            elif field == "self_s":
                out[name] = rec(key)[2]
        calls = rec("exactnum.mul")[0]
        out["exactnum.mul.mean_phi"] = (
            self.counters["exactnum.mul.phi_sum"] / calls if calls else 0.0)
        for name in ("eta.summands", "f2ring.graded_basis.monomials",
                     "f2ring.echelon.rows", "grouprep.table_build.s"):
            out[name] = self.counters[name]
        hits = self.counters["grouprep.table_cache.hits"]
        lookups = hits + self.counters["grouprep.table_cache.misses"]
        out["grouprep.table_cache.hit_ratio"] = hits / lookups if lookups else 0.0
        out["cli.output_bytes"] = output_bytes
        return out


def _setitem(d, key, value):
    d[key] = value
