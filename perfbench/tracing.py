"""Per-module spans around the public functions of modh1, from outside.

`Tracer.install()` wraps every public module-level function of each modh1
module, plus `IntMatrix.__mul__` and `Certificate.verify`, and rebinds each
wrapper under every name that refers to the original in any modh1 module
(`cli` and `cohomology` import names from other modules directly, so
patching the defining module alone would miss their calls).  Nothing under
`src/` is edited; `uninstall()` puts the originals back.

A span stack gives each span its parent: self time is a span's duration
minus the durations of its child spans.  A function's total time counts
only its outermost activation, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
from math import lcm
from time import perf_counter

LAYERS = ("linalg", "polyrep", "presentations", "cohomology", "congruence",
          "amenable", "pell", "cli")

# Counts that must repeat exactly between two traced passes over one input.
COUNT_SUFFIXES = (".calls", ".max_entry_bits", ".max_cells", ".max_modulus",
                  ".reps_out", ".witnesses", ".cert_bytes")


def _max_bits(matrices):
    return max((abs(x).bit_length() for m in matrices
                for row in m.data for x in row), default=0)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Spans and counts for one traced pass; see the module docstring."""

    def __init__(self):
        self.stats = {}      # "<layer>.<fn>" -> _Stat
        self.extra = {}      # extra counters, e.g. max_entry_bits
        self._stack = []     # child time accumulated per open span
        self._patched = []   # (owner, attribute, original)

    # ------------------------------------------------------------ install --

    def install(self):
        modules = {layer: sys.modules["modh1." + layer] for layer in LAYERS}
        hooks = self._hooks()
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    key = "%s.%s" % (layer, name)
                    wrappers[obj] = self._wrap(obj, key, hooks.get(key))
        # rebind at every import site, including the defining module
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        methods = ((modules["linalg"].IntMatrix, "__mul__",
                    "linalg.IntMatrix.__mul__"),
                   (modules["cohomology"].Certificate, "verify",
                    "cohomology.Certificate.verify"))
        for cls, attr, key in methods:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, key, None))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, fn, key, hook):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stat.depth -= 1
                stat.self_time += elapsed - children
                if stat.depth == 0:
                    stat.total += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- hooks --

    def _raise_max(self, key, value):
        self.extra[key] = max(self.extra.get(key, 0), value)

    def _add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def _hooks(self):
        def smith(args, kwargs, snf):
            a = args[0]
            self._raise_max("linalg.smith_normal_form.max_cells",
                            a.rows * a.cols)
            self._raise_max("linalg.smith_normal_form.max_entry_bits",
                            _max_bits(getattr(snf, name) for name in "USV"
                                      if hasattr(snf, name)))

        def norm_equation(args, kwargs, result):
            filters = kwargs.get("filters", args[2] if len(args) > 2 else ())
            modulus = 1
            for _, _, m in filters:
                modulus = lcm(modulus, m)
            self._raise_max("pell.solve_norm_equation.max_modulus", modulus)
            self._add("pell.solve_norm_equation.reps_out", len(result[0]))

        def dinf(args, kwargs, witness):
            self._add("amenable.dinf_decision.witnesses",
                      int(witness is not None))

        return {"linalg.smith_normal_form": smith,
                "pell.solve_norm_equation": norm_equation,
                "amenable.dinf_decision": dinf}

    def count_cert_bytes(self, nbytes):
        """Bytes of a certificate the cohomology layer wrote."""
        self._add("cohomology.cert_bytes", nbytes)

    # ------------------------------------------------------------ results --

    def metrics(self):
        """Flat name -> value map: per function, per layer, and extras."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, st in self.stats.items():
            out[key + ".calls"] = st.calls
            out[key + ".total_s"] = st.total
            out[key + ".self_s"] = st.self_time
            layer_self[key.split(".", 1)[0]] += st.self_time
        for layer, value in layer_self.items():
            out[layer + ".self_s"] = value
        for key in ("linalg.smith_normal_form.max_entry_bits",
                    "linalg.smith_normal_form.max_cells",
                    "pell.solve_norm_equation.max_modulus",
                    "pell.solve_norm_equation.reps_out",
                    "amenable.dinf_decision.witnesses",
                    "cohomology.cert_bytes"):
            out[key] = self.extra.get(key, 0)
        return out


def counts(metrics):
    """The deterministic part of a metrics map."""
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
