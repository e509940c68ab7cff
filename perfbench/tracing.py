"""Per-layer tracing from outside the program.

Wrappers are installed on every revolutio module attribute that holds a
traced function (modules import kernels with ``from .poly import ...``, so
one function sits under several names) and on class attributes for the
call counts. Stage functions and kernels get spans: name, input id, start,
end and the index of the enclosing span. Counted methods only increment a
counter. Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

#: Pipeline stages: calls, inclusive time and self time.
STAGES = {
    "cli": ("main", "_emit"),
    "parsing": ("parse_poly",),
    "profile": ("implicit_to_p2", "p2_param_from_graph", "polynomialize_rational",
                "decompose_paa", "tubularize", "surface_implicit"),
    "complexparam": ("sor_complex_param",),
    "realparam": ("real_verdict", "conjecture_predicate"),
    "verify": ("verify_on_surface", "jacobian_generic_rank", "fiber_count", "fiber_count_first_valid"),
    "quadrics": ("classify_quadric", "quadric_verdict", "quadric_report"),
    "catalog": ("catalog_results",),
    "jsonio": ("param_to_json", "poly_to_json", "json_to_param"),
    "numeric": ("numeric_eval", "default_real_embedding", "isolate_real_roots"),
    "mesh": ("sample_grid", "export_obj"),
}

#: Arithmetic kernels: calls and inclusive time.
KERNELS = {
    "poly": ("resultant_eliminate", "gcd_unipoly", "squarefree_decompose", "squarefree_part",
             "substitute", "exact_divide", "rational_roots", "sturm_real_root_count"),
}

#: Hot methods and helpers: call counts only. (module, class or None, attribute, metric name)
COUNTED = (
    ("poly", "MultiPoly", "__init__", "poly.MultiPoly.construct"),
    ("poly", "MultiPoly", "__mul__", "poly.MultiPoly.mul"),
    ("tower", "FieldElement", "__mul__", "tower.FieldElement.mul"),
    ("tower", "FieldElement", "inverse", "tower.FieldElement.inverse"),
    ("tower", None, "join_towers", "tower.join_towers"),
)

STAGE_NAMES = [f"{m}.{f}" for m, fs in STAGES.items() for f in fs]
KERNEL_NAMES = [f"{m}.{f}" for m, fs in KERNELS.items() for f in fs]
COUNT_NAMES = [name for *_, name in COUNTED]

#: Traced names that must be called on each workload (the layer-to-metric
#: mapping in README.md); a zero there means the trace lost a layer.
EXPECTED_NONZERO = {
    "verdict-mix": STAGE_NAMES + KERNEL_NAMES + COUNT_NAMES,
    "elimination": [
        "cli.main", "cli._emit", "parsing.parse_poly", "profile.implicit_to_p2",
        "profile.p2_param_from_graph", "profile.decompose_paa", "profile.tubularize",
        "profile.surface_implicit", "complexparam.sor_complex_param", "realparam.real_verdict",
        "realparam.conjecture_predicate", "verify.verify_on_surface", "verify.jacobian_generic_rank",
        "verify.fiber_count", "verify.fiber_count_first_valid", "jsonio.param_to_json",
        "jsonio.poly_to_json", *KERNEL_NAMES, *COUNT_NAMES,
    ],
    "mesh-export": [
        "cli.main", "cli._emit", "parsing.parse_poly", "jsonio.json_to_param", "numeric.numeric_eval",
        "numeric.default_real_embedding", "mesh.sample_grid", "mesh.export_obj",
        "poly.sturm_real_root_count", "poly.MultiPoly.construct", "tower.FieldElement.mul",
        "tower.join_towers",
    ],
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, input id, start, end, parent index, outermost of its name]
        self.counts = Counter()
        self.input_id = None
        self.missing = []
        self._stack = []
        self._active = Counter()
        self._installed = []

    def _span(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, tracer.input_id, perf_counter(), 0.0, stack[-1] if stack else -1, not active[name]]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                active[name] -= 1
                stack.pop()
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owners, fn, wrapper):
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is fn:
                    setattr(owner, attr, wrapper)
                    self._installed.append((owner, attr, fn))

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "revolutio" or n.startswith("revolutio.")]
        for table in (STAGES, KERNELS):
            for mod_name, fns in table.items():
                mod = sys.modules[f"revolutio.{mod_name}"]
                for fname in fns:
                    fn = getattr(mod, fname, None)
                    if fn is None:
                        self.missing.append(f"{mod_name}.{fname}")
                        continue
                    self._replace(modules, fn, self._span(f"{mod_name}.{fname}", fn))
        for mod_name, cls_name, attr, name in COUNTED:
            owner = getattr(sys.modules[f"revolutio.{mod_name}"], cls_name) if cls_name else None
            fn = vars(owner).get(attr) if owner else getattr(sys.modules[f"revolutio.{mod_name}"], attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._replace([owner] if owner else modules, fn, self._counter(name, fn))

    def uninstall(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self) -> dict:
        """calls, inclusive s (outermost spans of a name) and self_s per name."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for n in STAGE_NAMES + KERNEL_NAMES:
            out[n] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        for i, (name, _, start, end, _, outer) in enumerate(self.spans):
            m = out[name]
            m["calls"] += 1
            if outer:
                m["s"] += end - start
            m["self_s"] += end - start - child[i]
        for n in COUNT_NAMES:
            out[n] = {"calls": self.counts[n]}
        return out

    def write(self, path, labels):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["name", "input", "start_s", "end_s", "parent"],
            "names": names,
            "inputs": labels,
            "spans": [[index[s[0]], s[1], round(s[2], 7), round(s[3], 7), s[4]] for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
