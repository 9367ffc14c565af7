"""Per-layer tracing from outside the package.

A ``Tracer`` wraps the public functions listed in ``TRACED``, patches every
``shintani_kit`` module that holds a reference to them (and the class
attribute, for methods), records one span per call and restores the
originals on ``uninstall``.  Spans stay in memory as (group, start, end,
parent) rows and are written out once, after the traced pass.

Layer self time: each span that enters a layer from another one adds its
duration to that layer and subtracts it from the caller's layer, so a
layer keeps the time its own code ran between calls into other layers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

PACKAGE = "shintani_kit"

# qualified name -> (layer, group); a group's time is the sum over its
# outermost spans, so nested calls inside one group are counted once
TRACED = {
    "cli.main": ("cli", "main"),
    "shintani_zeta.special_value": ("shintani_zeta", "special_value"),
    "shintani_zeta.build_G": ("shintani_zeta", "build_G"),
    "test_functions.parallelepiped_support": ("test_functions", "parallelepiped"),
    "test_functions.vanishing_check": ("test_functions", "vanishing"),
    "padic_measures.amice_expand": ("padic_measures", "amice_expand"),
    "padic_measures.pseudo_from_cone": ("padic_measures", "pseudo_from_cone"),
    "padic_measures.is_measure": ("padic_measures", "is_measure"),
    "padic_measures.moment": ("padic_measures", "moment"),
    "real_quadratic_fields.narrow_ray_class_reps": ("real_quadratic_fields", "class_reps"),
    "real_quadratic_fields.wide_class_reps": ("real_quadratic_fields", "class_reps"),
    "real_quadratic_fields.is_equivalent": ("real_quadratic_fields", "is_equivalent"),
    "real_quadratic_fields.fundamental_unit": ("real_quadratic_fields", "unit"),
    "real_quadratic_fields.eps_plus": ("real_quadratic_fields", "unit"),
    "real_quadratic_fields.shintani_fan": ("real_quadratic_fields", "fan"),
    "cones.hill_cone_function": ("cones", "hill_cone_function"),
    "cones.hill_eval": ("cones", "hill_eval"),
    "cones.ConeFunction.evaluate": ("cones", "evaluate"),
    "cones.cocycle_defect": ("cones", "cocycle_defect"),
    "exact_core.TruncSeries.__mul__": ("exact_core", "series_mul"),
    "exact_core.TruncSeries.invert": ("exact_core", "series_invert"),
    "_linalg.solve": ("_linalg", "elim"),
    "_linalg.inverse": ("_linalg", "elim"),
    "_linalg.rank": ("_linalg", "elim"),
    "_linalg.rational_kernel": ("_linalg", "elim"),
    "_linalg.hnf_with_transform": ("_linalg", "elim"),
    # entry points traced only so that their time leaves cli.self_s
    "real_quadratic_fields.field_zeta_value": ("real_quadratic_fields", "field_entry"),
    "real_quadratic_fields.exact_ray_class_zeta": ("real_quadratic_fields", "field_entry"),
    "real_quadratic_fields.smoothed_class_series": ("real_quadratic_fields", "field_entry"),
    "real_quadratic_fields.padic_partial_zeta": ("real_quadratic_fields", "field_entry"),
    "padic_measures.kubota_leopoldt": ("padic_measures", "kubota_leopoldt"),
}

# per-layer metric -> (unit, how it is derived); "group:<g>" is the time of
# the group's outermost spans, "calls:<g>" its call count, "self:<layer>"
# the layer's self time, "count:<c>" a counter kept by the wrappers
PER_LAYER = {
    "shintani_zeta.self_s": ("s", "self:shintani_zeta"),
    "shintani_zeta.special_value_calls": ("count", "calls:special_value"),
    "shintani_zeta.build_G_calls": ("count", "calls:build_G"),
    "shintani_zeta.build_G_distinct": ("count", "count:build_G_distinct"),
    "test_functions.parallelepiped_s": ("s", "group:parallelepiped"),
    "test_functions.parallelepiped_calls": ("count", "calls:parallelepiped"),
    "test_functions.parallelepiped_points": ("count", "count:parallelepiped_points"),
    "test_functions.guard_share_max": ("ratio", "count:guard_share_max"),
    "test_functions.vanishing_s": ("s", "group:vanishing"),
    "padic_measures.amice_expand_s": ("s", "group:amice_expand"),
    "padic_measures.amice_expand_calls": ("count", "calls:amice_expand"),
    "padic_measures.pseudo_from_cone_s": ("s", "group:pseudo_from_cone"),
    "padic_measures.numerator_points": ("count", "count:numerator_points"),
    "padic_measures.is_measure_s": ("s", "group:is_measure"),
    "padic_measures.is_measure_calls": ("count", "calls:is_measure"),
    "padic_measures.accept_ratio": ("ratio", "count:accept_ratio"),
    "padic_measures.moment_s": ("s", "group:moment"),
    "real_quadratic_fields.class_reps_s": ("s", "group:class_reps"),
    "real_quadratic_fields.is_equivalent_calls": ("count", "calls:is_equivalent"),
    "real_quadratic_fields.class_hit_ratio": ("ratio", "count:class_hit_ratio"),
    "real_quadratic_fields.unit_s": ("s", "group:unit"),
    "real_quadratic_fields.fan_s": ("s", "group:fan"),
    "cones.hill_cone_function_s": ("s", "group:hill_cone_function"),
    "cones.extracted_terms": ("count", "count:extracted_terms"),
    "cones.hill_eval_s": ("s", "group:hill_eval"),
    "cones.hill_eval_calls": ("count", "calls:hill_eval"),
    "cones.evaluate_s": ("s", "group:evaluate"),
    "cones.cocycle_defect_s": ("s", "group:cocycle_defect"),
    "exact_core.series_mul_s": ("s", "group:series_mul"),
    "exact_core.series_mul_calls": ("count", "calls:series_mul"),
    "exact_core.series_invert_s": ("s", "group:series_invert"),
    "exact_core.series_invert_calls": ("count", "calls:series_invert"),
    "linalg.elim_s": ("s", "group:elim"),
    "linalg.elim_calls": ("count", "calls:elim"),
    "cli.self_s": ("s", "self:cli"),
}


class Tracer:
    """Span recorder for one traced pass.  Create, ``install``, run the
    operations, ``uninstall``, then read ``metrics()``."""

    def __init__(self):
        self.groups: list[str] = sorted({g for _, g in TRACED.values()})
        self.layer_of = {g: layer for layer, g in TRACED.values()}
        self.group_id = {g: i for i, g in enumerate(self.groups)}
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts = {
            "build_G_distinct": set(),
            "parallelepiped_points": 0,
            "guard_share_max": 0.0,
            "numerator_points": 0,
            "is_measure_true": 0,
            "classes_found": 0,
            "extracted_terms": 0,
        }
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from shintani_kit import test_functions

        self.guard = test_functions.ENUMERATION_GUARD
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for qual, (_, group) in TRACED.items():
            mod_name, _, attr = qual.partition(".")
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, group))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, group)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, group: str):
        gid = self.group_id[group]
        groups, parents = self.span_group, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        observe = getattr(self, "_observe_" + group, None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(groups)
            groups.append(gid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    # -- counters read from arguments and results -------------------------

    def _observe_build_G(self, args, out):
        self.counts["build_G_distinct"].add((args[0], args[1]))

    def _observe_parallelepiped(self, args, out):
        self.counts["parallelepiped_points"] += len(out)
        share = len(out) / self.guard
        if share > self.counts["guard_share_max"]:
            self.counts["guard_share_max"] = share

    def _observe_pseudo_from_cone(self, args, out):
        self.counts["numerator_points"] += len(out.numerator)

    def _observe_is_measure(self, args, out):
        self.counts["is_measure_true"] += bool(out)

    def _observe_class_reps(self, args, out):
        self.counts["classes_found"] += len(out)

    def _observe_hill_cone_function(self, args, out):
        self.counts["extracted_terms"] += len(out.terms)

    # -- derived metrics -----------------------------------------------

    def metrics(self) -> dict[str, float]:
        n_groups = len(self.groups)
        calls = [0] * n_groups
        group_time = [0.0] * n_groups
        layer_self: dict[str, float] = {}
        groups, parents = self.span_group, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(groups)):
            g = groups[i]
            calls[g] += 1
            dur = ends[i] - starts[i]
            # outermost span of its group: no ancestor in the same group
            a = parents[i]
            while a >= 0 and groups[a] != g:
                a = parents[a]
            if a < 0:
                group_time[g] += dur
            layer = self.layer_of[self.groups[g]]
            p = parents[i]
            parent_layer = self.layer_of[self.groups[groups[p]]] if p >= 0 else None
            if parent_layer != layer:
                layer_self[layer] = layer_self.get(layer, 0.0) + dur
                if parent_layer is not None:
                    layer_self[parent_layer] -= dur
        c = self.counts
        is_measure_calls = calls[self.group_id["is_measure"]]
        is_equivalent_calls = calls[self.group_id["is_equivalent"]]
        derived = {
            "build_G_distinct": len(c["build_G_distinct"]),
            "parallelepiped_points": c["parallelepiped_points"],
            "guard_share_max": c["guard_share_max"],
            "numerator_points": c["numerator_points"],
            "accept_ratio": c["is_measure_true"] / is_measure_calls if is_measure_calls else 0.0,
            "class_hit_ratio": c["classes_found"] / is_equivalent_calls if is_equivalent_calls else 0.0,
            "extracted_terms": c["extracted_terms"],
        }
        out = {}
        for name, (_, rule) in PER_LAYER.items():
            kind, _, key = rule.partition(":")
            if kind == "group":
                out[name] = group_time[self.group_id[key]]
            elif kind == "calls":
                out[name] = calls[self.group_id[key]]
            elif kind == "self":
                out[name] = layer_self.get(key, 0.0)
            else:
                out[name] = derived[key]
        return out

    def write_spans(self, path) -> None:
        """Write every span as [group, start, end, parent] rows."""
        doc = {
            "groups": self.groups,
            "layers": [self.layer_of[g] for g in self.groups],
            "spans": [
                [self.span_group[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
                for i in range(len(self.span_group))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
