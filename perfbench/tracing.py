"""Spans around nactree's public functions, recorded from outside the library.

`Tracer.install()` replaces each boundary function listed in `BOUNDARIES`
with a wrapper, in every loaded ``nactree`` module namespace that holds it
(``su_triple_test``, for example, is bound in both ``collapse`` and
``study``), so calls made inside the library are traced as well.  Each span
records its name, start, end, parent span and estimate id; spans stay in
compact in-memory arrays until `Tracer.totals` aggregates them and
`Tracer.save` writes them out.  A few boundaries also feed work counters
(rows sampled, resamples drawn, edges collapsed, distinct column pairs).
"""

from __future__ import annotations

import sys
from array import array
from importlib import import_module

import numpy as np

import hostspeed

# (module, attribute) of every wrapped boundary; the span name is
# "<module>.<attribute>".  Dataset.from_csv is a classmethod.
BOUNDARIES = (
    ("cli", "main"),
    ("dependence", "Dataset.from_csv"),
    ("dependence", "pseudo_observations"),
    ("dependence", "kendall_tau"),
    ("dependence", "dependence_matrix"),
    ("dependence", "empirical_kendall_distribution"),
    ("dependence", "dominance_counts"),
    ("dependence", "kendall_dist_distance"),
    ("dependence", "mean_distance_to"),
    ("dependence", "independence_deviation"),
    ("builders", "build_binary"),
    ("builders", "average_linkage"),
    ("builders", "estimate_triples"),
    ("builders", "trivariate_binary_estimate"),
    ("builders", "fitch_score"),
    ("builders", "nni_neighbors"),
    ("collapse", "collapse_kagg"),
    ("collapse", "annotate_mean_taus"),
    ("collapse", "collapse_kb"),
    ("collapse", "su_triple_test"),
    ("trees", "tree_distance_01"),
    ("trees", "tree_distance_tri"),
    ("trees", "reconstruct"),
    ("nac", "sample"),
    ("study", "run_study"),
)

CVM_SPANS = ("dependence.kendall_dist_distance", "dependence.mean_distance_to",
             "dependence.independence_deviation")


def _content_key(a) -> int:
    # identifies a column or a sample by its values, not by object identity
    return hash(np.ascontiguousarray(a).tobytes())


def _pair_key(x, y) -> tuple:
    kx, ky = _content_key(x), _content_key(y)
    return (kx, ky) if kx <= ky else (ky, kx)


class Tracer:
    """Records spans at the BOUNDARIES while installed."""

    def __init__(self):
        self.names: list = []               # span-name id -> name
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.estimate = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")             # 0: inside a span of its own name
        self.current_estimate = -1
        self._stack = [-1]
        self._depth: dict = {}
        self._saved: list = []
        # work counters: plain totals and per-estimate sets of distinct keys
        self.counts = {"nac.rows": 0, "collapse.resamples": 0,
                       "collapse.edges_collapsed": 0,
                       "builders.nni_neighbors": 0,
                       "builders.triples_ekd_calls": 0}
        self.tau_pairs: set = set()
        self.triple_pairs: set = set()
        self.fan_keys: set = set()

    # -- installing the wrappers ------------------------------------------- #

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "nactree" or key.startswith("nactree.")]
        for mod_name, attr in BOUNDARIES:
            module = import_module(f"nactree.{mod_name}")
            span = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(span, original.__func__)
                self._saved.append((cls, meth, original))
                setattr(cls, meth, classmethod(wrapped))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _name_id(self, span: str) -> int:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        return self._name_ids[span]

    def _wrap(self, span, func):
        name_id = self._name_id(span)
        hook = getattr(self, "_hook_" + span.replace(".", "_"), None)
        stack, depth = self._stack, self._depth
        clock = hostspeed.clock  # stands still while a host-speed slice runs

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.estimate.append(self.current_estimate)
            self.end.append(0.0)
            level = depth.get(span, 0)
            self.outer.append(level == 0)
            depth[span] = level + 1
            stack.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[span] -= 1
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", span)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    # -- counters fed at the boundaries ------------------------------------- #

    def _hook_nac_sample(self, args, kwargs, result):
        self.counts["nac.rows"] += int(np.shape(result)[0])

    def _hook_dependence_kendall_tau(self, args, kwargs, result):
        self.tau_pairs.add((self.current_estimate,) + _pair_key(args[0], args[1]))

    def _hook_dependence_empirical_kendall_distribution(self, args, kwargs,
                                                        result):
        if self._depth.get("builders.estimate_triples", 0):
            self.counts["builders.triples_ekd_calls"] += 1
            self.triple_pairs.add((self.current_estimate,)
                                  + _pair_key(args[0], args[1]))

    def _hook_builders_nni_neighbors(self, args, kwargs, result):
        self.counts["builders.nni_neighbors"] += len(result)

    def _collapsed(self, args, result):
        before = len(args[0].internal_nodes)
        self.counts["collapse.edges_collapsed"] += before - len(
            result.internal_nodes)

    def _hook_collapse_collapse_kagg(self, args, kwargs, result):
        self._collapsed(args, result)

    def _hook_collapse_collapse_kb(self, args, kwargs, result):
        self._collapsed(args, result)

    def _hook_collapse_su_triple_test(self, args, kwargs, result):
        u = args[0]
        values = getattr(u, "u", None)
        if values is None:
            values = getattr(u, "values", u)
        b = kwargs.get("b", args[4] if len(args) > 4 else 200)
        self.counts["collapse.resamples"] += int(b)
        triple = frozenset(args[1:4])
        self.fan_keys.add((self.current_estimate, _content_key(values), triple))

    # -- aggregation ------------------------------------------------------- #

    def span_arrays(self):
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return names, parent, dur

    def save(self, path):
        names, parent, _ = self.span_arrays()
        np.savez_compressed(
            path, span_names=np.array(self.names), name=names, parent=parent,
            estimate=np.frombuffer(self.estimate, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Inclusive time counts only spans with no ancestor of the same name;
        self time is a span's duration minus the time its direct children
        cover (children run sequentially inside their parent)."""
        names, parent, dur = self.span_arrays()
        if names.size == 0:
            return {}
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=names.size)
        self_time = dur - child_time
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        out = {}
        for span_id, span in enumerate(self.names):
            sel = names == span_id
            if not sel.any():
                continue
            out[span] = (int(sel.sum()), float(dur[sel & outer].sum()),
                         float(self_time[sel].sum()))
        return out
