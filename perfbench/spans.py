"""Layer spans around the program's public functions.

A :class:`Tracer` replaces each traced function where its caller looks it
up (a module global or a class attribute) by a wrapper that records a span.
Spans nest: a span's self time is its duration minus the time of the spans
it encloses. Counts read from each call's result (``StepRecord`` sizes,
kept and deduplicated scaling rows) are summed beside the spans.
"""
from __future__ import annotations

import time
from collections import defaultdict

import cohprop.cli
import cohprop.evaluation
import cohprop.features
import cohprop.method_a
import cohprop.method_b
import cohprop.synthetic
from cohprop.features import FeatureStore
from cohprop.graph import DirectedGraph


def _step_a_counts(result, counts):
    added, rejected, _ = result
    counts["method_a.added"] += added.size
    counts["method_a.excluded"] += rejected.size


def _step_b_counts(result, counts):
    added, rejected, state = result
    counts["method_b.added"] += added.size
    counts["method_b.excluded"] += rejected.size
    counts["method_b.pivots"] += state.history[-1].pivots


def _filter_counts(result, counts):
    filtered, dedup = result
    counts["scaling.rows_kept"] += filtered.shape[0]
    counts["scaling.rows_deduplicated"] += len(dedup)


# (span name, [(owner, attribute)], count hook)
SPANS = [
    ("graph.load_edge_list", [(cohprop.cli, "load_edge_list")], None),
    ("graph.from_edges", [(DirectedGraph, "from_edges")], None),
    ("graph.neighborhood", [(DirectedGraph, "neighborhood")], None),
    ("graph.grouped_restricted_neighbors",
     [(m, "grouped_restricted_neighbors")
      for m in (cohprop.features, cohprop.method_a, cohprop.method_b)], None),
    ("features.store_subset", [(FeatureStore, "subset")], None),
    ("features.store_set_estimated", [(FeatureStore, "set_estimated")], None),
    ("features.store_features_of", [(FeatureStore, "features_of")], None),
    ("features.read_features_csv", [(cohprop.cli, "read_features_csv")], None),
    ("features.write_features_csv",
     [(cohprop.cli, "write_features_csv"), (cohprop.cli, "write_labeled_features_csv")], None),
    ("method_a.run", [(cohprop.cli, "run_method_a"), (cohprop.method_a, "run_method_a")], None),
    ("method_a.step",
     [(cohprop.method_a, "step_method_a"), (cohprop.evaluation, "step_method_a")], _step_a_counts),
    ("method_b.run", [(cohprop.cli, "run_method_b"), (cohprop.method_b, "run_method_b")], None),
    ("method_b.compute_pivots", [(cohprop.method_b, "compute_pivots")], None),
    ("method_b.step",
     [(cohprop.method_b, "step_method_b"), (cohprop.evaluation, "step_method_b")], _step_b_counts),
    ("scaling.bipartite_from_graph", [(cohprop.cli, "bipartite_from_graph")], None),
    ("scaling.filter_bipartite", [(cohprop.cli, "filter_bipartite")], _filter_counts),
    ("scaling.correspondence_analysis", [(cohprop.cli, "correspondence_analysis")], None),
    ("scaling.seed_features_from_scaling", [(cohprop.cli, "seed_features_from_scaling")], None),
    ("evaluation.sweep_method_a", [(cohprop.evaluation, "sweep_method_a")], None),
    ("evaluation.kfold_eval_method_b", [(cohprop.evaluation, "kfold_eval_method_b")], None),
    ("evaluation.spatial_uniform_sample", [(cohprop.evaluation, "spatial_uniform_sample")], None),
    ("synthetic.generate_planted", [(cohprop.synthetic, "generate_planted")], None),
    ("cli.main", [(cohprop.cli, "main")], None),
]

COUNTS = ["method_a.added", "method_a.excluded", "method_b.pivots", "method_b.added",
          "method_b.excluded", "scaling.rows_kept", "scaling.rows_deduplicated"]


class Tracer:
    """Installs the spans of :data:`SPANS`; ``uninstall`` restores the originals."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [start, time of enclosed spans]
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, hook):
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts

        def span(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                took = time.perf_counter() - frame[0]
                self_s[name] += took - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += took
            if hook is not None:
                hook(result, counts)
            return result

        return span

    def install(self) -> None:
        for name, sites, hook in SPANS:
            for owner, attr in sites:
                raw = owner.__dict__[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, hook)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out.update({name: self.counts[name] for name in COUNTS})
        a = self.counts["method_a.added"] + self.counts["method_a.excluded"]
        out["method_a.gate_pass_ratio"] = self.counts["method_a.added"] / a if a else 0.0
        pivots = self.counts["method_b.pivots"]
        out["method_b.added_per_pivot"] = self.counts["method_b.added"] / pivots if pivots else 0.0
        return out
