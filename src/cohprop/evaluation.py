"""Evaluation protocols: first-step sweeps, K-fold recovery, correlations.

The sweep protocol runs one method-A step from a seed per threshold and
reports the error over the fresh additions that carry ground truth. The
K-fold protocol holds out one fold of the seed at a time, runs one
method-B step from the rest, and reports the error and coverage of the
recovered fold members, aggregated over folds with median/min/max (mean is
recorded too). Reports serialize to a fixed CSV schema and to JSON.

Both protocols open the coherence gate of each seed once for the whole
grid, since it does not depend on the threshold, and hand that gate and
the whole grid to the method's rule; method B's rule builds its candidate
incidence once per seed, at the largest threshold. Only the additions a
protocol scores are estimated. The rows equal those of one whole step per
threshold, bit for bit, and a bad input fails as that step loop fails.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Optional, Sequence

import numpy as np

from .features import FeatureStore, _write_csv, _write_json, validate_norm_order
from .graph import DirectedGraph, Direction, as_node_array, node_mask
from .method_a import _accept_a, _open_gate, init_state
from .method_a import step_method_a  # noqa: F401  (perfbench/spans.py wraps it here)
from .method_b import _accept_b
from .method_b import step_method_b  # noqa: F401  (perfbench/spans.py wraps it here)

__all__ = [
    "CSV_COLUMNS",
    "ReportRow",
    "EvaluationReport",
    "spatial_uniform_sample",
    "sweep_method_a",
    "kfold_eval_method_b",
    "correlate_with_external",
]

# the aggregate stats, in report row order
_STAT_FN = {"mean": np.mean, "median": np.median, "min": np.min, "max": np.max}


@dataclass(frozen=True)
class ReportRow:
    """One line of an evaluation report; ``fold=None`` marks aggregates."""

    epsilon: float
    method: str
    direction: str
    fold: Optional[int]
    stat: str
    error: Optional[float]
    size_delta_v: float
    size_pivots: Optional[float]
    coverage: Optional[float]


CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass
class EvaluationReport:
    rows: list[ReportRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def rows_where(self, **conditions) -> list[ReportRow]:
        out = []
        for row in self.rows:
            if all(getattr(row, key) == val for key, val in conditions.items()):
                out.append(row)
        return out

    @staticmethod
    def _cell(name: str, value) -> str:
        if value is None:  # an aggregate row's fold reads "all"; other absent values are empty
            return "all" if name == "fold" else ""
        return repr(value) if isinstance(value, float) else str(value)

    def to_csv(self, path) -> None:
        _write_csv(path, CSV_COLUMNS, (
            [self._cell(name, getattr(row, name)) for name in CSV_COLUMNS] for row in self.rows
        ))

    def to_json(self, path) -> None:
        _write_json(path, {"metadata": self.metadata, "rows": [asdict(r) for r in self.rows]})


def spatial_uniform_sample(
    store: FeatureStore,
    nodes,
    n: int,
    grid_bins: int = 20,
    seed: int = 0,
) -> np.ndarray:
    """Sample ``n`` nodes spread uniformly over the feature-space grid.

    The bounding box of the candidates is cut into ``grid_bins`` cells per
    axis; nonempty cells are visited round-robin in a seeded random order,
    drawing one uniform node per visit, until ``n`` nodes are collected.
    Dense regions therefore cannot dominate the sample: cells are balanced
    up to exhaustion.
    """
    V = as_node_array(nodes)
    n = int(n)
    if n < 0 or n > V.size:
        raise ValueError(f"cannot sample {n} nodes from a set of {V.size}")
    if int(grid_bins) < 1:
        raise ValueError("grid_bins must be >= 1")
    if n == 0:
        return np.empty(0, dtype=np.int64)

    feats = store.features_of(V)
    lows = feats.min(axis=0)
    span = feats.max(axis=0) - lows
    span[span == 0] = 1.0  # degenerate axes collapse to one bin
    bins = int(grid_bins)
    idx = np.clip((feats - lows) / span * bins, 0, bins - 1).astype(np.int64)
    # cells in lexicographic order of their bin indices, at any dimension
    # (one row sort per call, over the pool only: not a hot path)
    _, cell_of = np.unique(idx, axis=0, return_inverse=True)
    cell_of = cell_of.ravel()
    counts = np.bincount(cell_of)
    members = np.split(V[np.argsort(cell_of, kind="stable")], np.cumsum(counts)[:-1])

    rng = np.random.default_rng(seed)
    order = rng.permutation(counts.size).tolist()
    queues = [rng.permutation(m).tolist() for m in members]

    # every visit of a round pops from some nonempty queue while n <= V.size
    picked: list[int] = []
    while len(picked) < n:
        for cell in order:
            queue = queues[cell]
            if queue:
                picked.append(queue.pop())
                if len(picked) == n:
                    break
    return np.array(sorted(picked), dtype=np.int64)


def _first_steps(accept, g, truth, seed, direction, epsilon_grid, scored, p, **kwargs):
    """The first step of a method from ``seed`` at each threshold, estimating only scored nodes.

    ``accept`` is a method's threshold rule (``method_a._accept_a`` or
    ``method_b._accept_b``). The seed's truth is checked and gathered once
    and its coherence gate is opened once, since neither depends on the
    threshold; the rule then takes that gate and the whole grid. Only the
    additions in the node mask ``scored`` are estimated, and nothing is
    written to a store. Returns an iterator of ``(eps, outcome)`` pairs in
    grid order, so one outcome is held at a time.

    Errors come in the order of the per-threshold step loop: a seed node
    without truth, then the first threshold and the seed's provenance (in
    ``init_state``), then, when the first pair is taken, the rule's own
    options and the other thresholds.
    """
    grid = list(epsilon_grid)
    if not grid:
        return []
    table = truth.features_of(seed)  # KeyError for a seed node without truth
    gate = _open_gate(init_state(truth, seed, direction, grid[0]), g, table, p)
    return zip(grid, accept(gate, grid, scored, **kwargs))


def _errors(outcome, truth: FeatureStore, p: float) -> np.ndarray:
    """p-norm error of each estimated node of a step outcome against its truth."""
    return np.linalg.norm(outcome.estimates - truth.features_of(outcome.estimated), ord=p, axis=1)


def _stat_rows(eps, method, direction, errors, **columns) -> list[ReportRow]:
    """One aggregate row per stat: ``error`` is the stat of ``errors`` (None when empty).

    A list-valued column is reduced by the same stat; a scalar column is copied.
    """
    errors = np.asarray(errors, dtype=np.float64)
    return [
        ReportRow(
            epsilon=float(eps), method=method, direction=direction.value, fold=None, stat=stat,
            error=float(fn(errors)) if errors.size else None,
            **{key: float(fn(val)) if isinstance(val, list) else val
               for key, val in columns.items()},
        )
        for stat, fn in _STAT_FN.items()
    ]


def sweep_method_a(
    g: DirectedGraph,
    truth: FeatureStore,
    seed_set,
    direction: Direction,
    epsilon_grid: Sequence[float],
    p=2.0,
) -> EvaluationReport:
    """One method-A step from the seed per threshold, error over additions.

    Errors are computed on the additions that carry ground truth; when none
    do (or nothing is added) the rows keep their sizes and an absent error
    rather than a fabricated value.
    """
    p = validate_norm_order(p)
    seed_arr = as_node_array(seed_set)
    report = EvaluationReport(
        metadata={
            "protocol": "sweep-a",
            "method": "a",
            "direction": direction.value,
            "p": p,
            "epsilon_grid": [float(e) for e in epsilon_grid],
            "seed_size": int(seed_arr.size),
        }
    )
    known = truth.nodes()
    in_truth = node_mask(known[(known >= 0) & (known < g.node_count)], g.node_count)
    for eps, step in _first_steps(
        _accept_a, g, truth, seed_arr, direction, epsilon_grid, in_truth, p
    ):
        report.rows += _stat_rows(
            eps, "a", direction, _errors(step, truth, p),
            size_delta_v=float(step.added.size), size_pivots=None, coverage=None,
        )
    return report


def kfold_eval_method_b(
    g: DirectedGraph,
    truth: FeatureStore,
    pool,
    k: int,
    direction: Direction,
    epsilon_grid: Sequence[float],
    seed: int,
    p=2.0,
    candidate_test: str = "pivot-features",
) -> EvaluationReport:
    """K-fold recovery of held-out pool members through one method-B step.

    The pool is split into K folds by a seeded shuffle. For each fold and
    threshold, the remaining pool members seed one method-B step; the
    recovered set is the intersection of the additions with the fold, and
    coverage is its share of the fold. Per-threshold aggregate rows carry
    the median/min/max (and mean) over the fold rows of that threshold.
    """
    p = validate_norm_order(p)
    pool_arr = as_node_array(pool, g.node_count)
    k = int(k)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > pool_arr.size:
        raise ValueError(f"k={k} folds over {pool_arr.size} nodes leaves empty folds")

    rng = np.random.default_rng(seed)
    folds = [np.sort(f) for f in np.array_split(rng.permutation(pool_arr), k)]
    report = EvaluationReport(
        metadata={
            "protocol": "kfold-b",
            "method": "b",
            "direction": direction.value,
            "p": p,
            "k": k,
            "seed": int(seed),
            "epsilon_grid": [float(e) for e in epsilon_grid],
            "pool_size": int(pool_arr.size),
            "candidate_test": candidate_test,
        }
    )

    for fold_idx, fold in enumerate(folds):
        held_out = node_mask(fold, g.node_count)
        train = pool_arr[~held_out[pool_arr]]
        for eps, step in _first_steps(
            _accept_b, g, truth, train, direction, epsilon_grid, held_out, p,
            candidate_test=candidate_test,
        ):
            recovered = step.estimated
            report.rows.append(ReportRow(
                epsilon=float(eps), method="b", direction=direction.value, fold=fold_idx,
                stat="mean",
                error=float(np.mean(_errors(step, truth, p))) if recovered.size else None,
                size_delta_v=float(step.added.size), size_pivots=float(step.pivots),
                coverage=float(recovered.size / fold.size),
            ))

    # a threshold listed twice pools the fold rows of both copies
    fold_rows = list(report.rows)
    for eps in epsilon_grid:
        rows = [r for r in fold_rows if r.epsilon == float(eps)]
        report.rows += _stat_rows(
            eps, "b", direction, [r.error for r in rows if r.error is not None],
            size_delta_v=[r.size_delta_v for r in rows],
            size_pivots=[r.size_pivots for r in rows],
            coverage=[r.coverage for r in rows],
        )
    return report


def correlate_with_external(
    positions,
    groups: Mapping[int, str],
    scores: Mapping[str, Mapping[str, float]],
) -> dict:
    """Correlate node coordinates with per-group external scores.

    ``positions`` maps nodes to vectors (a FeatureStore works). For each
    criterion the result carries per-dimension Pearson correlations at the
    node level (each node against its group's score) and at the group
    level (group-mean coordinates against scores), plus the matched group
    list. Requires at least three matched groups per criterion; constant
    scores are rejected.
    """
    pos_map = {int(k): np.asarray(v, dtype=np.float64) for k, v in positions.items()}
    if not pos_map:
        raise ValueError("no positions given")
    dim = len(next(iter(pos_map.values())))

    placed = [(v, groups[v]) for v in sorted(pos_map) if v in groups]
    result: dict[str, dict] = {}
    for criterion, table in scores.items():
        rows = [(v, grp) for v, grp in placed if grp in table]
        matched = sorted({grp for _, grp in rows})
        if len(matched) < 3:
            raise ValueError(
                f"criterion {criterion!r}: needs >= 3 matched groups, got {len(matched)}"
            )
        score_vec = np.array([table[grp] for _, grp in rows], dtype=np.float64)
        if np.ptp(score_vec) == 0:
            raise ValueError(f"criterion {criterion!r}: scores are constant")
        coords = np.stack([pos_map[v] for v, _ in rows])

        node_level = [
            float(np.corrcoef(coords[:, d], score_vec)[0, 1]) for d in range(dim)
        ]
        group_means = np.stack(
            [coords[[grp == g for _, grp in rows]].mean(axis=0) for g in matched]
        )
        group_scores = np.array([table[g] for g in matched], dtype=np.float64)
        if np.ptp(group_scores) == 0:
            raise ValueError(f"criterion {criterion!r}: scores are constant")
        group_level = [
            float(np.corrcoef(group_means[:, d], group_scores)[0, 1]) for d in range(dim)
        ]
        result[criterion] = {
            "groups": matched,
            "node_level": node_level,
            "group_level": group_level,
        }
    return result
