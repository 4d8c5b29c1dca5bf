import csv
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cohprop.features
import cohprop.method_b
from cohprop.evaluation import (
    CSV_COLUMNS,
    EvaluationReport,
    _first_steps,
    correlate_with_external,
    kfold_eval_method_b,
    spatial_uniform_sample,
    sweep_method_a,
)
from cohprop.features import FeatureStore, centroid, estimation_error
from cohprop.graph import DirectedGraph, Direction, node_mask
from cohprop.method_a import _accept_a, _open_gate, init_state, step_method_a
from cohprop.method_b import _accept_b, co_neighbors, compute_pivots, step_method_b
from cohprop.synthetic import PlantedConfig, generate_planted
from conftest import store_from
from oracles import reference_kfold_rows, reference_sweep_rows


def two_cluster_store(n_dense=30, n_sparse=6):
    vecs = [[0.0 + 0.001 * i, 0.0] for i in range(n_dense)]
    vecs += [[5.0 + 0.001 * i, 5.0] for i in range(n_sparse)]
    return store_from(vecs), n_dense, n_sparse


class TestSpatialUniformSample:
    def test_single_cell_is_plain_uniform(self):
        store = store_from([[0.5, 0.5]] * 10)
        picked = spatial_uniform_sample(store, range(10), 4, grid_bins=3, seed=0)
        assert picked.size == 4
        assert set(picked.tolist()) <= set(range(10))

    def test_clusters_balanced_up_to_exhaustion(self):
        store, n_dense, n_sparse = two_cluster_store(990, 10)
        picked = spatial_uniform_sample(store, range(1000), 10, grid_bins=2, seed=1)
        sparse_hits = (picked >= 990).sum()
        assert sparse_hits == 5

    def test_sparse_cell_exhausts_then_dense_fills(self):
        store, n_dense, n_sparse = two_cluster_store(30, 3)
        picked = spatial_uniform_sample(store, range(33), 10, grid_bins=2, seed=2)
        assert (picked >= 30).sum() == 3  # all of the small cluster
        assert picked.size == 10

    def test_full_sample_returns_everything(self):
        store, *_ = two_cluster_store(8, 2)
        picked = spatial_uniform_sample(store, range(10), 10, grid_bins=4, seed=0)
        assert picked.tolist() == list(range(10))

    def test_high_dimension(self, rng):
        # 20 bins over 16 axes is more cells than an int64 can number
        store = store_from(rng.normal(size=(300, 16)))
        picked = spatial_uniform_sample(store, range(300), 40, seed=3)
        assert picked.size == 40 and np.all(np.diff(picked) > 0)
        assert picked.tolist() == spatial_uniform_sample(store, range(300), 40, seed=3).tolist()

    def test_oversample_rejected(self):
        store, *_ = two_cluster_store(4, 2)
        with pytest.raises(ValueError):
            spatial_uniform_sample(store, range(6), 7)

    def test_deterministic_under_seed(self):
        store, *_ = two_cluster_store(50, 20)
        a = spatial_uniform_sample(store, range(70), 15, grid_bins=3, seed=42)
        b = spatial_uniform_sample(store, range(70), 15, grid_bins=3, seed=42)
        assert a.tolist() == b.tolist()


def tiny_instance():
    # seeds 0-3 follow hub 4; candidates 5,6 follow hub 4 too
    edges = [(0, 4), (1, 4), (2, 4), (3, 4), (5, 4), (6, 4)]
    g = DirectedGraph.from_edges(edges, node_count=7)
    truth = store_from([[0.0], [0.05], [0.1], [0.15], [0.2], [0.07], [0.09]])
    return g, truth


class TestSweepMethodA:
    def test_empty_addition_row_flagged(self):
        g = DirectedGraph.from_edges([(0, 2), (1, 2)], node_count=3)
        truth = store_from([[0.0], [1.0], [0.5]])
        report = sweep_method_a(g, truth, [0, 1], Direction.UP, [0.01])
        rows = report.rows_where(epsilon=0.01, stat="mean")
        assert rows[0].error is None
        assert rows[0].size_delta_v == 0

    def test_addition_sizes_monotone_in_epsilon(self, rng):
        cfg = PlantedConfig(n_nodes=300, n_elites=8, beta=3.0, mean_out_degree=6.0, seed=4)
        g, truth, _ = generate_planted(cfg)
        pool = spatial_uniform_sample(truth, np.arange(300), 60, grid_bins=6, seed=0)
        grid = [0.05, 0.15, 0.3, 0.6, 1.2]
        report = sweep_method_a(g, truth, pool, Direction.UP, grid)
        sizes = [report.rows_where(epsilon=e, stat="mean")[0].size_delta_v for e in grid]
        assert sizes == sorted(sizes)

    def test_stats_cover_per_node_errors(self):
        g, truth = tiny_instance()
        report = sweep_method_a(g, truth, [0, 1, 2, 3], Direction.UP, [1.0])
        by_stat = {r.stat: r.error for r in report.rows_where(epsilon=1.0)}
        assert by_stat["min"] <= by_stat["median"] <= by_stat["max"]
        assert by_stat["mean"] is not None

    def test_planted_sweep_error_trend(self):
        # On a homophilous planted graph the first-step mean error shrinks
        # as the gate loosens: tiny thresholds keep mostly degree-1
        # attachments (no averaging), larger ones pool more back-connections.
        from scipy.stats import spearmanr

        cfg = PlantedConfig(n_nodes=5000, n_elites=50, feature_dim=2,
                            mixture_components=4, mixture_spread=0.3, beta=5.0,
                            elite_attractiveness=40.0, mean_out_degree=15.0, seed=0)
        g, truth, elites = generate_planted(cfg)
        pool = spatial_uniform_sample(
            truth, np.setdiff1d(truth.nodes(), elites), 1000, grid_bins=12, seed=0
        )
        grid = np.linspace(0.1, 1.0, 10).tolist()
        report = sweep_method_a(g, truth, pool, Direction.UP, grid)
        errors = [report.rows_where(epsilon=e, stat="mean")[0].error for e in grid]
        assert all(e is not None for e in errors)
        assert spearmanr(grid, errors).statistic < 0


class TestKfoldMethodB:
    def test_partition_is_a_partition(self, rng):
        pool = np.arange(31)
        k = 5
        folds = [np.sort(f) for f in np.array_split(np.random.default_rng(7).permutation(pool), k)]
        together = np.concatenate(folds)
        assert np.sort(together).tolist() == pool.tolist()

    def test_small_instance_full_coverage(self):
        g, truth = tiny_instance()
        report = kfold_eval_method_b(g, truth, [0, 1, 2, 3, 5, 6], 3, Direction.UP, [1.0], seed=0)
        for row in report.rows_where(stat="mean"):
            if row.fold is not None:
                assert row.coverage == 1.0
                assert row.error is not None

    def test_zero_coverage_keeps_error_absent(self):
        g = DirectedGraph.from_edges([(0, 3), (1, 3), (2, 4)], node_count=5)
        truth = store_from([[0.0], [0.1], [5.0]])
        report = kfold_eval_method_b(g, truth, [0, 1, 2], 3, Direction.UP, [0.05], seed=1)
        fold_rows = [r for r in report.rows_where(stat="mean") if r.fold is not None]
        uncovered = [r for r in fold_rows if r.coverage == 0.0]
        assert uncovered and all(r.error is None for r in uncovered)

    def test_coverage_within_bounds_and_deterministic(self):
        cfg = PlantedConfig(n_nodes=400, n_elites=10, beta=4.0, mean_out_degree=6.0, seed=6)
        g, truth, _ = generate_planted(cfg)
        pool = spatial_uniform_sample(truth, np.arange(400), 60, grid_bins=6, seed=2)
        grid = [0.1, 0.4]
        r1 = kfold_eval_method_b(g, truth, pool, 4, Direction.UP, grid, seed=9)
        r2 = kfold_eval_method_b(g, truth, pool, 4, Direction.UP, grid, seed=9)
        assert r1.rows == r2.rows
        for row in r1.rows:
            if row.coverage is not None:
                assert 0.0 <= row.coverage <= 1.0

    def test_recovered_union_grows_with_epsilon(self):
        cfg = PlantedConfig(n_nodes=400, n_elites=10, beta=4.0, mean_out_degree=6.0, seed=6)
        g, truth, _ = generate_planted(cfg)
        pool = spatial_uniform_sample(truth, np.arange(400), 50, grid_bins=6, seed=2)
        fold = pool[:10]
        train = np.setdiff1d(pool, fold)
        union: set = set()
        sizes = []
        for eps in (0.05, 0.2, 0.5, 1.0):
            work = truth.subset(train)
            state = init_state(work, train, Direction.UP, eps)
            added, _, _ = step_method_b(state, g, work)
            union |= set(np.intersect1d(fold, added).tolist())
            sizes.append(len(union))
        assert sizes == sorted(sizes)

    def test_too_many_folds_rejected(self):
        g, truth = tiny_instance()
        with pytest.raises(ValueError):
            kfold_eval_method_b(g, truth, [0, 1, 2], 4, Direction.UP, [0.5], seed=0)
        with pytest.raises(ValueError):
            kfold_eval_method_b(g, truth, [0, 1, 2], 1, Direction.UP, [0.5], seed=0)


STAT_FN = {"mean": np.mean, "median": np.median, "min": np.min, "max": np.max}
CANDIDATE_TESTS = ["pivot-features", "co-neighbors"]


def planted_kfold(grid, candidate_test, k=8):
    cfg = PlantedConfig(n_nodes=400, n_elites=10, beta=4.0, mean_out_degree=6.0, seed=6)
    g, truth, _ = generate_planted(cfg)
    pool = spatial_uniform_sample(truth, np.arange(400), 60, grid_bins=6, seed=2)
    return kfold_eval_method_b(g, truth, pool, k, Direction.UP, grid, seed=9,
                               candidate_test=candidate_test)


def assert_aggregates_of(report, eps, n_copies):
    """Every aggregate row of ``eps`` is the numpy stat of its fold rows."""
    folds = [r for r in report.rows if r.fold is not None and r.epsilon == eps]
    errors = [r.error for r in folds if r.error is not None]
    aggregates = report.rows_where(fold=None, epsilon=eps)
    assert [r.stat for r in aggregates] == list(STAT_FN) * n_copies
    for row in aggregates:
        fn = STAT_FN[row.stat]
        assert row.error == (float(fn(errors)) if errors else None)
        assert row.size_delta_v == float(fn([r.size_delta_v for r in folds]))
        assert row.size_pivots == float(fn([r.size_pivots for r in folds]))
        assert row.coverage == float(fn([r.coverage for r in folds]))
    return folds


class TestAggregationContract:
    @pytest.mark.parametrize("candidate_test", CANDIDATE_TESTS)
    def test_kfold_fold_rows_then_their_stats(self, candidate_test):
        grid = [0.4, 0.05, 0.2]
        report = planted_kfold(grid, candidate_test)
        keys = [(r.fold, r.epsilon, r.stat) for r in report.rows]
        assert keys == [(f, e, "mean") for f in range(8) for e in grid] + [
            (None, e, s) for e in grid for s in STAT_FN
        ]
        for eps in grid:
            folds = assert_aggregates_of(report, eps, 1)
            # some folds recover nobody: their absent errors are left out
            assert any(r.error is None for r in folds)
            assert any(r.error is not None for r in folds)

    def test_kfold_error_absent_when_no_fold_recovers(self):
        g = DirectedGraph.from_edges([(0, 3), (1, 4), (2, 5)], node_count=6)
        truth = store_from([[0.0], [0.1], [0.2]])
        report = kfold_eval_method_b(g, truth, [0, 1, 2], 3, Direction.UP, [0.5], seed=0)
        folds = assert_aggregates_of(report, 0.5, 1)
        assert len(folds) == 3 and all(r.error is None for r in folds)
        assert all(r.error is None for r in report.rows_where(fold=None))

    @pytest.mark.parametrize("candidate_test", CANDIDATE_TESTS)
    def test_kfold_repeated_threshold_pools_both_copies(self, candidate_test):
        grid = [0.2, 0.4, 0.2]
        report = planted_kfold(grid, candidate_test)
        assert len(report.rows) == 8 * 3 + 4 * 3
        assert len(assert_aggregates_of(report, 0.2, 2)) == 2 * 8
        assert len(assert_aggregates_of(report, 0.4, 1)) == 8
        assert [r.epsilon for r in report.rows_where(fold=None)] == [0.2] * 4 + [0.4] * 4 + [0.2] * 4

    def test_sweep_stats_over_scored_additions(self):
        cfg = PlantedConfig(n_nodes=300, n_elites=8, beta=3.0, mean_out_degree=6.0, seed=4)
        g, full, _ = generate_planted(cfg)
        seed = spatial_uniform_sample(full, np.arange(300), 60, grid_bins=6, seed=0)
        # a truth store without every third node, so some additions go unscored
        truth = full.subset(np.union1d(seed, np.arange(0, 300, 3)))
        grid, p = [0.1, 0.6], 1.5
        report = sweep_method_a(g, truth, seed, Direction.UP, grid, p=p)
        assert [(r.epsilon, r.stat) for r in report.rows] == [(e, s) for e in grid for s in STAT_FN]
        for eps in grid:
            work = truth.subset(seed)
            added, _, _ = step_method_a(init_state(work, seed, Direction.UP, eps), g, work, p=p)
            scored = [v for v in added.tolist() if v in truth]
            assert 0 < len(scored) < added.size
            errors = [estimation_error(work.get(v), truth.get(v), p) for v in scored]
            for row in report.rows_where(epsilon=eps):
                # a vector norm and a row norm may differ in the last bit
                assert row.error == pytest.approx(float(STAT_FN[row.stat](errors)), rel=1e-12)
                assert row.size_delta_v == float(added.size)
                assert row.size_pivots is None and row.coverage is None


protocol_instances = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(4, 30),
    "density": st.sampled_from([0.5, 1.5, 3.0]),
    "dim": st.sampled_from([1, 2]),
    "quantum": st.sampled_from([None, 0.5, 0.1]),
    "p": st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    "direction": st.sampled_from(list(Direction)),
    # empty grids, threshold 0 and repeated thresholds included
    "grid": st.lists(st.sampled_from([0.0, 0.05, 0.37, 0.91, 2.3]), max_size=4),
    "untruthed": st.sampled_from([0.0, 0.4]),
})


def build_protocol_case(inst):
    """Graph, a truth store without a share of the non-pool nodes, a pool and a fold count."""
    rng = np.random.default_rng(inst["seed"])
    n = inst["n"]
    pairs = rng.integers(0, n, size=(int(inst["density"] * n), 2))
    edges = np.array(sorted({(int(u), int(v)) for u, v in pairs if u != v}), dtype=np.int64)
    g = DirectedGraph.from_edges(edges.reshape(-1, 2), node_count=n)
    if inst["quantum"]:
        feats = inst["quantum"] * rng.integers(0, 3, size=(n, inst["dim"]))
    else:
        feats = rng.normal(size=(n, inst["dim"]))
    pool = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    has_truth = node_mask(pool, n) | (rng.random(n) >= inst["untruthed"])
    truth = FeatureStore(inst["dim"])
    truth.set_known_many(np.flatnonzero(has_truth), feats[has_truth])
    k = int(rng.integers(2, min(4, pool.size) + 1))
    return g, truth, pool, k


def raised(call):
    """Type and message of the exception ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def assert_sorted_centroids(g, truth, seed, d, grid, scored, p, candidate_test):
    """Each scored first-step estimate is the centroid of its node-sorted back-connections
    (method A) or co-neighbors (method B), bit for bit."""
    for eps, step in _first_steps(_accept_a, g, truth, seed, d, grid, scored, p):
        assert step.estimated.tolist() == step.added[scored[step.added]].tolist()
        for v, est in zip(step.estimated.tolist(), step.estimates):
            want = centroid(np.intersect1d(g.neighbors(v, d.opposite), seed), truth)
            assert est.tolist() == want.tolist()
    for eps, step in _first_steps(_accept_b, g, truth, seed, d, grid, scored, p,
                                  candidate_test=candidate_test):
        store = truth.subset(seed)
        pivots, _ = compute_pivots(init_state(store, seed, d, eps), g, store, p)
        assert step.pivots == len(pivots)
        assert step.estimated.tolist() == step.added[scored[step.added]].tolist()
        for v, est in zip(step.estimated.tolist(), step.estimates):
            want = centroid(co_neighbors(g, v, pivots, seed, d), truth)
            assert est.tolist() == want.tolist()


class TestFirstStepsMatchTheStepLoop:
    """Both protocols against the per-threshold loop of whole steps in ``oracles``.

    Rows must agree bit for bit (their ``repr``), although the protocols gate
    each seed once and estimate only the nodes they score.
    """

    @given(protocol_instances)
    def test_sweep_rows(self, inst):
        g, truth, pool, _ = build_protocol_case(inst)
        args = (g, truth, pool, inst["direction"], inst["grid"])
        got = sweep_method_a(*args, p=inst["p"]).rows
        assert repr(got) == repr(reference_sweep_rows(*args, p=inst["p"]))

    @given(protocol_instances, st.sampled_from(CANDIDATE_TESTS))
    def test_kfold_rows(self, inst, candidate_test):
        g, truth, pool, k = build_protocol_case(inst)
        args = (g, truth, pool, k, inst["direction"], inst["grid"])
        options = dict(seed=inst["seed"], p=inst["p"], candidate_test=candidate_test)
        got = kfold_eval_method_b(*args, **options).rows
        assert repr(got) == repr(reference_kfold_rows(*args, **options))

    @given(protocol_instances, st.sampled_from(CANDIDATE_TESTS))
    def test_scored_estimates_are_sorted_centroids(self, inst, candidate_test):
        g, truth, pool, _ = build_protocol_case(inst)
        scored = np.random.default_rng(inst["seed"] + 1).random(g.node_count) < 0.5
        assert_sorted_centroids(g, truth, pool, inst["direction"], inst["grid"], scored,
                                inst["p"], candidate_test)

    @pytest.mark.parametrize("candidate_test", CANDIDATE_TESTS)
    def test_planted_kfold_and_sweep(self, candidate_test):
        cfg = PlantedConfig(n_nodes=400, n_elites=10, beta=4.0, mean_out_degree=6.0, seed=6)
        g, truth, _ = generate_planted(cfg)
        pool = spatial_uniform_sample(truth, np.arange(400), 60, grid_bins=6, seed=2)
        # large co-neighbor sets, where an unsorted pattern shows in the last bits
        scored = np.random.default_rng(0).random(400) < 0.5
        assert_sorted_centroids(g, truth, pool, Direction.UP, [0.05, 0.2, 0.4], scored, 2.0,
                                candidate_test)
        for d, grid, p in [(Direction.UP, [0.4, 0.05, 0.2, 0.0], 2.0),
                           (Direction.DOWN, [0.2, 0.1, 0.2], 1.5)]:
            got = kfold_eval_method_b(g, truth, pool, 8, d, grid, seed=9, p=p,
                                      candidate_test=candidate_test)
            want = reference_kfold_rows(g, truth, pool, 8, d, grid, seed=9, p=p,
                                        candidate_test=candidate_test)
            assert repr(got.rows) == repr(want)
            got = sweep_method_a(g, truth, pool, d, grid, p=p)
            assert repr(got.rows) == repr(reference_sweep_rows(g, truth, pool, d, grid, p=p))

    @pytest.mark.parametrize("candidate_test", CANDIDATE_TESTS)
    def test_folds_that_recover_nobody(self, candidate_test):
        g = DirectedGraph.from_edges([(0, 3), (1, 4), (2, 5)], node_count=6)
        truth = store_from([[0.0], [0.1], [0.2]])
        args = (g, truth, [0, 1, 2], 3, Direction.UP, [0.5, 0.0], 0)
        got = kfold_eval_method_b(*args, candidate_test=candidate_test).rows
        assert all(r.coverage in (0.0, None) and r.error is None for r in got)
        assert repr(got) == repr(reference_kfold_rows(*args, candidate_test=candidate_test))


def outcome_bits(outcome):
    """Every field of a step outcome, arrays as dtype, shape and raw bytes."""
    return [field if field is None or isinstance(field, int)
            else (field.dtype.str, field.shape, field.tobytes()) for field in outcome]


def assert_grid_matches_single_thresholds(g, store, state, grid, scored, p, candidate_test):
    """``_accept_b`` over a grid gives, at each threshold, the one-threshold call on a new gate."""
    table = store.features_of(state.featured)
    got = list(_accept_b(_open_gate(state, g, table, p), grid, scored, candidate_test))
    assert len(got) == len(grid)
    for eps, outcome in zip(grid, got):
        alone = next(_accept_b(_open_gate(state, g, table, p), [eps], scored, candidate_test))
        assert outcome_bits(outcome) == outcome_bits(alone)
    return got


class TestGridRuleMatchesSingleThresholds:
    """Method B's rule built once at the largest threshold and cut for the smaller ones."""

    @given(protocol_instances, st.sampled_from(CANDIDATE_TESTS), st.booleans(),
           st.integers(0, 2), st.sampled_from([0.05, 0.37, 2.3]))
    def test_every_outcome_field(self, inst, candidate_test, with_scored, steps, eps0):
        # a few whole steps first, so the gate also meets excluded and estimated nodes
        g, truth, pool, _ = build_protocol_case(inst)
        store = truth.subset(pool)
        state = init_state(store, pool, inst["direction"], eps0)
        for _ in range(steps):
            _, _, state = step_method_b(state, g, store, p=inst["p"],
                                        candidate_test=candidate_test)
        rng = np.random.default_rng(inst["seed"] + 2)
        scored = rng.random(g.node_count) < 0.5 if with_scored else None
        assert_grid_matches_single_thresholds(g, store, state, inst["grid"], scored, inst["p"],
                                              candidate_test)

    @pytest.mark.parametrize("candidate_test", CANDIDATE_TESTS)
    @pytest.mark.parametrize("with_scored", [False, True])
    def test_planted_grid_cuts(self, candidate_test, with_scored):
        cfg = PlantedConfig(n_nodes=400, n_elites=10, beta=4.0, mean_out_degree=6.0, seed=6)
        g, truth, _ = generate_planted(cfg)
        pool = spatial_uniform_sample(truth, np.arange(400), 60, grid_bins=6, seed=2)
        scored = np.random.default_rng(0).random(400) < 0.5 if with_scored else None
        grid = [0.4, 0.05, 0.2, 0.05, 0.0, 0.1]
        got = assert_grid_matches_single_thresholds(
            g, truth, init_state(truth, pool, Direction.UP, 0.4), grid, scored, 2.0,
            candidate_test)
        # the smaller thresholds have fewer pivots, so their incidence is cut
        assert len({outcome.pivots for outcome in got}) == len(set(grid))


def count_incidence_builds(monkeypatch):
    """Count ``incidence`` and ``linked`` calls made through ``features`` and ``method_b``."""
    calls = []
    for module in (cohprop.features, cohprop.method_b):
        for name in ("incidence", "linked"):
            if not hasattr(module, name):
                continue

            def counted(*args, _build=getattr(module, name), **kwargs):
                calls.append(args[0])
                return _build(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("candidate_test", CANDIDATE_TESTS)
def test_incidence_builds_do_not_grow_with_the_grid(monkeypatch, candidate_test):
    cfg = PlantedConfig(n_nodes=400, n_elites=10, beta=4.0, mean_out_degree=6.0, seed=6)
    g, truth, _ = generate_planted(cfg)
    pool = spatial_uniform_sample(truth, np.arange(400), 60, grid_bins=6, seed=2)
    calls = count_incidence_builds(monkeypatch)
    for grid in ([0.2], [0.4, 0.05, 0.2, 0.05, 0.0, 1.0, 0.7, 0.3]):
        calls.clear()
        kfold_eval_method_b(g, truth, pool, 8, Direction.UP, grid, seed=9,
                            candidate_test=candidate_test)
        assert len(calls) == 2 * 8  # per fold: the gate's M and the rule's C
        calls.clear()
        sweep_method_a(g, truth, pool, Direction.UP, grid)
        assert len(calls) == 1


class TestFirstStepErrors:
    """The protocols fail where, and as, the per-threshold step loop fails."""

    def case(self):
        g, truth = tiny_instance()
        return g, truth, [0, 1, 2, 3, 5, 6]

    @pytest.mark.parametrize("grid", [[-0.1], [0.5, float("nan")], [0.5, -1.0, 0.2]])
    def test_bad_threshold(self, grid):
        g, truth, pool = self.case()
        sweep = (g, truth, pool, Direction.UP, grid)
        with pytest.raises(ValueError, match="coherence threshold must be >= 0"):
            sweep_method_a(*sweep)
        assert raised(lambda: sweep_method_a(*sweep)) == raised(
            lambda: reference_sweep_rows(*sweep))
        kfold = (g, truth, pool, 3, Direction.UP, grid, 0)
        with pytest.raises(ValueError, match="coherence threshold must be >= 0"):
            kfold_eval_method_b(*kfold)
        assert raised(lambda: kfold_eval_method_b(*kfold)) == raised(
            lambda: reference_kfold_rows(*kfold))

    def test_unknown_candidate_test(self):
        g, truth, pool = self.case()
        args = (g, truth, pool, 3, Direction.UP, [0.5], 0)
        with pytest.raises(ValueError, match="candidate_test must be one of"):
            kfold_eval_method_b(*args, candidate_test="pivots")
        assert raised(lambda: kfold_eval_method_b(*args, candidate_test="pivots")) == raised(
            lambda: reference_kfold_rows(*args, candidate_test="pivots"))

    @pytest.mark.parametrize("grid", [[0.5, float("nan")], [0.5, -1.0], [-0.1]])
    def test_candidate_test_against_later_thresholds(self, grid):
        # the step loop checks the first threshold, then the candidate test,
        # then each later threshold
        g, truth, pool = self.case()
        args = (g, truth, pool, 3, Direction.UP, grid, 0)
        want = "coherence threshold must be >= 0" if grid[0] < 0 else "candidate_test must be one of"
        with pytest.raises(ValueError, match=want):
            kfold_eval_method_b(*args, candidate_test="pivots")
        assert raised(lambda: kfold_eval_method_b(*args, candidate_test="pivots")) == raised(
            lambda: reference_kfold_rows(*args, candidate_test="pivots"))

    @pytest.mark.parametrize("seed_truth", ["missing", "estimated"])
    @pytest.mark.parametrize("grid", [[-0.1], [0.5, float("nan")]])
    def test_seed_truth_before_every_option(self, seed_truth, grid):
        g, _ = tiny_instance()
        truth = store_from([[0.0], [0.05], [0.1]])
        if seed_truth == "estimated":
            truth.set_estimated(5, [0.12], 0)
        args = (g, truth, [0, 1, 2, 5], 2, Direction.UP, grid, 0)
        got = raised(lambda: kfold_eval_method_b(*args, candidate_test="pivots"))
        assert got == raised(lambda: reference_kfold_rows(*args, candidate_test="pivots"))
        if seed_truth == "missing":
            assert got == (KeyError, "'no features for node 5'")
        else:
            assert got[0] is ValueError
            assert got[1].startswith("coherence threshold" if grid[0] < 0 else "seed node 5")

    @staticmethod
    def protocol_calls(g, truth):
        """Each protocol from a seed holding node 5, beside the reference loop's run."""
        return [
            (lambda: sweep_method_a(g, truth, [0, 1, 5], Direction.UP, [0.5]),
             lambda: reference_sweep_rows(g, truth, [0, 1, 5], Direction.UP, [0.5])),
            (lambda: kfold_eval_method_b(g, truth, [0, 1, 2, 5], 2, Direction.UP, [0.5], 0),
             lambda: reference_kfold_rows(g, truth, [0, 1, 2, 5], 2, Direction.UP, [0.5], 0)),
        ]

    def test_estimated_seed_entry(self):
        g, _ = tiny_instance()
        truth = store_from([[0.0], [0.05], [0.1]])
        truth.set_estimated(5, [0.12], 0)
        for call, reference in self.protocol_calls(g, truth):
            with pytest.raises(ValueError,
                               match="seed node 5 carries an estimated feature, not a known one"):
                call()
            assert raised(call) == raised(reference)

    def test_pool_node_without_truth(self):
        g, _ = tiny_instance()
        truth = store_from([[0.0], [0.05], [0.1], [0.15]])
        for call, reference in self.protocol_calls(g, truth):
            with pytest.raises(KeyError, match="no features for node 5"):
                call()
            assert raised(call) == raised(reference)


class TestReportSerialization:
    def make_report(self):
        g, truth = tiny_instance()
        return kfold_eval_method_b(g, truth, [0, 1, 2, 3, 5, 6], 2, Direction.UP, [0.5, 1.0], seed=0)

    def test_csv_schema(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == len(report.rows) + 1
        aggregates = [r for r in rows[1:] if r[3] == "all"]
        assert aggregates

    def test_json_payload(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["metadata"]["protocol"] == "kfold-b"
        assert len(payload["rows"]) == len(report.rows)


class TestCorrelateWithExternal:
    def group_fixture(self, rng, n_groups=4, per_group=20):
        positions, groups = {}, {}
        offsets = np.linspace(-2, 2, n_groups)
        node = 0
        for gi, off in enumerate(offsets):
            for _ in range(per_group):
                positions[node] = np.array([off + rng.normal(0, 0.05), rng.normal()])
                groups[node] = f"g{gi}"
                node += 1
        return positions, groups, offsets

    def test_self_correlation_on_first_dimension(self, rng):
        positions, groups, offsets = self.group_fixture(rng)
        means = {}
        for node, grp in groups.items():
            means.setdefault(grp, []).append(positions[node][0])
        scores = {"axis": {g: float(np.mean(v)) for g, v in means.items()}}
        result = correlate_with_external(positions, groups, scores)
        assert result["axis"]["group_level"][0] == pytest.approx(1.0, abs=1e-9)
        assert result["axis"]["node_level"][0] > 0.95

    def test_permuted_scores_reported_not_asserted(self, rng):
        positions, groups, offsets = self.group_fixture(rng, n_groups=8)
        perm = rng.permutation(len(offsets))
        scores = {"noise": {f"g{i}": float(offsets[perm[i]]) for i in range(8)}}
        result = correlate_with_external(positions, groups, scores)
        assert np.isfinite(result["noise"]["group_level"]).all()

    def test_constant_scores_rejected(self, rng):
        positions, groups, _ = self.group_fixture(rng)
        with pytest.raises(ValueError):
            correlate_with_external(positions, groups, {"flat": {g: 1.0 for g in set(groups.values())}})

    def test_too_few_matched_groups_rejected(self, rng):
        positions, groups, _ = self.group_fixture(rng)
        with pytest.raises(ValueError):
            correlate_with_external(positions, groups, {"thin": {"g0": 0.0, "g1": 1.0}})

    def test_feature_store_positions_accepted(self, rng):
        store = FeatureStore(1)
        groups = {}
        for i in range(30):
            grp = i % 3
            store.set_known(i, [float(grp) + rng.normal(0, 0.01)])
            groups[i] = f"g{grp}"
        scores = {"c": {"g0": 0.0, "g1": 1.0, "g2": 2.0}}
        result = correlate_with_external(store, groups, scores)
        assert result["c"]["node_level"][0] > 0.99
