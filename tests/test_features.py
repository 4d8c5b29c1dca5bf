import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohprop import features
from cohprop.features import (
    KNOWN,
    FeatureStore,
    centroid,
    coherent_neighborhood,
    estimation_error,
    incoherence,
    mean_error,
    read_features_csv,
    write_features_csv,
    write_labeled_features_csv,
)
from cohprop.graph import DirectedGraph, Direction, UnknownNodeError, load_edge_list
from conftest import store_from
from oracles import (
    naive_centroid,
    naive_coherent_neighborhood,
    naive_error,
    naive_incoherence,
    random_graph,
    reference_write_features_csv,
    reference_write_labeled_features_csv,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite, min_size=1, max_size=4)


class TestFeatureStore:
    def test_write_once(self):
        store = FeatureStore(2)
        store.set_known(3, [1.0, 2.0])
        with pytest.raises(ValueError):
            store.set_known(3, [0.0, 0.0])
        with pytest.raises(ValueError):
            store.set_estimated(3, [0.0, 0.0], step=1)

    def test_provenance_roundtrip(self):
        store = FeatureStore(1)
        store.set_known(0, [0.5])
        store.set_estimated(1, [0.25], step=4)
        assert store.is_known(0) and not store.is_known(1)
        assert store.provenance_label(0) == "known"
        assert store.provenance_label(1) == "estimated:4"

    def test_dimension_and_finiteness_enforced(self):
        store = FeatureStore(2)
        with pytest.raises(ValueError):
            store.set_known(0, [1.0])
        with pytest.raises(ValueError):
            store.set_known(0, [1.0, float("nan")])

    def test_batch_is_all_or_nothing(self):
        store = FeatureStore(2)
        store.set_known(3, [1.0, 2.0])
        for nodes, values in [
            ([1, 3], [[0.0, 0.0], [0.0, 0.0]]),  # 3 is taken
            ([1, 1], [[0.0, 0.0], [0.0, 0.0]]),  # 1 twice
            ([1, 2], [[0.0, 0.0], [0.0, float("inf")]]),
            ([1, 2], [[0.0, 0.0]]),
        ]:
            with pytest.raises(ValueError):
                store.set_estimated_many(nodes, values, step=0)
            assert store.nodes().tolist() == [3]

    def test_batch_rows_are_read_only_copies(self):
        store = FeatureStore(2)
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        store.set_estimated_many(np.array([5, 2]), values, step=1)
        values[:] = 0.0
        assert store.get(5).tolist() == [1.0, 2.0] and store.get(2).tolist() == [3.0, 4.0]
        assert store.provenance_label(2) == "estimated:1"
        with pytest.raises(ValueError):
            store.get(5)[0] = 9.0

    def test_subset_requires_presence(self):
        store = store_from([[0.0], [1.0]])
        sub = store.subset([1])
        assert len(sub) == 1 and 1 in sub
        with pytest.raises(KeyError):
            store.subset([5])


# one write: (kind, batched, rng seed, batch size, fault, step); a fault makes
# the write invalid when it applies (a repeat of a node not yet written needs
# two rows, a taken node a nonempty store)
writes = st.tuples(
    st.sampled_from(["known", "estimated"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 700),
    st.sampled_from([None, None, "repeat", "taken", "negative", "nan", "inf"]),
    st.integers(0, 4),
)


@given(st.lists(writes, max_size=20))
def test_store_matches_dict_model(ops):
    """Random single and batched writes against a dict of (vector, step).

    Nodes come from 0..3999, so the table and the index pass several
    doublings; a write that fails must fail as a whole and leave every read
    unchanged. Probes include negative ids and ids past the largest one
    written, which must read as absent, never as another node's row.
    """
    dim, n_ids = 3, 4000
    store, model = FeatureStore(dim), {}
    for kind, batched, seed, size, fault, step in ops:
        rng = np.random.default_rng(seed)
        free = np.setdiff1d(np.arange(n_ids), list(model))
        size = min(size if batched else 1, free.size)
        if size == 0:
            continue
        nodes = rng.choice(free, size=size, replace=False)
        values = rng.normal(size=(size, dim))
        if fault == "repeat" and size > 1:
            nodes[-1] = nodes[0]
        elif fault == "taken" and model:
            nodes[rng.integers(size)] = rng.choice(list(model))
        elif fault == "negative":
            nodes[rng.integers(size)] = -rng.choice([1, 2, n_ids, 2**40])
        elif fault in ("nan", "inf"):
            values[rng.integers(size), rng.integers(dim)] = float(fault)
        valid = (len(set(nodes.tolist())) == size and not any(v in model for v in nodes.tolist())
                 and nodes.min() >= 0 and np.isfinite(values).all())
        step = KNOWN if kind == "known" else step
        try:
            if batched and kind == "known":
                store.set_known_many(nodes, values)
            elif batched:
                store.set_estimated_many(nodes, values, step)
            elif kind == "known":
                store.set_known(nodes[0], values[0])
            else:
                store.set_estimated(nodes[0], values[0], step)
        except ValueError:
            assert not valid
        else:
            assert valid
            model.update((v, (vec, step)) for v, vec in zip(nodes.tolist(), values.tolist()))

        present = sorted(model)
        assert len(store) == len(model)
        assert store.nodes().tolist() == present
        rows = store.features_of(present).reshape(-1, dim)
        assert rows.tolist() == [model[v][0] for v in present]
        assert store.steps_of(present).tolist() == [model[v][1] for v in present]
        top = max(model, default=-1)
        probe = rng.choice(n_ids, size=20).tolist() + nodes.tolist() + [
            -1, -2, -n_ids, -2**40, top + 1, top + 2, 2 * top + 2, n_ids, 2**40]
        for v in probe:
            assert (v in store) == (v in model)
            if v not in model:
                for read, arg in ((store.get, v), (store.provenance, v), (store.features_of, [v]),
                                  (store.steps_of, [v]), (store.features_of, present + [v])):
                    with pytest.raises(KeyError):
                        read(arg)
                continue
            row = store.get(v)
            assert row.tolist() == model[v][0] and store.provenance(v) == model[v][1]
            with pytest.raises(ValueError):
                row[0] = 0.0
        with pytest.raises(KeyError):
            store.subset(probe)
        sub = store.subset([v for v in probe if v in model])
        kept = sorted({v for v in probe if v in model})
        assert sub.nodes().tolist() == kept and len(sub) == len(kept)
        assert sub.features_of(kept).reshape(-1, dim).tolist() == [model[v][0] for v in kept]
        assert sub.steps_of(kept).tolist() == [model[v][1] for v in kept]


class TestEstimationError:
    def test_identity_is_zero(self):
        assert estimation_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_euclidean(self):
        assert estimation_error([1, 1], [0, 0], p=2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_manhattan(self):
        assert estimation_error([1, 1], [0, 0], p=1) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimation_error([1.0], [1.0, 2.0])

    def test_norm_order_validated(self):
        for bad in (0.5, -1, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                estimation_error([1.0], [0.0], p=bad)

    @given(st.lists(finite, min_size=2, max_size=4), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_matches_naive(self, vec, p):
        mid = len(vec) // 2
        est, truth = vec[:mid] or [0.0], vec[mid:][: len(vec[:mid] or [0.0])]
        if len(est) != len(truth):
            truth = (truth + [0.0] * len(est))[: len(est)]
        got = estimation_error(est, truth, p)
        assert got == pytest.approx(naive_error(est, truth, p), rel=1e-12, abs=1e-12)


class TestMeanError:
    def test_exact_estimates(self):
        truth = store_from([[1.0], [2.0]])
        assert mean_error([0, 1], truth, truth) == 0.0

    def test_arithmetic_mean(self):
        est = store_from([[0.0], [2.0]])
        truth = store_from([[0.0], [0.0]])
        assert mean_error([0, 1], est, truth) == pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        est = store_from(rng.normal(size=(10, 3)))
        truth = store_from(rng.normal(size=(10, 3)))
        expected = sum(
            naive_error(est.get(v), truth.get(v), 2.0) for v in range(10)
        ) / 10
        assert mean_error(range(10), est, truth) == pytest.approx(expected, abs=1e-12)

    def test_empty_set_rejected(self):
        store = store_from([[0.0]])
        with pytest.raises(ValueError):
            mean_error([], store, store)


class TestCentroid:
    def test_midpoint(self):
        store = store_from([[0.0, 0.0], [2.0, 0.0]])
        assert centroid([0, 1], store) == pytest.approx([1.0, 0.0])

    def test_singleton(self):
        store = store_from([[3.0, 4.0]])
        assert centroid([0], store) == pytest.approx([3.0, 4.0])

    def test_three_points(self):
        store = store_from([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert centroid([0, 1, 2], store) == pytest.approx([1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            centroid([], store_from([[1.0]]))

    def test_identical_vectors_exact(self):
        # a plain mean gives 0.10000000000000002
        assert centroid([0, 1, 2], store_from([[0.1]] * 3)).tolist() == [0.1]

    @given(st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(finite, min_size=d, max_size=d), min_size=1, max_size=5)))
    def test_matches_oracle_bit_for_bit(self, vecs):
        # the same formula as method A's estimates and the gate
        assert centroid(range(len(vecs)), store_from(vecs)).tolist() == naive_centroid(vecs)


class TestIncoherence:
    def test_singleton_is_zero(self):
        assert incoherence([0], store_from([[5.0, -3.0]])) == 0.0

    def test_two_points(self):
        store = store_from([[0.0, 0.0], [2.0, 0.0]])
        assert incoherence([0, 1], store, p=2) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_points(self):
        store = store_from([[1.5], [1.5], [1.5]])
        assert incoherence([0, 1, 2], store) == 0.0

    @pytest.mark.parametrize("vec,k", [
        ([0.1], 3),
        ([541685.6286918868, 0.0], 6),
        ([699051.097, 0.0], 3),
    ])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_identical_members_exactly_zero(self, vec, k, p):
        assert incoherence(range(k), store_from([vec] * k), p=p) == 0.0

    def test_random_identical_groups_exactly_zero(self, rng):
        for _ in range(2000):
            k = int(rng.integers(2, 9))
            vec = rng.normal(size=int(rng.integers(1, 4))) * 10.0 ** rng.integers(-3, 7)
            assert incoherence(range(k), store_from([vec] * k)) == 0.0

    def test_matches_naive(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 9))
            vecs = rng.normal(size=(k, 2))
            store = store_from(vecs)
            for p in (1.0, 2.0, 3.0):
                got = incoherence(range(k), store, p=p)
                assert got == pytest.approx(naive_incoherence(vecs.tolist(), p), abs=1e-12)

    def test_oracle_identical_members_exactly_zero(self, rng):
        for dim in (1, 2, 16):
            vec = rng.normal(size=dim).tolist()
            assert naive_incoherence([vec] * 3, 2.0) == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.sampled_from([1, 2, 16]),
           st.sampled_from([1.0, 2.0, 3.0]), st.integers(1, 5))
    def test_blocked_groups_match_one_block(self, seed, n_groups, dim, p, block):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(8, dim))
        indptr = np.concatenate(([0], np.cumsum(rng.integers(1, 5, size=n_groups))))
        indices = rng.integers(0, 8, size=int(indptr[-1]))
        whole = features._group_stats(table, indices, indptr, p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "_BLOCK_MEMBERS", block)
            blocked = features._group_stats(table, indices, indptr, p)
        for a, b in zip(whole, blocked):
            np.testing.assert_array_equal(a, b)
        assert whole[0].shape == (n_groups,) and whole[1].shape == (n_groups, dim)

    @given(st.lists(st.lists(finite, min_size=2, max_size=2), min_size=1, max_size=6), finite)
    def test_translation_invariant(self, vecs, shift):
        store = store_from(vecs)
        shifted = store_from([[x + shift for x in v] for v in vecs])
        base = incoherence(range(len(vecs)), store)
        moved = incoherence(range(len(vecs)), shifted)
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)

    @given(
        st.lists(st.lists(st.floats(-100, 100), min_size=2, max_size=2), min_size=1, max_size=6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scales_linearly(self, vecs, lam):
        store = store_from(vecs)
        scaled = store_from([[lam * x for x in v] for v in vecs])
        base = incoherence(range(len(vecs)), store)
        assert incoherence(range(len(vecs)), scaled) == pytest.approx(lam * base, rel=1e-9, abs=1e-12)


def grid_example():
    # five nodes: 0..2 featured, 3..4 are their followees
    g = DirectedGraph.from_edges([(0, 3), (1, 3), (0, 4), (2, 4)], node_count=5)
    store = store_from([[0.0], [0.1], [2.0]])
    return g, store


class TestCoherentNeighborhood:
    def test_threshold_splits_neighbors(self):
        g, store = grid_example()
        got = coherent_neighborhood(g, store, [0, 1, 2], Direction.UP, 0.1)
        assert set(got) == {3}

    def test_huge_threshold_keeps_all(self):
        g, store = grid_example()
        got = coherent_neighborhood(g, store, [0, 1, 2], Direction.UP, math.inf)
        assert set(got) == set(g.neighborhood([0, 1, 2], Direction.UP))

    def test_zero_threshold_identical_features(self):
        g = DirectedGraph.from_edges([(0, 2), (1, 2)], node_count=3)
        store = store_from([[0.7], [0.7]])
        got = coherent_neighborhood(g, store, [0, 1], Direction.UP, 0.0)
        assert set(got) == {2}

    def test_missing_feature_rejected(self):
        g, store = grid_example()
        with pytest.raises(KeyError):
            coherent_neighborhood(g, store, [0, 1, 4], Direction.UP, 0.5)

    def test_negative_threshold_rejected(self):
        g, store = grid_example()
        with pytest.raises(ValueError):
            coherent_neighborhood(g, store, [0, 1], Direction.UP, -0.1)

    def _random_instance(self, rng):
        n = int(rng.integers(10, 60))
        g, edges = random_graph(rng, n, 4 * n)
        feats = rng.normal(size=(n, 2))
        store = store_from(feats)
        size = int(rng.integers(2, max(3, n // 2)))
        nodes = rng.choice(n, size=size, replace=False)
        return g, edges, feats, store, set(nodes.tolist())

    def test_matches_naive_oracle(self, rng):
        for trial in range(25):
            g, edges, feats, store, nodes = self._random_instance(rng)
            eps = float(rng.uniform(0, 2.5))
            p = [1.0, 2.0, 3.0][trial % 3]
            d = Direction.UP if rng.integers(2) else Direction.DOWN
            got = set(coherent_neighborhood(g, store, nodes, d, eps, p=p))
            want = naive_coherent_neighborhood(
                edges, {i: feats[i] for i in range(len(feats))}, nodes, d, eps, p
            )
            assert got == want

    def test_monotone_in_epsilon_and_bounded(self, rng):
        for _ in range(10):
            g, edges, feats, store, nodes = self._random_instance(rng)
            full = set(g.neighborhood(sorted(nodes), Direction.UP))
            previous = set()
            for eps in np.linspace(0.0, 3.0, 7):
                current = set(coherent_neighborhood(g, store, nodes, Direction.UP, eps))
                assert previous <= current <= full
                previous = current


class TestFeaturesCsv:
    def test_roundtrip_with_provenance(self, tmp_path):
        g = load_edge_list(b"a,b\nb,c\n")
        store = FeatureStore(2)
        store.set_known(g.id_of("a"), [0.25, -1.5])
        store.set_estimated(g.id_of("b"), [1 / 3, 2e-7], step=0)
        path = tmp_path / "features.csv"
        write_features_csv(path, store, g, include_provenance=True)
        back = read_features_csv(path, g)
        for node in (g.id_of("a"), g.id_of("b")):
            assert back.get(node) == pytest.approx(store.get(node), abs=0)
            assert back.provenance(node) == store.provenance(node)

    def test_rows_in_node_order_with_repr_values(self, tmp_path):
        g = load_edge_list(b"a,b\nb,c\n")
        store = FeatureStore(2)
        store.set_estimated(g.id_of("c"), [0.1 + 0.2, -0.0], step=3)
        store.set_known(g.id_of("a"), [1e-07, 2.0])
        path = tmp_path / "features.csv"
        write_features_csv(path, store, g, include_provenance=True)
        assert path.read_bytes() == (
            b"node_label,f1,f2,provenance\r\n"
            b"a,1e-07,2.0,known\r\n"
            b"c,0.30000000000000004,-0.0,estimated:3\r\n"
        )
        write_features_csv(path, store, g)
        assert path.read_text().splitlines()[1:] == ["a,1e-07,2.0", "c,0.30000000000000004,-0.0"]

    def test_node_outside_graph_rejected_before_writing(self, tmp_path):
        g = load_edge_list(b"a,b\n")
        store = FeatureStore(1)
        store.set_known(0, [1.0])
        store.set_known(2, [2.0])
        path = tmp_path / "features.csv"
        with pytest.raises(UnknownNodeError):
            write_features_csv(path, store, g)
        assert not path.exists()

    def test_plain_rows_load_as_known(self, tmp_path):
        g = load_edge_list(b"a,b\n")
        path = tmp_path / "seed.csv"
        path.write_text("node_label,f1\na,0.5\n")
        store = read_features_csv(path, g)
        assert store.is_known(g.id_of("a"))

    def test_header_only_loads_empty(self, tmp_path):
        path = tmp_path / "seed.csv"
        path.write_text("node_label,f1,f2,provenance\n")
        store = read_features_csv(path, load_edge_list(b"a,b\n"))
        assert len(store) == 0 and store.dim == 2

    @pytest.mark.parametrize("body", ["a,0.5,estimated:-1\n", "a,0.5,estimated:-2\n",
                                      "a,0.5,pending\n", "a,0.5,known\na,0.5,estimated:0\n"])
    def test_bad_provenance_or_repeated_label_rejected(self, tmp_path, body):
        path = tmp_path / "seed.csv"
        path.write_text("node_label,f1,provenance\n" + body)
        with pytest.raises(ValueError):
            read_features_csv(path, load_edge_list(b"a,b\n"))

    def test_unknown_label_rejected(self, tmp_path):
        g = load_edge_list(b"a,b\n")
        path = tmp_path / "seed.csv"
        path.write_text("node_label,f1\nzz,0.5\n")
        with pytest.raises(KeyError):
            read_features_csv(path, g)

    def test_row_error_names_the_line_the_row_began_on(self, tmp_path):
        # the quoted label spans lines 2 and 3, so the short row is on line 4
        g = DirectedGraph.from_edges([(0, 1)], labels=["x\ny", "b"])
        path = tmp_path / "bad.csv"
        path.write_text('node_label,f1\n"x\ny",0.5\nb,0.5,7\n')
        with pytest.raises(ValueError, match="bad.csv:4: expected 2 fields, got 3"):
            read_features_csv(path, g)

    @pytest.mark.parametrize("before, line", [
        ("", 2), ("a,0.5\n\n", 4), ('"x\ny",0.5\nb,0.5\n', 5)])
    def test_csv_error_names_the_line_the_row_began_on(self, tmp_path, before, line):
        # the open quote runs on past csv's 128 KiB field limit, far below its
        # first line; rows before it may be blank or span two lines
        g = DirectedGraph.from_edges([(0, 1)], labels=["a", "b", "x\ny"], node_count=3)
        path = tmp_path / "bad.csv"
        path.write_text("node_label,f1\n" + before + '"c,0.5\n' + "u,0.5\n" * 30_000)
        with pytest.raises(ValueError, match=f"bad.csv:{line}: field larger than field limit"):
            read_features_csv(path, g)


@st.composite
def labeled_stores(draw):
    """A graph with awkward labels and a store over some of its nodes, possibly none."""
    # every character csv quotes for, others it must leave alone, and edge spaces
    label = st.tuples(st.sampled_from(["", " ", "  "]),
                      st.text(alphabet='ab,"\u00e9\u4e2d ;\r\n\x00\t', min_size=1, max_size=4),
                      st.sampled_from(["", " ", "\t"])).map("".join)
    labels = draw(st.lists(label, min_size=1, max_size=9, unique=True))
    dim = draw(st.integers(1, 4))
    g = DirectedGraph.from_edges(np.empty((0, 2), dtype=np.int64), len(labels), labels=labels)
    store = FeatureStore(dim)
    nodes = draw(st.lists(st.integers(0, len(labels) - 1), unique=True))
    for v in nodes:
        vec = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=dim, max_size=dim))
        step = draw(st.integers(-1, 3))
        if step == KNOWN:
            store.set_known(v, vec)
        else:
            store.set_estimated(v, vec, step)
    return g, store


class TestCsvWritersMatchTheRowLoop:
    @given(labeled_stores(), st.booleans(), st.sampled_from([1, 2, 3, 5, features._BLOCK_ROWS]))
    def test_same_bytes(self, graph_store, include_provenance, block_rows):
        g, store = graph_store
        nodes = store.nodes()
        rows = list(zip([g.labels[v] for v in nodes.tolist()], store.features_of(nodes)))
        with tempfile.TemporaryDirectory() as tmp:
            want, got = Path(tmp) / "want.csv", Path(tmp) / "got.csv"
            reference_write_features_csv(want, store, g, include_provenance)
            with mock.patch.object(features, "_BLOCK_ROWS", block_rows):
                write_features_csv(got, store, g, include_provenance)
            assert got.read_bytes() == want.read_bytes()
            reference_write_labeled_features_csv(want, rows, store.dim)
            with mock.patch.object(features, "_BLOCK_ROWS", block_rows):
                write_labeled_features_csv(got, rows, store.dim)
            assert got.read_bytes() == want.read_bytes()
