import numpy as np
import pytest
import scipy.sparse as sp

from cohprop.graph import DirectedGraph, Direction, incidence, load_edge_list
from cohprop.scaling import (
    BipartiteAdjacency,
    RankDeficiencyError,
    bipartite_from_graph,
    correspondence_analysis,
    filter_bipartite,
    seed_features_from_scaling,
)
from oracles import dense_ca_reference, random_graph


def adjacency(array, row_prefix="f", col_prefix="e"):
    array = np.asarray(array, dtype=np.int8)
    return BipartiteAdjacency(
        sp.csr_matrix(array),
        tuple(f"{row_prefix}{i}" for i in range(array.shape[0])),
        tuple(f"{col_prefix}{j}" for j in range(array.shape[1])),
    )


def random_binary(rng, rows, cols):
    while True:
        m = (rng.random((rows, cols)) < 0.45).astype(np.int8)
        if m.sum() == 0:
            continue
        filtered, _ = filter_bipartite(adjacency(m), min_degree=1)
        if filtered.shape[0] >= 4 and filtered.shape[1] >= 4:
            return filtered


class TestFilter:
    def test_thin_rows_removed(self):
        adj = adjacency([[1, 1, 0], [1, 1, 1], [1, 1, 1]])
        filtered, dedup = filter_bipartite(adj, min_degree=3)
        assert filtered.row_labels == ("f1",)
        assert dedup == {"f2": "f1"}

    def test_duplicate_rows_keep_first(self):
        adj = adjacency([[1, 1, 0], [1, 1, 0], [1, 0, 1]])
        filtered, dedup = filter_bipartite(adj, min_degree=2)
        assert filtered.row_labels == ("f0", "f2")
        assert dedup == {"f1": "f0"}

    def test_clean_matrix_unchanged(self):
        adj = adjacency([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        filtered, dedup = filter_bipartite(adj, min_degree=2)
        assert dedup == {}
        assert (filtered.matrix.toarray() == adj.matrix.toarray()).all()
        again, dedup2 = filter_bipartite(filtered, min_degree=2)
        assert dedup2 == {}
        assert (again.matrix.toarray() == filtered.matrix.toarray()).all()

    def test_emptied_columns_dropped(self):
        adj = adjacency([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        filtered, _ = filter_bipartite(adj, min_degree=2)
        assert filtered.col_labels == ("e0", "e1")

    def test_empty_result_rejected(self):
        adj = adjacency([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            filter_bipartite(adj, min_degree=2)


class TestCorrespondenceAnalysis:
    def test_identical_row_profiles_degenerate(self):
        adj = adjacency(np.ones((4, 3)))
        res = correspondence_analysis(adj, 2)
        assert res.total_inertia == 0.0
        assert not res.row_coords.any() and not res.col_coords.any()
        assert not res.inertia_fractions.any()

    def test_rank_deficiency_names_achieved_rank(self):
        adj = adjacency([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(RankDeficiencyError) as err:
            correspondence_analysis(adj, 2)
        assert err.value.achieved == 1
        assert "rank 1" in str(err.value)

    def test_matches_dense_reference_4x3(self):
        m = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
        res = correspondence_analysis(adjacency(m), 2)
        rows, cols, sigma = dense_ca_reference(m, 2)
        assert res.singular_values[:2] == pytest.approx(sigma[:2], abs=1e-12)
        for k in range(2):
            for got, want in ((res.row_coords, rows), (res.col_coords, cols)):
                r = np.corrcoef(got[:, k], want[:, k])[0, 1]
                assert abs(r) >= 1 - 1e-9
                sign = np.sign(r)
                assert got[:, k] == pytest.approx(sign * want[:, k], abs=1e-9)

    def test_two_block_communities_split_on_first_dimension(self):
        m = np.zeros((6, 4), dtype=np.int8)
        m[:3, :2] = [[1, 1], [1, 0], [0, 1]]
        m[3:, 2:] = [[1, 1], [1, 0], [0, 1]]
        res = correspondence_analysis(adjacency(m), 1)
        first = res.row_coords[:, 0]
        assert len(set(np.sign(first[:3]))) == 1
        assert len(set(np.sign(first[3:]))) == 1
        assert np.sign(first[0]) != np.sign(first[3])

    def test_masses_positive_and_normalized(self, rng):
        adj = random_binary(rng, 12, 6)
        P = adj.matrix.astype(float) / adj.matrix.sum()
        r = np.asarray(P.sum(axis=1)).ravel()
        c = np.asarray(P.sum(axis=0)).ravel()
        assert (r > 0).all() and (c > 0).all()
        assert r.sum() == pytest.approx(1.0, abs=1e-12)
        assert c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_sorted_and_inertia_sums_to_one(self, rng):
        for _ in range(5):
            adj = random_binary(rng, 14, 7)
            res = correspondence_analysis(adj, 2)
            assert np.all(np.diff(res.singular_values) <= 1e-12)
            assert res.inertia_fractions.sum() == pytest.approx(1.0, abs=1e-9)

    def test_sparse_path_matches_dense_reference(self, rng):
        # tall matrix forces the iterative solver; compare against the
        # textbook dense decomposition up to per-dimension sign
        m = (rng.random((2300, 12)) < 0.3).astype(np.int8)
        m[m.sum(axis=1) == 0, 0] = 1
        adj = adjacency(m)
        res = correspondence_analysis(adj, 2, seed=3)
        rows, cols, sigma = dense_ca_reference(m, 2)
        assert res.singular_values[:2] == pytest.approx(sigma[:2], abs=1e-8)
        for k in range(2):
            r = np.corrcoef(res.row_coords[:, k], rows[:, k])[0, 1]
            assert abs(r) >= 1 - 1e-9
        assert res.inertia_fractions[:2] == pytest.approx(
            sigma[:2] ** 2 / (sigma**2).sum(), abs=1e-8
        )

    def test_row_permutation_equivariance(self, rng):
        adj = random_binary(rng, 10, 6)
        perm = rng.permutation(adj.shape[0])
        permuted = BipartiteAdjacency(
            sp.csr_matrix(adj.matrix.toarray()[perm]),
            tuple(adj.row_labels[i] for i in perm),
            adj.col_labels,
        )
        res = correspondence_analysis(adj, 2)
        res_p = correspondence_analysis(permuted, 2)
        assert res_p.row_coords == pytest.approx(res.row_coords[perm], abs=1e-9)
        assert res_p.col_coords == pytest.approx(res.col_coords, abs=1e-9)


class TestSeedFeatures:
    def graph_and_result(self):
        g = load_edge_list(b"u1,m1\nu1,m2\nu2,m1\nu2,m2\nu3,m2\nu3,m3\nu4,m1\nu4,m3\n")
        adj = bipartite_from_graph(g, [g.id_of(m) for m in ("m1", "m2", "m3")])
        filtered, dedup = filter_bipartite(adj, min_degree=2)
        return g, correspondence_analysis(filtered, 2), dedup

    def test_duplicates_inherit_coordinates(self):
        g, result, dedup = self.graph_and_result()
        assert dedup == {"u2": "u1"}
        store = seed_features_from_scaling(result, dedup, g)
        assert store.get(g.id_of("u2")) == pytest.approx(store.get(g.id_of("u1")))

    def test_dimension_follows_request(self):
        g, result, dedup = self.graph_and_result()
        store = seed_features_from_scaling(result, dedup, g)
        assert store.dim == 2
        assert all(store.is_known(v) for v in store.nodes().tolist())

    def test_without_dedup_map_store_covers_rows(self):
        g, result, _ = self.graph_and_result()
        store = seed_features_from_scaling(result, None, g)
        assert len(store) == len(result.row_labels)


class TestBipartiteFromGraph:
    def test_rows_are_elite_followers(self):
        g = load_edge_list(b"a,m1\nb,m1\nb,m2\nc,x\n")
        adj = bipartite_from_graph(g, [g.id_of("m1"), g.id_of("m2")])
        assert adj.row_labels == ("a", "b")
        assert adj.col_labels == ("m1", "m2")
        assert adj.matrix.toarray().tolist() == [[1, 0], [1, 1]]

    def test_matches_set_enumeration(self, rng):
        for _ in range(10):
            n = int(rng.integers(8, 50))
            _, edges = random_graph(rng, n, 3 * n)
            elites = sorted(rng.choice(n, size=int(rng.integers(2, 6)), replace=False).tolist())
            # an elite following an elite, and an elite (node n) that no one follows
            edges = set(edges) | {(elites[0], elites[1])}
            elites.append(n)
            g = DirectedGraph.from_edges(sorted(edges), node_count=n + 1)
            adj = bipartite_from_graph(g, elites)

            followers = sorted({u for u, v in edges if v in elites})
            assert adj.row_labels == tuple(str(u) for u in followers)
            assert adj.col_labels == tuple(str(e) for e in elites)
            want = [[int((u, e) in edges) for e in elites] for u in followers]
            assert adj.matrix.toarray().tolist() == want
            assert adj.matrix.dtype == np.int8
            assert not adj.matrix[:, -1].nnz

    def test_one_gather_gives_the_neighbourhood_and_incidence_matrix(self, rng, monkeypatch):
        # linked's one gather gives the followers and their elite rows that a
        # neighbourhood gather and then an incidence gather give, bit for bit
        gathers = []
        gather = DirectedGraph._gather

        def counted(self, nodes, direction):
            gathers.append(nodes.size)
            return gather(self, nodes, direction)

        for trial in range(12):
            n = int(rng.integers(8, 50))
            _, edges = random_graph(rng, n, 3 * n)
            # every node an elite (a tie, so pull), or a few (push)
            elites = list(range(n)) if trial % 4 == 0 else sorted(
                rng.choice(n, size=int(rng.integers(2, 6)), replace=False).tolist())
            # an elite following an elite; an elite (node n) that no one
            # follows, and two isolated nodes that are not elites
            edges = sorted(set(edges) | {(elites[0], elites[1])})
            elites.append(n)
            g = DirectedGraph.from_edges(edges, node_count=n + 3,
                                         labels=[f"v{i}" for i in range(n + 3)])
            followers = g.neighborhood(elites, Direction.DOWN)
            indices, indptr = incidence(g, followers, np.array(elites), Direction.UP)
            want = sp.csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr),
                                 shape=(followers.size, len(elites)))

            gathers.clear()
            with monkeypatch.context() as patch:
                patch.setattr(DirectedGraph, "_gather", counted)
                adj = bipartite_from_graph(g, elites)
            assert len(gathers) == 1, gathers
            got = adj.matrix
            assert got.shape == want.shape
            for a, b in ((got.data, want.data), (got.indices, want.indices),
                         (got.indptr, want.indptr)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert adj.row_labels == tuple(g.label_of(int(f)) for f in followers)
            assert adj.col_labels == tuple(f"v{e}" for e in elites)
