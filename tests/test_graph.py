import io

import numpy as np
import pytest

from cohprop.graph import (
    DirectedGraph,
    Direction,
    EdgeListParseError,
    UnknownNodeError,
    grouped_restricted_neighbors,
    incidence,
    load_edge_list,
    node_mask,
)
from oracles import naive_neighborhood, naive_neighbors, random_graph


def ids(g, labels):
    return {g.id_of(l) for l in labels}


class TestDirection:
    def test_opposite_is_involutive(self):
        for d in Direction:
            assert d.opposite.opposite is d

    def test_from_string(self):
        assert Direction.from_string("UP") is Direction.UP
        with pytest.raises(ValueError):
            Direction.from_string("sideways")


class TestLoadEdgeList:
    def test_two_edges(self):
        g = load_edge_list(b"a,b\nc,b\n")
        assert g.node_count == 3
        assert g.edge_count == 2
        assert ids(g, "b") == set(g.neighbors(g.id_of("a"), Direction.UP))

    def test_duplicates_collapse(self):
        g = load_edge_list(b"a,b\na,b\n")
        assert (g.node_count, g.edge_count) == (2, 1)
        assert g.duplicates_collapsed == 1

    def test_self_loop_dropped_with_count(self):
        g = load_edge_list(b"a,a\nb,a\n")
        assert (g.node_count, g.edge_count) == (2, 1)
        assert g.self_loops_dropped == 1

    def test_malformed_record_reports_line(self):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(b"a,b\noops\n")
        assert err.value.line == 2

    def test_empty_label_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list(b"a,\n")

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            load_edge_list(b"# just a comment\n\n")

    def test_comments_blanks_and_custom_sep(self):
        g = load_edge_list(io.StringIO("# header\nx;y\n\nz;y\n"), sep=";")
        assert g.edge_count == 2
        assert ids(g, {"x", "z"}) == set(g.neighbors(g.id_of("y"), Direction.DOWN))

    def test_label_map_export(self, tmp_path):
        g = load_edge_list(b"a,b\nc,b\n")
        path = tmp_path / "labels.csv"
        g.write_label_map(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,node_id"
        assert lines[1:] == ["a,0", "b,1", "c,2"]


class TestNeighbors:
    def test_up_is_followees(self):
        g = load_edge_list(b"a,b\nc,b\n")
        assert set(g.neighbors(g.id_of("a"), Direction.UP)) == ids(g, "b")

    def test_down_is_followers(self):
        g = load_edge_list(b"a,b\nc,b\n")
        assert set(g.neighbors(g.id_of("b"), Direction.DOWN)) == ids(g, "ac")

    def test_no_outgoing_edges(self):
        g = load_edge_list(b"a,b\n")
        assert g.neighbors(g.id_of("b"), Direction.UP).size == 0

    def test_unknown_node(self):
        g = load_edge_list(b"a,b\n")
        with pytest.raises(UnknownNodeError):
            g.neighbors(17, Direction.UP)
        with pytest.raises(UnknownNodeError):
            g.id_of("nope")


class TestNeighborhood:
    def test_union_of_followees(self):
        g = load_edge_list(b"a,b\nc,b\n")
        assert set(g.neighborhood(ids(g, "ac"), Direction.UP)) == ids(g, "b")

    def test_empty_set(self):
        g = load_edge_list(b"a,b\n")
        assert g.neighborhood([], Direction.DOWN).size == 0

    def test_may_overlap_input(self):
        g = load_edge_list(b"a,b\nb,a\n")
        assert set(g.neighborhood(ids(g, "ab"), Direction.UP)) == ids(g, "ab")


class TestInvariants:
    def test_edge_symmetry_random_graphs(self, rng):
        for _ in range(5):
            n = int(rng.integers(10, 60))
            g, edges = random_graph(rng, n, min(4 * n, 10_000))
            for u, v in edges:
                assert v in g.neighbors(u, Direction.UP)
                assert u in g.neighbors(v, Direction.DOWN)
            assert g.edge_count == len(edges)

    def test_neighborhood_matches_naive_union(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 40))
            g, edges = random_graph(rng, n, 3 * n)
            nodes = rng.choice(n, size=min(n, 7), replace=False)
            for d in Direction:
                assert set(g.neighborhood(nodes, d)) == naive_neighborhood(edges, set(nodes.tolist()), d)

    def test_grouped_restricted_matches_naive(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 40))
            g, edges = random_graph(rng, n, 3 * n)
            nodes = rng.integers(0, n, size=int(rng.integers(0, 12)))  # repeats allowed
            allowed = set(rng.choice(n, size=n // 2, replace=False).tolist())
            cols = np.array(sorted(allowed), dtype=np.int64)
            position = {int(c): j for j, c in enumerate(cols)}
            for d in Direction:
                flat, bounds = grouped_restricted_neighbors(g, nodes, node_mask(list(allowed), n), d)
                M = incidence(g, nodes, cols, d)
                assert bounds.size == nodes.size + 1
                assert M.shape == (nodes.size, cols.size)
                for k, v in enumerate(nodes.tolist()):
                    want = sorted(naive_neighbors(edges, v, d) & allowed)
                    assert flat[bounds[k]:bounds[k + 1]].tolist() == want
                    assert M.indices[M.indptr[k]:M.indptr[k + 1]].tolist() == [
                        position[u] for u in want
                    ]
                assert M.data.all()

    def test_gathers_reject_unknown_nodes(self):
        g = load_edge_list(b"a,b\n")
        allowed = np.ones(2, dtype=bool)
        for bad in ([0, 2], [-1]):
            with pytest.raises(UnknownNodeError):
                g.neighborhood(bad, Direction.UP)
            with pytest.raises(UnknownNodeError):
                grouped_restricted_neighbors(g, np.array(bad), allowed, Direction.DOWN)

    def test_neighbor_lists_sorted(self, rng):
        g, _ = random_graph(rng, 50, 400)
        for v in range(50):
            for d in Direction:
                nb = g.neighbors(v, d)
                assert np.all(np.diff(nb) > 0)

    def test_adjacency_is_read_only(self):
        g = load_edge_list(b"a,b\n")
        nb = g.neighbors(0, Direction.UP)
        with pytest.raises(ValueError):
            nb[0] = 5

    def test_repeated_queries_identical(self, rng):
        g, _ = random_graph(rng, 30, 120)
        first = [g.neighbors(v, Direction.DOWN).tolist() for v in range(30)]
        second = [g.neighbors(v, Direction.DOWN).tolist() for v in range(30)]
        assert first == second


class TestFromEdges:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_edges([(1, 2, 3)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_edges([(0, 5)], node_count=3)

    def test_isolated_nodes_allowed(self):
        g = DirectedGraph.from_edges([], node_count=4)
        assert g.node_count == 4
        assert g.edge_count == 0

    def test_has_edge(self):
        g = DirectedGraph.from_edges([(0, 1), (2, 1)], node_count=3)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
