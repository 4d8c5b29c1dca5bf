import csv
import io
import os
import re
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohprop import graph as graph_module
from cohprop.graph import (
    DirectedGraph,
    Direction,
    EdgeListParseError,
    UnknownNodeError,
    as_node_array,
    grouped_restricted_neighbors,
    incidence,
    load_edge_list,
    node_mask,
)
from oracles import (
    naive_neighborhood,
    naive_neighbors,
    random_graph,
    reference_load_edge_list,
    reference_write_edge_list,
)


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

    @pytest.mark.parametrize("read", [
        lambda g, d: g.neighbors(0, d),
        lambda g, d: g.degree(0, d),
        lambda g, d: g.neighborhood([0], d),
        lambda g, d: incidence(g, np.array([0, 1]), np.array([0, 1]), d),
        lambda g, d: graph_module.linked(g, np.ones(3, dtype=bool), np.array([0, 1]), d),
        lambda g, d: grouped_restricted_neighbors(g, np.array([0, 1]), np.ones(3, dtype=bool), d),
    ], ids=["neighbors", "degree", "neighborhood", "incidence", "linked",
            "grouped_restricted_neighbors"])
    @pytest.mark.parametrize("bad", ["up", "down", None])
    def test_only_a_direction_picks_an_index(self, read, bad):
        # a string must not read the reverse index in silence, as if
        # neighbors(0, "up") meant node 0's followers
        g = DirectedGraph.from_edges([(0, 1), (2, 0)], node_count=3)
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            read(g, bad)


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
        assert str(err.value) == "line 2: expected 2 fields separated by ',', got 1"

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

    def test_multi_character_separator_after_its_own_prefix(self):
        # "b:" then "::" reads "b:::" where a split of the joined lines could
        # cut "b" off at the first two colons
        g = load_edge_list(b"a::b:\nc::d\n", sep="::")
        assert g.labels == ("a", "b:", "c", "d")

    @pytest.mark.parametrize("sep", ["", "\n", ";\n", "\r", "\r\n"])
    def test_empty_or_multiline_separator_rejected(self, sep):
        with pytest.raises(ValueError, match="separator"):
            load_edge_list(b"a,b\n", sep=sep)

    def test_label_map_round_trips_through_csv(self, tmp_path):
        g = load_edge_list('a,b;"c"\nd;a,b\n\u00e9 x;d\n'.encode(), sep=";")
        path = tmp_path / "labels.csv"
        g.write_label_map(path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["label", "node_id"], ["a,b", "0"], ['"c"', "1"], ["d", "2"], ["\u00e9 x", "3"],
        ]

    def test_parsed_label_lookup_does_not_grow(self):
        g = load_edge_list(b"a,b\n")
        for _ in range(2):
            with pytest.raises(UnknownNodeError):
                g.id_of("c")
        assert g.labels == ("a", "b") and g.id_of("b") == 1

    def test_labels_passed_in_are_strings_and_unique(self):
        g = DirectedGraph.from_edges([(0, 1)], labels=[7, "x"])
        assert g.labels == ("7", "x") and g.id_of("7") == 0
        with pytest.raises(ValueError, match="labels must be unique"):
            DirectedGraph.from_edges([(0, 1)], labels=["a", "a"])
        with pytest.raises(ValueError, match="labels must be unique"):
            DirectedGraph.from_edges([(0, 1)], labels=[1, "1"])
        with pytest.raises(ValueError, match="label list length"):
            DirectedGraph.from_edges([(0, 1)], labels=["a"])

    def test_label_map_export(self, tmp_path):
        g = load_edge_list(b"a,b\nc,b\n")
        path = tmp_path / "labels.csv"
        g.write_label_map(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,node_id"
        assert lines[1:] == ["a,0", "b,1", "c,2"]


# non-ASCII spaces and the ASCII ones that are not a line break or a tab
SPACES = ["\u2003", "\u3000", "\x85", "\xa0", "\u2028", "\x1c", "\x1d", "\x1e", "\x1f",
          "\x0b", "\x0c"]


@st.composite
def edge_list_texts(draw):
    """A separator and records mixed with blank and comment lines, at most one line malformed."""
    sep = draw(st.sampled_from([",", ";", "::", " ", ", ", "aa"]))
    space = st.sampled_from(SPACES)
    label = st.one_of(
        st.sampled_from(["a", "b", "ab", " a ", "\tb", "\u00e9", "a:", ":b", "a\x00", "\x00b"]),
        st.text(alphabet="ab:\u00e9\x00", min_size=1, max_size=3),
        # longer than 8 and 16 bytes, sharing their first 8 or 16
        st.sampled_from(["abcdefgh", "abcdefghi", "abcdefghj", "abcdefgh\u00e9",
                         "abcdefghijklmnop", "abcdefghijklmnopq", "abcdefghijklmnopr"]),
        st.tuples(space, st.sampled_from(["a", "b", "abcdefghi"]), space).map("".join),
    )
    edge = st.tuples(label, label).map(sep.join)
    padded = st.tuples(space, edge, space).map("".join)  # spaces at the record's edges
    other = st.one_of(st.sampled_from(["", "  ", "\t", "# note", "  #a,b", "#"]), space)
    lines = draw(st.lists(st.one_of(edge, edge, padded, other), max_size=14))
    if draw(st.booleans()):
        bad = st.one_of(
            label,  # one field
            st.tuples(label, label, label).map(sep.join),
            label.map(lambda t: sep + t),  # empty source
            label.map(lambda t: t + " " + sep),  # empty target
            st.text(alphabet="ab:;, \t#", max_size=4),
        )
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line break
    return sep, text


def parse_outcome(parse, text, sep, kind):
    """What a parse returns or raises, in comparable form, for one kind of source."""
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "path":
            source = Path(tmp) / "edges.csv"
            source.write_text(text, encoding="utf-8", newline="")
        else:
            source = text.encode("utf-8") if kind == "bytes" else io.StringIO(text)
        try:
            g = parse(source, sep=sep)
        except ValueError as err:
            return type(err), str(err), getattr(err, "line", None)
    return graph_state(g)


def graph_state(g):
    """A graph's labels, counters and CSR arrays, in comparable form."""
    csr = (g._fwd_indptr, g._fwd_indices, g._rev_indptr, g._rev_indices)
    return (g.labels, g.self_loops_dropped, g.duplicates_collapsed, *(a.tolist() for a in csr))


# byte-block sizes for the parse: the small ones cut inside a line
BLOCK_BYTES = [1, 2, 3, 5, 8, 13, graph_module._BLOCK_BYTES]


class TestLoadEdgeListMatchesTheLineLoop:
    @given(edge_list_texts(), st.sampled_from(["bytes", "stringio", "path"]),
           st.sampled_from(BLOCK_BYTES))
    def test_same_graph_or_same_error(self, sep_text, kind, block_bytes):
        sep, text = sep_text
        want = parse_outcome(reference_load_edge_list, text, sep, kind)
        with mock.patch.object(graph_module, "_BLOCK_BYTES", block_bytes):
            got = parse_outcome(load_edge_list, text, sep, kind)
        assert got == want

    @pytest.mark.parametrize("text", [
        "a,b\rc,d\n", "a,b\r\nc,d\rx,y", "a,b\r\r\nc,d\r\n", "a,b\rc,d,e\n", "a,b\r\r,d\n",
        "a,b\rc\u2028,d\x85\n", "\r", "# c\rd,e",
    ])
    def test_one_line_break_rule_for_every_source(self, text):
        # \n, \r\n and a lone \r each end a line, as in a text-mode file
        got = {kind: parse_outcome(load_edge_list, text, ",", kind)
               for kind in ("path", "bytes", "stringio")}
        assert got["path"] == got["bytes"] == got["stringio"]
        assert got["bytes"] == parse_outcome(reference_load_edge_list, text, ",", "bytes")

    @pytest.mark.parametrize("sep, text", [
        ("::", "a:::b\n"), ("::", "a::::b\n"), ("::", ":::a\n"), ("aa", "baaab\n"), ("aa", "baaaab\n"),
    ])
    def test_self_overlapping_separator_is_counted_as_split_does(self, sep, text):
        # occurrences are taken from the left, and one overlapping the last is skipped
        assert (parse_outcome(load_edge_list, text, sep, "bytes")
                == parse_outcome(reference_load_edge_list, text, sep, "bytes"))

    def test_lone_carriage_return_ends_a_line(self):
        for source in (b"a,b\rc,d\n", io.StringIO("a,b\rc,d\n")):
            g = load_edge_list(source)
            assert g.labels == ("a", "b", "c", "d") and g.edge_count == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_read_past_its_size(self, tmp_path):
        # a pipe reports size 0, so all of it is read on past st_size; the
        # data is larger than a pipe's buffer, so the writer blocks meanwhile
        data = ("".join(f" u{i} ,\tv{i % 97}  \r\n" for i in range(10_000))
                + "\u00e9 long label,u1").encode()
        fifo = tmp_path / "edges.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
        writer.start()
        g = load_edge_list(fifo)
        writer.join(timeout=10)
        assert graph_state(g) == graph_state(reference_load_edge_list(data))
        assert g.edge_count == 10_001 and g.labels[-1] == "\u00e9 long label"


class TestWidthSwitches:
    # buffers of 2 GiB and 2**31 columns are out of a test's reach, so each
    # bound is patched to 0, which forces its int64 path on small inputs
    @given(edge_list_texts())
    def test_int64_field_offsets_give_the_line_loop_graph(self, sep_text):
        sep, text = sep_text
        want = parse_outcome(reference_load_edge_list, text, sep, "bytes")
        with mock.patch.object(graph_module, "_NARROW_OFFSETS", 0):
            got = parse_outcome(load_edge_list, text, sep, "bytes")
        assert got == want

    def test_int64_field_offsets_are_used(self):
        with mock.patch.object(graph_module, "_NARROW_OFFSETS", 0):
            starts, lengths, _ = graph_module._fields(*graph_module._read(b"a,b\n"), ",")
        assert starts.dtype == lengths.dtype == np.int64

    @given(edge_list_texts())
    def test_full_keys_give_the_line_loop_graph(self, sep_text):
        sep, text = sep_text
        want = parse_outcome(reference_load_edge_list, text, sep, "bytes")
        with mock.patch.object(graph_module, "_PACKED_FIELDS", 0):
            got = parse_outcome(load_edge_list, text, sep, "bytes")
        assert got == want

    @staticmethod
    def salts_of_first_byte_keys(text, packed_fields=graph_module._PACKED_FIELDS):
        """Salts the parse of ``text`` tries when a label's key is its first byte."""
        salts = []

        def first_byte(words, starts, lengths, salt):
            salts.append(salt)
            return words[starts] & np.uint64(0xFF)

        with mock.patch.object(graph_module, "_label_keys", first_byte), \
                mock.patch.object(graph_module, "_PACKED_FIELDS", packed_fields):
            g = load_edge_list(text)
        assert g.labels == ("a", "b", "c", "d")
        return set(salts)

    def test_packed_keys_switch_to_full_keys_at_the_bound(self):
        # keys that differ only in their low bits lose the difference once the
        # field index is packed there, so the packed try fails and the next
        # salt's full keys succeed; above the bound the first try has full keys
        text = b"a,b\nc,d\nb,a\n"
        assert self.salts_of_first_byte_keys(text) == {0, 1}
        assert self.salts_of_first_byte_keys(text, 0) == {0}
        assert self.salts_of_first_byte_keys(text, 6) == {0, 1}  # 6 fields
        assert self.salts_of_first_byte_keys(text, 5) == {0}

    def test_ordinary_labels_take_the_packed_keys_once(self):
        salts = []
        keys = graph_module._label_keys

        def spy(words, starts, lengths, salt):
            salts.append(salt)
            return keys(words, starts, lengths, salt)

        text = "".join(f"u{i},v{i % 997}\n" for i in range(20_000)).encode()
        with mock.patch.object(graph_module, "_label_keys", spy), \
                mock.patch.object(graph_module, "_BLOCK_BYTES", 1 << 16):
            g = load_edge_list(text)
        assert 40_000 <= graph_module._PACKED_FIELDS and len(salts) > 1 and set(salts) == {0}
        assert graph_state(g) == graph_state(reference_load_edge_list(text))

    @pytest.mark.parametrize("d", list(Direction))
    def test_int64_positions_give_the_int32_incidence(self, d):
        rng = np.random.default_rng(7)
        g, _ = random_graph(rng, 40, 200)
        rows = rng.integers(0, 40, size=30)  # repeats allowed
        cols = np.flatnonzero(rng.random(40) < 0.5)
        narrow = incidence(g, rows, cols, d)
        with mock.patch.object(graph_module, "_NARROW_POSITIONS", 0):
            wide = incidence(g, rows, cols, d)
        assert narrow[0].dtype == np.int32 and wide[0].dtype == np.int64
        assert narrow[0].tolist() == wide[0].tolist() and narrow[1].tolist() == wide[1].tolist()

    @pytest.mark.parametrize("d", list(Direction))
    def test_int64_positions_give_the_int32_pushed_rows(self, d):
        rng = np.random.default_rng(7)
        g, _ = random_graph(rng, 40, 200)
        mask = rng.random(40) < 0.5
        cols = np.flatnonzero(rng.random(40) < 0.5)
        narrow = graph_module._push(g, mask, cols, d)
        with mock.patch.object(graph_module, "_NARROW_POSITIONS", 0):
            wide = graph_module._push(g, mask, cols, d)
        assert narrow[1][0].dtype == np.int32 and wide[1][0].dtype == np.int64
        assert narrow[1][0].tolist() == wide[1][0].tolist()
        assert narrow[0].tobytes() == wide[0].tobytes()
        assert narrow[1][1].tobytes() == wide[1][1].tobytes()

    @pytest.mark.parametrize("d", list(Direction))
    def test_wide_push_keys_pull(self, d):
        # one column against every node: push holds a column's list, pull
        # the whole graph, so push runs until its keys may not fit in int64
        rng = np.random.default_rng(7)
        g, _ = random_graph(rng, 40, 200)
        mask, cols = np.ones(40, dtype=bool), np.array([3])
        with sides_taken() as taken:
            pushed = graph_module.linked(g, mask, cols, d)
            with mock.patch.object(graph_module, "_PUSH_KEYS", 0):
                pulled = graph_module.linked(g, mask, cols, d)
        assert taken == ["_push", "_pull"]
        assert same_arrays(pulled, pushed)


class TestLabelInterning:
    @staticmethod
    def first_salt_collides(salts):
        """A key mix that gives every label one key at the first salt, recording each salt."""
        keys = graph_module._label_keys

        def mix(words, starts, lengths, salt):
            salts.append(salt)
            return np.zeros(starts.size, dtype=np.uint64) if salt == 0 else keys(
                words, starts, lengths, salt)
        return mix

    @given(edge_list_texts(), st.sampled_from(BLOCK_BYTES))
    def test_colliding_keys_still_give_the_line_loop_graph(self, sep_text, block_bytes):
        sep, text = sep_text
        want = parse_outcome(reference_load_edge_list, text, sep, "bytes")
        with mock.patch.object(graph_module, "_label_keys", self.first_salt_collides([])), \
                mock.patch.object(graph_module, "_BLOCK_BYTES", block_bytes):
            got = parse_outcome(load_edge_list, text, sep, "bytes")
        assert got == want

    def test_a_collision_mixes_again_with_the_next_salt(self):
        text = b"abcdefgh1,abcdefgh2\nabcdefghijklmnopq,abcdefghijklmnopr\na\x00,a\na,abcdefgh1\n"
        salts = []
        with mock.patch.object(graph_module, "_label_keys", self.first_salt_collides(salts)):
            g = load_edge_list(text)
        assert salts and set(salts) == {0, 1}
        assert g.labels == ("abcdefgh1", "abcdefgh2", "abcdefghijklmnopq", "abcdefghijklmnopr",
                            "a\x00", "a")
        assert g._fwd_indices.tolist() == [1, 3, 5, 0]

    def test_space_table_is_str_isspace(self):
        assert graph_module._SPACES == "".join(
            c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())

    @pytest.mark.parametrize("kind", ["bytes", "path"])
    def test_invalid_utf8_rejected(self, kind, tmp_path):
        data = "a,\u00e9\n".encode() + b"b,\xff\n"
        source = data if kind == "bytes" else tmp_path / "edges.csv"
        if kind == "path":
            source.write_bytes(data)
        with pytest.raises(UnicodeDecodeError):
            load_edge_list(source)


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
                indices, indptr = incidence(g, nodes, cols, d)
                assert bounds.size == indptr.size == nodes.size + 1
                for k, v in enumerate(nodes.tolist()):
                    want = sorted(naive_neighbors(edges, v, d) & allowed)
                    assert flat[bounds[k]:bounds[k + 1]].tolist() == want
                    assert indices[indptr[k]:indptr[k + 1]].tolist() == [
                        position[u] for u in want
                    ]

    def test_gathers_reject_unknown_nodes(self):
        g = load_edge_list(b"a,b\n")
        allowed = np.ones(2, dtype=bool)
        for bad in ([0, 2], [-1]):
            with pytest.raises(UnknownNodeError):
                g.neighborhood(bad, Direction.UP)
            with pytest.raises(UnknownNodeError):
                grouped_restricted_neighbors(g, np.array(bad), allowed, Direction.DOWN)

    def test_incidence_rejects_columns_outside_the_graph(self):
        # a negative column would alias node n + id through the position map
        g = DirectedGraph.from_edges([(0, 3), (1, 3), (2, 3), (4, 2)], node_count=5)
        for cols in ([-2], [-1, 0, 3], [3, 5], [7]):
            for d in Direction:
                with pytest.raises(UnknownNodeError):
                    incidence(g, [0, 1, 2], np.array(cols), d)
        indices, indptr = incidence(g, [0, 1, 2], np.array([3]), Direction.UP)
        assert indices.tolist() == [0, 0, 0] and indptr.tolist() == [0, 1, 2, 3]

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


class TestAsNodeArray:
    @given(st.lists(st.integers(-2**40, 2**40), max_size=40))
    def test_matches_sorted_set(self, values):
        want = sorted(set(values))
        for given_as in (values, iter(values), np.array(values, dtype=np.int64)):
            got = as_node_array(given_as)
            assert got.dtype == np.int64 and got.tolist() == want

    @given(st.lists(st.integers(0, 30), max_size=40), st.integers(1, 3))
    def test_strided_and_2d_input_left_unchanged(self, values, stride):
        arr = np.array(values, dtype=np.int32)
        before = arr.copy()
        assert as_node_array(arr[::stride]).tolist() == sorted(set(values[::stride]))
        square = np.resize(arr, (len(values) // 2, 2))
        assert as_node_array(square).tolist() == sorted(set(square.ravel().tolist()))
        np.testing.assert_array_equal(arr, before)

    def test_empty(self):
        for empty in ([], np.empty(0), np.empty((0, 2), dtype=np.int64)):
            got = as_node_array(empty, node_count=0)
            assert got.dtype == np.int64 and got.size == 0

    @given(st.lists(st.integers(0, 9), max_size=10), st.sampled_from([-1, 10, 2**40]))
    def test_out_of_range_rejected(self, values, bad):
        assert as_node_array(values, node_count=10).tolist() == sorted(set(values))
        with pytest.raises(UnknownNodeError):
            as_node_array(values + [bad], node_count=10)


def reference_csr(arr, n):
    """The row-sort build: unique (u, v) rows, a lexicographic sort for the reverse CSR."""
    arr = arr[arr[:, 0] != arr[:, 1]]
    arr = np.unique(arr, axis=0) if arr.size else arr
    fwd_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(arr[:, 0], minlength=n), out=fwd_indptr[1:])
    rev_order = np.lexsort((arr[:, 0], arr[:, 1]))
    rev_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(arr[:, 1], minlength=n), out=rev_indptr[1:])
    return fwd_indptr, arr[:, 1], rev_indptr, arr[rev_order, 0]


edge_lists = st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
             max_size=0 if n == 0 else 60),
))


class TestFromEdgesProperties:
    @given(edge_lists, st.integers(0, 3), st.booleans())
    def test_matches_row_sort_build(self, case, extra, give_count):
        n, pairs = case
        node_count = n + extra if give_count else None
        # with and without self-loops, as a list and as int64 and int32 arrays
        for kept in (pairs, [(u, v) for u, v in pairs if u != v]):
            arr = np.array(kept, dtype=np.int64).reshape(-1, 2)
            want_n = node_count if give_count else (int(arr.max()) + 1 if arr.size else 0)
            for edges in (kept, arr, arr.astype(np.int32)):
                given_edges = np.array(edges, copy=True)
                g = DirectedGraph.from_edges(edges, node_count=node_count)
                np.testing.assert_array_equal(edges, given_edges)  # the input is not written
                assert g.node_count == want_n
                got = (g._fwd_indptr, g._fwd_indices, g._rev_indptr, g._rev_indices)
                for a, b in zip(got, reference_csr(arr, want_n)):
                    assert a.dtype == np.int64
                    np.testing.assert_array_equal(a, b)
                loops = sum(u == v for u, v in kept)
                edges_kept = len({(u, v) for u, v in kept if u != v})
                assert g.self_loops_dropped == loops
                assert g.duplicates_collapsed == len(kept) - loops - edges_kept
                assert g.edge_count == edges_kept


class TestEdgeListWriter:
    @given(edge_lists, st.lists(st.text(alphabet="ab\u00e9 :", min_size=1, max_size=3),
                                min_size=15, max_size=15, unique=True),
           st.sampled_from([1, 2, 3, graph_module._BLOCK_LINES]))
    def test_same_bytes_as_the_edge_loop(self, case, names, block_lines):
        n, pairs = case
        g = DirectedGraph.from_edges(pairs, node_count=n, labels=names[:n])
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            with mock.patch.object(graph_module, "_BLOCK_LINES", block_lines):
                g.write_edge_list(got)
            reference_write_edge_list(want, g)
            assert got.read_bytes() == want.read_bytes()

    def test_round_trip(self, tmp_path):
        g = load_edge_list(b"a,b\nc,b\nb,a\n")
        g.write_edge_list(tmp_path / "edges.csv")
        assert (tmp_path / "edges.csv").read_text() == "a,b\nb,a\nc,b\n"
        back = load_edge_list(tmp_path / "edges.csv")
        assert back.labels == g.labels
        assert back._fwd_indices.tolist() == g._fwd_indices.tolist()


class TestIncidenceProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 25), st.integers(0, 15),
           st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from(list(Direction)))
    def test_repeated_rows_and_any_columns(self, seed, n, n_rows, col_share, d):
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(3 * n, 2))
        edges = {(int(u), int(v)) for u, v in pairs if u != v}
        g = DirectedGraph.from_edges(sorted(edges), node_count=n)
        rows = rng.integers(0, n, size=n_rows)  # repeats allowed
        cols = np.flatnonzero(rng.random(n) < col_share)  # may be empty
        indices, indptr = incidence(g, rows, cols, d)
        assert indptr.size == n_rows + 1 and indptr[-1] == indices.size
        position = {int(c): j for j, c in enumerate(cols)}
        for k, v in enumerate(rows.tolist()):
            want = sorted(position[u] for u in naive_neighbors(edges, v, d) if u in position)
            assert indices[indptr[k]:indptr[k + 1]].tolist() == want


def linked_case(seed, n, share, mask_kind, col_kind):
    """A graph with edges among nodes 0..n-1 and two isolated nodes, a node mask and columns."""
    rng = np.random.default_rng(seed)
    _, edges = random_graph(rng, n, int(share * n * (n - 1)))
    g = DirectedGraph.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2), node_count=n + 2)
    mask = {"none": np.zeros(n + 2, dtype=bool), "all": np.ones(n + 2, dtype=bool),
            "random": rng.random(n + 2) < 0.5}[mask_kind]
    cols = {"empty": np.empty(0, dtype=np.int64),
            "single": rng.integers(0, n + 2, size=1),
            "edgeless": np.array([n, n + 1]),
            "random": np.flatnonzero(rng.random(n + 2) < 0.4)}[col_kind]
    return g, mask, cols


def nonempty_incidence_rows(g, mask, cols, d):
    """The wanted result of ``linked``: ``incidence`` of the masked rows, empty rows dropped."""
    rows = np.flatnonzero(mask)
    indices, indptr = incidence(g, rows, cols, d)
    full = np.diff(indptr) > 0
    return rows[full], (indices, np.concatenate(([0], indptr[1:][full])))


@contextmanager
def sides_taken():
    """The names of the sides ``linked`` gathers from, in call order."""
    taken = []

    def spy(name, side):
        def spied(*args):
            taken.append(name)
            return side(*args)
        return spied

    with mock.patch.object(graph_module, "_pull", spy("_pull", graph_module._pull)), \
            mock.patch.object(graph_module, "_push", spy("_push", graph_module._push)):
        yield taken


def same_arrays(got, want):
    (nodes, (indices, indptr)), (w_nodes, (w_indices, w_indptr)) = got, want
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in ((nodes, w_nodes), (indices, w_indices), (indptr, w_indptr)))


class TestLinkedProperties:
    cases = (st.integers(0, 2**32 - 1), st.integers(2, 20), st.sampled_from([0.0, 0.1, 0.3, 0.8]),
             st.sampled_from(["none", "all", "random"]),
             st.sampled_from(["empty", "single", "edgeless", "random"]),
             st.sampled_from(list(Direction)))

    @given(*cases)
    def test_each_side_gives_the_nonempty_incidence_rows(self, seed, n, share, mask_kind,
                                                          col_kind, d):
        g, mask, cols = linked_case(seed, n, share, mask_kind, col_kind)
        want = nonempty_incidence_rows(g, mask, cols, d)
        mask.setflags(write=False)
        cols.setflags(write=False)
        before = mask.tobytes(), cols.tobytes()
        for side in (graph_module._pull, graph_module._push, graph_module.linked):
            assert same_arrays(side(g, mask, cols, d), want), side.__name__
        assert (mask.tobytes(), cols.tobytes()) == before
        # the naive sets: every masked node with a neighbour among the columns
        position = {int(c): j for j, c in enumerate(cols)}
        nodes, (indices, indptr) = want
        assert nodes.tolist() == [v for v in np.flatnonzero(mask).tolist()
                                  if any(u in position for u in g.neighbors(v, d).tolist())]
        for k, v in enumerate(nodes.tolist()):
            assert indices[indptr[k]:indptr[k + 1]].tolist() == sorted(
                position[u] for u in g.neighbors(v, d).tolist() if u in position)

    @given(*cases)
    def test_the_side_with_fewer_entries_gathers(self, seed, n, share, mask_kind, col_kind, d):
        g, mask, cols = linked_case(seed, n, share, mask_kind, col_kind)
        pull = sum(g.degree(v, d) for v in np.flatnonzero(mask).tolist())
        push = sum(g.degree(v, d.opposite) for v in cols.tolist())
        with sides_taken() as taken:
            graph_module.linked(g, mask, cols, d)
        assert taken == ["_push" if push < pull else "_pull"], (pull, push)

    @pytest.mark.parametrize("cols", [[-1], [-2, 0], [0, 5], [7]])
    def test_columns_outside_the_graph_are_unknown_nodes(self, cols):
        g = DirectedGraph.from_edges([(0, 3), (1, 3), (2, 3), (4, 2)], node_count=5)
        for side in (graph_module._pull, graph_module._push, graph_module.linked):
            for d in Direction:
                with pytest.raises(UnknownNodeError):
                    side(g, np.ones(5, dtype=bool), np.array(cols), d)
