"""Checks over the library source itself."""
import ast
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import cohprop
from cohprop import features, graph
from cohprop.features import FeatureStore, write_features_csv
from cohprop.graph import DirectedGraph, Direction, load_edge_list
from cohprop.method_a import init_state, step_method_a
from cohprop.method_b import step_method_b

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

SOURCES = sorted(Path(cohprop.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and library invariants must hold
    # there too, so the library raises instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_only_the_cli_prints():
    # library progress goes through the cohprop logger, not stdout
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert SOURCES and not found, found


def test_keep_alive_imports_are_benchmark_sites():
    # a module imports a name it does not call only so that the benchmark's
    # layer spans (perfbench/spans.py) can wrap it there; each such import
    # must name a site the spans wrap, so a re-targeted span shows up here
    # (the package's own re-exports in __init__.py are not keep-alives)
    wrapped = {(owner.__name__, attr) for _, sites, _ in spans.SPANS for owner, attr in sites}
    kept = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        kept += [
            (f"cohprop.{path.stem}", alias.asname or alias.name)
            for node in ast.walk(ast.parse("\n".join(lines)))
            if isinstance(node, ast.ImportFrom) and "noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names
        ]
    orphans = [site for site in kept if site not in wrapped]
    assert kept and not orphans, orphans


def test_library_imports_are_used():
    # no linter runs on the library, so this is the guard against imports
    # left behind by a rewrite; the keep-alive imports above are exempt, as
    # are the package's re-exports in __init__.py and __future__ imports
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(lines))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            and "noqa: F401" not in lines[node.end_lineno - 1]
            for alias in node.names
        }
        # an annotation written as a string literal reads the names inside it
        annotations = [
            ast.parse(note.value, mode="eval")
            for node in ast.walk(tree)
            for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
            if isinstance(note, ast.Constant) and isinstance(note.value, str)
        ]
        read = {
            node.id
            for root in [tree, *annotations]
            for node in ast.walk(root)
            if isinstance(node, ast.Name)
        }
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert SOURCES and not unused, unused


def test_private_helpers_are_used_by_the_library():
    # a private top-level function or class must be named somewhere in the
    # library outside its own definition; a helper only tests use lives
    # under tests/ (the line-loop reader of oracles.reference_load_edge_list)
    named = []  # (top-level statement, name it mentions)
    private = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_"):
                private.append((path.name, top))
            named += [
                (top, node.id if isinstance(node, ast.Name)
                 else node.attr if isinstance(node, ast.Attribute) else node.name)
                for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            ]
    unused = [f"{name}:{top.lineno} {top.name}" for name, top in private
              if not any(user is not top and used == top.name for user, used in named)]
    assert private and not unused, unused


def test_scipy_sparse_only_in_method_b_and_scaling():
    # the propagation layer passes sparse matrices as (indices, indptr) CSR
    # arrays; SciPy's sparse types appear only in the co-neighbour product
    # (method_b) and the correspondence analysis (scaling)
    def sparse_import(node):
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("scipy.sparse") for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module:
            return node.module.startswith("scipy.sparse") or (
                node.module == "scipy" and any(alias.name == "sparse" for alias in node.names))
        return False

    importers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if sparse_import(node)
    }
    assert importers == {"method_b.py", "scaling.py"}, importers


def test_small_tables_have_one_csv_writer():
    # features._write_csv writes every small table; the label map keeps its
    # own writer, since its "\n" line ends are part of the label-map format
    def is_csv_writer(node):
        return (isinstance(node, ast.Attribute) and node.attr == "writer"
                and isinstance(node.value, ast.Name) and node.value.id == "csv")

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    sites = sorted(
        f"{module}.{fn.name}"
        for module, tree in trees.items()
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if is_csv_writer(node)
    )
    mentions = sum(is_csv_writer(node) for tree in trees.values() for node in ast.walk(tree))
    assert sites == ["features._write_csv", "graph.write_label_map"] and mentions == 2, sites


def sites_of(wanted):
    """``module.function`` of each library node for which ``wanted`` holds (innermost def)."""
    sites = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if wanted(node):
            sites.append(f"{module}.{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return sites


def test_csr_arrays_are_read_through_one_direction_pick():
    # DirectedGraph._csr is the one place a direction picks the forward or the
    # reverse index; past it, the arrays are read only where they are set and
    # by edge_count
    csr = {"_fwd_indptr", "_fwd_indices", "_rev_indptr", "_rev_indices"}
    sites = sites_of(lambda node: isinstance(node, ast.Attribute) and node.attr in csr)
    assert sorted(set(sites)) == ["graph.__init__", "graph._csr", "graph.edge_count"], sites


def test_node_id_bound_message_is_built_once():
    # _check_ids is the one node-id bound check behind every read
    def is_bound_message(node):
        if isinstance(node, ast.JoinedStr):
            text = "".join(part.value for part in node.values if isinstance(part, ast.Constant))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            return False
        return "node id" in text and "outside 0.." in text

    sites = sites_of(is_bound_message)
    assert sites == ["graph._check_ids"], sites


def test_cli_reads_no_private_argparse_walk():
    # the config pass looks its subparser up in the map build_parser returns
    tree = ast.parse((Path(cohprop.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_subparsers"]
    assert not found, found


def count_calls(fn, *args):
    """Python and C calls made by ``fn(*args)``, as ``sys.setprofile`` sees them."""
    made = 0

    def profile(frame, event, arg):
        nonlocal made
        made += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return made


def test_edge_list_parse_makes_no_python_calls_per_line(tmp_path):
    # the parse works on whole arrays: a clean 40k-line file makes no more
    # Python and C calls than a clean 1k-line one, but for a fixed allowance
    # for each byte block it parses
    def calls(lines):
        path = tmp_path / f"edges_{lines}.csv"
        path.write_text("".join(f"u{i},v{i % 997}\n" for i in range(lines)), encoding="utf-8")
        return count_calls(load_edge_list, path), -(-path.stat().st_size // graph._BLOCK_BYTES)

    small, _ = calls(1_000)
    large, blocks = calls(40_000)
    assert large <= small + 50 * blocks, (small, large, blocks)


def test_edge_list_parse_peak_per_field(tmp_path, monkeypatch):
    # beyond the source's bytes, a parse holds at its peak an int32 start and
    # length a field, its sort's 8-byte key and 4-byte index, and then the
    # graph and its labels; no int64 copy of the ids or of the edges. 64 KiB
    # blocks keep the per-block scratch small next to the per-field arrays.
    # This 100k-line file with 20k labels takes about 24 bytes a field
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 1 << 16)
    lines = 100_000
    path = tmp_path / "edges.csv"
    path.write_text("".join(f"u{i // 5},u{i * 7919 % 20011}\n" for i in range(lines)),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        g = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 99_995
    per_field = (peak - path.stat().st_size) / (2 * lines)
    assert per_field <= 27, per_field


def test_features_writer_makes_no_python_calls_per_row(tmp_path):
    # the writer works a block at a time: a 40k-row store with provenance
    # makes no more Python and C calls than a 1k-row one, but for a fixed
    # allowance for each block of rows it writes
    def calls(rows):
        g = DirectedGraph.from_edges(np.empty((0, 2), dtype=np.int64), rows,
                                     labels=[f"u{i}" for i in range(rows)])
        store = FeatureStore(2)
        nodes = np.arange(rows)
        store.set_known_many(nodes[::2], np.ones((nodes[::2].size, 2)) / 3)
        for step in range(3):
            est = nodes[1 + 2 * step::6]
            store.set_estimated_many(est, np.full((est.size, 2), -0.1 * step), step)
        made = count_calls(write_features_csv, tmp_path / f"features_{rows}.csv", store, g, True)
        return made, -(-rows // features._BLOCK_ROWS)

    small, _ = calls(1_000)
    large, blocks = calls(40_000)
    assert large <= small + 50 * blocks, (small, large, blocks)


def test_feature_store_index_costs_little_per_row():
    # the node -> row index is one int array, not a dict of Python ints: a
    # 100k-row, 2-dim store retains at most 40 bytes a row beyond its floats
    rows, dim = 100_000, 2
    nodes, values = np.arange(rows), np.ones((rows, dim))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = FeatureStore(dim)
        store.set_known_many(nodes, values)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == rows
    assert retained - rows * dim * 8 <= 40 * rows, retained / rows


def test_feature_store_makes_no_python_calls_per_node():
    # reads, subsets and batched writes work on whole arrays: on a 40k-row
    # store they make no more Python and C calls than on a 1k-row one
    def calls(rows):
        nodes = np.arange(rows)
        store = FeatureStore(2)
        store.set_known_many(nodes[::2], np.ones((nodes[::2].size, 2)))
        est = nodes[1::2]
        return (count_calls(store.features_of, nodes[::2]),
                count_calls(store.subset, nodes[::4]),
                count_calls(store.set_estimated_many, est, np.zeros((est.size, 2)), 0))

    small, large = calls(1_000), calls(40_000)
    assert all(b <= a + 5 for a, b in zip(small, large)), (small, large)


def test_method_a_second_step_gates_only_fresh_neighbours_of_the_additions(monkeypatch):
    # a frontier step measures N(added at step 0) minus the featured and
    # excluded sets, not the whole neighbourhood of the featured set
    rng = np.random.default_rng(7)
    n = 60
    g = DirectedGraph.from_edges(rng.integers(0, n, size=(240, 2)), node_count=n)
    store = FeatureStore(2)
    seed = np.arange(8)
    store.set_known_many(seed, rng.normal(size=(seed.size, 2)))
    state = init_state(store, seed, Direction.UP, 1.5)
    added, _, state = step_method_a(state, g, store)
    reached = g.neighborhood(added, Direction.UP)
    fresh = np.setdiff1d(reached, np.union1d(state.featured, state.excluded))
    full = g.neighborhood(state.featured, Direction.UP).size
    assert 0 < fresh.size < full

    rows = []
    group_stats = features._group_stats

    def counted(table, indices, indptr, p=None):
        rows.append(indptr.size - 1)
        return group_stats(table, indices, indptr, p)

    monkeypatch.setattr(features, "_group_stats", counted)
    step_method_a(state, g, store)
    assert rows == [fresh.size], (rows, fresh.size, full)


def test_each_incidence_of_a_step_is_one_gather(monkeypatch):
    # the gate's back-connections and method B's candidate x pivot walk back
    # each come from one DirectedGraph._gather, on the side with fewer
    # entries, not from a neighbourhood gather and then an incidence gather
    rng = np.random.default_rng(7)
    n = 60
    g = DirectedGraph.from_edges(rng.integers(0, n, size=(240, 2)), node_count=n)
    store = FeatureStore(2)
    seed = np.arange(8)
    store.set_known_many(seed, rng.normal(size=(seed.size, 2)))
    gathers = []
    gather = DirectedGraph._gather

    def counted(self, nodes, direction):
        gathers.append(nodes.size)
        return gather(self, nodes, direction)

    monkeypatch.setattr(DirectedGraph, "_gather", counted)
    for step, want in ((step_method_a, 1), (step_method_b, 2)):
        gathers.clear()
        run = store.subset(seed)
        added, _, _ = step(init_state(run, seed, Direction.UP, 1.5), g, run)
        assert added.size
        assert len(gathers) == want, (step.__name__, gathers)
