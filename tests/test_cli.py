import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cohprop
from cohprop import cli
from cohprop.cli import main
from cohprop.evaluation import CSV_COLUMNS
from cohprop.features import read_features_csv
from cohprop.graph import load_edge_list
from cohprop.synthetic import PlantedConfig, generate_planted
from oracles import reference_write_edge_list

SUBCOMMANDS = ["ingest", "scale", "generate", "propagate", "evaluate", "report"]


@pytest.fixture
def workspace(tmp_path):
    edges = tmp_path / "edges.csv"
    lines = []
    followers = [f"u{i}" for i in range(8)]
    follows = {
        "u0": ["m1", "m2"], "u1": ["m1", "m2"], "u2": ["m2", "m3"],
        "u3": ["m1", "m3"], "u4": ["m1", "m2", "m3"], "u5": ["m2", "m3"],
        "u6": ["m1", "m3"], "u7": ["m2", "m1"],
    }
    for follower, targets in follows.items():
        for t in targets:
            lines.append(f"{follower},{t}")
    lines += ["u0,u4", "u1,u4", "u5,u0"]
    edges.write_text("\n".join(lines) + "\n")
    elites = tmp_path / "elites.txt"
    elites.write_text("m1\nm2\nm3\n")
    seeds = tmp_path / "seed.csv"
    seeds.write_text(
        "node_label,f1\n" + "".join(f"u{i},{0.1 * i}\n" for i in range(4))
    )
    return tmp_path


def write_unbalanced_quote(path, header):
    # the open quote runs on past csv's 128 KiB field limit; the error must
    # name line 2, where the bad row began, not the line where csv gave up
    path.write_text(header + '\n"a,0.5\n' + "".join(f"u{i},0.5\n" for i in range(30_000)))
    return f"{path}:2: field larger than field limit"


def assert_one_error_line(capsys, expected):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert expected in err, err


class TestParsing:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert sub in capsys.readouterr().out

    def test_missing_graph_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--method", "a", "--direction", "up",
                  "--epsilon", "0.5", "--max-steps", "2",
                  "--seed-features", "x.csv", "--out", "y.csv"])
        assert exc.value.code == 2
        assert "--graph" in capsys.readouterr().err

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = main(["ingest", "--graph", str(missing), "--out-labels",
                   str(tmp_path / "labels.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestInputErrors:
    @staticmethod
    def argv(workspace, case, bad, text):
        graph = ["--graph", str(workspace / "edges.csv")]
        evaluate = ["evaluate", *graph, "--protocol", "sweep-a",
                    "--features", str(workspace / "seed.csv"), "--out", "r.csv"]
        return {
            "seed-features": ["propagate", *graph, "--method", "a", "--direction", "up",
                              "--epsilon", "0.5", "--max-steps", "1",
                              "--seed-features", str(bad), "--out", "p.csv"],
            "report-input": ["report", "--inputs", str(bad), "--out", "merged.csv"],
            "epsilon-grid": [*evaluate, "--epsilon-grid", text],
            "seed-set": [*evaluate, "--epsilon-grid", "0.5", "--seed-set", str(bad)],
        }[case] + ["--out-dir", str(workspace / "bad_out")]

    def run_bad(self, workspace, capsys, case, text, expected, **names):
        bad = workspace / "bad_input"
        bad.write_text(text)
        rc = main(self.argv(workspace, case, bad, text))
        assert rc == 1
        assert_one_error_line(capsys, expected.format(bad=bad, **names))
        # the manifest is written only after its subcommand succeeds
        assert not list((workspace / "bad_out").glob("manifest_*.json"))

    @pytest.mark.parametrize("case, text, expected", [
        ("seed-features", "", "{bad}: empty features file"),
        ("seed-features", "node_label\nu0\n", "{bad}: header must be node_label,f1,...,fN"),
        ("seed-features", "node_label,provenance\nu0,known\n",
         "{bad}: no feature columns in header"),
        ("seed-features", "node_label,f1\nu0,0.5\nu1,high\n", "{bad}:3: non-numeric feature value"),
        ("report-input", "epsilon,method\n0.5,a\n",
         "{bad}: unexpected report header ['epsilon', 'method']"),
        ("epsilon-grid", ",", "--epsilon-grid must list at least one value"),
        ("seed-set", "# no labels\n\n", "{bad}: no labels found"),
    ])
    def test_bad_input_is_one_error_line(self, workspace, capsys, case, text, expected):
        self.run_bad(workspace, capsys, case, text, expected)

    @pytest.mark.parametrize("case, text, expected", [
        ("seed-set", "u0\nzz\n", "error: unknown node label 'zz'\n"),
        ("seed-features", "node_label,f1\nu0,0.1\nzz,0.2\n",
         "error: {bad}:3: unknown node label 'zz'\n"),
        ("seed-set", "u0\nu5\n", "error: no features for node {u5}\n"),
    ])
    def test_key_error_is_printed_without_quotes(self, workspace, capsys, case, text, expected):
        u5 = load_edge_list(workspace / "edges.csv").id_of("u5")
        self.run_bad(workspace, capsys, case, text, expected, u5=u5)


class TestIngest:
    def test_outputs_and_manifest(self, workspace, capsys):
        out = workspace / "out"
        rc = main(["ingest", "--graph", str(workspace / "edges.csv"),
                   "--out-labels", "labels.csv", "--stats", "stats.json",
                   "--out-dir", str(out)])
        assert rc == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["nodes"] == 11
        assert stats["self_loops_dropped"] == 0
        assert (out / "labels.csv").read_text().startswith("label,node_id\n")
        manifest = json.loads((out / "manifest_ingest.json").read_text())
        assert manifest["subcommand"] == "ingest"
        assert len(manifest["inputs"]["graph"]["sha256"]) == 64
        assert "numpy" in manifest["versions"]


class TestScale:
    def test_row_and_column_outputs(self, workspace):
        out = workspace / "scaled"
        rc = main(["scale", "--graph", str(workspace / "edges.csv"),
                   "--elites", str(workspace / "elites.txt"),
                   "--min-degree", "2", "--dims", "2",
                   "--out-rows", "rows.csv", "--out-cols", "cols.csv",
                   "--report", "scale.json", "--out-dir", str(out)])
        assert rc == 0
        rows = (out / "rows.csv").read_text().splitlines()
        assert rows[0] == "node_label,f1,f2"
        assert len(rows) == 9  # 8 followers incl. the duplicate profile
        report = json.loads((out / "scale.json").read_text())
        assert report["n_dims"] == 2
        assert pytest.approx(sum(report["inertia_fractions"]), abs=1e-9) == 1.0


class TestGenerate:
    def test_writes_graph_truth_and_elites(self, tmp_path):
        cfg = {"n_nodes": 60, "n_elites": 4, "beta": 2.0,
               "mean_out_degree": 5.0, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "gen"
        rc = main(["generate", "--config", str(cfg_path),
                   "--out-edges", "edges.csv", "--out-features", "truth.csv",
                   "--out-elites", "elites.txt", "--out-dir", str(out)])
        assert rc == 0
        assert len((out / "elites.txt").read_text().split()) == 4
        truth_rows = (out / "truth.csv").read_text().splitlines()
        assert len(truth_rows) == 61
        assert (out / "manifest_generate.json").exists()
        g, _, _ = generate_planted(PlantedConfig.from_json(cfg_path))
        reference_write_edge_list(tmp_path / "want.csv", g)
        assert (out / "edges.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("cfg, expected", [
        ({"n_nodes": "50", "n_elites": 2}, "config key 'n_nodes' must be an integer, got '50'"),
        ({"n_nodes": 50.5, "n_elites": 2}, "config key 'n_nodes' must be an integer, got 50.5"),
        ({"n_nodes": 50, "n_elites": True}, "config key 'n_elites' must be an integer"),
        ({"n_nodes": 50, "n_elites": 2, "beta": [1]}, "config key 'beta' must be a number"),
        ({"n_nodes": 50, "n_elites": 2, "mixture_centers": {"a": 1}},
         "config key 'mixture_centers' must be null or a list of rows of numbers"),
        ({"n_elites": 2}, "missing config keys: ['n_nodes']"),
        ([], "a planted config must be a JSON object, got []"),
    ])
    def test_config_of_the_wrong_type_is_one_error_line(self, tmp_path, capsys, cfg, expected):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["generate", "--config", str(cfg_path),
                   "--out-edges", "edges.csv", "--out-features", "truth.csv",
                   "--out-elites", "elites.txt", "--out-dir", str(tmp_path / "gen")])
        assert rc == 1
        assert_one_error_line(capsys, expected)


class TestPropagate:
    @pytest.mark.parametrize("method", ["a", "b"])
    def test_both_methods_produce_features_and_log(self, workspace, method):
        out = workspace / f"prop_{method}"
        argv = ["propagate", "--method", method, "--direction", "up",
                "--epsilon", "0.6", "--max-steps", "3",
                "--graph", str(workspace / "edges.csv"),
                "--seed-features", str(workspace / "seed.csv"),
                "--out", "features.csv", "--log", "steps.csv",
                "--out-dir", str(out)]
        if method == "b":
            argv += ["--log-pivots", "pivots.csv"]
        assert main(argv) == 0
        features = (out / "features.csv").read_text().splitlines()
        assert features[0] == "node_label,f1,provenance"
        assert any("estimated:" in line for line in features[1:])
        log = list(csv.reader((out / "steps.csv").open()))
        assert log[0] == ["step", "added", "excluded"]
        if method == "b":
            pivots = list(csv.reader((out / "pivots.csv").open()))
            assert pivots[0] == ["step", "pivots"]

    def test_malformed_seed_features_is_one_error_line(self, workspace, capsys):
        bad = workspace / "bad_seed.csv"
        expected = write_unbalanced_quote(bad, "node_label,f1")
        rc = main(["propagate", "--method", "a", "--direction", "up",
                   "--epsilon", "0.6", "--max-steps", "3",
                   "--graph", str(workspace / "edges.csv"),
                   "--seed-features", str(bad), "--out", "features.csv",
                   "--out-dir", str(workspace / "prop_bad")])
        assert rc == 1
        assert_one_error_line(capsys, expected)


class TestEvaluateAndReport:
    def test_protocols_and_merge(self, workspace):
        out = workspace / "eval"
        base = ["--graph", str(workspace / "edges.csv"),
                "--features", str(workspace / "seed.csv"),
                "--direction", "up", "--epsilon-grid", "0.2,0.8",
                "--sample-size", "4", "--seed", "0", "--out-dir", str(out)]
        assert main(["evaluate", "--protocol", "sweep-a", "--out", "sweep.csv",
                     "--out-json", "sweep.json"] + base) == 0
        assert main(["evaluate", "--protocol", "kfold-b", "--k", "2",
                     "--out", "kfold.csv"] + base) == 0
        sweep_rows = list(csv.reader((out / "sweep.csv").open()))
        assert sweep_rows[0] == list(CSV_COLUMNS)
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["metadata"]["protocol"] == "sweep-a"

        assert main(["report", "--inputs", str(out / "sweep.csv"),
                     str(out / "kfold.csv"), "--out", "merged.csv",
                     "--out-dir", str(out)]) == 0
        merged = list(csv.reader((out / "merged.csv").open()))
        assert merged[0] == list(CSV_COLUMNS)
        assert len(merged) == len(sweep_rows) + len(list(csv.reader((out / "kfold.csv").open()))) - 1

    def test_malformed_report_input_is_one_error_line(self, workspace, capsys):
        bad = workspace / "bad_report.csv"
        expected = write_unbalanced_quote(bad, ",".join(CSV_COLUMNS))
        rc = main(["report", "--inputs", str(bad), "--out", "merged.csv",
                   "--out-dir", str(workspace / "report_bad")])
        assert rc == 1
        assert_one_error_line(capsys, expected)

    def test_seed_set_file(self, workspace):
        out = workspace / "eval2"
        seed_set = workspace / "pool.txt"
        seed_set.write_text("u0\nu1\nu2\nu3\n")
        rc = main(["evaluate", "--protocol", "sweep-a",
                   "--graph", str(workspace / "edges.csv"),
                   "--features", str(workspace / "seed.csv"),
                   "--epsilon-grid", "0.5", "--seed-set", str(seed_set),
                   "--out", "r.csv", "--out-dir", str(out)])
        assert rc == 0


class TestConfigAndEnv:
    def test_config_file_defaults_flags_win(self, workspace):
        out = workspace / "cfg_out"
        cfg = workspace / "run.json"
        cfg.write_text(json.dumps({
            "ingest": {"stats": "stats.json"},
            "global": {},
        }))
        rc = main(["ingest", "--config", str(cfg),
                   "--graph", str(workspace / "edges.csv"),
                   "--out-labels", "labels.csv", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "stats.json").exists()

    @pytest.mark.parametrize("spelling", ["--config {}", "--config={}", "--conf {}"])
    def test_config_spellings(self, workspace, spelling):
        out = workspace / "spelled"
        cfg = workspace / "prop.json"
        cfg.write_text(json.dumps({"propagate": {"log": "from_cfg.csv"}}))
        rc = main(["propagate", *spelling.format(cfg).split(" "),
                   "--method", "a", "--direction", "up", "--epsilon", "0.5",
                   "--max-steps", "1", "--graph", str(workspace / "edges.csv"),
                   "--seed-features", str(workspace / "seed.csv"),
                   "--out", "p.csv", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "from_cfg.csv").exists()

    def test_config_without_value_is_usage_error(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--graph", str(workspace / "edges.csv"),
                  "--out-labels", "labels.csv", "--config"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, workspace, capsys):
        cfg = workspace / "bad.json"
        cfg.write_text(json.dumps({"ingest": {"bogus_flag": 1}}))
        rc = main(["ingest", "--config", str(cfg),
                   "--graph", str(workspace / "edges.csv"),
                   "--out-labels", "labels.csv"])
        assert rc == 1
        assert "bogus_flag" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["help", "config"])
    def test_help_and_config_are_not_config_keys(self, workspace, capsys, key):
        # argparse gives --help and --config a dest too, but neither is a run flag
        out = workspace / f"not_a_key_{key}"
        cfg = workspace / f"{key}.json"
        cfg.write_text(json.dumps({"ingest": {key: "x"}}))
        rc = main(["ingest", "--config", str(cfg), "--graph", str(workspace / "edges.csv"),
                   "--out-labels", "labels.csv", "--out-dir", str(out)])
        assert rc == 1
        assert_one_error_line(capsys, f"unknown config keys for 'ingest': [{key!r}]")
        assert not list(out.glob("manifest_*.json"))

    @pytest.mark.parametrize("sub, cfg, expected", [
        ("propagate", {"propagate": {"p": [2]}}, "config key 'p': --p does not take [2]"),
        ("propagate", {"propagate": {"max_steps": True}}, "--max-steps does not take True"),
        ("propagate", {"propagate": {"p": "two"}}, "--p does not take 'two'"),
        ("propagate", {"propagate": {"log": None}}, "--log does not take None"),
        ("evaluate", {"evaluate": {"direction": "sideways"}}, "--direction does not take"),
        ("ingest", {"global": {"sep": 5}}, "config key 'sep': --sep does not take 5"),
        ("ingest", {"global": [["sep", ";"]]}, "config section 'global' must be a JSON object"),
        ("ingest", [1, 2], "a config file must hold a JSON object"),
    ])
    def test_config_value_the_flag_does_not_take_is_one_error_line(self, workspace, capsys,
                                                                   sub, cfg, expected):
        path = workspace / "typed.json"
        path.write_text(json.dumps(cfg))
        graph = ["--graph", str(workspace / "edges.csv")]
        rest = {
            "ingest": [*graph, "--out-labels", "labels.csv"],
            "propagate": [*graph, "--method", "a", "--direction", "up", "--epsilon", "0.5",
                          "--max-steps", "1", "--seed-features", str(workspace / "seed.csv"),
                          "--out", "p.csv"],
            "evaluate": [*graph, "--protocol", "sweep-a", "--features", str(workspace / "seed.csv"),
                         "--epsilon-grid", "0.5", "--out", "r.csv"],
        }[sub]
        rc = main([sub, "--config", str(path), *rest, "--out-dir", str(workspace / "typed")])
        assert rc == 1
        assert_one_error_line(capsys, expected)

    def test_config_value_given_as_the_command_line_gives_it(self, workspace):
        # a string the flag's type converts is taken, as are JSON numbers
        out = workspace / "typed_ok"
        path = workspace / "typed_ok.json"
        path.write_text(json.dumps({"global": {"sep": ","},
                                    "propagate": {"p": "1.5", "max_steps": 1, "log": "l.csv"}}))
        rc = main(["propagate", "--config", str(path), "--method", "a", "--direction", "up",
                   "--epsilon", "0.5", "--max-steps", "1",
                   "--graph", str(workspace / "edges.csv"),
                   "--seed-features", str(workspace / "seed.csv"),
                   "--out", "p.csv", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "l.csv").exists()
        assert json.loads((out / "manifest_propagate.json").read_text())["parameters"]["p"] == 1.5

    def test_config_supplies_required_flags(self, workspace):
        out = workspace / "cfg_required"
        rest = ["--graph", str(workspace / "edges.csv"),
                "--seed-features", str(workspace / "seed.csv"),
                "--out", "p.csv", "--log", "l.csv", "--out-dir", str(out)]

        def run(*argv):
            assert main(["propagate", *argv, *rest]) == 0
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            shutil.rmtree(out)
            return files

        flags = run("--method", "a", "--direction", "up", "--epsilon", "0.5", "--max-steps", "1")
        cfg = workspace / "required.json"
        cfg.write_text(json.dumps({"propagate": {"method": "a", "direction": "up",
                                                 "epsilon": 0.5, "max_steps": 1}}))
        assert run("--config", str(cfg)) == flags
        overridden = run("--config", str(cfg), "--epsilon", "0.0")
        assert json.loads(overridden["manifest_propagate.json"])["parameters"]["epsilon"] == 0.0
        # the next call builds its parser afresh, so the flags are required again
        with pytest.raises(SystemExit) as exc:
            main(["propagate", *rest])
        assert exc.value.code == 2

    def test_env_out_dir(self, workspace, monkeypatch):
        target = workspace / "env_out"
        monkeypatch.setenv("COHPROP_OUTDIR", str(target))
        rc = main(["ingest", "--graph", str(workspace / "edges.csv"),
                   "--out-labels", "labels.csv"])
        assert rc == 0
        assert (target / "labels.csv").exists()


# generate -> ingest -> scale -> propagate (a, b) -> evaluate (kfold-b, sweep-a) -> report;
# every path is relative to the working directory, so that the manifests can be compared too
PIPELINE = """
import sys
from cohprop.cli import main
graph = ["--graph", "edges.csv"]
runs = [
    ["generate", "--config", "planted.json", "--out-edges", "edges.csv",
     "--out-features", "truth.csv", "--out-elites", "elites.txt"],
    ["ingest", *graph, "--out-labels", "labels.csv"],
    ["scale", *graph, "--elites", "elites.txt", "--out-rows", "rows.csv",
     "--out-cols", "cols.csv", "--report", "scale.json"],
    *(["propagate", *graph, "--method", m, "--direction", "up", "--epsilon", "0.3",
       "--max-steps", "3", "--seed-features", "rows.csv", "--out-dir", f"propagate_{m}",
       "--out", "features.csv", "--log", "steps.csv", "--log-pivots", "pivots.csv"]
      for m in "ab"),
    *(["evaluate", *graph, "--protocol", protocol, "--features", "truth.csv",
       "--epsilon-grid", "0.3,0.05,0.3,0.15", "--sample-size", "60", "--k", "4",
       "--out-dir", protocol, "--out", "report.csv", "--out-json", "report.json"]
      for protocol in ("kfold-b", "sweep-a")),
    ["report", "--inputs", "kfold-b/report.csv", "sweep-a/report.csv", "--out", "merged.csv"],
]
for argv in runs:
    if main(argv):
        sys.exit(1)
"""


def test_pipeline_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    config = {"n_nodes": 300, "n_elites": 8, "beta": 3.0, "mean_out_degree": 8.0,
              "elite_attractiveness": 40.0, "seed": 4}
    src = str(Path(cohprop.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "12345"):
        run = tmp_path / f"hash_{hash_seed}"
        run.mkdir()
        (run / "planted.json").write_text(json.dumps(config))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", PIPELINE], cwd=run, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append({str(path.relative_to(run)): path.read_bytes()
                        for path in sorted(run.rglob("*")) if path.is_file()})
    # the config, 4 files from generate, 2 from ingest, 4 from scale, 4 and 3 from
    # propagate b and a, 3 from each evaluate and 2 from report, manifests included
    assert len(outputs[0]) == 26
    assert outputs[0] == outputs[1]
    inputs = {name: json.loads(data)["inputs"] for name, data in outputs[0].items()
              if Path(name).name.startswith("manifest_")}
    assert {name: sorted(files) for name, files in inputs.items()} == {
        "manifest_generate.json": ["config"],
        "manifest_ingest.json": ["graph"],
        "manifest_scale.json": ["elites", "graph"],
        "propagate_a/manifest_propagate.json": ["graph", "seed_features"],
        "propagate_b/manifest_propagate.json": ["graph", "seed_features"],
        "kfold-b/manifest_evaluate.json": ["features", "graph"],
        "sweep-a/manifest_evaluate.json": ["features", "graph"],
        "manifest_report.json": ["input_0", "input_1"],
    }
    assert [inputs["manifest_report.json"][f"input_{i}"]["path"] for i in range(2)] == [
        "kfold-b/report.csv", "sweep-a/report.csv"]


@st.composite
def cli_inputs(draw):
    """A small edge file and features CSV, and flags for one propagate and one evaluate run."""
    n = draw(st.integers(2, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=1, max_size=20))
    # a label named only by self-loops is an isolated node of the graph
    edges += [(v, v) for v in draw(st.lists(st.integers(n, n + 2), max_size=2))]
    dim = draw(st.integers(1, 4))
    # seed labels are graph labels, and once in a while one that is not;
    # values are few, so some rows coincide
    labels = sorted({f"n{v}" for edge in edges for v in edge})
    known = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels),
                          unique=True))
    if draw(st.integers(0, 9)) == 7:
        known.append("unknown")
    value = st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0])
    rows = [(label, draw(st.lists(value, min_size=dim, max_size=dim))) for label in known]
    return {
        "edges": "".join(f"n{u},n{v}\n" for u, v in edges),
        "features": "node_label," + ",".join(f"f{i + 1}" for i in range(dim)) + "\n"
                    + "".join(f"{label}," + ",".join(map(repr, vec)) + "\n"
                              for label, vec in rows),
        "method": draw(st.sampled_from("ab")),
        "direction": draw(st.sampled_from(["up", "down"])),
        "p": draw(st.sampled_from(["1", "1.5", "2", "3"])),
        "epsilon": draw(st.sampled_from(["0", "0.25", "1"])),
        "protocol": draw(st.sampled_from(["kfold-b", "sweep-a"])),
        "grid": draw(st.sampled_from(["0", "0,0.5", "1,0"])),
        "sample": str(draw(st.integers(min(2, len(known)), len(known)))),
    }


def run_main(argv):
    """``main(argv)`` in-process: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@given(cli_inputs())
def test_cli_on_random_small_inputs(case):
    # every run exits 0, or 1 with one error line, no traceback and no
    # manifest; a propagate output reads back as the store it was written from
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "edges.csv").write_text(case["edges"], encoding="utf-8")
        (tmp / "features.csv").write_text(case["features"], encoding="utf-8")
        graph = ["--graph", str(tmp / "edges.csv")]
        written = []
        write = cli.write_features_csv

        def kept(path, store, g, include_provenance=False):
            written.append(store)
            write(path, store, g, include_provenance)

        runs = {
            "propagate": ["propagate", *graph, "--method", case["method"],
                          "--direction", case["direction"], "--epsilon", case["epsilon"],
                          "--max-steps", "3", "--p", case["p"],
                          "--seed-features", str(tmp / "features.csv"),
                          "--out-dir", str(tmp / "propagate"), "--out", "out.csv"],
            "evaluate": ["evaluate", *graph, "--protocol", case["protocol"],
                         "--features", str(tmp / "features.csv"),
                         "--direction", case["direction"], "--epsilon-grid", case["grid"],
                         "--p", case["p"], "--k", "2", "--sample-size", case["sample"],
                         "--grid-bins", "2", "--out-dir", str(tmp / "evaluate"),
                         "--out", "report.csv"],
        }
        for sub, argv in runs.items():
            with mock.patch.object(cli, "write_features_csv", kept):
                rc, err = run_main(argv)
            manifest = tmp / sub / f"manifest_{sub}.json"
            if rc:
                # a logged warning (a dropped self-loop) may come before the error
                lines = err.splitlines()
                assert rc == 1 and "Traceback" not in err, err
                errors = [line for line in lines if line.startswith("error: ")]
                assert lines and errors == lines[-1:], err
                assert not manifest.exists()
                continue
            assert manifest.exists()
            if sub == "propagate":
                [store] = written
                back = read_features_csv(tmp / sub / "out.csv", load_edge_list(tmp / "edges.csv"))
                nodes = store.nodes()
                assert back.nodes().tolist() == nodes.tolist()
                assert np.array_equal(back.features_of(nodes), store.features_of(nodes))
                assert back.steps_of(nodes).tolist() == store.steps_of(nodes).tolist()
