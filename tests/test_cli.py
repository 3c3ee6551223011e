import csv
import json
import os
import subprocess
import sys

import pytest

import dippl
import helpers
from dippl.cli import main
from dippl.compiler import compile_program
from dippl.generators import BenchSpec, gen_chain
from dippl.lang import parse

FIG_CHAIN = """
x ~ flip(0.5);
if x { y ~ flip(0.6) } else { y ~ flip(0.4) };
if y { z ~ flip(0.6) } else { z ~ flip(0.9) }
"""

BAR2 = """
y ~ flip(1/2);
observe(x || y);
if y { y ~ flip(1/2) } else { y := false }
"""


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.dippl"
    path.write_text(FIG_CHAIN)
    return str(path)


@pytest.fixture
def bar2_file(tmp_path):
    path = tmp_path / "bar2.dippl"
    path.write_text(BAR2)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


class TestInfer:
    def test_chain_query(self, chain_file, capsys):
        code, report = run_json(capsys, ["infer", chain_file, "--query", "z", "--json"])
        assert code == 0
        assert report["value"] == "3/4"
        assert report["decimal"] == 0.75
        assert report["mode"] == "rational"
        assert report["node_count"] == 11

    def test_true_query(self, chain_file, capsys):
        code, report = run_json(capsys, ["infer", chain_file, "--query", "true", "--json"])
        assert code == 0
        assert report["value"] == "1"

    def test_bar2_with_init(self, bar2_file, capsys):
        code, report = run_json(
            capsys,
            ["infer", bar2_file, "--init", "x=false", "--query", "y", "--json"],
        )
        assert code == 0
        assert report["value"] == "1/2"

    def test_float_mode(self, chain_file, capsys):
        code, report = run_json(
            capsys, ["infer", chain_file, "--query", "z", "--json", "--float"]
        )
        assert code == 0
        assert report["value"] is None
        assert abs(report["decimal"] - 0.75) < 1e-12
        assert report["mode"] == "float"

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.dippl"
        path.write_text("observe(x && !x)")
        code, report = run_json(capsys, ["infer", str(path), "--query", "true", "--json"])
        assert code == 2
        assert report["infeasible"] is True

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.dippl"
        path.write_text("x := ;")
        assert main(["infer", str(path), "--query", "x"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["infer", "/nonexistent.dippl", "--query", "x"]) == 1

    def test_bad_init_entry(self, chain_file, capsys):
        assert main(["infer", chain_file, "--init", "x=maybe", "--query", "z"]) == 1
        assert main(["infer", chain_file, "--init", "q=true", "--query", "z"]) == 1

    def test_human_readable_output(self, chain_file, capsys):
        assert main(["infer", chain_file, "--query", "z"]) == 0
        out = capsys.readouterr().out
        assert "value: 3/4" in out


class TestOracleCommand:
    def test_matches_infer(self, chain_file, capsys):
        code, report = run_json(capsys, ["oracle", chain_file, "--query", "z", "--json"])
        assert code == 0
        assert report["value"] == "3/4"
        assert report["mode"] == "oracle"

    def test_check_flag(self, chain_file, capsys):
        code, report = run_json(
            capsys, ["oracle", chain_file, "--query", "z", "--check", "--json"]
        )
        assert code == 0
        assert report["check"] == "equal"
        assert report["compiled_value"] == "3/4"

    def test_bar2_init(self, bar2_file, capsys):
        code, report = run_json(
            capsys,
            ["oracle", bar2_file, "--init", "x=false", "--query", "y", "--json"],
        )
        assert code == 0
        assert report["value"] == "1/2"

    def test_variable_cap(self, tmp_path, capsys):
        path = tmp_path / "wide.dippl"
        path.write_text("; ".join(f"v{i} := true" for i in range(13)))
        assert main(["oracle", str(path), "--query", "v0"]) == 3
        assert "13 variables exceed the cap of 12" in capsys.readouterr().err


class TestCompileCommand:
    def test_writes_artifacts(self, chain_file, tmp_path, capsys):
        dot_path = tmp_path / "out.dot"
        stats_path = tmp_path / "stats.json"
        code = main(
            ["compile", chain_file, "--dot", str(dot_path), "--stats", str(stats_path)]
        )
        assert code == 0
        helpers.check_dot(dot_path.read_text())
        stats = json.loads(stats_path.read_text())
        assert stats["nodeCount"] == 11
        assert stats["varOrder"][:4] == ["f0", "x", "x'", "x''"]
        assert "compileMs" in stats

    @pytest.mark.parametrize("flag", ["--dot", "--stats"])
    def test_unwritable_output_is_usage_error(self, chain_file, tmp_path, capsys, flag):
        out = tmp_path / "missing" / "out"
        assert main(["compile", chain_file, flag, str(out)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_long_chain_in_fresh_interpreter(self, tmp_path):
        # sequences nest as deep as they are long; a fresh interpreter
        # has the default recursion limit
        path = tmp_path / "chain1200.dippl"
        path.write_text(gen_chain(1200, 3))
        src = os.path.dirname(os.path.dirname(dippl.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "dippl", "compile", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr

    def test_wide_expression_in_fresh_interpreter(self, tmp_path):
        # operator chains nest as deep as they are long
        path = tmp_path / "wide.dippl"
        path.write_text("x := " + " || ".join(f"v{i}" for i in range(1500)))
        src = os.path.dirname(os.path.dirname(dippl.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "dippl", "compile", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr

    def test_dot_styles_edges(self, tmp_path, capsys):
        path = tmp_path / "skip.dippl"
        path.write_text("x := x")
        dot_path = tmp_path / "skip.dot"
        assert main(["compile", str(path), "--dot", str(dot_path)]) == 0
        text = dot_path.read_text()
        assert "style=dashed" in text and "style=solid" in text


class TestBench:
    def test_chain_sweep(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            ["bench", "--family", "chain", "--sizes", "2..6:2", "--seed", "5",
             "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["size"] for row in rows] == ["2", "4", "6"]
        assert set(rows[0]) == {
            "family", "size", "determinism", "seed",
            "node_count", "compile_ms", "query_ms", "mode",
        }
        assert all(row["mode"] == "rational" for row in rows)

    def test_grid_determinism_sweep(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            ["bench", "--family", "grid", "--sizes", "2", "--det", "0,0.5",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(row["size"], row["determinism"]) for row in rows] == [
            ("2", "0"), ("2", "0.5"),
        ]
        # --det and --seed must reach the generator, not only the CSV columns
        expected = {
            det: compile_program(parse(BenchSpec("grid", 2, det, 5).source())).stats.node_count
            for det in ("0", "0.5")
        }
        assert expected["0"] != expected["0.5"]
        assert [int(row["node_count"]) for row in rows] == [
            expected[row["determinism"]] for row in rows
        ]

    def test_ladder_comma_sizes(self, tmp_path, capsys):
        out = tmp_path / "ladder.csv"
        code = main(
            ["bench", "--family", "ladder", "--sizes", "2,4,8", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["node_count"] for row in rows] == ["6", "12", "24"]

    def test_det_rejected_off_grid(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["bench", "--family", "chain", "--sizes", "2", "--det", "0.5",
             "--out", str(out)]
        )
        assert code == 1

    def test_bad_sizes(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["bench", "--family", "chain", "--sizes", "5..1",
                     "--out", str(out)]) == 1

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["bench", "--family", "chain", "--sizes", "2",
                     "--out", str(out)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_range_with_step_row_count(self):
        from dippl.cli import _parse_sizes

        assert len(_parse_sizes("10..150:10")) == 15
        assert _parse_sizes("3..5") == [3, 4, 5]
        assert _parse_sizes("7") == [7]

    def test_node_count_monotone_along_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["bench", "--family", "chain", "--sizes", "2..10:2",
                     "--seed", "7", "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            counts = [int(row["node_count"]) for row in csv.DictReader(handle)]
        assert counts == sorted(counts)


class TestEngineAgreement:
    def test_infer_and_oracle_agree_on_generated_benchmarks(self, tmp_path, capsys):
        from dippl.generators import generate, query_var

        cases = [("chain", 5, 0), ("ladder", 4, 0), ("grid", 2, 0.5)]
        for family, size, det in cases:
            path = tmp_path / f"{family}{size}.dippl"
            path.write_text(generate(family, size, det, seed=29))
            query = query_var(family, size)
            code_i, by_compiler = run_json(
                capsys, ["infer", str(path), "--query", query, "--json"]
            )
            code_o, by_oracle = run_json(
                capsys, ["oracle", str(path), "--query", query, "--json"]
            )
            assert code_i == 0 and code_o == 0
            assert by_compiler["value"] == by_oracle["value"]
