import csv
import json
from fractions import Fraction

import pytest

import helpers
from dippl import cli, oracle
from dippl.bdd import NodeStore
from dippl.cli import main
from dippl.compiler import compile_program
from dippl.generators import BenchSpec, gen_chain
from dippl.infer import event_prob
from dippl.lang import parse, parse_expr

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


def assert_float_formats_exact(capsys, argv):
    """``argv --float`` prints ``float()`` of each exact field of ``argv``."""
    _, exact = run_json(capsys, argv)
    code, report = run_json(capsys, [*argv, "--float"])
    assert code == 0
    assert report["value"] is None
    assert report["decimal"] == float(Fraction(exact["value"]))
    for field in ("numerator", "denominator"):
        assert report[field] == str(float(Fraction(exact[field])))
    assert report["mode"] == "float"


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

    @pytest.mark.parametrize(
        "rhs", ["!" * 3000 + "x", "(" * 1500 + "x" + ")" * 1500], ids=["3000-nots", "1500-parens"]
    )
    def test_deep_prefix_nesting_in_fresh_interpreter(self, tmp_path, rhs):
        # an even number of "!"s, or parentheses alone, leave y = x
        path = tmp_path / "deep.dippl"
        path.write_text(f"x ~ flip(1/2); y := {rhs}")
        result = helpers.run_fresh("-m", "dippl", "infer", str(path), "--query", "y", "--json")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["value"] == "1/2"

    def test_deep_if_nesting_in_fresh_interpreter(self, tmp_path):
        # y := x runs only when x holds, 1,000 ifs deep
        path = tmp_path / "deep_if.dippl"
        path.write_text("x ~ flip(1/2); " + "if x { " * 1000 + "y := x" + " } else { skip }" * 1000)
        result = helpers.run_fresh("-m", "dippl", "infer", str(path), "--query", "y", "--json")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["value"] == "1/2"

    def test_float_mode(self, bar2_file, capsys):
        # --float formats the exact answer; it is not another arithmetic
        for query in ("y", "x && !y", "true"):
            assert_float_formats_exact(capsys, ["infer", bar2_file, "--query", query, "--json"])

    def test_float_mode_chain(self, chain_file, capsys):
        code, report = run_json(
            capsys, ["infer", chain_file, "--query", "z", "--json", "--float"]
        )
        assert code == 0
        assert report["value"] is None
        assert report["decimal"] == 0.75
        assert report["mode"] == "float"

    def test_float_mode_converts_the_exact_answer(self, bar2_file, capsys):
        # from a given initial state, with observe: the transition to
        # x=true,y=false and two marginals
        for init in ("x=false,y=false", "x=true,y=false"):
            for query in ("x && !y", "x", "!x || y"):
                argv = ["infer", bar2_file, "--init", init, "--query", query, "--json"]
                assert_float_formats_exact(capsys, argv)

    def test_float_mode_infeasible(self, tmp_path, capsys):
        path = tmp_path / "bad.dippl"
        path.write_text("x ~ flip(1/3); observe(x && !x)")
        code, report = run_json(capsys, ["infer", str(path), "--query", "x", "--json", "--float"])
        assert code == 2
        assert report["infeasible"] is True
        assert report["value"] is None and report["decimal"] is None
        assert (report["numerator"], report["denominator"]) == ("0.0", "0.0")

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

    def test_flip_parameter_out_of_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad_flip.dippl"
        path.write_text("x ~ flip(3/2)")
        assert main(["infer", str(path), "--query", "x"]) == 1
        assert "flip parameter 3/2 outside [0, 1]" in capsys.readouterr().err

    def test_internal_value_error_is_internal(self, chain_file, monkeypatch, capsys):
        # a ValueError the user's input did not cause is a fault of dippl
        def interleaved_frame(program):
            NodeStore(["a", "b", "c", "d"]).iff_cube({0: 2, 1: 3})

        monkeypatch.setattr(cli, "compile_program", interleaved_frame)
        assert main(["infer", chain_file, "--query", "z"]) == 3
        assert "internal error: iff_cube constraints interleave" in capsys.readouterr().err

    def test_human_readable_output(self, chain_file, capsys):
        assert main(["infer", chain_file, "--query", "z"]) == 0
        out = capsys.readouterr().out
        assert "value: 3/4" in out


class TestAllMarginals:
    @pytest.mark.parametrize(
        "source, init, code",
        [
            (FIG_CHAIN, None, 0),
            (BAR2, "x=false", 0),
            (BAR2, "x=true,y=true", 0),
            ("x ~ flip(1/3); y := x; observe(x && !y)", None, 2),
        ],
        ids=["chain", "bar2-x-false", "bar2-x-true", "infeasible"],
    )
    def test_matches_event_prob_per_variable(self, tmp_path, capsys, source, init, code):
        path = tmp_path / "program.dippl"
        path.write_text(source)
        init_args = ["--init", init] if init else []
        got, report = run_json(
            capsys, ["infer", str(path), "--all-marginals", *init_args, "--json"]
        )
        assert got == code
        program = parse(source)
        compiled = compile_program(program)
        start = cli._parse_init(init, program)
        assert list(report["marginals"]) == list(program.vars)
        for name, fields in report["marginals"].items():
            single = event_prob(compiled, start, parse_expr(name))
            feasible = not single.infeasible
            assert fields == {
                "infeasible": not feasible,
                "value": str(single.value) if feasible else None,
                "decimal": float(single.value) if feasible else None,
                "numerator": str(single.numerator),
                "denominator": str(single.denominator),
            }
            assert fields["infeasible"] is (code == 2)
        floats = run_json(
            capsys, ["infer", str(path), "--all-marginals", *init_args, "--json", "--float"]
        )[1]
        for name, fields in floats["marginals"].items():
            exact = report["marginals"][name]
            assert fields["decimal"] == exact["decimal"]
            assert fields["numerator"] == str(float(Fraction(exact["numerator"])))
        assert floats["mode"] == "float"

    def test_human_readable_output(self, chain_file, capsys):
        assert main(["infer", chain_file, "--all-marginals"]) == 0
        out = capsys.readouterr().out
        assert "  z: infeasible=False value=3/4" in out

    def test_misuse_is_usage_error(self, chain_file, capsys):
        for argv in (["--all-marginals", "--query", "z"], []):
            with pytest.raises(SystemExit) as exit_info:
                main(["infer", chain_file, *argv])
            assert exit_info.value.code == cli.EXIT_USAGE
            assert "--all-marginals" in capsys.readouterr().err


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

    def test_check_enumerates_once(self, bar2_file, monkeypatch, capsys):
        calls = []
        enumerate_states = oracle.output_marginal

        def counted(*args):
            calls.append(args)
            return enumerate_states(*args)

        monkeypatch.setattr(oracle, "output_marginal", counted)
        monkeypatch.setattr(cli, "output_marginal", counted)
        code, report = run_json(
            capsys, ["oracle", bar2_file, "--query", "y", "--check", "--json"]
        )
        assert code == 0 and report["check"] == "equal"
        assert len(calls) == 1

    def test_check_infeasible(self, tmp_path, capsys):
        path = tmp_path / "bad.dippl"
        path.write_text("x ~ flip(1/3); observe(x && !x)")
        code, report = run_json(
            capsys, ["oracle", str(path), "--query", "x", "--check", "--json"]
        )
        assert code == 2
        assert report["check"] == "equal"
        assert report["infeasible"] is True and report["compiled_value"] is None

    def test_check_mismatch_is_internal(self, chain_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "output_marginal", lambda *args: Fraction(1, 2))
        code, report = run_json(
            capsys, ["oracle", chain_file, "--query", "z", "--check", "--json"]
        )
        assert code == 3
        assert report["check"] == "MISMATCH" and report["compiled_value"] == "3/4"

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

    def test_wide_expression_in_fresh_interpreter(self, tmp_path):
        # a 1,500-term || over 5 variables nests 1,500 deep
        path = tmp_path / "wide.dippl"
        path.write_text("x := " + " || ".join(f"v{i % 5}" for i in range(1500)))
        result = helpers.run_fresh(
            "-m", "dippl", "oracle", str(path), "--query", "x", "--init", "v3=true"
        )
        assert result.returncode == 0, result.stderr
        assert "value: 1" in result.stdout

    def test_long_sequence_in_fresh_interpreter(self, tmp_path):
        # 700 statements over 2 variables: the oracle walks the sequence,
        # it does not recurse once per statement
        steps = ["x := !y", "y := x || y"] * 350
        path = tmp_path / "long.dippl"
        path.write_text(";\n".join(["x ~ flip(1/2)", *steps[:699]]))
        result = helpers.run_fresh("-m", "dippl", "oracle", str(path), "--query", "x", "--check")
        assert result.returncode == 0, result.stderr
        assert "check: equal" in result.stdout


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
        result = helpers.run_fresh("-m", "dippl", "compile", str(path))
        assert result.returncode == 0, result.stderr

    def test_wide_expression_in_fresh_interpreter(self, tmp_path):
        # operator chains nest as deep as they are long
        path = tmp_path / "wide.dippl"
        path.write_text("x := " + " || ".join(f"v{i}" for i in range(1500)))
        result = helpers.run_fresh("-m", "dippl", "compile", str(path))
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
            "node_count", "compile_ms", "query_ms",
        }

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

    def test_bad_det_and_size_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        cases = (["--sizes", "2", "--det", "1.5"], ["--sizes", "2", "--det", "abc"], ["--sizes", "0"])
        for case in cases:
            assert main(["bench", "--family", "grid", *case, "--out", str(out)]) == 1
            assert "internal" not in capsys.readouterr().err
        assert not out.exists()

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
        cases = [("chain", 5, 0), ("ladder", 4, 0), ("grid", 2, 0.5)]
        for family, size, det in cases:
            spec = BenchSpec(family, size, det, seed=29)
            path = tmp_path / f"{family}{size}.dippl"
            path.write_text(spec.source())
            query = spec.query_var()
            code_i, by_compiler = run_json(
                capsys, ["infer", str(path), "--query", query, "--json"]
            )
            code_o, by_oracle = run_json(
                capsys, ["oracle", str(path), "--query", query, "--json"]
            )
            assert code_i == 0 and code_o == 0
            assert by_compiler["value"] == by_oracle["value"]
