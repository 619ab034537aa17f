import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import multiekr
from multiekr import Family, Multiset, cli
from multiekr.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from multiekr.errors import CertificationError
from multiekr.search import build_kernel_family

SRC = Path(__file__).parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "3..12", "--k", "2..5", "--t", "1..3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,t,star,ak_set,i_star"
        assert "7,5,3,28,31,1" in lines
        # grid skips t > k combinations silently
        assert not any(line.startswith("3,2,3,") for line in lines)

    def test_json_has_per_i(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "7", "--k", "5", "--t", "3", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data[0]["ak_set"] == 31 and data[0]["per_i"] == [[0, 28], [1, 31], [2, 21]]

    def test_deterministic_bytes(self, capsys):
        args = ("bound", "--n", "3..8", "--k", "2..4", "--t", "1..2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestEnumerate:
    def test_writes_family_file(self, capsys, tmp_path):
        out_path = tmp_path / "fam.txt"
        code, _, _ = run(
            capsys, "enumerate", "--n", "3", "--k", "2", "--out", str(out_path)
        )
        assert code == EXIT_OK
        fam = Family.load(str(out_path))
        assert len(fam) == 6

    def test_cap_respected(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--k", "3", "--cap", "1")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 1 + 4

    def test_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "3..4", "--k", "2"])
        assert exc.value.code == EXIT_USAGE

    def test_wide_ground_set(self, capsys, tmp_path):
        # more columns than the default recursion limit
        out_path = tmp_path / "wide.txt"
        code, _, err = run(
            capsys, "enumerate", "--n", "1100", "--k", "1", "--out", str(out_path)
        )
        assert code == EXIT_OK, err
        assert len(out_path.read_text().splitlines()) == 1 + 1100


class TestCompress:
    def test_star_is_already_compressed(self, capsys, tmp_path):
        star = build_kernel_family(4, 2, Multiset((1, 0, 0, 0)), 1)
        in_path = tmp_path / "star.txt"
        star.save(str(in_path))
        trace_path = tmp_path / "trace.csv"
        out_path = tmp_path / "out.txt"
        code, _, _ = run(
            capsys, "compress", "--t", "1", "--in", str(in_path),
            "--trace", str(trace_path), "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert Family.load(str(out_path)) == star
        assert trace_path.read_text().strip() == "step,i,j,potential,size,kernel"

    def test_trace_records_changes(self, capsys, tmp_path):
        fam = Family([(2, 0)])
        in_path = tmp_path / "fam.txt"
        fam.save(str(in_path))
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "compress", "--t", "2", "--in", str(in_path),
            "--trace", str(trace_path),
        )
        assert code == EXIT_OK
        assert "1,1\n" in out  # compressed member (1,1)
        rows = trace_path.read_text().strip().splitlines()
        assert len(rows) == 2 and rows[1].startswith("1,1,2,")
        assert rows[1].endswith(",1,1")  # size 1, kernel ok

    def test_missing_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compress", "--t", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_family_is_usage_error(self, capsys, tmp_path):
        fam = Family([(2, 0, 0), (0, 2, 0)])
        in_path = tmp_path / "bad.txt"
        fam.save(str(in_path))
        code, _, err = run(capsys, "compress", "--t", "1", "--in", str(in_path))
        assert code == EXIT_USAGE and "not t-intersecting" in err

    def test_repeated_member_is_usage_error(self, capsys, tmp_path):
        in_path = tmp_path / "repeated.txt"
        in_path.write_text("n=3 k=2\n1,1,0\n1,1,0\n2,0,0\n1,0,1\n")
        code, out, err = run(capsys, "compress", "--t", "1", "--in", str(in_path))
        assert code == EXIT_USAGE and out == ""
        assert "repeated member line: '1,1,0'" in err

    def test_non_ascii_file_is_usage_error(self, capsys, tmp_path):
        in_path = tmp_path / "latin1.txt"
        in_path.write_bytes(b"n=3 k=2\n1,1,0\xe9\n")
        code, out, err = run(capsys, "compress", "--t", "1", "--in", str(in_path))
        assert code == EXIT_USAGE and out == ""
        assert "not ASCII text" in err and "Traceback" not in err

    def test_empty_family_on_a_huge_ground_set(self, capsys, tmp_path):
        # the first row of 10**20 columns is never built for an empty family
        in_path = tmp_path / "empty.txt"
        in_path.write_text("n=100000000000000000000 k=1\n")
        code, out, err = run(capsys, "compress", "--t", "1", "--in", str(in_path))
        assert code == EXIT_OK, err
        assert out == "n=100000000000000000000 k=1\n"


class TestSearch:
    def test_json_results_and_witness(self, capsys, tmp_path):
        wit_path = tmp_path / "wit.txt"
        code, out, _ = run(
            capsys, "search", "--n", "7", "--k", "5", "--t", "3",
            "--witness", str(wit_path),
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data[0]["max_size"] == 31
        witness = Family.load(str(wit_path))
        assert len(witness) == 31

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "search", "--n", "10", "--k", "5", "--t", "1",
            "--budget-vertices", "50",
        )
        assert code == EXIT_BUDGET and "budget" in err

    def test_huge_ground_set_refused_at_once(self):
        # the vertex count is a closed sum, so the budget refusal comes first
        argv = ["search", "--n", "30000000", "--k", "2", "--t", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "multiekr.cli", *argv],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == EXIT_BUDGET, proc.stderr
        assert "450000015000000 vertices" in proc.stderr

    def test_grid_output_deterministic(self, capsys):
        args = ("search", "--n", "3..5", "--k", "2..3", "--t", "1..2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second and len(json.loads(first)) == 12

    def test_wide_ground_set(self, capsys):
        code, out, err = run(capsys, "search", "--n", "1500", "--k", "1", "--t", "1")
        assert code == EXIT_OK, err
        assert json.loads(out)[0]["max_size"] == 1


class TestVerify:
    def test_sharp_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--k", "2", "--t", "1")
        assert code == EXIT_OK
        assert "max=3 bound=3 SHARP" in out

    def test_skips_below_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--k", "2", "--t", "1")
        assert code == EXIT_OK and "SKIP" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "7", "--k", "5", "--t", "3",
            "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data[0]["sharp"] is True and data[0]["max_size"] == 31


class TestTable:
    def test_quick_run_passes(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, err = run(
            capsys, "table", "--quick", "--corpus-size", "6",
            "--out", str(out_path),
        )
        assert code == EXIT_OK, err
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "check,params,expected,actual,status"
        assert all(row.endswith(",pass") for row in rows[1:])
        checks = {row.split(",")[0] for row in rows[1:]}
        assert {
            "star_identity_t1",
            "star_optimal_regime",
            "star_beaten_regime",
            "kernel_family_beats_star",
            "intersection_distance_identity",
            "enumeration_count",
            "interval_lemma",
            "sharpness",
            "compression_suite",
            "kernel_reduction",
            "lifting_identity",
            "window_size",
        } <= checks

    def test_deterministic_with_seed(self, capsys):
        args = ("table", "--quick", "--corpus-size", "4", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestUsage:
    @pytest.mark.parametrize("subcommand", ["bound", "search", "verify"])
    def test_grid_without_points(self, subcommand, capsys):
        # t > k at every point: nothing would be computed, so nothing is
        # reported as sharp or as a result
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--n", "3", "--k", "2", "--t", "5"])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "no grid point" in err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_range(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "5..3", "--k", "2", "--t", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "3"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", "4", "--k", "2", "--t", "1", "--cap", "1"),
            ("bound", "--n", "4", "--k", "2", "--t", "1", "--seed", "3"),
            ("compress", "--t", "1", "--in", "fam.txt", "--budget-nodes", "5"),
        ],
    )
    def test_option_the_subcommand_does_not_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--quick", "--corpus-size", "-3"),
            ("table", "--quick", "--corpus-size", "0"),
            ("search", "--n", "3", "--k", "2", "--t", "1", "--budget-nodes", "-1"),
            ("verify", "--n", "3", "--k", "2", "--t", "1", "--budget-vertices", "0"),
        ],
    )
    def test_size_or_budget_below_one(self, argv):
        # a corpus of no families checks nothing; a negative budget is not
        # an exceeded one
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE

    def test_each_subcommand_declares_only_what_it_reads(self):
        (commands,) = [
            action
            for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = {
            name: {
                flag
                for action in sub._actions
                if action.dest != "help"
                for flag in action.option_strings
            }
            for name, sub in commands.choices.items()
        }
        budgets = {"--budget-nodes", "--budget-vertices"}
        assert options == {
            "bound": {"--n", "--k", "--t", "--format", "--out"},
            "enumerate": {"--n", "--k", "--cap", "--out"},
            "compress": {"--t", "--in", "--out", "--trace"},
            "search": {"--n", "--k", "--t", "--cap", "--out", "--witness"} | budgets,
            "verify": {"--n", "--k", "--t", "--format", "--out"} | budgets,
            "table": {"--seed", "--out", "--quick", "--corpus-size"},
        }


class TestExitCodes:
    @pytest.mark.parametrize(
        "fault", [CertificationError("certificate failed"), RuntimeError("boom")]
    )
    def test_internal_fault(self, capsys, monkeypatch, fault):
        def broken(args):
            raise fault

        monkeypatch.setattr(cli, "_cmd_bound", broken)
        code, _, err = run(capsys, "bound", "--n", "3", "--k", "2", "--t", "1")
        assert code == EXIT_INTERNAL and str(fault) in err


def _readme_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in section.splitlines()
        if line.startswith("multiekr ")
    ]


def _readme_tour():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# a tour comment that opens with one of these states the line's value
_TOUR_RESULT = re.compile(r"\([^)]*\)|\d+|True|False")


class TestPublicSurface:
    def test_all_names_resolve_sorted_unique(self):
        names = multiekr.__all__
        assert names == sorted(set(names))
        for name in names:
            getattr(multiekr, name)


class TestReadme:
    def test_command_lines_exit_zero(self, capsys, tmp_path, monkeypatch):
        # the lines run in order: compress reads the file enumerate writes
        monkeypatch.chdir(tmp_path)
        commands = _readme_commands()
        assert len(commands) >= 7
        for argv in commands:
            code, _, err = run(capsys, *argv)
            assert code == EXIT_OK, (argv, err)

    def test_library_tour_values(self):
        namespace = {}
        checked = []
        for line in _readme_tour().splitlines():
            code, _, comment = line.partition("#")
            result = _TOUR_RESULT.match(comment.strip())
            if result is None:
                exec(code, namespace)
                continue
            expected = ast.literal_eval(result.group())
            assert eval(code, namespace) == expected, line
            checked.append(expected)
        assert checked == [(2, 1, 0, 0, 0), 6, 31, 28, 31, True, True, True]
