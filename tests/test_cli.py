"""Command line behaviour: output, exit codes, exports, cache wiring."""
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import binsum
from binsum import load_records_csv, load_records_json, run_experiment
from binsum.cli import main


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "binsum", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestDecompose:
    def test_triangular_pair(self):
        proc = run_cli("decompose", "--k", "2", "--n", "11")
        assert proc.returncode == 0
        assert "11 = 10 + 1" in proc.stdout

    def test_exact_minimal(self):
        proc = run_cli("decompose", "--k", "3", "--n", "17", "--algorithm", "exact")
        assert proc.returncode == 0
        assert "17 = 10 + 4 + 1 + 1 + 1" in proc.stdout

    def test_distinct_mode_failure_is_exit_4(self):
        proc = run_cli("decompose", "--k", "2", "--n", "5", "--mode", "distinct")
        assert proc.returncode == 4
        assert "no representation" in proc.stderr
        assert "distinct" in proc.stderr

    def test_greedy_high_order(self):
        proc = run_cli("decompose", "--k", "5", "--n", "1000000")
        assert proc.returncode == 0
        assert "1000000 =" in proc.stdout
        # order 1 takes the greedy chain too, a single term even in distinct mode
        proc = run_cli("decompose", "--k", "1", "--n", "7", "--mode", "distinct")
        assert proc.returncode == 0
        assert "indices (n, descending): [7]" in proc.stdout

    def test_json_export(self, tmp_path):
        out = tmp_path / "rep.json"
        proc = run_cli("decompose", "--k", "2", "--n", "11", "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["values"] == ["10", "1"]
        assert payload["terms"] == "2"

    def test_csv_export(self, tmp_path):
        out = tmp_path / "rep.csv"
        proc = run_cli("decompose", "--k", "2", "--n", "11",
                       "--format", "csv", "--out", str(out))
        assert proc.returncode == 0
        header, row = out.read_text().strip().splitlines()
        assert header.split(",")[:3] == ["k", "n", "algorithm"]
        assert "10" in row


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run_cli("decompose", "--k", "0", "--n", "5").returncode == 1
        assert run_cli("survey", "--kind", "energy", "--k", "2").returncode == 1
        assert run_cli("unknown-subcommand").returncode == 1

    def test_memory_budget_error_is_3(self):
        proc = run_cli(
            "survey", "--kind", "survey-H", "--k", "2", "--max", "1000000",
            "--memory-budget", "1000",
        )
        assert proc.returncode == 3
        assert "memory budget" in proc.stderr

    @pytest.mark.parametrize("index_bound, h", [("50", "20"), ("8660", "4")])
    def test_tally_past_int64_or_the_byte_budget_is_3(self, index_bound, h, capsys):
        # 49**19 would wrap the fold's int64 counts; 8659 values at h = 4
        # would need a 2.4 GB int64 fold
        assert main(["energy", "--k", "2", "--h", h, "--index-bound", index_bound]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("h", ["1400", "100000"])
    def test_refusal_of_a_huge_charge_is_3_and_short(self, h, capsys):
        # charges of about 4,200 and 300,000 digits: str() refuses the
        # second, and the first would print every digit
        assert main(["energy", "--k", "1", "--h", h, "--index-bound", "1000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "≈ 2^" in err
        assert len(err.encode()) < 1024

    def test_huge_arity_is_refused_from_bit_lengths(self, capsys):
        # 1000 values at h = 100000: mitm's larger half is 1000**50000
        # tuples, which admission sizes without building (best of 3 runs)
        argv = ["energy", "--k", "1", "--h", "100000", "--index-bound", "1000"]
        elapsed = []
        for _ in range(3):
            started = time.perf_counter()
            assert main(argv) == 3
            elapsed.append(time.perf_counter() - started)
        assert min(elapsed) < 0.01, elapsed
        assert capsys.readouterr().err == 3 * (
            "error: no tally kernel fits: dense convolution exceeds the byte budget "
            "(required 1600000016, budget 1200000000); mitm's larger half exceeds the "
            "tuple budget (required ≈ 2^498289.2, budget 20000000)\n")

    def test_fold_past_the_work_budget_is_refused_at_admission(self, capsys):
        # 5999 values at h = 4: an int64 fold of 7.6 * 10**11 cell adds
        # (best of 3 runs)
        argv = ["energy", "--k", "2", "--h", "4", "--index-bound", "6000"]
        elapsed = []
        for _ in range(3):
            started = time.perf_counter()
            assert main(argv) == 3
            elapsed.append(time.perf_counter() - started)
        assert min(elapsed) < 0.01, elapsed
        err = capsys.readouterr().err
        assert "dense convolution's fold exceeds the work budget" in err
        assert "Traceback" not in err

    def test_auto_refusal_names_every_kernel_tried(self, capsys):
        # the dense path was passed over because its counts could wrap int64
        assert main(["energy", "--k", "2", "--h", "20", "--index-bound", "50"]) == 3
        err = capsys.readouterr().err
        assert "dense convolution counts can exceed int64" in err
        assert "mitm's larger half exceeds the tuple budget" in err

    @pytest.mark.parametrize("argv", [
        ["--kind", "energy", "--k", "2", "--h", "2", "--index-bound", "50"],
        ["--kind", "restricted-sums", "--k", "2", "--h", "2", "--x", "100"],
        ["--kind", "exponent-fit", "--k", "1", "--h", "1", "--x", "10", "--x", "100",
         "--x", "1000"],
        ["--kind", "min-rep", "--k", "3", "--n", "17"],
        ["--kind", "asymptotic-ratio", "--k", "2", "--x", "100"],
    ], ids=lambda argv: argv[1])
    def test_memory_budget_refused_where_unread(self, argv, capsys):
        # only survey-H and coverage-threshold read the budget
        assert main(["survey", *argv, "--memory-budget", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"Error: --kind {argv[1]} takes no --memory-budget" in captured.err

    def test_run_experiment_refuses_an_unread_budget(self):
        with pytest.raises(ValueError, match="energy takes no memory_budget"):
            run_experiment("energy", {"k": 2, "h": 2, "index_bound": 50}, memory_budget=1)

    def test_run_experiment_names_an_unreadable_parameter(self):
        with pytest.raises(ValueError, match="cannot read parameter 'c' from '1/0'"):
            run_experiment("restricted-sums", {"k": 2, "h": 2, "x": 10, "c": "1/0"})

    def test_decompose_exact_takes_h_max(self):
        proc = run_cli("decompose", "--k", "2", "--n", "5", "--algorithm", "exact",
                       "--h-max", "2")
        assert proc.returncode == 4
        assert "no representation of 5 with <= 2 terms" in proc.stderr

    def test_memory_budget_read_where_declared(self, capsys):
        assert main(["survey", "--kind", "coverage-threshold", "--r-max", "100",
                     "--memory-budget", "1"]) == 3
        assert main(["survey", "--kind", "survey-H", "--k", "3", "--max", "100",
                     "--memory-budget", str(10**6)]) == 0
        assert "max terms = 5" in capsys.readouterr().out

    def test_help_is_0(self):
        assert run_cli("--help").returncode == 0
        assert run_cli("decompose", "--help").returncode == 0

    def test_version_is_0(self):
        proc = run_cli("--version")
        assert proc.returncode == 0

    def test_min_rep_bad_parameter_is_a_usage_error(self):
        proc = run_cli("min-rep", "--k", "0", "--n", "5")
        assert proc.returncode == 1
        assert "Error: k must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        proc = run_cli("decompose", "--k", "3", "--n", "17", "--algorithm", "exact",
                       "--h-max", "0")
        assert proc.returncode == 1
        assert "Error: h_max must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestExplicitZeros:
    """An explicit 0 is validated, never replaced by the default. Usage
    errors also name a missing required parameter with its option, and
    every command refuses the options that its kind does not take."""

    @pytest.mark.parametrize("argv, message", [
        (["min-rep", "--k", "3", "--n", "17", "--h-max", "0"], "h_max must be >= 1"),
        (["decompose", "--k", "3", "--n", "17", "--algorithm", "exact", "--h-max", "0"],
         "h_max must be >= 1"),
        (["survey", "--kind", "survey-H", "--k", "3", "--max", "100",
          "--max-witnesses", "0"], "max_witnesses must be >= 1"),
        (["survey", "--kind", "survey-H", "--k", "3", "--max", "100", "--n-min", "0"],
         "need 1 <= n_min <= n_max"),
        (["survey", "--kind", "coverage-threshold", "--k", "0", "--r-max", "10"],
         "coverage threshold is defined for k=2 only"),
        (["survey", "--kind", "min-rep", "--k", "3"], "min-rep requires parameter 'n' (--n)"),
        (["min-rep", "--k", "2"], "min-rep requires parameter 'n' (--n)"),
        (["survey", "--kind", "survey-H", "--k", "3"],
         "survey-H requires parameter 'n_max' (--max)"),
        (["survey", "--kind", "restricted-sums", "--k", "2", "--h", "2"],
         "restricted-sums requires parameter 'x'"),
        (["survey", "--kind", "asymptotic-ratio", "--k", "3"],
         "asymptotic-ratio requires parameter 'x'"),
        (["fit", "--k", "2", "--h", "2"], "exponent-fit requires parameter 'bounds' (--x)"),
        (["survey", "--kind", "energy", "--k", "2", "--h", "2", "--x", "300", "--x", "600"],
         "--kind energy takes a single --x"),
        (["survey", "--kind", "asymptotic-ratio", "--k", "3", "--x", "10", "--top", "4",
          "--r-max", "9"], "--kind asymptotic-ratio takes no --top, --r-max"),
        (["survey", "--kind", "energy", "--k", "2", "--h", "2", "--x", "300",
          "--mode", "distinct"], "--kind energy takes no --mode"),
        (["energy", "--k", "2", "--h", "2", "--x", "100", "--c", "1/2", "--top", "5",
          "--index-bound", "9", "--convention", "index"],
         "energy --c takes no --top, --index-bound, --convention"),
        (["energy", "--k", "2", "--h", "2", "--x", "300", "--x", "600"],
         "energy takes a single --x"),
        (["energy", "--k", "2", "--h", "2", "--x", "10", "--c", "1/0"],
         "cannot read parameter 'c' from '1/0'"),
        (["survey", "--kind", "restricted-sums", "--k", "2", "--h", "2", "--x", "10",
          "--c", "1/0"], "cannot read parameter 'c' from '1/0'"),
        (["decompose", "--k", "2", "--n", "11", "--threads", "0"], "--threads must be >= 1"),
        (["min-rep", "--k", "2", "--n", "11", "--threads", "0"], "--threads must be >= 1"),
        (["decompose", "--k", "2", "--n", "11", "--h-max", "1"],
         "decompose --algorithm greedy takes no --h-max"),
        (["decompose", "--k", "3", "--n", "17", "--algorithm", "greedy", "--h-max", "7"],
         "decompose --algorithm greedy takes no --h-max"),
    ], ids=["min-rep-h-max", "decompose-exact-h-max", "survey-H-max-witnesses",
            "survey-H-n-min", "coverage-k", "min-rep-no-n", "min-rep-command-no-n",
            "survey-H-no-max", "restricted-sums-no-x", "ratio-no-x", "fit-no-x",
            "energy-repeated-x", "ratio-foreign-options", "energy-mode",
            "energy-command-c-foreign-options", "energy-command-repeated-x",
            "energy-command-c-zero-denominator", "restricted-sums-c-zero-denominator",
            "decompose-threads-0", "min-rep-threads-0", "decompose-greedy-h-max",
            "decompose-explicit-greedy-h-max"])
    def test_zero_is_rejected(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"Error: {message}" in captured.err


class TestSurvey:
    def test_energy_kind(self):
        proc = run_cli("survey", "--kind", "energy", "--k", "2", "--h", "2",
                       "--index-bound", "4")
        assert proc.returncode == 0
        assert "energy=15" in proc.stdout

    def test_ratio_kind(self):
        proc = run_cli("survey", "--kind", "asymptotic-ratio", "--k", "2",
                       "--x", "1000000")
        assert proc.returncode == 0
        ratio = float(proc.stdout.split("ratio=")[1].strip())
        assert 0.99 <= ratio <= 1.01

    def test_min_rep_survey(self):
        proc = run_cli("survey", "--kind", "survey-H", "--k", "3", "--max", "10000")
        assert proc.returncode == 0
        assert "max terms = 5" in proc.stdout

    def test_export_round_trips(self, tmp_path):
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        for fmt, out in (("json", out_json), ("csv", out_csv)):
            proc = run_cli(
                "survey", "--kind", "coverage-threshold", "--k", "2",
                "--r-max", "100", "--format", fmt, "--out", str(out),
            )
            assert proc.returncode == 0
        json_rec = load_records_json(out_json)
        csv_rec = load_records_csv(out_csv)
        assert json_rec == csv_rec
        assert json_rec[0].results["repeats_threshold"] == 100


class TestCache:
    def test_cache_hit_via_flag(self, tmp_path):
        args = ("survey", "--kind", "min-rep", "--k", "2", "--n", "40",
                "--cache-dir", str(tmp_path))
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert "[cached]" not in first.stdout
        assert "[cached]" in second.stdout

    def test_cache_dir_env_var(self, tmp_path, monkeypatch):
        import os

        env = dict(os.environ, BINSUM_CACHE_DIR=str(tmp_path))
        args = ("survey", "--kind", "min-rep", "--k", "2", "--n", "41")
        run_cli(*args, env=env)
        assert len(list(tmp_path.glob("*.json"))) == 1
        second = run_cli(*args, env=env)
        assert "[cached]" in second.stdout


class TestOtherCommands:
    def test_min_rep_command(self):
        proc = run_cli("min-rep", "--k", "3", "--n", "17")
        assert proc.returncode == 0
        assert "5 terms" in proc.stdout

    def test_energy_command(self):
        proc = run_cli("energy", "--k", "2", "--h", "2", "--index-bound", "4")
        assert proc.returncode == 0
        assert "tuples=9" in proc.stdout

    def test_energy_restricted_variant(self):
        proc = run_cli("energy", "--k", "2", "--h", "2", "--x", "100",
                       "--c", "1/2")
        assert proc.returncode == 0
        assert "restricted-sums" in proc.stdout

    def test_coverage_command(self):
        proc = run_cli("coverage", "--r-max", "200")
        assert proc.returncode == 0
        assert "distinct=200" in proc.stdout

    def test_fit_command(self):
        proc = run_cli("fit", "--k", "1", "--h", "1",
                       "--x", "10", "--x", "100", "--x", "1000")
        assert proc.returncode == 0
        assert "alpha_hat=1.0000" in proc.stdout

    def test_fit_needs_three_bounds(self):
        proc = run_cli("fit", "--k", "1", "--h", "1", "--x", "10", "--x", "100")
        assert proc.returncode == 1

    def test_table_command(self, tmp_path):
        out = tmp_path / "table.csv"
        proc = run_cli("table", "--k", "2", "--x", "100", "--x", "1000",
                       "--format", "csv", "--out", str(out))
        assert proc.returncode == 0
        records = load_records_csv(out)
        assert len(records) == 2
        assert records[0].results["count"] == 13  # triangulars up to 100


# the directory binsum is imported from, so a subprocess imports it from any cwd
SRC = str(Path(binsum.__file__).resolve().parents[1])


def run_cli_in(cwd, *args, **env):
    return subprocess.run(
        [sys.executable, "-m", "binsum", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        timeout=120,
    )


class TestParser:
    """Command-line parsing that must not change with the parser library."""

    def test_abbreviated_flag_is_refused(self, capsys):
        assert main(["energy", "--k", "2", "--h", "2", "--inde", "5"]) == 1
        assert "Error:" in capsys.readouterr().err

    def test_non_integer_value_is_a_usage_error(self):
        proc = run_cli("decompose", "--k", "x", "--n", "5")
        assert proc.returncode == 1
        assert "Error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_no_command_is_1(self):
        assert run_cli().returncode == 1

    def test_version_output(self):
        assert f"version {binsum.__version__}" in run_cli("--version").stdout

    def test_core_count_read_only_without_threads(self, monkeypatch):
        def refuse():
            raise AssertionError("os.cpu_count called though --threads was given")

        monkeypatch.setattr(os, "cpu_count", refuse)
        for argv in (["energy", "--k", "3", "--h", "3", "--index-bound", "20"],
                     ["survey", "--kind", "min-rep", "--k", "2", "--n", "42"]):
            assert main([*argv, "--threads", "2"]) == 0
        # without --threads, an unknown core count means one thread
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert main(["energy", "--k", "3", "--h", "3", "--index-bound", "20"]) == 0

    def test_empty_cache_env_var_means_no_cache(self, tmp_path):
        proc = run_cli_in(tmp_path, "survey", "--kind", "min-rep", "--k", "2", "--n", "42",
                          BINSUM_CACHE_DIR="")
        assert proc.returncode == 0
        assert os.listdir(tmp_path) == []

    def test_every_command_keeps_its_flags(self, capsys):
        # the flag sets of the parser that declared each command's options by hand
        min_rep = {"--k", "--n", "--h-max", "--mode"}
        parameters = {"--k", "--h", "--n", "--h-max", "--n-min", "--max", "--cap",
                      "--max-witnesses", "--index-bound", "--x", "--convention", "--c",
                      "--sequence", "--top", "--r-max", "--mode"}
        flags = {
            "min-rep": min_rep,
            "energy": {"--k", "--h", "--index-bound", "--x", "--convention", "--c",
                       "--sequence", "--top"},
            "coverage": {"--k", "--r-max", "--memory-budget"},
            "fit": {"--k", "--h", "--x", "--sequence"},
            "table": {"--k", "--x"},
            "decompose": min_rep | {"--algorithm"},
            "survey": parameters | {"--kind", "--memory-budget"},
        }
        for command, own in flags.items():
            assert main([command, "--help"]) == 0
            shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
            assert shown == own | {"--out", "--format", "--cache-dir", "--threads", "--help"}, (
                command)

    def test_import_loads_no_click(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, binsum.cli; print('click' in sys.modules)"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
        )
        assert proc.stdout.strip() == "False", proc.stderr


class TestBadPaths:
    """An --out or --cache-dir path that cannot be used is a usage error
    that names it, with no traceback and no temp file left behind."""

    def test_out_is_a_directory(self, tmp_path):
        target = tmp_path / "d"
        target.mkdir()
        proc = run_cli("table", "--k", "3", "--x", "10", "--out", str(target))
        assert proc.returncode == 1
        assert "Error:" in proc.stderr and str(target) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(tmp_path) == ["d"] and os.listdir(target) == []

    @pytest.mark.parametrize("argv", [
        ["table", "--k", "3", "--x", "10"],
        ["decompose", "--k", "2", "--n", "11"],
        ["survey", "--kind", "min-rep", "--k", "2", "--n", "5"],
    ], ids=["table", "decompose", "survey"])
    def test_out_refused_before_the_run(self, tmp_path, capsys, argv):
        # nothing runs, so no summary line reaches stdout
        afile = tmp_path / "f"
        afile.write_text("")
        for out, reason in ((tmp_path, "is a directory"),
                            (afile / "x.json", f"{afile} is not a directory")):
            assert main([*argv, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"Error: --out {out}" in captured.err and reason in captured.err
        assert os.listdir(tmp_path) == ["f"]

    def test_empty_out(self, tmp_path):
        proc = run_cli_in(tmp_path, "table", "--k", "3", "--x", "10", "--out", "")
        assert proc.returncode == 1
        assert "Error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(tmp_path) == []

    def test_cache_dir_is_a_file(self, tmp_path):
        target = tmp_path / "f"
        target.write_text("")
        proc = run_cli("min-rep", "--k", "2", "--n", "40", "--cache-dir", str(target))
        assert proc.returncode == 1
        assert "Error:" in proc.stderr and str(target) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(tmp_path) == ["f"]
