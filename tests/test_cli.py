import csv
import dataclasses
import io
import json
import math
import pathlib
import shlex

import numpy as np
import pytest

from perml1 import cli, metric
from perml1.cli import _csv_lines, main
from perml1.perms import GeneratorWord, all_permutations
from perml1.synth import synthesize

GOLDEN = pathlib.Path(__file__).parent / "golden_distortion.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOracle:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "4")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["perm", "dist"]
        assert len(rows) == 1 + 24
        assert rows[1] == ["0,1,2,3", "0"]

    def test_guard_exit(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--n", "13")
        assert code == 1 and out == ""
        assert "over the memory budget" in err

    def test_degree_zero_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "oracle.csv"
        code, _, err = run_cli(capsys, "oracle", "--n", "0", "--out", str(out))
        assert code == 1 and "degree must be >= 1" in err
        assert not out.exists()

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "oracle.csv"
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("perm,dist")

    def test_file_and_stdout_bytes_agree(self, capsys, tmp_path):
        target = tmp_path / "oracle.csv"
        run_cli(capsys, "oracle", "--n", "3", "--out", str(target))
        code, out, _ = run_cli(capsys, "oracle", "--n", "3")
        expected = ('perm,dist\r\n"0,1,2",0\r\n"0,2,1",2\r\n"1,0,2",1\r\n'
                    '"1,2,0",1\r\n"2,0,1",1\r\n"2,1,0",2\r\n')
        assert code == 0 and out == expected
        assert target.read_bytes() == expected.encode()


    @pytest.mark.parametrize(
        "n, block_degree",
        [pytest.param(n, 8, id=str(n)) for n in range(1, 9)]
        + [pytest.param(n, k, id=f"{n}-block{k}") for k in (1, 2, 3) for n in range(1, 7)],
    )
    def test_bytes_match_csv_writer(self, n, block_degree, tmp_path, monkeypatch):
        # the reference: csv.writer over Permutation objects, as the oracle once wrote it;
        # ranges smaller than Sym_n put seams between the oracle's writes
        monkeypatch.setattr("perml1.perms._BLOCK_DEGREE", block_degree)
        reference = io.StringIO()
        writer = csv.writer(reference)
        writer.writerow(["perm", "dist"])
        writer.writerows(zip(map(str, all_permutations(n)), metric.bfs_distances(n).dist))
        target = tmp_path / "oracle.csv"
        assert main(["oracle", "--n", str(n), "--out", str(target)]) == 0
        assert target.read_bytes() == reference.getvalue().encode()

    @pytest.mark.parametrize("n", [11, 12])
    def test_formatter_matches_csv_writer_on_two_digit_values(self, n):
        rng = np.random.default_rng(n)
        rows = np.array([rng.permutation(n) for _ in range(500)], dtype=np.int8)
        dist = (np.arange(500) % 128).astype(np.int8)  # every int8 distance, 0 to 127
        reference = io.StringIO()
        csv.writer(reference).writerows((",".join(map(str, row)), int(d)) for row, d in zip(rows, dist))
        assert _csv_lines(rows, dist) == reference.getvalue()


class TestFormula:
    def test_rotation_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "formula", "--n", "6", "--perm", "1,2,3,4,5,0")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 1 and data["l_star"] == 5
        assert len(data["per_shift"]) == 6

    def test_pairwise(self, capsys):
        code, out, _ = run_cli(
            capsys, "formula", "--perm", "0,1,2", "--other", "1,0,2"
        )
        data = json.loads(out)
        assert code == 0 and data["value"] == 3

    def test_bad_perm_text(self, capsys):
        code, _, err = run_cli(capsys, "formula", "--perm", "1,1,0")
        assert code == 1 and "error" in err

    def test_degree_check(self, capsys):
        code, _, err = run_cli(capsys, "formula", "--n", "5", "--perm", "1,0,2")
        assert code == 1


class TestSynth:
    def test_round_trip_with_check(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--perm", "1,2,0", "--check")
        data = json.loads(out)
        assert code == 0
        assert data["word"] == "c"
        assert data["length"] == 1
        assert data["eval_ok"] is True
        assert data["bfs_distance"] == 1
        assert data["length"] <= data["certified_bound"]

    def test_check_at_degree_ten_runs_bfs(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--perm", "3,1,4,0,9,2,8,5,7,6", "--check")
        data = json.loads(out)
        assert code == 0 and data["eval_ok"] is True
        assert isinstance(data["bfs_distance"], int)
        assert data["bfs_distance"] <= data["length"]

    def test_check_rejects_a_word_over_its_bound(self, capsys, monkeypatch):
        def padded(p):  # the same element, with tt appended past the certified bound
            cert = synthesize(p)
            word = GeneratorWord(p.n, cert.word.letters + ("t", "t") * cert.certified_bound)
            return dataclasses.replace(cert, word=word)

        monkeypatch.setattr(cli, "synthesize", padded)
        code, out, err = run_cli(capsys, "synth", "--perm", "1,2,0", "--check")
        assert code == 2 and out == "" and "exceeds its certified bound" in err
        assert run_cli(capsys, "synth", "--perm", "1,2,0")[0] == 0  # without --check the word is not verified

    def test_without_check(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--perm", "1,0,3,2")
        data = json.loads(out)
        assert code == 0 and "eval_ok" not in data


class TestEmbed:
    def test_grid_angles(self, capsys):
        code, out, _ = run_cli(capsys, "embed", "--perm", "1,0,2", "--map", "grid")
        data = json.loads(out)
        assert code == 0
        assert len(data["angles"]) == 9
        assert data["angles"][0] == 0.0

    def test_profile_records(self, capsys):
        code, out, _ = run_cli(capsys, "embed", "--perm", "1,0,2", "--map", "profile")
        data = json.loads(out)
        records = data["profile"]
        assert code == 0
        assert sum(r["coeff"] for r in records) == pytest.approx(8 / 3)
        assert all(set(r) == {"length", "values", "coeff"} for r in records)

    def test_combined_includes_scale(self, capsys):
        code, out, _ = run_cli(capsys, "embed", "--perm", "2,0,1", "--map", "combined")
        data = json.loads(out)
        assert code == 0 and "scale1" in data and "angles" in data and "profile" in data

    @pytest.mark.parametrize("scale1", ["-1", "0", "nan"])
    def test_invalid_scale_exits_with_validation_error(self, capsys, scale1):
        code, out, err = run_cli(capsys, "embed", "--perm", "2,0,1", "--scale1", scale1)
        assert code == 1 and out == "" and "scale1 must be positive and finite" in err


class TestAudit:
    def test_exact_json(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--n", "3", "--mode", "exact")
        data = json.loads(out)
        assert code == 0
        assert data["distortion"] <= 1000
        assert data["mode"] == "exact"
        assert {"version", "seed", "wall_time_ms"} <= set(data)

    def test_seeded_determinism_modulo_walltime(self, capsys):
        args = ("audit", "--n", "4", "--mode", "exact", "--sample-size", "200",
                "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
        assert d1 == d2

    def test_csv_summary(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--n", "3", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and len(rows) == 2
        assert "distortion" in rows[0]

    def test_degree_two_exits_with_property_failure(self, capsys):
        code, out, err = run_cli(capsys, "audit", "--n", "2")
        assert code == 2 and out == ""
        assert "property failure" in err and "0,1 and 1,0" in err

    def test_zero_sample_size_exits_with_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "audit", "--n", "5", "--sample-size", "0")
        assert code == 1 and "sample_size must be >= 1" in err

    def test_zero_envelope_sample_size_exits_with_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys, "audit", "--n", "5", "--mode", "envelope", "--sample-size", "0"
        )
        assert code == 1 and "sample_size must be >= 1" in err

    def test_identical_envelope_sample_exits_with_validation_error(self, capsys):
        code, out, err = run_cli(
            capsys, "audit", "--n", "3", "--mode", "envelope", "--sample-size", "1", "--seed", "11"
        )
        assert code == 1 and out == ""
        assert err == "error: all sampled pairs were identical; increase sample_size\n"

    def test_large_scale_is_finite(self, capsys):
        # the grid part of the witness c^2 is 0; scaling its coordinate residue
        # once failed the witness check
        code, out, _ = run_cli(capsys, "audit", "--n", "4", "--scale1", "1e6")
        assert code == 0 and math.isfinite(json.loads(out)["distortion"])

    def test_overflowing_scale_exits_with_validation_error(self, capsys, recwarn):
        code, out, err = run_cli(capsys, "audit", "--n", "4", "--scale1", "1e308")
        assert code == 1 and out == "" and "overflow" in err
        assert len(recwarn) == 0 and "Warning" not in err

    @pytest.mark.parametrize("scale1", ["-1", "0", "nan"])
    def test_invalid_scale_exits_with_validation_error(self, capsys, scale1):
        code, out, err = run_cli(
            capsys, "audit", "--n", "5", "--mode", "envelope", "--sample-size", "100",
            "--seed", "1", "--scale1", scale1,
        )
        assert code == 1 and out == "" and "scale1 must be positive and finite" in err


class TestBudget:
    """Every BFS-backed command runs within metric.MEMORY_BUDGET and exits 1
    naming the budget beyond it.  `low_budget` shrinks it below the 720-byte
    distance table of Sym_6."""

    @pytest.fixture
    def low_budget(self, monkeypatch):
        monkeypatch.setattr(metric, "MEMORY_BUDGET", 700)

    def test_oracle_stops_at_the_budget(self, capsys, low_budget):
        code, out, err = run_cli(capsys, "oracle", "--n", "6")
        assert code == 1 and out == "" and "budget" in err

    def test_oracle_streams_its_csv(self, tmp_path, monkeypatch, traced_peak_and_largest_check):
        # With ranges of 6! ranks the BFS over Sym_8 checks 0.14 MB: its
        # 40 KB table and one small block.  Beyond that the command may hold
        # one range's CSV text and its buffers (about 0.2 MB on Python
        # 3.11), but not a list of the 40,320 distances (0.32 MB).
        monkeypatch.setattr("perml1.perms._BLOCK_DEGREE", 6)
        out = tmp_path / "oracle.csv"
        argv = ["oracle", "--n", "8", "--out", str(out)]
        main(["oracle", "--n", "1", "--out", str(out)])  # lazy imports stay out of the measurement
        peak, largest = traced_peak_and_largest_check(lambda: main(argv))
        assert peak <= largest + 256 * 1024
        assert out.read_text().count("\n") == 1 + 40320

    def test_oracle_within_the_budget(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "6")
        assert code == 0 and len(list(csv.reader(io.StringIO(out)))) == 1 + 720

    def test_audit_matches_golden(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "audit", "--n", "6")
        data = json.loads(out)
        golden = json.loads(GOLDEN.read_text())["6"]
        assert code == 0 and data["pairs_checked"] == golden["pairs_checked"]
        for key in ("distortion", "max_expansion", "max_contraction"):
            assert data[key] == pytest.approx(golden[key], rel=1e-9, abs=0)
        monkeypatch.setattr(metric, "MEMORY_BUDGET", 700)
        code, out, err = run_cli(capsys, "audit", "--n", "6")
        assert code == 1 and out == "" and "budget" in err

    def test_bfs_drift(self, capsys, monkeypatch):
        args = ("drift", "--n", "6", "--horizon", "3", "--trials", "8", "--proxy", "bfs")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["series"][1]["mean"] == 1.0
        monkeypatch.setattr(metric, "MEMORY_BUDGET", 700)
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == "" and "budget" in err

    def test_synth_check_reports_null_beyond_the_budget(self, capsys, monkeypatch):
        # the word checks 8,296 bytes (its bound is 48), the BFS over Sym_6 77,063
        monkeypatch.setattr(metric, "MEMORY_BUDGET", 20_000)
        code, out, _ = run_cli(capsys, "synth", "--perm", "1,0,3,2,5,4", "--check")
        data = json.loads(out)
        assert code == 0 and data["eval_ok"] is True and data["bfs_distance"] is None

    def test_synth_stops_at_the_budget(self, capsys, low_budget):
        code, out, err = run_cli(capsys, "synth", "--perm", "1,0,3,2,5,4")
        assert code == 1 and out == ""
        assert "the word of at most 48 letters for an element of Sym_6 needs 8,296 bytes" in err


class TestCube:
    def test_dim_one(self, capsys):
        code, out, _ = run_cli(capsys, "cube", "--n", "1")
        data = json.loads(out)
        assert code == 0
        assert data["minimizer_at_zero"] is True
        assert data["exact_sandwich_ok"] is True
        assert data["degree"] == 4

    def test_zero_dimension_exits_with_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "cube", "--n", "0")
        assert code == 1 and "cube dimension must be >= 1" in err

    def test_sample_size_is_not_an_option(self, capsys):
        code, _, err = run_cli(capsys, "cube", "--n", "2", "--sample-size", "5")
        assert code == 1 and "unrecognized arguments: --sample-size 5" in err


class TestDrift:
    def test_json_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "drift", "--n", "8", "--horizon", "4", "--trials", "32", "--seed", "1"
        )
        data = json.loads(out)
        assert code == 0
        assert data["series"][0] == {"t": 0, "mean": 0.0, "stderr": 0.0}
        assert len(data["series"]) == 5
        assert "slope" in data

    def test_csv_rows_per_step(self, capsys):
        code, out, _ = run_cli(
            capsys, "drift", "--n", "8", "--horizon", "3", "--trials", "16",
            "--seed", "2", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and len(rows) == 1 + 4

    def test_short_walk_prints_null_slope(self, capsys):
        code, out, _ = run_cli(capsys, "drift", "--n", "8", "--horizon", "2", "--trials", "16")
        data = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
        assert code == 0 and data["slope"] is None

    def test_zero_trials_exits_with_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "drift", "--n", "8", "--horizon", "2", "--trials", "0")
        assert code == 1 and out == "" and "trials must be >= 1" in err

    def test_bfs_proxy_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "drift", "--n", "13", "--horizon", "2", "--trials", "8",
            "--proxy", "bfs"
        )
        assert code == 1 and "over the memory budget" in err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "oracle")
        assert code == 1

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0 and out.startswith("perml1")

    @pytest.mark.parametrize("argv", [
        ["formula", "--perm", "1,2,0"],
        ["synth", "--perm", "1,2,0"],
        ["oracle", "--n", "3"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("bad", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_validation_error(self, capsys, tmp_path, argv, bad):
        target = tmp_path / "absent" / "out.json" if bad == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(target) in err
        assert err.count("\n") == 1 and "Traceback" not in err


README = pathlib.Path(__file__).parent.parent / "README.md"


def readme_commands():
    """Each `perml1 ...` line of the README's CLI block, as an argument list."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("perml1 ")]


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {
        "oracle", "formula", "synth", "embed", "audit", "cube", "drift"
    }


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.stat().st_size > 0
