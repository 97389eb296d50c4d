"""CLI surface: subcommands, exit codes, file outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from numlaws.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from numlaws.pipeline import DIMENSIONS

DATA_DIR = Path(__file__).parent / "data"


def run_inprocess(*args, capsys=None):
    return main(list(args))


def run_subprocess(*args):
    return subprocess.run(
        [sys.executable, "-m", "numlaws.cli", *args],
        capture_output=True,
        text=True,
    )


class TestStats:
    def test_basic_stats(self, tmp_path, capsys):
        path = tmp_path / "nums.txt"
        path.write_text("1\n2\n3\n", encoding="utf-8")
        assert main(["stats", "--input", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == 2
        assert payload["observation_count"] == 3

    def test_decimals_only_file_is_an_ingest_error(self, tmp_path):
        path = tmp_path / "dec.txt"
        path.write_text("3.14\n2.71\n", encoding="utf-8")
        assert main(["stats", "--input", str(path)]) == EXIT_INPUT

    def test_csv_column_selection(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("name,amount\na,10\nb,20\n", encoding="utf-8")
        assert main(["stats", "--input", str(path), "--csv-column", "amount"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["observation_count"] == 2
        assert payload["mean"] == 15

    def test_missing_file(self, tmp_path):
        assert main(["stats", "--input", str(tmp_path / "nope.txt")]) == EXIT_INPUT


class TestAnalyze:
    def test_benford_corpus_scores_strong(self, tmp_path, capsys):
        corpus_file = tmp_path / "benford.txt"
        assert (
            main(
                [
                    "synth", "--model", "benford", "--n", "20000",
                    "--seed", "7", "--output", str(corpus_file),
                ]
            )
            == EXIT_OK
        )
        out_dir = tmp_path / "out"
        code = main(
            [
                "analyze", "--input", str(corpus_file),
                "--analyses", "digit", "--out-dir", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        fit = report["corpora"][0]["sections"]["first_digit"]["fits"]["benford"]
        assert fit["verdict"]["r_squared"] == "strong"

    def test_analyses_toggle_drops_frequency_section(self, tmp_path, capsys):
        corpus_file = tmp_path / "v.txt"
        corpus_file.write_text(
            "\n".join(str(v) for v in range(1, 500)) + "\n", encoding="utf-8"
        )
        out_dir = tmp_path / "out"
        code = main(
            [
                "analyze", "--input", str(corpus_file),
                "--analyses", "digit,length", "--out-dir", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert set(report["corpora"][0]["sections"]) == {"first_digit", "length"}

    def test_missing_input_exits_two(self, tmp_path):
        assert (
            main(["analyze", "--input", str(tmp_path / "ghost.txt")]) == EXIT_INPUT
        )

    def test_unknown_analysis_is_usage_error(self, tmp_path):
        corpus_file = tmp_path / "v.txt"
        corpus_file.write_text("1\n2\n3\n", encoding="utf-8")
        assert (
            main(
                ["analyze", "--input", str(corpus_file), "--analyses", "volume"]
            )
            == EXIT_USAGE
        )

    def test_csv_bundles_written(self, tmp_path, capsys):
        corpus_file = tmp_path / "v.txt"
        corpus_file.write_text(
            "\n".join(str(v) for v in list(range(1, 300)) * 2) + "\n", encoding="utf-8"
        )
        out_dir = tmp_path / "out"
        code = main(
            [
                "analyze", "--input", str(corpus_file),
                "--out-dir", str(out_dir), "--format", "both",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert (out_dir / "report.json").exists()
        assert (out_dir / "v.first_digit.benford.csv").exists()
        assert (out_dir / "v.frequency.zipf.csv").exists()
        for bundle in out_dir.glob("*.csv"):
            header, *rows = bundle.read_text(encoding="utf-8").splitlines()
            assert header == "support,observed,fitted,fitted_pmf,abs_gradient"
            assert rows
            for row in rows:
                cells = row.split(",")
                assert len(cells) == 5
                for cell in cells:
                    float(cell)

    def test_year_map_feeds_trends(self, tmp_path, capsys):
        paths = []
        for k in range(3):
            p = tmp_path / f"y{k}.txt"
            p.write_text(
                "\n".join(str(v) for v in list(range(1, 200)) * 2) + "\n",
                encoding="utf-8",
            )
            paths.append(str(p))
        out_dir = tmp_path / "out"
        code = main(
            [
                "analyze", "--input", *paths,
                "--year-map", "y0=2018,y1=2019,y2=2020",
                "--out-dir", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["corpora"][0]["year"] == 2018
        assert report["trends"]
        assert report["pooled"] is not None

    def test_bad_year_map_is_usage_error(self, tmp_path):
        corpus_file = tmp_path / "v.txt"
        corpus_file.write_text("1\n2\n", encoding="utf-8")
        assert (
            main(
                ["analyze", "--input", str(corpus_file), "--year-map", "oops"]
            )
            == EXIT_USAGE
        )


class TestSynth:
    def test_zipf_corpus_file_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "z.txt"
        code = main(
            [
                "synth", "--model", "zipf", "--alpha", "0.75",
                "--support-size", "200", "--n", "1000",
                "--seed", "42", "--output", str(out),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        values = [int(line) for line in out.read_text().splitlines()]
        assert len(values) == 1000
        assert min(values) >= 1 and max(values) <= 200
        sidecar = json.loads((tmp_path / "z.txt.meta.json").read_text())
        assert sidecar["model"] == "zipf"
        assert sidecar["seed"] == 42

    def test_same_command_twice_identical_files(self, tmp_path, capsys):
        outputs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            main(
                [
                    "synth", "--model", "gamma", "--rate", "0.3", "--shape", "1.1",
                    "--max-length", "9", "--n", "5000", "--seed", "11",
                    "--output", str(out),
                ]
            )
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_benford_rejects_model_specific_flags(self, tmp_path):
        code = main(
            [
                "synth", "--model", "benford", "--alpha", "-1",
                "--n", "10", "--seed", "1", "--output", str(tmp_path / "b.txt"),
            ]
        )
        assert code == EXIT_USAGE

    def test_negative_alpha_rejected(self, tmp_path):
        code = main(
            [
                "synth", "--model", "zipf", "--alpha", "-0.5",
                "--support-size", "10", "--n", "10", "--seed", "1",
                "--output", str(tmp_path / "z.txt"),
            ]
        )
        assert code == EXIT_USAGE

    def test_missing_gamma_params_rejected(self, tmp_path):
        code = main(
            [
                "synth", "--model", "gamma", "--n", "10", "--seed", "1",
                "--output", str(tmp_path / "g.txt"),
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "args,message",
        [
            # one flag of another model for each model
            (["benford", "--max-length", "3"], "benford model takes no --max-length"),
            (
                ["zipf", "--alpha", "1", "--support-size", "10", "--rate", "3"],
                "zipf model takes no --rate",
            ),
            (
                ["gamma", "--rate", "1", "--shape", "2", "--max-length", "9", "--alpha", "3"],
                "gamma model takes no --alpha",
            ),
            # value and missing-flag checks
            (["benford", "--n", "0"], "--n must be >= 1"),
            (["benford", "--seed", "-1"], "--seed must be a non-negative integer"),
            (["zipf", "--alpha", "1", "--support-size", "1"], "--support-size must be >= 2"),
            (
                ["gamma", "--rate", "-1", "--shape", "2", "--max-length", "9"],
                "--rate must be >= 0",
            ),
            (
                ["gamma", "--rate", "1", "--shape", "2", "--max-length", "0"],
                "--max-length must be >= 1",
            ),
            (["zipf", "--alpha", "1"], "zipf model needs --alpha and --support-size"),
            (["zipf", "--alpha", "nan", "--support-size", "10"], "--alpha must be a finite number"),
            (
                ["gamma", "--rate", "1", "--shape", "inf", "--max-length", "9"],
                "--shape must be a finite number",
            ),
        ],
        ids=[
            "benford-max-length", "zipf-rate", "gamma-alpha", "n-0", "seed-negative",
            "support-size-1", "rate-negative", "max-length-0", "zipf-no-support-size",
            "alpha-nan", "shape-inf",
        ],
    )
    def test_usage_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "s.txt"
        model, *flags = args
        code = main(
            ["synth", "--model", model, "--n", "10", "--seed", "1", "--output", str(out), *flags]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()


class TestCutoffCommand:
    def test_frequency_cutoff_json(self, tmp_path, capsys):
        corpus_file = tmp_path / "z.txt"
        main(
            [
                "synth", "--model", "zipf", "--alpha", "0.75",
                "--support-size", "100", "--n", "20000",
                "--seed", "3", "--output", str(corpus_file),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "cutoff", "--input", str(corpus_file),
                "--dimension", "frequency", "--system", "zipf",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["dimension"] == "frequency"

    def test_overflowing_cutoff_is_an_error_not_a_crash(self, tmp_path, capsys):
        """The Zipf map overflows on one 3 against 2001 sevens: the cutoff
        command reports it on exit code 2, and analyze notes it."""
        corpus_file = tmp_path / "overflow.txt"
        corpus_file.write_text("3\n" + "7\n" * 2001, encoding="utf-8")
        code = main(
            [
                "cutoff", "--input", str(corpus_file),
                "--dimension", "frequency", "--system", "zipf",
            ]
        )
        assert code == EXIT_INPUT
        assert "Zipf cutoff iteration overflowed" in capsys.readouterr().err
        out_dir = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(corpus_file), "--cutoff", "--out-dir", str(out_dir)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert (out_dir / "report.json").is_file()

    @pytest.mark.parametrize("fixture", ["sample_corpus.txt", "statement_fixture.txt"])
    def test_agrees_with_the_report(self, tmp_path, capsys, fixture):
        """Run with each dimension's cutoff law, the command gives the
        report's estimate where it has one, and the error the report
        notes where the cutoff failed."""
        path = str(DATA_DIR / fixture)
        code = main(["analyze", "--input", path, "--cutoff", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        sections = json.loads((tmp_path / "report.json").read_text())["corpora"][0]["sections"]
        outcomes = set()
        for dimension, spec in DIMENSIONS.items():
            section = sections[dimension]
            code = main(
                ["cutoff", "--input", path, "--dimension", dimension, "--system", spec.cutoff_law]
            )
            out, err = capsys.readouterr()
            if section["cutoff"] is not None:
                outcomes.add("estimate")
                assert code == EXIT_OK
                payload = json.loads(out)
                for key, value in section["cutoff"].items():
                    assert payload[key] == value, (dimension, key)
            else:
                outcomes.add("error")
                (note,) = [n for n in section["notes"] if n.startswith("cutoff failed: ")]
                assert code == EXIT_INPUT
                assert err == f"error: {note.removeprefix('cutoff failed: ')}\n"
        assert outcomes == {"estimate", "error"}


class TestExitCodeContract:
    def test_unknown_flag_is_usage_error(self):
        assert main(["stats", "--nope", "x"]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_subprocess_exit_codes(self, tmp_path):
        missing = run_subprocess("stats", "--input", str(tmp_path / "nope.txt"))
        assert missing.returncode == EXIT_INPUT
        usage = run_subprocess("synth", "--model", "zipf", "--alpha", "-1",
                               "--support-size", "5", "--n", "10", "--seed", "0",
                               "--output", str(tmp_path / "x.txt"))
        assert usage.returncode == EXIT_USAGE


class TestGoldenReport:
    def test_analyze_matches_committed_golden_byte_for_byte(self, tmp_path):
        """Two fresh CLI runs agree with each other and with the committed
        golden report at full float precision."""
        sample = DATA_DIR / "sample_corpus.txt"
        golden = DATA_DIR / "golden_report.json"
        outputs = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            proc = run_subprocess(
                "analyze", "--input", str(sample), "--cutoff",
                "--out-dir", str(out_dir), "--format", "json",
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append((out_dir / "report.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == golden.read_bytes()
