"""CLI surface: subcommands, exit codes, file outputs."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_empty_csv_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert main(["stats", "--input", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip("\n").endswith(f"{path}: empty CSV")

    def test_csv_field_over_the_size_limit_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_bytes(b"value\n" + b"x" * 200_000 + b"\n1\n")
        assert main(["stats", "--input", str(path), "--csv-column", "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {path}: field larger than field limit (131072)\n"


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

    def test_repeated_analysis_is_usage_error(self, tmp_path, capsys):
        """``digit`` and ``first_digit`` name the same dimension."""
        corpus_file = tmp_path / "v.txt"
        corpus_file.write_text("1\n22\n333\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            [
                "analyze", "--input", str(corpus_file), "--analyses", "digit,first_digit",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: repeated analyses: ['first_digit', 'first_digit']\n"
        assert not out_dir.exists()

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

    def test_year_map_year_not_an_integer_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "analyze", "--input", str(DATA_DIR / "sample_corpus.txt"),
                "--year-map", "sample_corpus=20x9", "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: --year-map year is not an integer: '20x9'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_year_map_key_naming_no_input_is_usage_error(self, tmp_path, capsys):
        corpus_file = tmp_path / "v.txt"
        corpus_file.write_text("1\n2\n", encoding="utf-8")
        code = main(
            [
                "analyze", "--input", str(corpus_file), "--year-map", "w=2020",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --year-map names no input: 'w'\n"
        assert not (tmp_path / "out").exists()

    def test_inputs_sharing_a_label_are_usage_error(self, tmp_path, capsys):
        """a/x.txt and b/x.txt would both write x.<dimension>.<model>.csv."""
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / "x.txt"
            path.write_text("1\n22\n333\n", encoding="utf-8")
            paths.append(str(path))
        out_dir = tmp_path / "out"
        code = main(
            ["analyze", "--input", *paths, "--format", "csv", "--out-dir", str(out_dir)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: two inputs share the corpus label 'x'\n"
        assert not out_dir.exists()

    def test_values_too_long_for_a_zipf_curve_are_noted(self, tmp_path, capsys):
        """Two 308-digit values and one of 307 digits: the Zipf fit on
        lengths has no finite scale, so it is noted and the run succeeds."""
        corpus_file = tmp_path / "long.txt"
        corpus_file.write_text(
            "9" * 308 + "\n" + "8" * 308 + "\n" + "7" * 307 + "\n", encoding="utf-8"
        )
        code = main(
            ["analyze", "--input", str(corpus_file), "--cutoff", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        notes = report["corpora"][0]["sections"]["length"]["notes"]
        assert any(note.startswith("zipf fit unavailable: ") for note in notes)

    def test_unwritable_out_dir_is_output_error(self, tmp_path, capsys):
        corpus_file = tmp_path / "v.txt"
        corpus_file.write_text("1\n22\n333\n", encoding="utf-8")
        code = main(["analyze", "--input", str(corpus_file), "--out-dir", str(corpus_file)])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert "wrote" not in out


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

    def test_output_naming_a_directory_is_output_error(self, tmp_path, capsys):
        code = main(
            ["synth", "--model", "benford", "--n", "5", "--seed", "0", "--output", str(tmp_path)]
        )
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "wrote" not in out

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

    def test_mass_beyond_the_floats_is_one_error_line(self, tmp_path):
        """A Gamma law whose weights overflow exits 2 with the typed error
        alone: no numpy warning is printed before it."""
        proc = run_subprocess(
            "synth", "--model", "gamma", "--rate", "0", "--shape", "1000",
            "--max-length", "2000", "--n", "5", "--seed", "0",
            "--output", str(tmp_path / "o.txt"),
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == "error: gamma model has zero or non-finite mass on the support\n"
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize(
        "args,data_sha256,sidecar_sha256",
        [
            (
                "benford --n 10000 --seed 7",
                "8e1814e44da2736222488353bd23464acb08482eaa82853aedf92f82ea6c56a6",
                "235a31225dc56f83dff6b597ad1a3cfe285cee872ef42f0d9d96a216f1c52824",
            ),
            (
                "zipf --alpha 0.75 --support-size 200 --n 10000 --seed 42",
                "4316cee8ca584a1391098ae69957799b3ffd7fdb54597edae7135a078de25973",
                "96ea5a99e7e1aa7ba37e8640b8d745384a8f75b497aebfd98c37fd6b48fdb948",
            ),
            (
                "zipf --alpha 0 --support-size 10 --n 1000 --seed 3",
                "fa8ca4e926319745853f86ec41c785ba6b59dc0f8a71fadb828a29318028d165",
                "7447aafc822a298345a7ab517ae454455086af60ca6e7110f5903f2e91f4a6e6",
            ),
            (
                "zipf --alpha -0.0 --support-size 7 --n 300 --seed 5",
                "14535de3e5c49ef5e3df6a3e405eed8eb0efaf1c4811dabb92edf3eb5cb10dba",
                "ace3a219a239ab4d89563bc1385305468a6a7b1e997676ce52522cb07c7f3ef1",
            ),
            (
                "zipf --alpha 1.5 --support-size 2 --n 500 --seed 18446744073709551617",
                "b559263e54aedf2560ce449185d779019571105e982e5ea0fdd7476b71758165",
                "8a8aeac8f6b42237ef8dc19aa3549026c92c81c3e32d8e0f81b58e23c53d8211",
            ),
            (
                "gamma --rate 0.25 --shape 1.3 --max-length 12 --n 10000 --seed 577",
                "e027d9200756aab0c073384d182da68582fe59d424f405b3448842bc9130cdb1",
                "22a73e6be7ae7a630bd1422cd2e8797b4f553eaf82866930457654a825b972a3",
            ),
            (
                "gamma --rate 0 --shape 0.951 --max-length 1 --n 10 --seed 0",
                "9538e71364e030fa5cb12310065b555dc371cca0eccc44a9530624b5be45929a",
                "302ecc67f88161a71f01cd8dc9241ab740203a53b9de3d3ebffd40e768b5a897",
            ),
        ],
        ids=[
            "benford", "zipf", "zipf-alpha-0", "zipf-alpha-negative-0",
            "zipf-seed-above-2-64", "gamma", "gamma-max-length-1",
        ],
    )
    def test_output_bytes_are_pinned(self, tmp_path, capsys, args, data_sha256, sidecar_sha256):
        """Each model's stream, at a fixed seed, keeps the bytes it was first
        written with: a change to the sampler that moves one draw fails."""
        model, *flags = args.split()
        out = tmp_path / "s.txt"
        assert main(["synth", "--model", model, *flags, "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == data_sha256
        sidecar = tmp_path / "s.txt.meta.json"
        assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == sidecar_sha256

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
                "--dimension", "frequency",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["dimension"] == "frequency"

    def test_cutoff_that_once_overflowed_converges(self, tmp_path, capsys):
        """One 3 against 2001 sevens fits a rank exponent near 11, on which
        a fixed-point loop overflowed: the cutoff command converges, and
        analyze reports the same estimate."""
        corpus_file = tmp_path / "overflow.txt"
        corpus_file.write_text("3\n" + "7\n" * 2001, encoding="utf-8")
        code = main(
            [
                "cutoff", "--input", str(corpus_file),
                "--dimension", "frequency",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        out_dir = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(corpus_file), "--cutoff", "--out-dir", str(out_dir)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        cutoff = report["corpora"][0]["sections"]["frequency"]["cutoff"]
        assert cutoff["upper_cutoff"] == payload["upper_cutoff"]

    @pytest.mark.parametrize("fixture", ["sample_corpus.txt", "statement_fixture.txt"])
    def test_agrees_with_the_report(self, tmp_path, capsys, fixture):
        """On each dimension, the command solves the registry's law and
        gives the report's estimate where it has one, and the error the
        report notes where the cutoff failed."""
        path = str(DATA_DIR / fixture)
        code = main(["analyze", "--input", path, "--cutoff", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        sections = json.loads((tmp_path / "report.json").read_text())["corpora"][0]["sections"]
        outcomes = set()
        for dimension, spec in DIMENSIONS.items():
            section = sections[dimension]
            code = main(["cutoff", "--input", path, "--dimension", dimension])
            out, err = capsys.readouterr()
            if section["cutoff"] is not None:
                outcomes.add("estimate")
                assert code == EXIT_OK
                payload = json.loads(out)
                assert payload["system"] == spec.law
                for key, value in section["cutoff"].items():
                    assert payload[key] == value, (dimension, key)
            else:
                outcomes.add("error")
                (note,) = [n for n in section["notes"] if n.startswith("cutoff failed: ")]
                assert code == EXIT_INPUT
                assert err == f"error: {note.removeprefix('cutoff failed: ')}\n"
        assert outcomes == {"estimate", "error"}

    def test_the_law_is_the_registry_s_not_a_flag(self, tmp_path, capsys):
        """The cutoff law comes from the dimension; ``--system`` is gone."""
        path = str(DATA_DIR / "sample_corpus.txt")
        code = main(
            ["cutoff", "--input", path, "--dimension", "frequency", "--system", "zipf"]
        )
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --system zipf" in capsys.readouterr().err


# random bytes, and soups of digits, whitespace and separators, most of
# which analyze
_INPUT_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(
        st.sampled_from("0123456789" * 3 + " \t\n\r\f,._\u00a0"), max_size=300
    ).map(str.encode),
)


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

    @settings(max_examples=100, deadline=None)
    @given(_INPUT_BYTES)
    def test_analyze_of_any_file_exits_with_a_documented_code(self, data):
        """Whatever bytes a file holds, ``analyze`` reports a result or a
        typed error; no other exception escapes."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["analyze", "--input", str(path), "--cutoff", "--format", "both",
                             "--out-dir", str(Path(tmp) / "out")])
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_USAGE)
        assert "Traceback" not in err.getvalue()


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
