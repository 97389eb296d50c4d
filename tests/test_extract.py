"""Token extraction rules over plain text and CSV sources."""

from pathlib import Path

import pytest

from numlaws import ExtractionRules, extract_numbers, read_csv_corpus, read_text_corpus
from numlaws.errors import EmptyCorpusError, IngestError
from numlaws.extract import parse_cell

DATA_DIR = Path(__file__).parent / "data"
NO_SEPARATORS = ExtractionRules(thousands_separators="")

# hand tokenization of tests/data/statement_fixture.txt, in document order
FIXTURE_EXPECTED = [
    327524894000,
    296503846,
    1862,
    905,
    1250,
    48,
    9544,
    0,
    100,
    8400,
    12345,
    91440300192181490,
]


class TestTextExtraction:
    def test_thousands_separators_stripped(self):
        corpus = extract_numbers("total 327,524,894,000")
        assert corpus.values == (327524894000,)

    def test_decimal_tokens_dropped_whole(self):
        corpus = extract_numbers("3.14 and 9544")
        assert corpus.values == (9544,)

    def test_parenthesized_negative_absolute_value(self):
        corpus = extract_numbers("(1,250) loss")
        assert corpus.values == (1250,)

    def test_superscript_footnote_excluded(self):
        corpus = extract_numbers("see 2015^a and 77* but keep 42")
        assert corpus.values == (42,)

    def test_decimal_parts_do_not_leak(self):
        corpus = extract_numbers("version 1.2.3 then 9")
        assert corpus.values == (9,)

    def test_zero_survives(self):
        assert extract_numbers("min is 0 here").values == (0,)

    def test_document_order_preserved(self):
        corpus = extract_numbers("9 then 1 then 5")
        assert corpus.values == (9, 1, 5)

    def test_overlong_token_is_an_ingest_error(self):
        """5000 digits exceed the interpreter's int() conversion limit."""
        with pytest.raises(IngestError):
            extract_numbers("total " + "9" * 5000)
        with pytest.raises(IngestError):
            parse_cell("9" * 5000)

    def test_no_tokens_raises(self):
        with pytest.raises(EmptyCorpusError):
            extract_numbers("only words, 3.5 decimals")

    def test_deterministic(self):
        text = (DATA_DIR / "statement_fixture.txt").read_text(encoding="utf-8")
        a = extract_numbers(text)
        b = extract_numbers(text)
        assert a.values == b.values

    def test_fixture_document_hand_tokenized(self):
        corpus = read_text_corpus(DATA_DIR / "statement_fixture.txt")
        assert list(corpus.values) == FIXTURE_EXPECTED
        assert corpus.label == "statement_fixture"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("values 1,2,3", (1, 2, 3)),
            ("12,34", (12, 34)),
            ("1,2345", (1, 2345)),
            ("1,234,567 and 12\u2009345", (1234567, 12345)),
            ("(1,250)", (1250,)),
            # dates and fiscal tags are digit runs like any other
            ("2019-12-31", (2019, 12, 31)),
            ("FY2019", (2019,)),
            # (text, rules): with no separators a bracket is not one
            (("x 1]23 y", NO_SEPARATORS), (1, 23)),
        ],
    )
    def test_separator_joins_only_three_digit_groups(self, text, expected):
        text, rules = text if isinstance(text, tuple) else (text, None)
        assert extract_numbers(text, rules).values == expected

    def test_custom_marker_rules(self):
        rules = ExtractionRules(footnote_markers="#")
        corpus = extract_numbers("12# and 77* and 9", rules)
        assert corpus.values == (77, 9)


class TestParseCell:
    @pytest.mark.parametrize(
        "cell,expected",
        [
            ("1,250", 1250),
            ("1,234,567", 1234567),
            ("12\u2009345\u202f678", 12345678),
            ("1,2,3", None),
            ("12,34", None),
            ("1,2345", None),
            (" 905 ", 905),
            ("(48)", 48),
            ("-300", 300),
            ("3.14", None),
            ("n/a", None),
            ("", None),
            # (cell, rules)
            (("1]23", NO_SEPARATORS), None),
        ],
    )
    def test_cells(self, cell, expected):
        cell, rules = cell if isinstance(cell, tuple) else (cell, None)
        assert parse_cell(cell, rules) == expected


class TestFileIngestion:
    def test_undecodable_input(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00 numbers 123")
        with pytest.raises(IngestError):
            read_text_corpus(bad)

    def test_csv_column_by_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "item,amount,note\nwidget,\"1,250\",x\ngadget,48,y\nfraction,3.5,z\n",
            encoding="utf-8",
        )
        corpus = read_csv_corpus(path, "amount")
        assert corpus.values == (1250, 48)

    def test_csv_column_by_index(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n10,20\n30,40\n", encoding="utf-8")
        corpus = read_csv_corpus(path, 1)
        assert corpus.values == (20, 40)

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(IngestError):
            read_csv_corpus(path, "missing")

    def test_csv_no_integers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n0.5\n1.25\n", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            read_csv_corpus(path, "a")

    def test_newline_delimited_corpus_round_trip(self, tmp_path):
        """The corpus file format (one integer per line) reads back to
        the identical value sequence."""
        values = (327524894000, 0, 9544, 9544, 1, 91440300192181490)
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(str(v) for v in values) + "\n", encoding="utf-8")
        assert read_text_corpus(path).values == values
