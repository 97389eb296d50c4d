"""Token extraction rules over plain text and CSV sources."""

import random
import re
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numlaws import extract, extract_numbers, read_csv_corpus, read_text_corpus
from numlaws.errors import EmptyCorpusError, IngestError
from numlaws.extract import FOOTNOTE_MARKERS, THOUSANDS_SEPARATORS, parse_cell

DATA_DIR = Path(__file__).parent / "data"

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

    def test_grouped_token_at_the_digit_limit_converts(self):
        """The conversion limit counts digits, not the separators between
        groups; the value then fails only the corpus's float range check."""
        grouped = "9" + ",999" * 1433  # 4300 digits
        assert parse_cell(grouped) == 10**4300 - 1
        with pytest.raises(IngestError, match="too large to convert to a float"):
            extract_numbers(f"total {grouped}")

    def test_grouped_token_over_the_digit_limit_is_an_ingest_error(self):
        grouped = "99" + ",999" * 1433  # 4301 digits
        with pytest.raises(IngestError, match="too many digits"):
            extract_numbers(f"total {grouped}")
        with pytest.raises(IngestError, match="too many digits"):
            parse_cell(grouped)

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
            # an underscore is no separator
            ("1_234 and 5_", (1, 234, 5)),
        ],
    )
    def test_separator_joins_only_three_digit_groups(self, text, expected):
        assert extract_numbers(text).values == expected


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
            ("(-48)", 48),
            ("-(48)", 48),
            ("-300", 300),
            ("3.14", None),
            ("1_250", None),
            ("n/a", None),
            ("", None),
        ],
    )
    def test_cells(self, cell, expected):
        assert parse_cell(cell) == expected


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

    def test_csv_byte_order_mark_keeps_first_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\ufeffvalue,other\n1250,7\n48,9\n", encoding="utf-8")
        assert read_csv_corpus(path, "value").values == (1250, 48)

    def test_csv_numeric_header_selects_by_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("item,2018,2019\nsales,10,20\ncost,30,40\n", encoding="utf-8")
        assert read_csv_corpus(path, "2019").values == (20, 40)

    def test_csv_headerless_first_row_is_data_under_a_digit_string(self, tmp_path):
        """A first row of integers is no header, so a cell equal to the
        index string does not select its column."""
        path = tmp_path / "t.csv"
        path.write_text("1,500\n2,700\n", encoding="utf-8")
        assert read_csv_corpus(path, "1").values == (500, 700)

    def test_csv_header_with_integer_cells_is_skipped_under_an_index(self, tmp_path):
        """One non-integer cell makes the first row a header, whatever
        selects the column."""
        path = tmp_path / "t.csv"
        path.write_text("item,2018,2019\na,10,20\nb,30,40\n", encoding="utf-8")
        assert read_csv_corpus(path, "1").values == (10, 30)
        assert read_csv_corpus(path, 1).values == (10, 30)

    def test_csv_column_by_index(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n10,20\n30,40\n", encoding="utf-8")
        corpus = read_csv_corpus(path, 1)
        assert corpus.values == (20, 40)
        # a digit string that names no header cell is an index too
        assert read_csv_corpus(path, "1").values == (20, 40)

    def test_csv_negative_index_is_an_ingest_error(self, tmp_path):
        """A negative index would count from the end of each row."""
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
        with pytest.raises(IngestError, match="negative"):
            read_csv_corpus(path, -1)
        # a string is a column name unless it is all decimal digits
        with pytest.raises(IngestError, match="no column named '-1'"):
            read_csv_corpus(path, "-1")

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(IngestError):
            read_csv_corpus(path, "missing")
        with pytest.raises(IngestError):  # a digit, but not a decimal one
            read_csv_corpus(path, "\u00b2")

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


class TestWindows:
    """Extraction reads bounded windows; their edges change no token."""

    def test_multi_window_file_reads_back_in_order(self, tmp_path):
        rng = random.Random(3)
        values = tuple(rng.randrange(10 ** rng.randrange(1, 13)) for _ in range(40_000))
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(map(str, values)) + "\n", encoding="utf-8")
        assert path.stat().st_size > 3 * extract._WINDOW
        assert read_text_corpus(path).values == values

    def test_text_without_an_edge_is_one_window(self):
        text = "1,234,567.5." + "1,234" * 20 + "12345"  # digits, separators, dots
        with mock.patch.object(extract, "_WINDOW", 4):
            assert len(list(extract._windows(pieces(text, 4)))) == 1
            assert extract_numbers(text).values == oracle_tokens(text)

    def test_text_without_an_edge_reads_in_linear_time(self, tmp_path):
        """2 MiB of "1." is one window, read from a file or from a string:
        the pieces kept are joined once, not each time one is added (a
        file reader that did that took over 5 s on one 2-core machine)."""
        text = "1." * (1 << 20)
        path = tmp_path / "edgeless.txt"
        path.write_text(text, encoding="ascii")
        reads = (lambda: read_text_corpus(path), lambda: extract_numbers(text, path.stem))
        with mock.patch.object(extract, "_WINDOW", 4096):
            for read in reads:
                start = time.perf_counter()
                with pytest.raises(EmptyCorpusError, match="no integer tokens found for 'edgeless'"):
                    read()
                assert time.perf_counter() - start < 1.0

    def test_overlong_token_in_a_later_window_is_an_ingest_error(self):
        text = "1\n" * extract._WINDOW + "9" * 5000
        with pytest.raises(IngestError, match="too many digits"):
            extract_numbers(text)

    def test_token_strings_are_not_all_held_at_once(self):
        """Extraction's traced peak exceeds what the corpus keeps by well
        under the size of all token strings, which reading the whole text
        at once would hold, as strings or as arrays.  150,000 distinct
        tokens keep the corpus's count table smaller than those strings,
        so its own growth cannot hide them."""
        assert_tokens_not_all_held(str)

    def test_grouped_token_strings_are_not_all_held_at_once(self):
        """The same bound when every window goes through the pattern,
        whose ``findall`` makes a string per token: plain windows make
        none."""
        assert_tokens_not_all_held("{:,}".format)


    def test_peak_memory_per_value(self):
        """A plain text's integers are held as one int64 array and counted
        by ``np.unique``, with no Python int per value: extraction's traced
        peak, what the corpus keeps included, stays under 32 bytes per
        value."""
        rng = np.random.default_rng(0)
        pool = rng.integers(10**9, 10**12, size=20_000)
        values = pool[rng.integers(0, len(pool), size=200_000)]
        text = "\n".join(map(str, values.tolist())) + "\n"
        tracemalloc.start()
        try:
            corpus = extract_numbers(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == len(values)
        assert peak < 32 * len(values)


def pieces(text, size):
    """``text`` in consecutive pieces of ``size`` characters."""
    return [text[i:i + size] for i in range(0, len(text), size)]


def assert_tokens_not_all_held(write):
    values = random.Random(0).sample(range(10**11, 10**12), 150_000)
    text = "\n".join(map(write, values)) + "\n"
    token_bytes = sum(sys.getsizeof(write(v)) for v in values)
    tracemalloc.start()
    try:
        corpus = extract_numbers(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert corpus.values == tuple(values)
    assert peak - kept < 0.45 * token_bytes


_DIGITS = st.sampled_from("0123456789")
# short runs, runs about 10**18, the least value the parser leaves to the
# pattern, and leading zeros
_RUNS = st.one_of(
    st.text(_DIGITS, min_size=1, max_size=4),
    st.text(_DIGITS, min_size=17, max_size=20),
    st.builds(
        str.__add__, st.text(st.just("0"), min_size=1, max_size=19), st.text(_DIGITS, max_size=3)
    ),
)
_SPACES = st.text(st.sampled_from(" \t\n\r"), min_size=1, max_size=3)
_PLAIN_TEXTS = st.builds(
    str.__add__,
    st.text(st.sampled_from(" \t\n\r"), max_size=2),
    st.lists(st.builds(str.__add__, _RUNS, _SPACES), max_size=12).map("".join),
)


class TestPlainKernel:
    """A window of ASCII digits and whitespace reads as ``str.split`` and
    ``int()`` would read it."""

    @settings(max_examples=300, deadline=None)
    @given(_PLAIN_TEXTS)
    @example(str(10**18 - 1))  # the largest value numpy's parser reads
    @example(f"1 {10**18}\n")  # one more: the pattern reads this window
    @example(f"5\n{10**18}\n")
    @example(str(2**63 - 1))  # where the parser saturates
    @example("0" * 19 + " ")  # long runs of leading zeros: the parser reads them
    @example("0" * 40 + "7\n")
    @example("7" + " " * 30 + "8\n")  # windows of whitespace alone
    @example(" \r\n\t")
    @example("12\f34\v56\u00a078 9")  # other whitespace: the pattern reads these
    def test_extract_numbers_splits_plain_text(self, text):
        expected = tuple(map(int, text.split()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a deprecation of the parser fails here
            parsed = extract._plain_values(text)
        if set(text) <= set("0123456789 \t\n\r") and all(v < 10**18 for v in expected):
            assert parsed.tolist() == list(expected)
        else:
            assert parsed is None
        for window in (extract._WINDOW, *range(1, 9)):
            with mock.patch.object(extract, "_WINDOW", window):
                if not expected:
                    with pytest.raises(EmptyCorpusError):
                        extract_numbers(text)
                else:
                    assert extract_numbers(text).values == expected


# the largest value numpy's parser reads, int64's limit on either side,
# 2**64 and a 300-digit value
_INT64_EDGES = [10**18 - 1, 2**63 - 1, 2**63, 2**64, 10**299 + 7]


class TestInt64Boundary:
    """Values past int64 are kept as Python ints, exact and in order."""

    @pytest.mark.parametrize("value", _INT64_EDGES, ids=lambda v: f"{len(str(v))}digits")
    def test_alone(self, value):
        corpus = extract_numbers(f"{value}\n")
        assert corpus.values == (value,)
        assert type(corpus.values[0]) is int

    @pytest.mark.parametrize("value", _INT64_EDGES, ids=lambda v: f"{len(str(v))}digits")
    def test_in_a_later_window_after_plain_ones(self, value):
        plain = list(range(0, 300, 7))
        text = "\n".join(map(str, plain)) + f"\n{value} 5\n"
        with mock.patch.object(extract, "_WINDOW", 16):
            windows = list(extract._windows(pieces(text, 16)))
            corpus = extract_numbers(text)
        assert len(windows) > 2 and windows[0].dtype == np.int64
        assert any(w.dtype == object for w in windows) == (value >= 2**63)
        assert corpus.values == (*plain, value, 5)
        assert all(type(v) is int for v in corpus.values)


# The extractor as it stood before one pattern did all the filtering, kept
# as the oracle: match a digit run with its three-digit groups and any
# decimal part, then skip decimals and runs a footnote marker follows.
_SEPARATOR_CLASS = f"[{re.escape(THOUSANDS_SEPARATORS)}]"
_ORACLE = re.compile(
    rf"(?<![0-9.])([0-9]+(?:{_SEPARATOR_CLASS}[0-9]{{3}}(?![0-9]))*)(\.[0-9]+)?"
)


def _oracle_value(digits):
    return int(re.sub(_SEPARATOR_CLASS, "", digits))


def oracle_tokens(text):
    values = []
    for match in _ORACLE.finditer(text):
        if match.group(2) is not None:
            continue  # decimal fraction: drop the whole token
        end = match.end()
        if end < len(text) and text[end] in FOOTNOTE_MARKERS:
            continue  # superscript-style footnote annotation
        values.append(_oracle_value(match.group(1)))
    return tuple(values)


def oracle_cell(cell):
    cell = cell.strip()
    if cell.startswith("(") and cell.endswith(")"):
        cell = cell[1:-1].strip()
    if cell.startswith("-"):
        cell = cell[1:].strip()
    match = _ORACLE.fullmatch(cell)
    if match is None or match.group(2) is not None:
        return None
    return _oracle_value(match.group(1))


# digits weighted up, so that runs, groups and decimals are common
_ALPHABET = "0123456789" * 3 + THOUSANDS_SEPARATORS + "_.-()" + FOOTNOTE_MARKERS + "aZx \n"
_TEXTS = st.text(st.sampled_from(_ALPHABET), min_size=5, max_size=60)
# runs, separators, groups, decimals, footnote markers, line endings, a
# byte order mark and runs of 19 digits or more, past numpy's parser
_CHUNK_TEXTS = st.lists(
    st.one_of(
        st.text(st.sampled_from(_ALPHABET + "\r\ufeff"), max_size=12),
        st.text(_DIGITS, min_size=18, max_size=25),
        st.sampled_from(["\r\n", "\r", "\u2009", "\u202f", ",000", "\u2009000", "\u00b9"]),
    ),
    max_size=8,
).map("".join)
# short bodies inside the signs and parentheses a cell may carry
_CELLS = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " ", "-", "(", "-(", "(-", "( - "]),
        st.text(st.sampled_from(_ALPHABET), max_size=12),
        st.sampled_from(["", " ", ")", " ) "]),
    ),
)


class TestAgainstOracle:
    """One lookahead pattern gives exactly the match-then-skip tokens."""

    @settings(max_examples=3000, deadline=None)
    @given(_TEXTS)
    def test_extract_numbers(self, text):
        """Also with windows of 1-8 characters, whose edges then fall
        inside runs, groups and decimals and before footnote markers."""
        expected = oracle_tokens(text)
        for window in (extract._WINDOW, *range(1, 9)):
            with mock.patch.object(extract, "_WINDOW", window):
                if not expected:
                    with pytest.raises(EmptyCorpusError):
                        extract_numbers(text)
                else:
                    assert extract_numbers(text).values == expected

    @settings(max_examples=3000, deadline=None)
    @given(_CELLS)
    def test_parse_cell(self, cell):
        """A cell means what it meant to the old parser, except that a sign
        before parentheses, which it read as no integer, now reads as the
        parentheses alone ("-(48)" as "(48)")."""
        old_form = cell.strip()
        unsigned = old_form[1:].strip()
        if old_form.startswith("-") and unsigned.startswith("(") and unsigned.endswith(")"):
            old_form = unsigned
        assert parse_cell(cell) == oracle_cell(old_form)


def whole_file_error(path):
    """The error text of one whole-file read of ``path``, derived here,
    not by the reader under test."""
    try:
        path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        return f"{path}: not valid UTF-8 text ({exc})"
    except OSError as exc:
        return f"{path}: {exc}"
    raise AssertionError(f"{path} reads whole without an error")


class TestChunkedFile:
    """``read_text_corpus`` reads a file ``_WINDOW`` characters at a time;
    the edges of these chunks change no token and no error."""

    @staticmethod
    def read_both(path, text):
        """The file's corpus and ``text``'s, or each one's EmptyCorpusError."""
        outcomes = []
        for read in (lambda: read_text_corpus(path), lambda: extract_numbers(text, path.stem)):
            try:
                outcomes.append(read()._values)
            except EmptyCorpusError as exc:
                outcomes.append(str(exc))
        return outcomes

    @settings(max_examples=500, deadline=None)
    @given(_CHUNK_TEXTS, st.booleans())
    @example("1\u20092345\u202f678\u2009910 12\u202f345", False)
    @example("12\u00b9 3\u2020 45^6*78\u2021\u00b2", False)
    @example("1\r\n22\r333\r\n\r4444\n", True)
    @example("3.14 1.2.3 0.5. 7_000 8__9 1,234,567 1,23,4", False)
    @example("1234567890" * 4 + " " + "9" * 19 + "\n" + str(2**64) + ",000\n", False)
    @example("1,234,567.5." + "1,234" * 20 + "12345", True)  # no edge character at all
    @example("", True)
    @example("no numbers here", False)
    def test_same_tokens_as_one_pass(self, tmp_path_factory, text, bom):
        """With chunks of 1 to 8 characters, whose edges fall inside runs,
        groups and decimals and beside separators and footnote markers."""
        path = tmp_path_factory.mktemp("chunks") / "corpus.txt"
        path.write_bytes(("\ufeff" if bom else "").encode("utf-8") + text.encode("utf-8"))
        for chunk in (extract._WINDOW, *range(1, 9)):
            with mock.patch.object(extract, "_WINDOW", chunk):
                from_file, from_text = self.read_both(path, text)
            if isinstance(from_text, str):
                assert from_file == from_text
            else:
                assert from_file.dtype == from_text.dtype
                assert from_file.tolist() == from_text.tolist()

    def test_multibyte_characters_across_read_buffers(self, tmp_path):
        """Thin spaces and footnote markers of 2-3 bytes each, at every
        offset of the decoder's byte reads and of the chunks."""
        text = "".join(f"{i}\u2009{i % 1000:03d}\u00b2 {i}\u202f{i % 7}\u2021 " for i in range(3000))
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="utf-8")
        assert path.stat().st_size > 8 * 8192
        for chunk in (extract._WINDOW, 1000, 4097):
            with mock.patch.object(extract, "_WINDOW", chunk):
                assert read_text_corpus(path).values == extract_numbers(text).values

    def test_invalid_byte_after_the_first_chunk(self, tmp_path):
        """The error gives the byte's place in the whole file, not in the
        chunk or the decoder's buffer it was read in."""
        path = tmp_path / "bad.txt"
        path.write_bytes(b"12\n" * 5000 + b"\xff 7\n")
        with mock.patch.object(extract, "_WINDOW", 1000):
            with pytest.raises(IngestError) as streamed:
                read_text_corpus(path)
        assert str(streamed.value) == whole_file_error(path)
        assert "not valid UTF-8 text" in str(streamed.value)
        assert "position 15000" in str(streamed.value)

    def test_invalid_byte_comes_before_an_overlong_token(self, tmp_path):
        """A 5,000-digit run is read in an earlier chunk than the invalid
        byte, and the invalid byte is still the error, as in one
        whole-file read."""
        path = tmp_path / "bad.txt"
        valid = b"9" * 5000 + b"\n" + b"12\n" * 5000
        path.write_bytes(valid + b"\xff 7\n")
        with mock.patch.object(extract, "_WINDOW", 1000):
            with pytest.raises(IngestError, match="not valid UTF-8 text") as streamed:
                read_text_corpus(path)
            assert str(streamed.value) == whole_file_error(path)
            path.write_bytes(valid)
            with pytest.raises(IngestError, match="too many digits"):
                read_text_corpus(path)

    def test_multibyte_sequence_cut_off_at_the_end(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_bytes(b"12 34\n" * 100 + "\u2009".encode("utf-8")[:2])
        with mock.patch.object(extract, "_WINDOW", 64):
            with pytest.raises(IngestError, match="unexpected end of data") as streamed:
                read_text_corpus(path)
        assert str(streamed.value) == whole_file_error(path)

    def test_directory_is_an_ingest_error_with_the_os_text(self, tmp_path):
        with pytest.raises(IngestError) as streamed:
            read_text_corpus(tmp_path)
        assert str(streamed.value) == whole_file_error(tmp_path)
        assert str(streamed.value) == f"{tmp_path}: [Errno 21] Is a directory: {str(tmp_path)!r}"

    def test_peak_memory_per_value(self, tmp_path):
        """Reading a file of a million integers holds one chunk of its
        text, not the whole file's bytes and text: the traced peak, what
        the corpus keeps included, stays under 22 bytes per value.  A
        whole-file read peaks at about 25.6 here, and this reader at
        about 18.0."""
        rng = np.random.default_rng(0)
        pool = np.floor(10 ** rng.uniform(0, 12, size=20_000)).astype(np.int64)
        values = pool[rng.integers(0, len(pool), size=1_000_000)]
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(map(str, values.tolist())) + "\n", encoding="ascii")
        tracemalloc.start()
        try:
            corpus = read_text_corpus(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(corpus._values, values)
        assert peak < 22 * len(values)


class TestCsvFile:
    """``read_csv_corpus`` reads its file through the opener
    ``read_text_corpus`` uses: the values and errors of a whole-file read."""

    def test_byte_order_mark_crlf_and_a_quoted_line_break(self, tmp_path):
        path = tmp_path / "t.csv"
        text = '\ufeffitem,amount\r\n"two\r\nlines","1,250"\r\nplain,48\r\n"a, b",7\r\n'
        path.write_bytes(text.encode("utf-8"))
        assert read_csv_corpus(path, "amount").values == (1250, 48, 7)
        assert read_csv_corpus(path, 1).values == (1250, 48, 7)

    def test_bare_carriage_returns_end_rows(self, tmp_path):
        """As in a text file, whose reader translates no line ending either."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"value\r1\r2\r")
        assert read_csv_corpus(path, 0).values == (1, 2)

    def test_invalid_byte_after_the_header(self, tmp_path):
        """The byte's place in the whole file is reported, and before the
        missing column, which the header alone shows."""
        path = tmp_path / "bad.csv"
        path.write_bytes(b"name,value\n" + b"a,12\n" * 5000 + b"b,\xff\n")
        for column in ("value", "missing"):
            with pytest.raises(IngestError) as streamed:
                read_csv_corpus(path, column)
            assert str(streamed.value) == whole_file_error(path)
            assert "position 25013" in str(streamed.value)

    def test_field_over_the_size_limit_is_an_ingest_error(self, tmp_path):
        path = tmp_path / "big.csv"
        big = b"value\n" + b"x" * 200_000 + b"\n1\n"
        path.write_bytes(big)
        with pytest.raises(IngestError) as error:
            read_csv_corpus(path, 0)
        assert str(error.value) == f"{path}: field larger than field limit (131072)"
        path.write_bytes(big + b"\xff\n")  # an invalid byte still comes first
        with pytest.raises(IngestError) as error:
            read_csv_corpus(path, 0)
        assert str(error.value) == whole_file_error(path)

    def test_directory_is_an_ingest_error_with_the_os_text(self, tmp_path):
        with pytest.raises(IngestError) as error:
            read_csv_corpus(tmp_path, 0)
        assert str(error.value) == f"{tmp_path}: [Errno 21] Is a directory: {str(tmp_path)!r}"
