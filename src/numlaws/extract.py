"""Integer token extraction from plain text and CSV sources.

One fixed rule set, applied by one compiled pattern:

- a token is a maximal run of digits, optionally continued by groups of
  exactly three digits each led by a thousands separator (comma, thin
  space U+2009 or narrow no-break space U+202F), and "1,2,3" is three
  numbers,
- a run that is part of a decimal ("3.14", "1.2.3") is dropped whole,
  never truncated,
- a run immediately followed by a footnote marker (``FOOTNOTE_MARKERS``,
  the superscripted-annotation style) is dropped,
- signs and accounting parentheses are not part of a token, so
  "(1,250)" and "-300" contribute their magnitudes,
- every other digit run is a token, whatever surrounds it: a date
  "2019-12-31" gives 2019, 12 and 31, a fiscal tag "FY2019" gives 2019,
  and note numbers count like any other number.

Before matching, the text's underscores become spaces, which no rule
reads, and then every thousands separator becomes an underscore, so a
token reads as a Python integer literal ("1_234") and ``int()`` strips
its separators.  ``int()`` counts only digits against the interpreter's
integer string conversion limit, so the underscores do not move it.

Extraction cuts the text into windows by one rule, for strings and files
alike.  The text comes in pieces of ``_WINDOW`` characters, each with its
separators swapped (a character-by-character rule), and a window ends
just after a piece's last character other than a digit, "_" or ".", so
no token, group or lookahead crosses its edge and the tokens are those of
one pass over the whole text.  The digits, "_" and "." after that edge
are kept, with every following piece that holds no such character, and
joined once into the next window, so a text with no edge is one window,
read in linear time.  In a window of ASCII digits, spaces, tabs and line
breaks alone, as in a file of one integer per line, every digit run is a
token: numpy's text parser reads the window's bytes into int64, so no
token string is made.  Any other window, or one holding a value of 10**18
or more, which the parser would saturate at int64's limit, is read by the
pattern's ``findall``, each token converted with ``int()`` and the
window's ints put in one array (int64, or object when one exceeds int64).
Either way each token is converted once, and the windows' arrays are
joined once into the one array in document order that ``NumberCorpus``
keeps and counts with ``np.unique``.

Text and CSV files are opened by one opener, which decodes ``utf-8-sig``
as it reads and translates no line ending, so no whole file's bytes or
text are held.  On an invalid byte, a token too long to convert or a
CSV error, the file is decoded whole first, so the error is the one a
whole-file read gives: an invalid byte is reported at its place in the
file, and comes first.
"""

from __future__ import annotations

import csv
import itertools
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .corpus import NumberCorpus, _int_array
from .errors import EmptyCorpusError, IngestError

THOUSANDS_SEPARATORS = ",\u2009\u202f"
FOOTNOTE_MARKERS = "^*†‡¹²³⁰⁴⁵⁶⁷⁸⁹"

# (old, new) in order: free "_", then make it the one separator
_SWAPS = (("_", " "), *((separator, "_") for separator in THOUSANDS_SEPARATORS))
_GROUP = r"_[0-9]{3}(?![0-9])"
# No digit or dot before the run ("1.2.3" must not leak "3"); the run's
# first digit is matched before that lookbehind, so the pattern starts
# with a digit class and the search skips prose without trying it.  The
# lookahead rejects a run that goes on (a digit or a further group), so a
# match is always the whole run, and then rejects the whole run when a
# decimal fraction or a footnote marker follows it.
_TOKEN = re.compile(
    rf"[0-9](?<![0-9.][0-9])[0-9]*(?:{_GROUP})*"
    rf"(?![0-9]|{_GROUP}|\.[0-9]|[{re.escape(FOOTNOTE_MARKERS)}])"
)
# characters per piece of text a window is cut from
_WINDOW = 1 << 16
# A window ends just after a character that continues no token and past
# which no lookahead reads: a footnote marker is read only as the one
# character after a run, so it may end a window too.
_RUN = "0123456789_."
# The bytes of a plain window: every digit run in it is a token.
_PLAIN = b"0123456789 \t\n\r"
# The least value a plain window leaves to the pattern: numpy's parser
# saturates past 2**63 - 1, and 10**18 < 2**63.
_INT64_SAFE = 10**18
_TOO_MANY_DIGITS = "an integer token has too many digits to convert"


def _swap_separators(text: str) -> str:
    """``text`` with "_" as its only thousands separator (see the module doc)."""
    for old, new in _SWAPS:
        text = text.replace(old, new)  # the same object when nothing is replaced
    return text


def _plain_values(window: str) -> np.ndarray | None:
    """The integers of a plain ``window`` as an int64 array, or None if it
    is not plain or holds a value of ``_INT64_SAFE`` or more."""
    if not window.isascii():
        return None
    raw = window.encode("ascii")
    if raw.translate(None, _PLAIN):  # what is left after deleting the plain bytes
        return None
    if raw.isspace():  # numpy reads a window of separators alone as one 0
        return np.empty(0, np.int64)
    values = np.fromstring(raw, np.int64, sep=" ")
    # numpy saturates a value past int64 at 2**63 - 1 instead of failing
    if len(values) and values.max() >= _INT64_SAFE:
        return None
    return values


def _window_values(window: str) -> np.ndarray:
    """The tokens of a swapped ``window`` as one array of integers."""
    values = _plain_values(window)
    if values is None:
        try:
            values = _int_array(list(map(int, _TOKEN.findall(window))))
        except ValueError:  # beyond the interpreter's integer string conversion limit
            raise IngestError(_TOO_MANY_DIGITS) from None
    return values


def _windows(pieces):
    """The tokens of consecutive text ``pieces`` as integers, one window's
    array at a time (see the module doc)."""
    rest = []
    for piece in map(_swap_separators, pieces):
        head = piece.rstrip(_RUN)
        if head:  # the piece holds an edge: a window ends at its last one
            yield _window_values("".join([*rest, head]))
            rest = []
        rest.append(piece[len(head):])
    if tail := "".join(rest):
        yield _window_values(tail)


def _corpus(windows, label: str, year: int | None) -> NumberCorpus:
    """The corpus of the windows' arrays, joined in document order."""
    values = np.concatenate([np.empty(0, np.int64), *windows])
    values.flags.writeable = False  # a new array: the corpus may take it whole
    try:
        return NumberCorpus(label=label, values=values, year=year)
    except EmptyCorpusError:
        raise EmptyCorpusError(f"no integer tokens found for {label!r}") from None


def extract_numbers(
    text: str, label: str = "corpus", year: int | None = None
) -> NumberCorpus:
    """Extract all integer tokens from ``text``, in document order.

    Raises EmptyCorpusError when no token survives the filtering rules.
    """
    pieces = (text[i:i + _WINDOW] for i in range(0, len(text), _WINDOW))
    return _corpus(_windows(pieces), label, year)


def parse_cell(cell: str) -> int | None:
    """Parse one CSV cell as a single integer, or None if it is not one."""
    # a sign outside or inside accounting parentheses: "-(48)", "(-48)"
    cell = cell.strip().removeprefix("-").lstrip()
    if cell.startswith("(") and cell.endswith(")"):
        cell = cell[1:-1].strip().removeprefix("-").lstrip()
    match = _TOKEN.fullmatch(_swap_separators(cell))
    if match is None:
        return None
    try:
        return int(match[0])
    except ValueError:  # beyond the interpreter's integer string conversion limit
        raise IngestError(_TOO_MANY_DIGITS) from None


@contextmanager
def _text_file(path: Path):
    """The text file at ``path``, open for reading, with every error met
    while it is open raised as ``IngestError`` (see the module doc)."""
    try:
        # newline="" translates no line ending, as a whole-file decode does not
        with path.open(encoding="utf-8-sig", newline="") as file:
            yield file
    except EmptyCorpusError:  # raised only once the whole file is read
        raise
    except (UnicodeDecodeError, IngestError, csv.Error) as exc:
        try:  # an invalid byte anywhere: its whole-file error comes first
            path.read_bytes().decode("utf-8-sig")
        except UnicodeDecodeError as whole:
            raise IngestError(f"{path}: not valid UTF-8 text ({whole})") from whole
        if isinstance(exc, csv.Error):  # such as a field over csv's size limit
            raise IngestError(f"{path}: {exc}") from exc
        raise
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def read_text_corpus(path, year: int | None = None) -> NumberCorpus:
    """Extract all integer tokens from a text file, labelled by its stem."""
    path = Path(path)
    with _text_file(path) as file:
        pieces = iter(lambda: file.read(_WINDOW), "")
        return _corpus(_windows(pieces), path.stem, year)


def read_csv_corpus(path, column, year: int | None = None) -> NumberCorpus:
    """Extract one numeric CSV column, labelled by the file's stem.

    The first row is a header when one of its cells is not an integer, and
    data otherwise.  A string of decimal digits, or an int, is a 0-based
    index, unless the string names a header cell, such as a fiscal year;
    any other string is a column name.
    """
    path = Path(path)
    with _text_file(path) as file:
        rows = csv.reader(file)
        header = next(rows, None)
        if header is None:
            raise EmptyCorpusError(f"{path}: empty CSV")
        is_header = not all(parse_cell(c) is not None for c in header)
        if isinstance(column, str) and (
            not column.isdecimal() or (is_header and column in header)
        ):
            if column not in header:
                raise IngestError(f"{path}: no column named {column!r}")
            index = header.index(column)
        else:
            index = int(column)
            if index < 0:
                raise IngestError(f"{path}: column index {column!r} is negative")
            if not is_header:
                rows = itertools.chain([header], rows)  # a data row, not a header
        cells = (row[index] for row in rows if index < len(row))
        values = (v for v in map(parse_cell, cells) if v is not None)
        try:
            return NumberCorpus(label=path.stem, values=values, year=year)
        except EmptyCorpusError:
            raise EmptyCorpusError(
                f"{path}: column {column!r} has no integer values"
            ) from None
