"""Integer token extraction from plain text and CSV sources.

Filtering rules, applied mechanically and deterministically:

- tokens containing a decimal fraction are dropped whole, never truncated,
- thousands separators (comma and thin/narrow spaces) are stripped; a
  separator counts only before a group of exactly three digits, so
  "1,2,3" is three numbers,
- a digit run immediately followed by a footnote marker character (the
  superscripted-annotation style) is dropped,
- parenthesized accounting negatives contribute their absolute value; a
  leading minus sign is likewise ignored (magnitudes are what the digit
  laws describe),
- every other digit run is a token, whatever surrounds it: a date
  "2019-12-31" gives 2019, 12 and 31, a fiscal tag "FY2019" gives 2019,
  and note numbers count like any other number.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import NumberCorpus
from .errors import EmptyCorpusError, IngestError

_DEFAULT_SEPARATORS = ",  "
_DEFAULT_MARKERS = "^*†‡¹²³⁰⁴⁵⁶⁷⁸⁹"


@dataclass(frozen=True)
class ExtractionRules:
    """Configurable separator and exclusion characters.

    ``thousands_separators`` are stripped inside digit runs; a period is
    always a decimal marker.  ``footnote_markers`` invalidate the digit
    run they immediately follow.
    """

    thousands_separators: str = _DEFAULT_SEPARATORS
    footnote_markers: str = _DEFAULT_MARKERS

    def token_pattern(self) -> re.Pattern:
        # a separator joins only a group of exactly three digits, so "1,2,3"
        # and "12,34" stay separate numbers; with no separators there is no
        # group, since an empty class "[]" would swallow the "]" after it
        groups = ""
        if self.thousands_separators:
            seps = re.escape(self.thousands_separators)
            groups = rf"(?:[{seps}][0-9]{{3}}(?![0-9]))*"
        # no digit or dot directly before the token: "1.2.3" must not leak "3"
        return re.compile(rf"(?<![0-9.])([0-9]+{groups})(\.[0-9]+)?")

    def to_dict(self):
        return {
            "thousands_separators": self.thousands_separators,
            "footnote_markers": self.footnote_markers,
        }


def _token_value(digits: str, rules: ExtractionRules) -> int:
    """The integer a matched digit run prints, its separators stripped."""
    for sep in rules.thousands_separators:
        digits = digits.replace(sep, "")
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's integer string conversion limit
        raise IngestError(
            f"integer token of {len(digits)} digits cannot be converted"
        ) from None


def iter_integer_tokens(text: str, rules: ExtractionRules | None = None):
    """Yield integer values from ``text`` in document order."""
    rules = rules or ExtractionRules()
    pattern = rules.token_pattern()
    for match in pattern.finditer(text):
        if match.group(2) is not None:
            continue  # decimal fraction: drop the whole token
        end = match.end()
        if end < len(text) and text[end] in rules.footnote_markers:
            continue  # superscript-style footnote annotation
        yield _token_value(match.group(1), rules)


def extract_numbers(
    text: str,
    rules: ExtractionRules | None = None,
    label: str = "corpus",
    year: int | None = None,
) -> NumberCorpus:
    """Extract all integer tokens from ``text`` into a corpus.

    Raises EmptyCorpusError when no token survives the filtering rules.
    """
    values = tuple(iter_integer_tokens(text, rules))
    if not values:
        raise EmptyCorpusError(f"no integer tokens found for {label!r}")
    return NumberCorpus(label=label, values=values, year=year)


def parse_cell(cell: str, rules: ExtractionRules | None = None) -> int | None:
    """Parse one CSV cell as a single integer, or None if it is not one."""
    rules = rules or ExtractionRules()
    cell = cell.strip()
    if cell.startswith("(") and cell.endswith(")"):
        cell = cell[1:-1].strip()
    if cell.startswith("-"):
        cell = cell[1:].strip()
    match = rules.token_pattern().fullmatch(cell)
    if match is None or match.group(2) is not None:
        return None
    return _token_value(match.group(1), rules)


def _decode(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not valid UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def read_text_corpus(
    path,
    rules: ExtractionRules | None = None,
    label: str | None = None,
    year: int | None = None,
) -> NumberCorpus:
    path = Path(path)
    return extract_numbers(_decode(path), rules, label or path.stem, year)


def read_csv_corpus(
    path,
    column,
    rules: ExtractionRules | None = None,
    label: str | None = None,
    year: int | None = None,
) -> NumberCorpus:
    """Extract one numeric CSV column, selected by header name or 0-based index."""
    path = Path(path)
    text = _decode(path)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise EmptyCorpusError(f"{path}: empty CSV")
    if isinstance(column, str) and not column.isdigit():
        header, rows = rows[0], rows[1:]
        try:
            index = header.index(column)
        except ValueError:
            raise IngestError(f"{path}: no column named {column!r}") from None
    else:
        index = int(column)
        if rows and all(parse_cell(c, rules) is None for c in rows[0]):
            rows = rows[1:]  # tolerate a header row under index selection
    values = []
    for row in rows:
        if index < len(row):
            value = parse_cell(row[index], rules)
            if value is not None:
                values.append(value)
    if not values:
        raise EmptyCorpusError(f"{path}: column {column!r} has no integer values")
    return NumberCorpus(label=label or path.stem, values=tuple(values), year=year)
