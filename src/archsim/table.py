"""The one CSV path: every table archsim writes or reads goes through here.

A table is UTF-8: a header row, then one row per record, with ``,``
between fields and ``\\n`` line endings.  Values have one format: None is
an empty field, a bool is 0 or 1, a float is rounded to 6 decimals,
anything else is written as is.  An int is read back only from an
optional ``-`` and ASCII digits (``parse_int``), in a table or a config
file alike; a config file's float only from such an int with an optional
fraction and exponent (``parse_float``).  A table backed by a dataclass
takes its header from the field names and is written by ``write_records``.

A table of ints alone, such as the trace, may be written as text rendered
ahead: ``int_field`` gives the text of one int in a row, and
``write_rendered`` writes the header and then that text as it is.
"""

from __future__ import annotations

import csv
import re
from contextlib import contextmanager
from dataclasses import fields

from .errors import ConfigError


def value(v):
    """One value in the table format."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, float):
        return round(v, 6)
    return v


def parse_int(text: str) -> int:
    """The int ``text`` spells as ``INT``; ValueError for anything else,
    such as ``+7``, ``4_00``, padding or non-ASCII digits, which int() takes."""
    if not re.fullmatch(INT, text):
        raise ValueError(f"{text!r} must be a decimal integer")
    return int(text)


def parse_float(text: str) -> float:
    """The float ``text`` spells as ``INT`` with an optional fraction
    ``(\\.[0-9]+)?`` and exponent ``([eE][-+]?[0-9]+)?``, which covers every
    float ``str`` gives but inf and nan; ValueError for anything else, such
    as ``+3``, ``1_0.5``, ``.5`` or non-ASCII digits, which float() takes."""
    if not re.fullmatch(INT + r"(\.[0-9]+)?([eE][-+]?[0-9]+)?", text):
        raise ValueError(f"{text!r} must be a decimal number")
    return float(text)


def columns(cls) -> list[str]:
    """The header of a dataclass-backed table."""
    return [f.name for f in fields(cls)]


def row(record) -> list:
    """A dataclass record as a table row, in field order."""
    return [value(getattr(record, f.name)) for f in fields(record)]


SEPARATOR = ","
LINE_END = "\n"
INT = r"-?[0-9]+"  # the one spelling of an int that a table or config file holds


def int_field(v: int, *, last: bool = False) -> str:
    """The text of int ``v`` in a row: followed by the separator, or by the
    line end when ``last``."""
    return f"{v}{LINE_END if last else SEPARATOR}"


def write_table(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=SEPARATOR, lineterminator=LINE_END)
        writer.writerow(header)
        writer.writerows(rows)


def write_records(path, cls, records) -> None:
    """The dataclass table: the header ``columns(cls)``, one ``row`` per record."""
    write_table(path, columns(cls), map(row, records))


def write_rendered(path, header, blocks) -> None:
    """Write the header, then each block as it is: the text of whole rows
    of ints, joined from ``int_field`` texts."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, delimiter=SEPARATOR, lineterminator=LINE_END).writerow(header)
        fh.writelines(blocks)


@contextmanager
def open_table(path, header, what):
    """The open file of a table whose header equals ``header``, at its first row."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            first = fh.readline()
            found = next(csv.reader([first], delimiter=SEPARATOR)) if first else None
            if found != header:
                raise ConfigError(f"{path}: unexpected {what} header: {found}")
            yield fh
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:  # read_table names a body row's line itself
            raise ConfigError(f"{path}: {what} header: {exc}") from None


def read_table(path, header, what):
    """Yield (line number, row) for each row below a header equal to ``header``."""
    with open_table(path, header, what) as fh:
        reader = csv.reader(fh, delimiter=SEPARATOR)
        try:
            for values in reader:
                yield reader.line_num + 1, values
        except csv.Error as exc:
            raise ConfigError(f"{path}: line {reader.line_num + 1}: {exc}") from None
