"""The one CSV path: every table archsim writes or reads goes through here.

A table is a header row, then one row per record, with ``\\n`` line
endings.  Values have one format: None is an empty field, a bool is 0
or 1, a float is rounded to 6 decimals, anything else is written as is.
A table backed by a dataclass takes its header from the field names.
"""

from __future__ import annotations

import csv
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


def columns(cls) -> list[str]:
    """The header of a dataclass-backed table."""
    return [f.name for f in fields(cls)]


def row(record) -> list:
    """A dataclass record as a table row, in field order."""
    return [value(getattr(record, f.name)) for f in fields(record)]


def write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, header, what):
    """Yield (line number, row) for each row below a header equal to ``header``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ConfigError(f"{path}: unexpected {what} header: {found}")
        for values in reader:
            yield reader.line_num, values
