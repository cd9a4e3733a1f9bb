"""The one CSV path: format, header check, and that nothing bypasses it."""

import re
from pathlib import Path

import pytest

import archsim
from archsim import table
from archsim.errors import ConfigError


def test_value_format():
    assert [table.value(v) for v in (None, True, False, 2, 1 / 3, "a,b")] == [
        "", 1, 0, 2, 0.333333, "a,b",
    ]


def test_round_trip_and_header_check(tmp_path):
    path = tmp_path / "t.csv"
    table.write_table(path, ["a", "b"], [(1, "x,y"), (2, "")])
    assert path.read_text() == 'a,b\n1,"x,y"\n2,\n'
    assert list(table.read_table(path, ["a", "b"], "test")) == [
        (2, ["1", "x,y"]), (3, ["2", ""]),
    ]
    with pytest.raises(ConfigError, match=r"t\.csv: unexpected test header: \['a', 'b'\]"):
        list(table.read_table(path, ["a"], "test"))


def test_csv_module_used_only_by_the_table_module():
    src = Path(archsim.__file__).parent
    users = sorted(
        p.name for p in src.glob("*.py")
        if re.search(r"csv\.(writer|reader)\b", p.read_text())
    )
    assert users == ["table.py"]
