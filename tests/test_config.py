"""The shared key=value codec: exact round trips and named errors."""

from dataclasses import dataclass, fields

import pytest

from karina import config as K


class Oops(Exception):
    pass


TYPES = {"n": "int", "x": "float", "on": "bool", "name": "str", "dims": "tuple"}
VALUES = {"n": -3, "x": 0.1 + 0.2, "on": False, "name": "geocyclic", "dims": (8, 16)}


def test_format_then_parse_is_exact():
    text = K.format_text(VALUES, TYPES)
    assert text.splitlines()[0] == "dims=8,16"
    assert K.parse_text(text, TYPES, "t", Oops) == VALUES


@pytest.mark.parametrize("line, fragment", [
    ("n=x", "bad value for n"),
    ("on=yes", "true or false"),
    ("dims=", "comma-separated"),
    ("dims=1,a", "bad value for dims"),
    ("depth=3", "unknown config key"),
    ("just words", "line 1 is not key=value"),
])
def test_errors_use_the_callers_class(line, fragment):
    with pytest.raises(Oops, match=fragment):
        K.parse_text(line, TYPES, "t", Oops)


def test_type_name_reads_both_annotation_forms():
    @dataclass
    class Plain:
        a: int = 0
        b: "tuple" = ()

    assert [K.type_name(f) for f in fields(Plain)] == ["int", "tuple"]
    assert K.field_types(Plain) == {"a": "int", "b": "tuple"}
