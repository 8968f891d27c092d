"""The one key=value codec behind every flat config.

CLI config files, `--set` overrides, `config.resolved` and the model
config embedded in `.krna` checkpoints all parse and format values
through CODEC, keyed by type name.  Each formatter round-trips exactly
through its parser.
"""

import math
from dataclasses import fields


def _parse_bool(raw):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _parse_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_ints(raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


# type name -> (parser, formatter); a tuple is a list of ints
CODEC = {
    "int": (int, str),
    "float": (_parse_float, repr),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "str": (str, str),
    "tuple": (_parse_ints, lambda v: ",".join(str(int(e)) for e in v)),
}


def type_name(f):
    """CODEC key of a dataclass field, whether or not its annotation is a string."""
    return f.type if isinstance(f.type, str) else f.type.__name__


def field_types(cls):
    """field name -> CODEC key for every field of a dataclass."""
    return {f.name: type_name(f) for f in fields(cls)}


def parse_value(types, key, raw, where, error):
    """Parse raw as the type of key; unknown keys and bad values raise error."""
    if key not in types:
        raise error(f"unknown config key {key!r} ({where})")
    try:
        return CODEC[types[key]][0](raw)
    except ValueError as err:
        raise error(f"bad value for {key} ({where}): {err}") from None


def parse_text(text, types, where, error):
    """key -> value for the key=value lines of text.

    '#' starts a comment line and later lines win; every problem raises
    error naming the line.
    """
    got = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise error(f"{where} line {lineno} is not key=value: {line!r}")
        key = key.strip()
        got[key] = parse_value(types, key, raw.strip(), f"{where} line {lineno}", error)
    return got


def format_text(values, types):
    """One key=value line per key of types, sorted by key."""
    return "".join(f"{key}={CODEC[types[key]][1](values[key])}\n" for key in sorted(types))
