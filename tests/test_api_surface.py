"""Every name and attribute `src/karina` defines is reached by the
program itself.

A name bound by a top-level `def`, `class` or assignment, or by a method
`def`, must occur as a word somewhere besides its own definitions: in
`src/karina`, `perfbench/` or `tests/test_acceptance.py`.  Words inside
string literals count, because perfbench's probes look attributes up by
name; comments do not.  Unit tests do not count: code only they call is
not part of the program.  Dunder names are exempt, since Python calls
them.

An attribute a class assigns on `self`, or a dataclass field, must be
read in `src/karina`, `perfbench/` or `tests/test_acceptance.py`, or
occur as a word in perfbench or the acceptance tests (which pass some
fields by keyword): a field that is only ever written is state nothing
uses.  A read as `self.name` counts only for the class it sits in; a
read as `.name` on any other receiver counts for every class.
"""

import ast
import importlib.util
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "karina"
OUTSIDE = [
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
USERS = [*sorted(SRC.glob("*.py")), *OUTSIDE]
_STRING_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def definitions(source):
    """Names bound by a top-level def, class or assignment, or a method def."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def words(source):
    """Count of each identifier token, plus identifier words inside string
    literals; comments do not count."""
    counts = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            counts[tok.string] += 1
        elif tok.type in _STRING_TOKENS:
            counts.update(re.findall(r"[A-Za-z_]\w*", tok.string))
    return counts


def unreached(defining, users):
    """module.name for each name a defining module binds that no user text
    mentions beyond its definitions.  defining maps module name to source;
    users is a list of source texts."""
    defined = {mod: definitions(src) for mod, src in defining.items()}
    times_defined = Counter(n for names in defined.values() for n in names)
    seen = Counter()
    for text in users:
        seen.update(words(text))
    return sorted({
        f"{mod}.{name}"
        for mod, names in defined.items()
        for name in names
        if seen[name] <= times_defined[name]
    })


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def attributes(source):
    """Sorted (class, attribute) pairs: each attribute a class assigns on
    self and each field of a dataclass."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if any(_is_dataclass(d) for d in cls.decorator_list):
            found += [(cls.name, item.target.id) for item in cls.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        found += [(cls.name, node.attr) for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"]
    return sorted(set(found))


def _reads(node, on_self):
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (isinstance(node.value, ast.Name) and node.value.id == "self") == on_self)


def attribute_reads(source):
    """The attributes source reads: names read as .name on any receiver but
    self, and (class, name) pairs read as self.name inside that class."""
    tree = ast.parse(source)
    names = {node.attr for node in ast.walk(tree) if _reads(node, on_self=False)}
    pairs = {(cls.name, node.attr) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in ast.walk(cls) if _reads(node, on_self=True)}
    return names, pairs


def write_only(defining, readers, outside):
    """Class.attribute for each attribute of the defining sources that no
    reader reads, as self.name in that class or as .name on another
    receiver, and no outside text mentions as a word."""
    read, read_on_self, seen = set(), set(), Counter()
    for text in readers:
        names, pairs = attribute_reads(text)
        read |= names
        read_on_self |= pairs
    for text in outside:
        seen.update(words(text))
    return sorted({f"{cls}.{attr}" for src in defining for cls, attr in attributes(src)
                   if attr not in read and (cls, attr) not in read_on_self and not seen[attr]})


def test_guard_self_test():
    src = (
        "A = 1\n"
        "B, (C, D) = 2, (3, 4)\n"
        "E: int = 5\n"
        "def used():\n"
        "    inner = A  # dead_in_comment\n"
        "    return inner\n"
        "def dead():\n"
        "    return C\n"
        "class K:\n"
        "    attr = 1\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def method(self):\n"
        "        return used()\n"
        "    def lonely(self):\n"
        "        return E\n"
        "class J:\n"
        "    def method(self):\n"
        "        return 'by_name'\n"
        "def by_name():\n"
        "    pass\n"
    )
    caller = "K().method()\ngetattr(K, 'J')\n# dead lonely B D\n"
    assert definitions(src) == ["A", "B", "C", "D", "E", "used", "dead", "K", "method",
                                "lonely", "J", "method", "by_name"]
    # method is defined twice and called once: one use beyond its definitions
    assert unreached({"m": src}, [src, caller]) == ["m.B", "m.D", "m.dead", "m.lonely"]
    assert unreached({"m": src}, [src]) == ["m.B", "m.D", "m.J", "m.K", "m.dead",
                                            "m.lonely", "m.method"]


def test_attribute_guard_self_test():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Table:\n"
        "    coeffs: int\n"
        "    fit_start: float\n"
        "    period: float = 1.0\n"
        "    LIMIT = 3\n"
        "class Block:\n"
        "    def __init__(self, dim):\n"
        "        self.dim = dim\n"
        "        self.norm, self.scale = dim, 2\n"
        "        self.count = 0\n"
        "        self.level = 0\n"
        "    def step(self):\n"
        "        self.count += 1\n"
        "        return self.norm * Table(1, 0.0).coeffs\n"
        "class Gauge:\n"
        "    def __init__(self):\n"
        "        self.level = 1\n"
        "    def read(self):\n"
        "        return self.level\n"
    )
    outside = "Table(coeffs=1, fit_start=0.0)\n# period\nprobe = (Block, 'scale')\n"
    assert attributes(src) == [("Block", "count"), ("Block", "dim"), ("Block", "level"),
                               ("Block", "norm"), ("Block", "scale"), ("Gauge", "level"),
                               ("Table", "coeffs"), ("Table", "fit_start"), ("Table", "period")]
    # count is only ever incremented; period is named in a comment only;
    # Block.level is never read, though Gauge reads its own level
    assert write_only([src], [src], [outside]) == ["Block.count", "Block.dim", "Block.level",
                                                    "Table.period"]
    assert write_only([src], [src], []) == ["Block.count", "Block.dim", "Block.level",
                                             "Block.scale", "Table.fit_start", "Table.period"]


def test_every_src_attribute_is_read():
    defining = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    users = [p.read_text(encoding="utf-8") for p in USERS]
    outside = [p.read_text(encoding="utf-8") for p in OUTSIDE]
    assert write_only(defining, users, outside) == []


def test_every_src_name_is_reached():
    defining = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text(encoding="utf-8") for p in USERS]
    assert unreached(defining, users) == []


def test_every_perfbench_probe_resolves():
    # perfbench looks each probed function up by name; a renamed op would
    # otherwise fail only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing._points()
    assert len(points) == 72
    for owner, attr, *_ in points:
        assert callable(tracing._get(owner, attr)), (owner, attr)
