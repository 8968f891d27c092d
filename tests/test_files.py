"""The one artifact writer: a write that fails leaves the previous file
as it was and no temp file behind, and no other module opens a file
for writing, codes binary records or formats CSV lines itself."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import karina
from karina import data, files, metrics, model, training

SRC = Path(karina.__file__).parent


def leftovers(folder):
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".tmp"))


def toy_model():
    cfg = model.ModelConfig(in_channels=2, out_channels=2, stage_dims=(4,), depths=(1,))
    return model.build(cfg, seed=1)


class TestAtomicOpen:
    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("old\n")
        files.write_lines(path, ["x", "y"])
        assert path.read_text() == "x\ny\n"
        assert leftovers(tmp_path) == []

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_raise_inside_keeps_previous(self, tmp_path, exc):
        path = tmp_path / "a.krna"
        path.write_bytes(b"previous")
        with pytest.raises(exc):
            with files.atomic_open(path, "wb") as fh:
                fh.write(b"half")
                raise exc()
        assert path.read_bytes() == b"previous"
        assert leftovers(tmp_path) == []

    def test_raise_inside_creates_nothing(self, tmp_path):
        path = tmp_path / "a.csv"
        with pytest.raises(RuntimeError):
            with files.atomic_open(path) as fh:
                fh.write("half")
                raise RuntimeError()
        assert list(tmp_path.iterdir()) == []


class TestInterruptedWrites:
    def test_checkpoint_conversion_failure(self, tmp_path):
        m = toy_model()
        path = tmp_path / "checkpoint.krna"
        model.save_checkpoint(m, path)
        before = path.read_bytes()
        # the last parameter cannot become <f4, so the write dies after
        # every other parameter has gone out
        *_, (_, last) = m.named_parameters()
        last.data = np.full(last.data.shape, "x", dtype=object)
        with pytest.raises(ValueError):
            model.save_checkpoint(m, path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path) == []

    @pytest.mark.parametrize("write", [
        lambda path: metrics.metrics_to_csv([("T", 1, "rmse", 0.5)], path),
        lambda path: training.TrainReport(
            [training.EpochRecord(1, 4, 1e-3, 0.25)]).to_csv(path),
        lambda path: data.write_grid(data.GridFile(
            ("T",), [3], np.ones((1, 1, 2, 4), dtype=np.float32)), path),
    ], ids=["metrics_to_csv", "TrainReport.to_csv", "write_grid"])
    def test_failed_rename(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous run\n")

        def refuse(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk gone"):
            write(path)
        assert path.read_bytes() == b"previous run\n"
        assert leftovers(tmp_path) == []


def write_opens(source):
    """Line numbers of calls that may open a file for writing: open(),
    io.open() or a .open() method whose mode is not a read-only
    literal, and Path.write_text/write_bytes."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        if name in ("write_text", "write_bytes"):
            hits.append(node.lineno)
        if name != "open":
            continue
        # open(path, mode) and io.open(path, mode); Path(...).open(mode)
        builtin = isinstance(fn, ast.Name) or getattr(fn.value, "id", None) == "io"
        pos = 1 if builtin else 0
        mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None:
            mode = node.args[pos] if len(node.args) > pos else ast.Constant("r")
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) <= set("rbt")):
            hits.append(node.lineno)
    return hits


def test_guard_sees_every_write_mode():
    src = ("open(p, 'w')\nopen(p, mode='ab')\nio.open(p, 'r+')\nopen(p, m)\n"
           "Path(p).open('x')\np.write_text(s)\n"
           "open(p)\nopen(p, 'rb')\nopen(p, mode='r')\nPath(p).open()\n")
    assert write_opens(src) == [1, 2, 3, 4, 5, 6]


def test_only_the_writer_module_opens_for_writing():
    found = {
        path.name: write_opens(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def record_codec_uses(source):
    """Line numbers that import struct or call readinto or frombuffer:
    binary record coding that belongs in files.py."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names):
            hits.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "struct":
            hits.append(node.lineno)
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in ("readinto", "frombuffer"):
                hits.append(node.lineno)
    return sorted(hits)


def test_codec_guard_sees_struct_and_raw_reads():
    src = ("import struct\nimport os, struct as st\nfrom struct import pack\n"
           "fh.readinto(buf)\nnp.frombuffer(raw, '<f4')\nfrombuffer(raw)\n"
           "import structlog\nfh.read(4)\nbuf = readinto\nnp.asarray(raw)\n")
    assert record_codec_uses(src) == [1, 2, 3, 4, 5, 6]


def test_only_the_writer_module_codes_binary_records():
    found = {
        path.name: record_codec_uses(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    files.write_csv(path, ("key", "n", "opt", "x"), [
        ("a", 3, None, 0.1),
        ("b", np.int64(-2), 1.0, np.float32(0.5)),
        ("c", np.uint32(7), np.float64(1 / 3), 2),
    ])
    assert path.read_text(encoding="utf-8") == (
        "key,n,opt,x\na,3,,0.1\nb,-2,1.0,0.5\nc,7,0.3333333333333333,2\n"
    )


def test_only_the_commands_write_lines_themselves():
    # every CSV table goes through files.write_csv; write_lines is left
    # to cli's config.resolved, FAILED and BLOWUP
    importers = {
        path.name for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and any(a.name == "write_lines" for a in node.names)
    }
    assert importers == {"cli.py"}


def test_require_finite_names_the_first_bad_index():
    values = np.zeros((2, 3, 4))
    values[1, 2, 0], values[1, 2, 3] = np.inf, np.nan
    with pytest.raises(ValueError, match=r"^x holds a non-finite value at index \(1, 2, 0\)$"):
        files.require_finite(values, ValueError, "x")
    with pytest.raises(ValueError, match=r"^x holds a non-finite value at c 1, r 2, w 0$"):
        files.require_finite(values, ValueError, "x", ("c", "r", "w"))
    files.require_finite(np.zeros(0), ValueError, "x")


def test_one_non_finite_check():
    # arrays are checked by files.require_finite; compute_norm_stats keeps
    # its own test of each channel's min and max, whose message it pins
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "files.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "isfinite"
                    and getattr(n.value, "id", None) == "np" for n in ast.walk(fn)):
                callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"data.compute_norm_stats"}
