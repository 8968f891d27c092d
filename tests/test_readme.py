"""README's config examples parse, and every config key it names exists."""

import re
from pathlib import Path

import pytest

from karina import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
# a fenced block is a config when every line but blanks and comments is key = value
CONFIG_LINE = re.compile(r"[a-z_]+(\.[a-z_0-9]+)?\s*=")
SETTING = re.compile(r"(seed|[a-z_]+\.[a-z_0-9]+)\s*=.*")
SECTIONS = ("data", "synth", "model", "train", "finetune", "eval", "rollout", "ablate")
SECTION_KEY = re.compile(rf"(?:{'|'.join(SECTIONS)})\.\w+")


def config_blocks(text):
    blocks = []
    for body in FENCE.findall(text):
        lines = [line.strip() for line in body.splitlines()]
        lines = [line for line in lines if line and not line.startswith("#")]
        if lines and all(CONFIG_LINE.match(line) for line in lines):
            blocks.append(body)
    return blocks


def inline_spans(text):
    """Backticked spans outside fenced blocks, whitespace collapsed."""
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", FENCE.sub("", text))]


BLOCKS = config_blocks(README)
SETTINGS = [span for span in inline_spans(README) if SETTING.fullmatch(span)]
KEYS = sorted({span for span in inline_spans(README) if SECTION_KEY.fullmatch(span)})


def test_readme_has_examples():
    assert BLOCKS and SETTINGS and KEYS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_config_block_parses(block):
    cli.parse_config_text(block, where="README")


@pytest.mark.parametrize("setting", SETTINGS)
def test_inline_setting_parses(setting):
    cli.parse_config_text(setting, where="README")


@pytest.mark.parametrize("key", KEYS)
def test_named_key_exists(key):
    assert key in cli.SCHEMA
