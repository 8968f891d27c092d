"""Desk-scale global forecast emulator.

Subpackages split along the lifecycle of a forecast model: a small
reverse-mode tensor engine, spherical boundary handling, the network
layers and their assembly, training and fine-tuning loops, verification
metrics, gridded data handling, autoregressive rollout, and a CLI.
The CLI module loads on first use (``from karina import cli``), so
``python -m karina.cli`` does not find it already imported.
"""

from karina import (
    config,
    data,
    engine,
    layers,
    metrics,
    model,
    padding,
    rollout,
    training,
)

__all__ = [
    "cli",
    "config",
    "data",
    "engine",
    "layers",
    "metrics",
    "model",
    "padding",
    "rollout",
    "training",
]

__version__ = "0.1.0"
