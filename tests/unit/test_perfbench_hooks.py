"""perfbench's hooks into the program still resolve.

``perfbench/layers.py`` wraps program methods and module functions by
name, reading each method from its class's own ``__dict__``, and
``perfbench/workloads.py`` imports program names such as
``PAPER_TABLE5``. A refactor that moves one of them breaks the
benchmark; these tests make it fail here instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import layers, workloads
    finally:
        sys.path.remove(str(ROOT))
    return layers, workloads


def test_workloads_import_the_program(perfbench):
    _, workloads = perfbench
    assert workloads.WORKLOADS


def test_every_layer_boundary_resolves(perfbench):
    layers, _ = perfbench
    boundaries = layers.layer_boundaries()
    unresolved = []
    for owner, attr, *_ in boundaries:
        # As ``LayerTracer.patch`` reads it: a method from its class's
        # own ``__dict__``, a function from its module.
        if isinstance(owner, type):
            target = owner.__dict__.get(attr)
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            unresolved.append(f"{owner.__name__}.{attr}")
    assert boundaries
    assert unresolved == []
