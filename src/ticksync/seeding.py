"""Deterministic random-stream derivation.

Every experiment derives its streams from one root seed so that identical
configurations replay identical draws.  Child streams are split by integer
path rather than by consuming draws from a parent, which keeps stream
identity independent of evaluation order.
"""

from __future__ import annotations

import numpy as np


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path); same arguments, same stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))

