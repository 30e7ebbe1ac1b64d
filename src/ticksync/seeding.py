"""Deterministic random-stream derivation.

Every experiment derives its streams from one root seed so that identical
configurations replay identical draws.  Child streams are split by integer
path rather than by consuming draws from a parent, which keeps stream
identity independent of evaluation order.
"""

from __future__ import annotations

import numpy as np

from .qsim import _count


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path); same arguments, same stream.
    seed and every path element must be integers >= 0; a bool or float raises ValueError."""
    key = tuple(_count("path element", p, 0) for p in path)
    return np.random.default_rng(np.random.SeedSequence(_count("seed", seed, 0), spawn_key=key))
