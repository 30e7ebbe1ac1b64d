"""Span tracer that wraps ticksync's public functions from outside the package.

Every wrapped call records one span: which function, start, end, and the
index of the span that was open when it began (its parent).  Spans are kept
in flat arrays while a job runs and are folded into per-layer metrics when
it ends.  A function's self time is its span's duration minus the time its
direct child spans cover.

The package itself is not modified: `install` rebinds every module attribute
that refers to a wrapped function (including the ``from .qsim import ...``
copies held by other modules and the package namespace), and `uninstall`
puts the originals back.  `StateVector` is a class, so its ``__init__`` is
wrapped in place, which every binding of the class sees.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

# layer module -> public functions traced as spans
TARGETS = {
    "cli": ("parse_config",),
    "harness": ("run",),
    "seeding": ("child_rng",),
    "protocol": ("run_sync", "success_probability_exact", "photon_zero_probability"),
    "tradeoff": ("tradeoff_sweep", "classical_estimate"),
    "clock": ("tqh_oracle", "fixed_rate_query"),
    "qsim": (
        "StateVector",
        "basis_state",
        "hadamard",
        "z_phase",
        "indexed_phase",
        "diagonal_phase",
        "qft",
        "inverse_qft",
        "measure",
    ),
}

PACKAGE = "ticksync"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# bytes of one complex128 amplitude
AMP_BYTES = 16


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Tracer:
    """Context manager that traces ticksync while it is active.

    Besides spans it keeps four counters, taken at the same boundaries:
    the widest state any qsim call took or built, 16 * 2**q bytes for every
    qsim call on q qubits (computed, not measured), and the query count and
    largest rate index passed to ``ResourceLedger.record_query``.
    """

    def __init__(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.max_qubits = 0
        self.amp_bytes = 0
        self.queries = 0
        self.max_rate_index = 0
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _qsim_op(self, qubits: int) -> None:
        if qubits > self.max_qubits:
            self.max_qubits = qubits
        self.amp_bytes += AMP_BYTES << qubits

    def _wrap(self, fn, name_id: int, qubit_arg: int | None):
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if qubit_arg is not None:
                q = args[qubit_arg]
                self._qsim_op(q if isinstance(q, int) else q.num_qubits)
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        pkg = PACKAGE
        for mod_name in TARGETS:
            importlib.import_module(f"{pkg}.{mod_name}")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == pkg or name.startswith(pkg + ".")
        ]
        for mod_name, fn_names in TARGETS.items():
            layer = sys.modules[f"{pkg}.{mod_name}"]
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                name_id = SPAN_NAMES.index(name)
                original = getattr(layer, fn_name)
                if isinstance(original, type):
                    # argument 1 of __init__ (after self) is num_qubits
                    init = original.__dict__["__init__"]
                    self._patch(original, "__init__", self._wrap(init, name_id, 1))
                    continue
                # qsim functions take the state (or, for basis_state, the width) first
                wrapper = self._wrap(original, name_id, 0 if mod_name == "qsim" else None)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attribute, wrapper)

        ledger_cls = sys.modules[f"{pkg}.clock"].ResourceLedger
        record_query = ledger_cls.__dict__["record_query"]

        @functools.wraps(record_query)
        def counted(ledger, rate_index: int, count: int = 1) -> None:
            record_query(ledger, rate_index, count)
            self.queries += count
            if rate_index > self.max_rate_index:
                self.max_rate_index = rate_index

        self._patch(ledger_cls, "record_query", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics folded from the recorded spans and counters."""
        count = len(self.starts)
        child_time = [0.0] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        run_sync_us = []
        run_sync_id = SPAN_NAMES.index("protocol.run_sync")
        for i in range(count):
            name_id = self.name_ids[i]
            duration = self.ends[i] - self.starts[i]
            calls[name_id] += 1
            self_s[name_id] += duration - child_time[i]
            if name_id == run_sync_id:
                run_sync_us.append(duration * 1e6)
        out: dict[str, float] = {}
        for name_id, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
        out["protocol.run_sync.us_p50"] = percentile(run_sync_us, 0.50) if run_sync_us else 0.0
        out["protocol.run_sync.us_p99"] = percentile(run_sync_us, 0.99) if run_sync_us else 0.0
        out["qsim.max_qubits"] = self.max_qubits
        out["qsim.amp_bytes_computed"] = self.amp_bytes
        out["clock.queries"] = self.queries
        out["clock.max_rate_index"] = self.max_rate_index
        return out
