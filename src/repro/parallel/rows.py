"""The engine's last block split, readable via :func:`active_route`.

A batch solve of more than 32 columns splits into near-equal contiguous
column blocks solved on up to as many threads as the process has usable
cores (:func:`repro.engine.batch.solve_columns`).  Each split is recorded
here, in the style of :func:`repro.ops.active_kernel`, so the blocks and
threads a wide solve used can be read back.

The module keeps its historical path because readers import
:func:`active_route` from it: :func:`repro.obs.snapshot` and the ledger
harness's provenance record (``perfbench/run.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class RouteReport:
    """One split (cf. :class:`repro.ops.KernelReport`): a ``columns``-wide
    batch in ``blocks`` contiguous column blocks, solved on ``threads``
    threads, the calling thread one of them."""

    columns: int
    blocks: int
    threads: int

    @property
    def reason(self) -> str:
        """The split in words (the ledger's provenance line prints it)."""
        return f"{self.columns} columns in {self.blocks} blocks on {self.threads} threads"


_route_lock = threading.Lock()
_last_route: "RouteReport | None" = None


def record_route(report: RouteReport) -> None:
    """Record a split for :func:`active_route` diagnostics."""
    global _last_route
    with _route_lock:
        _last_route = report


def active_route() -> "RouteReport | None":
    """The engine's most recent block split in this process.

    ``None`` until a batch of more than 32 columns is solved.
    """
    with _route_lock:
        return _last_route
