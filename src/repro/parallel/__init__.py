"""The engine's block split, as a report.

The batch engine solves a batch of more than 32 columns as near-equal
contiguous column blocks at once, one per usable core
(:func:`repro.engine.batch.solve_columns`); no argument turns it on or
off.  :mod:`repro.parallel.rows` records each split (columns, blocks,
threads), readable via :func:`active_route`.
"""

from repro.parallel.rows import RouteReport, active_route

__all__ = ["RouteReport", "active_route"]
