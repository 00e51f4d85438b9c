"""CDC tailer of the update log: the one log reader both invalidation
drivers share, kept importable from here (see :mod:`repro.core.invalidator.driver`)."""

from repro.core.invalidator.driver import LogTailer, TailBatch

__all__ = ["LogTailer", "TailBatch"]
