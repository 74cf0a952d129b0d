"""Timing helper re-exported for :mod:`repro.util` users.

The stage wall clock lives in :mod:`repro.obs.profile`
(:class:`~repro.obs.profile.StageProfiler`); :func:`timed` records each
call of a function into one.
"""

from __future__ import annotations

from repro.obs.profile import timed

__all__ = ["timed"]
