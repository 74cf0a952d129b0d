"""repro.flat — structure-of-arrays action storage.

:class:`FlatActionBuffer` records a schedule as four parallel int32
columns, and :class:`FlatSchedule` is the lazy :class:`~repro.model.
schedule.Schedule` over it. Every registered builder
(:mod:`repro.core.builders`) records into these columns, and the
optimizers read them without materializing action objects.
"""

from repro.flat.buffers import FlatActionBuffer, FlatSchedule

__all__ = ["FlatActionBuffer", "FlatSchedule"]
