"""Schedule builders — the paper's §4 heuristics plus the GMC extension.

Every builder subclasses :class:`repro.core.base.ScheduleBuilder`,
registers itself under its paper name via
:func:`repro.core.base.register_builder`, and emits exactly one transfer
per outstanding cell and one deletion per superfluous cell of
``(X_old, X_new)``:

* :class:`~repro.core.builders.rdf.RandomDeletionsFirst` (``RDF``, §4.1)
  — all deletions first, then transfers from the then-nearest source;
* :class:`~repro.core.builders.gsdf.GroupedServerDeletionsFirst`
  (``GSDF``, §4.1) — contiguous per-server groups, deletions before
  transfers within each group;
* :class:`~repro.core.builders.ar.AllRandom` (``AR``, §4.2) — uniformly
  random interleaving of valid deletions and transfers;
* :class:`~repro.core.builders.golcf.GreedyObjectLowestCostFirst`
  (``GOLCF``, §4.2) — cheapest object served whole, benefit-ordered
  evictions (eq. 4);
* :class:`~repro.core.builders.gmc.GlobalMinimumCostFirst` (``GMC``,
  extension) — globally cheapest pending transfer each step.

Every builder records its actions as int32 columns (through
:class:`~repro.core.builders.common.BuildLog`) and returns a lazy
:class:`~repro.flat.buffers.FlatSchedule`.

Determinism contract: all randomness flows through
:func:`repro.util.rng.ensure_rng`, so ``build(instance, rng=seed)`` with
an ``int`` seed returns an identical schedule on every call, and dummy
transfers appear only when no real source (or no evictable space) exists.
"""

from repro.core.builders.ar import AllRandom
from repro.core.builders.gmc import GlobalMinimumCostFirst
from repro.core.builders.golcf import GreedyObjectLowestCostFirst
from repro.core.builders.gsdf import GroupedServerDeletionsFirst
from repro.core.builders.rdf import RandomDeletionsFirst

__all__ = [
    "AllRandom",
    "GlobalMinimumCostFirst",
    "GreedyObjectLowestCostFirst",
    "GroupedServerDeletionsFirst",
    "RandomDeletionsFirst",
]
