"""POLM2 itself: Recorder, Dumper, Analyzer (+ STTree), Instrumenter.

The four components of the paper's Figure 1, plus the two-phase
orchestration of §3.5:

* profiling phase — :class:`~repro.core.recorder.Recorder` logs every
  allocation (stack trace + identity hash) and triggers the
  :class:`~repro.core.dumper.Dumper` after each GC cycle; the
  streaming :class:`~repro.core.stages.IncrementalAnalyzer` buckets
  object survival per allocation stack trace as each snapshot arrives
  and the :class:`~repro.core.sttree.STTree` resolves
  same-site/different-lifetime conflicts; the
  :class:`~repro.core.stages.ProfileBuilder` flattens the result into
  an :class:`~repro.core.profile.AllocationProfile`;
* production phase — the :class:`~repro.core.instrumenter.Instrumenter`
  rewrites classes at load time so NG2C pretenures according to the
  profile.
"""

from repro.core.dumper import Dumper
from repro.core.idset import EMPTY_IDSET, IdSet
from repro.core.instrumenter import Instrumenter
from repro.core.pipeline import POLM2Pipeline, PhaseResult
from repro.core.profile import AllocationProfile, AllocDirective, CallDirective
from repro.core.profilestore import ProfileStore
from repro.core.recorder import AllocationRecords, Recorder
from repro.core.stages import IncrementalAnalyzer, ProfileBuilder
from repro.core.sttree import STTree

__all__ = [
    "AllocDirective",
    "AllocationProfile",
    "AllocationRecords",
    "CallDirective",
    "Dumper",
    "EMPTY_IDSET",
    "IdSet",
    "IncrementalAnalyzer",
    "Instrumenter",
    "POLM2Pipeline",
    "PhaseResult",
    "ProfileBuilder",
    "ProfileStore",
    "Recorder",
    "STTree",
]
