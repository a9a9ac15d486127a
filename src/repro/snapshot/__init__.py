"""JVM memory snapshots: CRIU-style incremental checkpoints vs jmap dumps.

Reproduces the comparison of the paper's §4.2 and Figures 3/4: POLM2's
Dumper uses CRIU with two optimizations — skip pages holding no live
objects (the ``madvise`` no-need bit set by the Recorder) and include only
pages dirtied since the previous snapshot — while the ``jmap`` baseline
walks and serializes every live object on every dump.
"""

from repro.snapshot.criu import CRIUEngine
from repro.snapshot.jmap import JmapDumper
from repro.snapshot.snapshot import Snapshot

__all__ = ["CRIUEngine", "JmapDumper", "Snapshot"]
