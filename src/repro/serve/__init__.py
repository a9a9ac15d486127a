"""The profile service: continuous profiling cycles served over HTTP.

``repro serve`` turns the one-shot profiling pipeline into a long-running
daemon (the gprofiler deployment shape): :mod:`repro.serve.cycle` runs
fixed-budget profiling cycles against simulated VMs,
:mod:`repro.serve.daemon` merges each cycle's STTree into a
content-addressed :class:`~repro.core.profilestore.ProfileStore` with
crash-safe cycle state, and :mod:`repro.serve.api` serves the profiles
and telemetry to production-phase VMs over a small stdlib HTTP API.
"""

from repro.serve.api import ProfileService
from repro.serve.cycle import CycleReport, ProfilingCycleEngine
from repro.serve.daemon import ServeConfig, ServeDaemon

__all__ = [
    "CycleReport",
    "ProfileService",
    "ProfilingCycleEngine",
    "ServeConfig",
    "ServeDaemon",
]
