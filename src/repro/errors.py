"""Exception hierarchy for the POLM2 reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class HeapError(ReproError):
    """Base class for simulated-heap errors."""


class OutOfMemoryError(HeapError):
    """The simulated heap cannot satisfy an allocation request."""


class RegionFullError(HeapError):
    """A region's bump pointer cannot accommodate the requested size."""


class InvalidAddressError(HeapError):
    """An address does not fall inside any mapped page or region."""


class RuntimeModelError(ReproError):
    """Base class for runtime (code model / thread / class loading) errors."""


class ClassNotLoadedError(RuntimeModelError):
    """A workload referenced a class that was never loaded into the VM."""


class DuplicateClassError(RuntimeModelError):
    """A class with the same name was loaded twice."""


class NoActiveFrameError(RuntimeModelError):
    """An allocation or call was issued outside any method frame."""


class GCError(ReproError):
    """Base class for collector errors."""


class UnknownGenerationError(GCError):
    """A generation id does not name a live generation."""


class PretenuringUnsupportedError(GCError):
    """The active collector does not implement the pretenuring API."""


class ProfileError(ReproError):
    """Base class for profiling / analysis errors."""


class ConflictResolutionError(ProfileError):
    """The STTree could not resolve an allocation-site conflict."""


class ProfileFormatError(ProfileError):
    """An allocation profile file is malformed."""


class WorkloadError(ReproError):
    """Base class for workload errors."""


class UnknownWorkloadError(WorkloadError):
    """The requested workload name is not registered."""
