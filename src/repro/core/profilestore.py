"""Profile store: one allocation profile per expected workload (§3.5).

The paper: "it is possible to create multiple allocation profiles for the
same application, one for each possible workload.  Then, whenever the
application is launched in the production phase, one allocation profile
can be chosen according to the estimated workload (for example, depending
on the client for which the application is running)."

:class:`ProfileStore` is that mechanism, with one on-disk layout: a
content-addressed registry.  Every committed profile lands under
``objects/<content-hash>.profile.json``, and a per-workload pointer file
``latest/<workload>`` names the hash currently published for that
workload.  :meth:`ProfileStore.select` chooses among the published
workloads at production launch; the profile service (``repro serve``)
commits into and serves from the same layout.  Pointer updates are
atomic (unique temp name + ``os.replace``), so concurrent readers — the
HTTP API, a resuming daemon — never observe a torn write.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from typing import List, Optional

from repro.core.profile import AllocationProfile
from repro.errors import ProfileError, ProfileFormatError

_SUFFIX = ".profile.json"
_OBJECTS_DIR = "objects"
_LATEST_DIR = "latest"


def profile_content_hash(profile: AllocationProfile) -> str:
    """The content-address of a profile.

    IR-bearing profiles are addressed by their STTree digest — two
    profiles flattened from the same lifetime model share an address
    regardless of metadata.  Profiles without an IR (hand-built) fall
    back to hashing their canonical JSON.
    """
    if profile.sttree is not None:
        return profile.sttree.digest()
    return hashlib.sha256(profile.to_json().encode()).hexdigest()


class ProfileStore:
    """A directory-backed, content-addressed registry of allocation profiles."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _atomic_write(self, path: str, text: str) -> None:
        tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)

    # -- the content-addressed registry ------------------------------------------

    def _object_path(self, content_hash: str) -> str:
        return os.path.join(
            self.directory, _OBJECTS_DIR, content_hash + _SUFFIX
        )

    def _latest_path(self, workload: str) -> str:
        safe = workload.replace(os.sep, "_")
        return os.path.join(self.directory, _LATEST_DIR, safe)

    def put(self, profile: AllocationProfile, set_latest: bool = True) -> str:
        """Commit a profile by content address; returns its hash.

        Identical content is written once (the object file is immutable
        once present).  ``set_latest`` also repoints the workload's
        ``latest`` pointer at the new hash.
        """
        content_hash = profile_content_hash(profile)
        path = self._object_path(content_hash)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            self._atomic_write(path, profile.to_json())
        if set_latest:
            self.set_latest(profile.workload, content_hash)
        return content_hash

    def set_latest(self, workload: str, content_hash: str) -> None:
        """Atomically repoint ``latest/<workload>`` at ``content_hash``."""
        if not os.path.exists(self._object_path(content_hash)):
            raise ProfileError(
                f"cannot set latest {workload!r} pointer: no stored "
                f"profile object {content_hash}"
            )
        path = self._latest_path(workload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._atomic_write(path, content_hash + "\n")

    def latest_hash(self, workload: str) -> Optional[str]:
        """The content hash ``latest/<workload>`` points at, or None."""
        try:
            with open(self._latest_path(workload)) as handle:
                content_hash = handle.read().strip()
        except OSError:
            return None
        return content_hash or None

    def load_by_hash(self, content_hash: str) -> AllocationProfile:
        """Load a stored object, verifying it hashes to its address."""
        path = self._object_path(content_hash)
        if not os.path.exists(path):
            raise ProfileError(
                f"no stored profile object {content_hash} in "
                f"{self.directory}"
            )
        profile = AllocationProfile.load(path)
        actual = profile_content_hash(profile)
        if actual != content_hash:
            raise ProfileFormatError(
                f"{path}: stored profile hashes to {actual}, not its "
                f"address {content_hash}; the object file is corrupt"
            )
        return profile

    def load_latest(self, workload: str) -> AllocationProfile:
        """The profile the workload's ``latest`` pointer names."""
        content_hash = self.latest_hash(workload)
        if content_hash is None:
            raise ProfileError(
                f"no latest profile for workload {workload!r} in "
                f"{self.directory} (published: {self.latest_workloads()})"
            )
        return self.load_by_hash(content_hash)

    def latest_workloads(self) -> List[str]:
        """Workloads with a ``latest`` pointer."""
        try:
            names = os.listdir(os.path.join(self.directory, _LATEST_DIR))
        except OSError:
            return []
        return sorted(name for name in names if not name.endswith(".tmp"))

    def object_hashes(self) -> List[str]:
        """Every content hash with a stored object."""
        try:
            names = os.listdir(os.path.join(self.directory, _OBJECTS_DIR))
        except OSError:
            return []
        return sorted(
            name[: -len(_SUFFIX)]
            for name in names
            if name.endswith(_SUFFIX)
        )

    # -- selection -----------------------------------------------------------------

    def select(
        self, expected_workload: str, fallback: Optional[str] = None
    ) -> AllocationProfile:
        """Choose the profile for the expected workload at launch time.

        Looks among the published workloads (those with a ``latest``
        pointer): the exact workload first, then a same-application one —
        e.g. ``cassandra-wr`` can borrow ``cassandra-wi``'s profile, which
        still beats running unprofiled — then ``fallback``.
        """
        published = self.latest_workloads()
        if expected_workload in published:
            return self.load_latest(expected_workload)
        prefix = expected_workload.split("-")[0]
        for name in published:
            if name.split("-")[0] == prefix:
                return self.load_latest(name)
        if fallback is not None and fallback in published:
            return self.load_latest(fallback)
        raise ProfileError(
            f"no profile usable for {expected_workload!r} "
            f"(published: {published})"
        )
