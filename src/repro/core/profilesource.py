"""Profile resolution for production-phase VMs: the ``--profile`` seam.

The paper's production phase reads the allocation profile from a file
the operator copied into place.  A fleet talking to the profile service
(``repro serve``) instead names *where the profile lives*:

* ``file:///path/to/profile.json`` (or a bare path) — a profile file;
* ``store:///path/to/store#cassandra-wi`` — a
  :class:`~repro.core.profilestore.ProfileStore` directory; the fragment
  selects the workload's ``latest`` pointer, or a specific object with
  ``#sha256:<hex>``;
* ``http://host:port/profiles/cassandra-wi/latest`` — the profile
  service's HTTP API (also ``/profiles/by-hash/<sha>``).

:func:`resolve_profile` turns any of these into an
:class:`~repro.core.profile.AllocationProfile`; the pipeline, the CLI,
and the experiment matrix all resolve through it, so a production VM is
pointed at a live service by changing one string.
"""

from __future__ import annotations

import urllib.error
import urllib.request
from typing import Union

from repro.core.profile import AllocationProfile
from repro.errors import ProfileError

#: Network timeout for ``http(s)://`` profile fetches, seconds.
HTTP_TIMEOUT_S = 30.0

_HASH_PREFIX = "sha256:"


class ProfileSource:
    """Something a production VM can resolve an allocation profile from."""

    def resolve(self) -> AllocationProfile:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class FileProfileSource(ProfileSource):
    """A profile JSON file on disk (``file://`` or a bare path)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def resolve(self) -> AllocationProfile:
        return AllocationProfile.load(self.path)

    def describe(self) -> str:
        return f"file://{self.path}"


class StoreProfileSource(ProfileSource):
    """A :class:`~repro.core.profilestore.ProfileStore` directory.

    ``selector`` is a workload name (resolved through the store's
    ``latest`` pointer) or ``sha256:<hex>`` naming one content-addressed
    object.
    """

    def __init__(self, directory: str, selector: str) -> None:
        if not selector:
            raise ProfileError(
                f"store profile URI for {directory!r} needs a "
                "'#<workload>' or '#sha256:<hex>' selector"
            )
        self.directory = directory
        self.selector = selector

    def resolve(self) -> AllocationProfile:
        from repro.core.profilestore import ProfileStore

        store = ProfileStore(self.directory)
        if self.selector.startswith(_HASH_PREFIX):
            return store.load_by_hash(self.selector[len(_HASH_PREFIX):])
        return store.load_latest(self.selector)

    def describe(self) -> str:
        return f"store://{self.directory}#{self.selector}"


class HttpProfileSource(ProfileSource):
    """A profile served over HTTP (the ``repro serve`` API)."""

    def __init__(self, url: str, timeout_s: float = HTTP_TIMEOUT_S) -> None:
        self.url = url
        self.timeout_s = timeout_s

    def resolve(self) -> AllocationProfile:
        try:
            with urllib.request.urlopen(
                self.url, timeout=self.timeout_s
            ) as response:
                text = response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ProfileError(
                f"profile service returned {exc.code} for {self.url}: "
                f"{exc.reason}"
            ) from exc
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise ProfileError(
                f"cannot fetch profile from {self.url}: {exc}"
            ) from exc
        return AllocationProfile.from_json(text)

    def describe(self) -> str:
        return self.url


def profile_source(uri: str) -> ProfileSource:
    """Parse a profile URI (or bare path) into a :class:`ProfileSource`."""
    if uri.startswith(("http://", "https://")):
        return HttpProfileSource(uri)
    if uri.startswith("store://"):
        rest = uri[len("store://"):]
        directory, _, selector = rest.partition("#")
        return StoreProfileSource(directory, selector)
    if uri.startswith("file://"):
        return FileProfileSource(uri[len("file://"):])
    return FileProfileSource(uri)


def resolve_profile(
    source: Union[str, ProfileSource, AllocationProfile],
) -> AllocationProfile:
    """Resolve whatever names a profile into the profile itself.

    Accepts an already-loaded :class:`AllocationProfile` (returned
    as-is), a :class:`ProfileSource`, or a URI/path string.
    """
    if isinstance(source, AllocationProfile):
        return source
    if isinstance(source, ProfileSource):
        return source.resolve()
    return profile_source(source).resolve()
