"""Allocation profiles: the artifact connecting the two POLM2 phases.

The profiling phase emits "a file containing all the code locations that
will be instrumented and how (annotate allocation site or set current
generation)" (§3.5).  :class:`AllocationProfile` is that file: a list of
``@Gen`` annotations and ``setGeneration`` directives, serializable to
JSON so one profile per expected workload can be kept and selected at
production launch.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Set

from repro.core.sttree import STTree
from repro.errors import ProfileFormatError
from repro.runtime.code import CodeLocation

#: Profile file format marker: the only format read.  Any other marker
#: (the pre-IR v1 format included) and schema versions newer than
#: :data:`PROFILE_SCHEMA_VERSION` are rejected with a one-line error.
PROFILE_FORMAT = "polm2-profile-v2"

#: Current profile schema version.
PROFILE_SCHEMA_VERSION = 2

#: JSON type names for one-line field errors (``json.loads`` yields
#: only these Python types).
_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _typed(value, kind: type, field: str, nullable: bool = False):
    """``value`` if it has JSON type ``kind`` (or is null when
    ``nullable``), else a one-line :class:`ProfileFormatError`."""
    if (value is None and nullable) or type(value) is kind:
        return value
    expected = _JSON_TYPES[kind] + (" or null" if nullable else "")
    raise ProfileFormatError(
        f"profile field {field} must be {expected}, not {_JSON_TYPES[type(value)]}"
    )


@dataclasses.dataclass(frozen=True)
class AllocDirective:
    """Annotate one allocation site ``@Gen``.

    ``pre_set_gen`` additionally brackets the single allocation with
    ``setGeneration(pre_set_gen)`` / restore, for sites whose generation
    could not be hoisted to an enclosing call site.
    """

    class_name: str
    method_name: str
    line: int
    pre_set_gen: Optional[int] = None

    @property
    def location(self) -> CodeLocation:
        return (self.class_name, self.method_name, self.line)


@dataclasses.dataclass(frozen=True)
class CallDirective:
    """Bracket one call site with ``setGeneration(target_generation)``."""

    class_name: str
    method_name: str
    line: int
    target_generation: int

    @property
    def location(self) -> CodeLocation:
        return (self.class_name, self.method_name, self.line)


class AllocationProfile:
    """The output of the profiling phase / input of the production phase."""

    def __init__(
        self,
        workload: str,
        alloc_directives: List[AllocDirective],
        call_directives: List[CallDirective],
        conflicts_detected: int = 0,
        metadata: Optional[Dict[str, object]] = None,
        sttree: Optional[STTree] = None,
    ) -> None:
        self.workload = workload
        self.alloc_directives = list(alloc_directives)
        self.call_directives = list(call_directives)
        self.conflicts_detected = conflicts_detected
        self.metadata: Dict[str, object] = dict(metadata or {})
        #: The canonical profile IR this profile was flattened from, kept
        #: so the serialized file carries the full lifetime model and
        #: re-analysis tooling never has to re-derive it.  ``None`` on
        #: hand-built profiles.
        self.sttree = sttree

    @classmethod
    def from_sttree(
        cls,
        tree: STTree,
        workload: str = "unknown",
        push_up: bool = True,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "AllocationProfile":
        """Flatten the canonical IR into the two directive lists.

        This is the single place the STTree's instrumentation plan turns
        into ``@Gen`` / ``setGeneration`` directives; every producer
        (the streaming analyzer, the exact tracer) routes through it.
        """
        plan = tree.instrumentation_plan(push_up=push_up)
        alloc_directives = [
            AllocDirective(
                class_name=location[0],
                method_name=location[1],
                line=location[2],
                pre_set_gen=plan.alloc_brackets.get(location),
            )
            for location in sorted(plan.annotate_sites)
        ]
        call_directives = [
            CallDirective(
                class_name=location[0],
                method_name=location[1],
                line=location[2],
                target_generation=gen,
            )
            for location, gen in sorted(plan.call_directives.items())
        ]
        return cls(
            workload=workload,
            alloc_directives=alloc_directives,
            call_directives=call_directives,
            conflicts_detected=len(plan.conflicts),
            metadata=metadata,
            sttree=tree,
        )

    # -- derived metrics (Table 1) ---------------------------------------------------

    @property
    def instrumented_site_count(self) -> int:
        return len({d.location for d in self.alloc_directives})

    @property
    def generation_indexes(self) -> Set[int]:
        """Distinct non-young generation indexes the profile uses."""
        gens: Set[int] = {
            d.target_generation
            for d in self.call_directives
            if d.target_generation >= 1
        }
        gens.update(
            d.pre_set_gen
            for d in self.alloc_directives
            if d.pre_set_gen is not None and d.pre_set_gen >= 1
        )
        return gens

    @property
    def generations_used(self) -> int:
        """Total generations including young (the paper's Table 1 count)."""
        return len(self.generation_indexes) + 1

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> str:
        ir = None
        if self.sttree is not None:
            ir = self.sttree.to_payload()
            ir["content_hash"] = self.sttree.digest()
        payload = {
            "format": PROFILE_FORMAT,
            "schema_version": PROFILE_SCHEMA_VERSION,
            "ir": ir,
            "workload": self.workload,
            "conflicts_detected": self.conflicts_detected,
            "alloc_directives": [
                {
                    "class": d.class_name,
                    "method": d.method_name,
                    "line": d.line,
                    "pre_set_gen": d.pre_set_gen,
                }
                for d in self.alloc_directives
            ],
            "call_directives": [
                {
                    "class": d.class_name,
                    "method": d.method_name,
                    "line": d.line,
                    "target_generation": d.target_generation,
                }
                for d in self.call_directives
            ],
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AllocationProfile":
        """Parse a ``polm2-profile-v2`` document.

        Anything else — invalid JSON, a non-object document, another
        format marker, a newer schema, a corrupt IR, or a field of the
        wrong JSON type — raises a one-line :class:`ProfileFormatError`.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ProfileFormatError(f"invalid profile JSON: {exc}") from exc
        if type(payload) is not dict:
            raise ProfileFormatError(
                "a profile document must be a JSON object, not "
                f"{_JSON_TYPES[type(payload)]}"
            )
        if payload.get("format") != PROFILE_FORMAT:
            raise ProfileFormatError(
                f"unsupported profile format {payload.get('format')!r}: only "
                f"{PROFILE_FORMAT!r} is read; re-run profiling to regenerate "
                "older profiles"
            )
        version = payload.get("schema_version", 1)
        if not isinstance(version, int) or version < 1:
            raise ProfileFormatError(
                f"invalid profile schema_version {version!r}"
            )
        if version > PROFILE_SCHEMA_VERSION:
            raise ProfileFormatError(
                f"profile schema v{version} is newer than the supported "
                f"v{PROFILE_SCHEMA_VERSION}; upgrade repro to read it"
            )
        sttree = None
        if payload.get("ir") is not None:
            sttree = STTree.from_payload(payload["ir"])
            stored_hash = payload["ir"].get("content_hash")
            if stored_hash is not None and stored_hash != sttree.digest():
                raise ProfileFormatError(
                    "embedded STTree content hash mismatch: profile is "
                    "corrupt, truncated, or was edited by hand"
                )

        def directives(name: str):
            entries = _typed(payload.get(name), list, name)
            for index, entry in enumerate(entries):
                where = f"{name}[{index}]"
                entry = _typed(entry, dict, where)
                yield entry, where

        alloc = [
            AllocDirective(
                class_name=_typed(d.get("class"), str, f"{where}.class"),
                method_name=_typed(d.get("method"), str, f"{where}.method"),
                line=_typed(d.get("line"), int, f"{where}.line"),
                pre_set_gen=_typed(
                    d.get("pre_set_gen"), int, f"{where}.pre_set_gen", True
                ),
            )
            for d, where in directives("alloc_directives")
        ]
        calls = [
            CallDirective(
                class_name=_typed(d.get("class"), str, f"{where}.class"),
                method_name=_typed(d.get("method"), str, f"{where}.method"),
                line=_typed(d.get("line"), int, f"{where}.line"),
                target_generation=_typed(
                    d.get("target_generation"),
                    int,
                    f"{where}.target_generation",
                ),
            )
            for d, where in directives("call_directives")
        ]
        return cls(
            workload=_typed(payload.get("workload", "unknown"), str, "workload"),
            alloc_directives=alloc,
            call_directives=calls,
            conflicts_detected=_typed(
                payload.get("conflicts_detected", 0), int, "conflicts_detected"
            ),
            metadata=_typed(payload.get("metadata"), dict, "metadata", True),
            sttree=sttree,
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "AllocationProfile":
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ProfileFormatError(
                f"cannot read profile {path!r}: {exc}"
            ) from exc
        try:
            return cls.from_json(text)
        except ProfileFormatError as exc:
            raise ProfileFormatError(f"{path}: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AllocationProfile({self.workload!r}, "
            f"sites={self.instrumented_site_count}, "
            f"gens={self.generations_used}, conflicts={self.conflicts_detected})"
        )
