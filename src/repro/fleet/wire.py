"""JSON-lines wire format between the router and subprocess workers.

One request or response per line, UTF-8 JSON.  Requests carry a
monotonically increasing ``id``; responses echo it with either ``ok``
(the payload) or ``error`` (``{"type", "message"}``).  The worker's
very first line is an unsolicited ``{"op": "ready", "version": V,
"tenants": [...]}`` handshake so the parent knows the worker is up and
what it serves.

Floats cross the wire through ``json`` (repr-based), which round-trips
every finite IEEE-754 double **exactly** — a score computed on a worker
compares bit-equal after decoding, so the merge's tie-breaking (and the
byte-identity property) survives process boundaries.

A ``partial`` request carries a mandatory integer ``limit`` (the
router's result cap) and its reply carries at most that many entries,
best first, echoing the ``limit`` it was cut at; a ``partial`` frame
without one is a :class:`WorkerProtocolError` in either direction.
Since no reply is larger than O(``limit``) records, frames are bounded:
:data:`MAX_FRAME_CHARS` caps a line, :func:`write_message` refuses to
send a longer one and :func:`read_frame` refuses to buffer one.
"""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.chaos.inject import filter_frame
from repro.detector.features import FeatureVector
from repro.detector.normalize import NormalizedFeatures
from repro.detector.ranking import RankedExpert
from repro.fleet.errors import RemoteReplicaError, WorkerProtocolError
from repro.serving.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
    TenantOverloadedError,
    UnknownTenantError,
)
from repro.serving.service import (
    DEFAULT_TENANT,
    PartialPool,
    ReplicaHealthReport,
    ServedAnswer,
    TenantHealth,
)
from repro.serving.snapshot import StaleSnapshotError

PROTOCOL_VERSION = 1

#: longest line either peer sends or buffers.  A top-15 partial reply is
#: ~5 KB and the largest request (a whole community's terms) tens of KB,
#: so this leaves two orders of magnitude of headroom
MAX_FRAME_CHARS = 1 << 20


# -- records ------------------------------------------------------------------


def expert_to_wire(expert: RankedExpert) -> list:
    return [
        expert.user_id,
        expert.screen_name,
        expert.description,
        expert.verified,
        expert.followers,
        expert.score,
        list(expert.features),
        list(expert.zscores),
    ]


def expert_from_wire(raw: list) -> RankedExpert:
    return RankedExpert(
        user_id=raw[0],
        screen_name=raw[1],
        description=raw[2],
        verified=raw[3],
        followers=raw[4],
        score=raw[5],
        features=FeatureVector(*raw[6]),
        zscores=NormalizedFeatures(*raw[7]),
    )


def answer_to_wire(answer: ServedAnswer) -> dict:
    return {
        "query": answer.query,
        "experts": [expert_to_wire(e) for e in answer.experts],
        "terms": list(answer.terms),
        "matched_domain": answer.matched_domain,
        "snapshot_version": answer.snapshot_version,
        "cache_hit": answer.cache_hit,
        "coalesced": answer.coalesced,
        "expansion_seconds": answer.expansion_seconds,
        "detection_seconds": answer.detection_seconds,
        "total_seconds": answer.total_seconds,
        "tenant": answer.tenant,
    }


def answer_from_wire(raw: dict) -> ServedAnswer:
    return ServedAnswer(
        query=raw["query"],
        experts=tuple(expert_from_wire(e) for e in raw["experts"]),
        terms=tuple(raw["terms"]),
        matched_domain=raw["matched_domain"],
        snapshot_version=raw["snapshot_version"],
        cache_hit=raw["cache_hit"],
        coalesced=raw["coalesced"],
        expansion_seconds=raw["expansion_seconds"],
        detection_seconds=raw["detection_seconds"],
        total_seconds=raw["total_seconds"],
        # absent on frames from pre-tenancy peers: the default tenant
        tenant=raw.get("tenant", DEFAULT_TENANT),
    )


def partial_to_wire(pool: PartialPool) -> dict:
    return {
        "query": pool.query,
        "snapshot_version": pool.snapshot_version,
        "entries": [
            [index, expert_to_wire(expert)] for index, expert in pool.entries
        ],
        "limit": pool.limit,
        "tenant": pool.tenant,
    }


def limit_from_wire(raw: dict) -> int:
    """The mandatory ``limit`` of a ``partial`` request or reply."""
    limit = raw.get("limit")
    if type(limit) is not int or limit < 1:
        raise WorkerProtocolError(
            f"a partial frame needs an integer limit >= 1, got {limit!r}"
        )
    return limit


def partial_from_wire(raw: dict) -> PartialPool:
    return PartialPool(
        query=raw["query"],
        snapshot_version=raw["snapshot_version"],
        entries=tuple(
            (index, expert_from_wire(expert))
            for index, expert in raw["entries"]
        ),
        limit=limit_from_wire(raw),
        tenant=raw.get("tenant", DEFAULT_TENANT),
    )


def health_from_wire(raw: dict) -> ReplicaHealthReport:
    return ReplicaHealthReport(
        snapshot_version=raw["snapshot_version"],
        cache_hit_ratio=raw["cache_hit_ratio"],
        requests=raw["requests"],
        partial_requests=raw["partial_requests"],
        in_flight=raw["in_flight"],
        waiting=raw["waiting"],
        tenants=tuple(
            TenantHealth.from_dict(entry)
            for entry in raw.get("tenants", ())
        ),
    )


# -- errors -------------------------------------------------------------------

#: worker-side exception types re-raised as their typed local selves
_TYPED_ERRORS = {
    "ServiceClosedError": ServiceClosedError,
    "StaleSnapshotError": StaleSnapshotError,
    "DeadlineExceededError": DeadlineExceededError,
    # the worker refusing a frame of ours (no ``limit``, oversize line)
    "WorkerProtocolError": WorkerProtocolError,
}


def error_to_wire(exc: BaseException) -> dict:
    frame = {"type": type(exc).__name__, "message": str(exc)}
    tenant = getattr(exc, "tenant", None)
    if tenant is not None:
        frame["tenant"] = tenant
    return frame


def error_from_wire(raw: dict) -> Exception:
    kind = raw.get("type", "Exception")
    message = raw.get("message", "")
    if kind == "TenantOverloadedError":
        # keep the tenant typing across the process boundary: the
        # router must not mistake one tenant's quota rejection for
        # global overload
        return TenantOverloadedError(
            str(raw.get("tenant", DEFAULT_TENANT)), message
        )
    if kind == "ServiceOverloadedError":
        # the structured fields are already rendered into the message;
        # reconstruct with the message as the reason so isinstance-based
        # backoff in the router keeps working
        return ServiceOverloadedError(message)
    if kind == "UnknownTenantError":
        return UnknownTenantError(str(raw.get("tenant", message)))
    factory = _TYPED_ERRORS.get(kind)
    if factory is not None:
        return factory(message)
    return RemoteReplicaError(kind, message)


# -- framing ------------------------------------------------------------------


def write_message(
    stream: IO[str],
    message: dict,
    *,
    chaos_site: Optional[str] = None,
    chaos_context: Optional[dict] = None,
) -> None:
    """One JSON object per line, flushed (the peer is blocked on it).

    ``chaos_site`` routes the frame through the fault injector (a no-op
    unless a plan is installed): a fault there can drop, truncate, or
    corrupt this frame before it reaches the peer — which must then
    detect the mangling through parse failures, timeouts, or failover,
    never by serving a wrong answer.  A message that would not fit in
    :data:`MAX_FRAME_CHARS` is refused here, typed, before a byte of it
    is sent.
    """
    line = json.dumps(message, separators=(",", ":"))
    if len(line) > MAX_FRAME_CHARS:
        raise WorkerProtocolError(
            f"wire frame of {len(line)} chars exceeds the "
            f"{MAX_FRAME_CHARS}-char cap"
        )
    if chaos_site is not None:
        mangled = filter_frame(
            chaos_site, line, **(chaos_context or {})
        )
        if mangled is None:  # drop_frame: the peer never sees it
            return
        line = mangled
    stream.write(line + "\n")
    stream.flush()


def read_frame(stream: IO[str]) -> Optional[str]:
    """The next line off the wire, or ``None`` at end of stream.

    Never buffers more than :data:`MAX_FRAME_CHARS`: a longer line
    raises :class:`WorkerProtocolError` as soon as the cap is hit (a
    reader that carries on sees the rest of it as further bad frames,
    then the stream is in sync again), and so does a line the stream
    ended in the middle of — the peer died mid-write.
    """
    line = stream.readline(MAX_FRAME_CHARS + 1)
    if not line:
        return None
    if line.endswith("\n"):
        return line
    if len(line) > MAX_FRAME_CHARS:
        raise WorkerProtocolError(
            f"wire frame exceeds the {MAX_FRAME_CHARS}-char cap"
        )
    raise WorkerProtocolError(
        f"unterminated wire frame ({len(line)} chars before end of stream)"
    )


def parse_message(line: str) -> dict:
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise WorkerProtocolError(
            f"undecodable wire line: {line[:120]!r}"
        ) from exc
    if not isinstance(message, dict):
        raise WorkerProtocolError(
            f"wire message must be an object, got {type(message).__name__}"
        )
    return message
