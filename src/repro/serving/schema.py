"""The one response-provenance schema shared in-process and on the wire.

:class:`ServedResponse` is the single frozen record of "what was served
and why": the ranked items plus the provenance fields
(``served_by`` / ``degraded`` / ``deadline_ms_left`` / ``model_version``
/ ``tier_errors``) that the chaos suite and the SLA benches assert on.
:class:`~repro.serving.service.RecommendationService` returns it
directly, and the HTTP edge (:mod:`repro.edge`) serializes it verbatim
through :meth:`to_json_dict` — both layers read the same dataclass, so
the in-process and wire representations cannot drift.  The wire form
also carries ``"retrieval": "exact"``, a constant kept for ``/v1``
clients: every tier ranks the full catalog exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.utils.exceptions import DataError


@dataclass(frozen=True)
class ServedResponse:
    """A served ranking plus its provenance.

    Attributes
    ----------
    user / items:
        The request's user and the ranked item ids (best first).
    served_by:
        Name of the tier that produced the ranking
        (``"static-popularity"`` for the emergency path).
    degraded:
        True whenever a tier below the primary answered.
    deadline_ms_left:
        Budget remaining when the response was assembled, clamped to
        ``>= 0`` (0.0 means the budget was spent — e.g. only the
        emergency path was fast enough).
    latency_ms:
        Wall time from request arrival to response.
    model_version:
        Version tag of the live model slot at serve time.
    model_age_s:
        Seconds since the live model was loaded into its slot (from the
        service's injectable clock) — degraded-but-stale serving is
        visible right in the provenance, not just in ``/v1/health``.
    tier_errors:
        Why each earlier tier did not answer (breaker open, timeout,
        error message) — the debugging breadcrumb trail.
    """

    user: int
    items: np.ndarray
    served_by: str
    degraded: bool
    deadline_ms_left: float
    latency_ms: float
    model_version: str | None = None
    model_age_s: float | None = None
    tier_errors: dict = field(default_factory=dict)

    def __post_init__(self):
        # Budget overruns used to surface as negative remainders; the
        # invariant is deadline_ms_left >= 0 (0.0 == budget exhausted).
        object.__setattr__(self, "deadline_ms_left", max(0.0, float(self.deadline_ms_left)))

    # -- wire representation -------------------------------------------
    def to_json_dict(self) -> dict:
        """JSON-ready dict; the HTTP edge embeds this verbatim."""
        return {
            "user": int(self.user),
            "items": [int(item) for item in np.asarray(self.items).ravel()],
            "served_by": str(self.served_by),
            "degraded": bool(self.degraded),
            "deadline_ms_left": float(self.deadline_ms_left),
            "latency_ms": float(self.latency_ms),
            "model_version": None if self.model_version is None else str(self.model_version),
            "model_age_s": None if self.model_age_s is None else float(self.model_age_s),
            "retrieval": "exact",
            "tier_errors": {str(k): str(v) for k, v in self.tier_errors.items()},
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ServedResponse":
        """Rebuild from :meth:`to_json_dict` output (wire round-trip).

        The constant ``retrieval`` field is ignored, so payloads with or
        without it parse alike.
        """
        missing = [key for key in (
            "user", "items", "served_by", "degraded", "deadline_ms_left", "latency_ms",
        ) if key not in payload]
        if missing:
            raise DataError(f"served response missing fields: {missing}")
        return cls(
            user=int(payload["user"]),
            items=np.asarray(list(payload["items"]), dtype=np.int64),
            served_by=str(payload["served_by"]),
            degraded=bool(payload["degraded"]),
            deadline_ms_left=float(payload["deadline_ms_left"]),
            latency_ms=float(payload["latency_ms"]),
            model_version=(
                None if payload.get("model_version") is None
                else str(payload["model_version"])
            ),
            model_age_s=(
                None if payload.get("model_age_s") is None
                else float(payload["model_age_s"])
            ),
            tier_errors=dict(payload.get("tier_errors") or {}),
        )
