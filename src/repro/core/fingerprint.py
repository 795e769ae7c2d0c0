"""Canonical fingerprints for prediction inputs.

The prediction service caches evaluated predictions and serves the
last-known-good entry as a degraded response when the predictor is
unavailable (circuit open) or too slow (deadline).  A cache is only as
trustworthy as its key: two requests may share a cached prediction
*only* when every input that could change the prediction is identical.
This module defines that key — a SHA-256 over the canonical JSON of the
profile, the target configuration, and the model identity — so cache
hits are content-addressed, not name-addressed, and a profile update
invalidates every dependent entry automatically.

The service builds a key on every request, and the indented canonical
JSON goes through CPython's pure-Python encoder, so a digest is
memoized under the compact sorted-key JSON of the same data (which the
C encoder writes).  Both texts carry the same tokens in the same order
and differ only in whitespace, so equal compact texts mean equal
canonical texts and equal digests (DESIGN.md §15).
"""

from __future__ import annotations

import functools
import json
from typing import Any, Dict, Sequence, Tuple

from repro.core.durable import content_digest
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.simgrid.serialize import cluster_to_dict

__all__ = [
    "profile_fingerprint",
    "target_fingerprint",
    "prediction_fingerprint",
]


#: Distinct inputs the digest memo holds before evicting the least
#: recently used.  A key is at most ~1.5 KB of text (a prediction key
#: with its whole profile), so the memo stays under ~2 MB.  It only pays
#: when inputs repeat: a miss costs one more compact ``json.dumps`` than
#: an unmemoized digest (DESIGN.md §15).
_MEMO_SIZE = 1024


class _ContentKey:
    """Hashes and compares by the compact sorted-key JSON of ``data``."""

    __slots__ = ("text", "data")

    def __init__(self, data: Any) -> None:
        self.text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        self.data = data

    def __hash__(self) -> int:
        return hash(self.text)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ContentKey) and self.text == other.text


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo_digest(key: _ContentKey) -> str:
    return content_digest(key.data)


def _digest(data: Any) -> str:
    """``content_digest(data)``, computed once per distinct content."""
    key = _ContentKey(data)
    digest = _memo_digest(key)
    key.data = None  # the memo may keep the key; it needs only the text
    return digest


def _profile_dict(profile: Profile) -> Dict[str, Any]:
    # Deliberately *not* store.profile_to_dict: the fingerprint must not
    # depend on the storage format_version, only on model inputs.
    return {
        "app": profile.app,
        "storage_cluster": cluster_to_dict(profile.storage_cluster),
        "compute_cluster": cluster_to_dict(profile.compute_cluster),
        "data_nodes": profile.data_nodes,
        "compute_nodes": profile.compute_nodes,
        "bandwidth": profile.bandwidth,
        "dataset_bytes": profile.dataset_bytes,
        "t_disk": profile.t_disk,
        "t_network": profile.t_network,
        "t_compute": profile.t_compute,
        "t_ro": profile.t_ro,
        "t_g": profile.t_g,
        "max_object_bytes": profile.max_object_bytes,
        "broadcast_bytes": profile.broadcast_bytes,
        "gather_rounds": profile.gather_rounds,
        "processes_per_node": profile.processes_per_node,
        "t_cache": profile.t_cache,
    }


def profile_fingerprint(profile: Profile) -> str:
    """SHA-256 over the model-relevant content of a profile."""
    return _digest(_profile_dict(profile))


def target_fingerprint(target: PredictionTarget) -> str:
    """SHA-256 over the model-relevant content of a prediction target."""
    config = target.config
    return _digest(
        {
            "storage_cluster": cluster_to_dict(config.storage_cluster),
            "compute_cluster": cluster_to_dict(config.compute_cluster),
            "data_nodes": config.data_nodes,
            "compute_nodes": config.compute_nodes,
            "bandwidth": config.bandwidth,
            "processes_per_node": config.processes_per_node,
            "dataset_bytes": target.dataset_bytes,
        }
    )


def prediction_fingerprint(
    profile: Profile,
    target: PredictionTarget,
    model_label: str,
    extra: Sequence[Tuple[str, Any]] = (),
) -> str:
    """Cache key for one (profile, target, model) prediction.

    ``extra`` admits endpoint-specific inputs (e.g. the what-if sweep's
    configuration pairs) into the key; pairs are canonicalized with the
    rest, so ordering of the *mapping* never matters while ordering of a
    list value does (a sweep over reordered pairs is a different sweep).
    """
    return _digest(
        {
            "profile": _profile_dict(profile),
            "target": target_fingerprint(target),
            "model": model_label,
            "extra": {key: value for key, value in extra},
        }
    )
