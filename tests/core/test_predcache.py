"""Tests for prediction fingerprints and the last-known-good cache."""

from __future__ import annotations

import json

import pytest

from repro.core.durable import CorruptStoreError, content_digest
from repro.core.fingerprint import (
    _digest,
    _profile_dict,
    prediction_fingerprint,
    profile_fingerprint,
    target_fingerprint,
)
from repro.core.predcache import CachedPrediction, PredictionCache
from repro.core.target import PredictionTarget
from repro.service import demo_profiles
from repro.simgrid.errors import ConfigurationError
from repro.workloads.clusters import (
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)
from repro.workloads.configs import make_run_config

from tests.core.conftest import make_profile, make_target


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        profile, target = make_profile(), make_target()
        a = prediction_fingerprint(profile, target, "global reduction")
        b = prediction_fingerprint(profile, target, "global reduction")
        assert a == b

    def test_any_input_perturbs_the_fingerprint(self):
        profile, target = make_profile(), make_target()
        base = prediction_fingerprint(profile, target, "global reduction")
        assert base != prediction_fingerprint(
            make_profile(t_disk=9.9), target, "global reduction"
        )
        assert base != prediction_fingerprint(
            profile, make_target(c=8), "global reduction"
        )
        assert base != prediction_fingerprint(
            profile, target, "no communication"
        )
        assert base != prediction_fingerprint(
            profile, target, "global reduction", extra=(("pairs", [1]),)
        )

    def test_fingerprint_is_hex_digest(self):
        digest = prediction_fingerprint(
            make_profile(), make_target(), "m"
        )
        assert len(digest) == 64
        int(digest, 16)


#: Digests of the demo profiles, and of a 2-4 target on each service
#: cluster, pinned before the digest memo existed: the memo must not
#: change a single one.
PROFILE_GOLDEN = {
    "apriori": "99bf6f49f39cbb72014972d86f3996a802b5e7d3c844437271db92b6b055b2ae",
    "kmeans": "b0a6e91f982dfd5506453333dfa67f3818101650e46abfb4c2514c934352e842",
    "vortex": "a3a6a920bdb32bf9c547a6e5920eea59a7205fe8a5c4002be4884bbdf512b3ca",
}
TARGET_GOLDEN = {
    ("apriori", "pentium-myrinet"): "dba4fb5f17e6ce3aa8e1a078ff98df47e914685cc7d9ef6d9f9c02caa76d1b54",
    ("apriori", "opteron-infiniband"): "87afb1cb8d02b8d95b3fec039019bec3b5a9f9327aad2e7034b82b8d6f3078c0",
    ("kmeans", "pentium-myrinet"): "aa70786b71950c002e7d61e94cb0d7eca005d9bbabe1b513d42c048caa487807",
    ("kmeans", "opteron-infiniband"): "347f145f539f1dd4aca699899805e77f95bf29ceca2d2f4b6e11adc9d6964239",
    ("vortex", "pentium-myrinet"): "3ed2a83856ef49ff0133cf2bbdf6e7864b4168fe027386d4dce59a3477a5963a",
    ("vortex", "opteron-infiniband"): "f52c14ce5b001bc6f404e7a194dcbf99f8d62cb0dd76c4e7138a56affadded38",
}
PREDICTION_GOLDEN = {
    ("apriori", "pentium-myrinet"): "5500cd492c2a4aec62150f790ada5c73c13f33756ba66e415e52b76d96666693",
    ("apriori", "opteron-infiniband"): "aca2415869b6553422015c7ddfd71cc071a48474a4af9b2246b72cfe19925d85",
    ("kmeans", "pentium-myrinet"): "f42dca05c921efbd433fc3d93885c211d32641a1a91834598d655719a028d7b0",
    ("kmeans", "opteron-infiniband"): "230776026585936ca328079723fab4ab9e734989531ee3e780869414bdfd30d9",
    ("vortex", "pentium-myrinet"): "c790f928f1a1f3fda4da9ed4d10d3df705915a4b33de2fe1d121ffaf7ca5c41e",
    ("vortex", "opteron-infiniband"): "8c9e474d6e05dc928c011163a84a3e278104f1b0785f370347896510f3894417",
}
SERVICE_CLUSTERS = {
    "pentium-myrinet": pentium_myrinet_cluster,
    "opteron-infiniband": opteron_infiniband_cluster,
}


class TestFingerprintGolden:
    @pytest.mark.parametrize("app", sorted(PROFILE_GOLDEN))
    def test_profile_fingerprint(self, app):
        profile = demo_profiles()[app]
        assert profile_fingerprint(profile) == PROFILE_GOLDEN[app]

    @pytest.mark.parametrize("app, cluster", sorted(TARGET_GOLDEN))
    def test_target_and_prediction_fingerprints(self, app, cluster):
        profile = demo_profiles()[app]
        config = make_run_config(
            2, 4, storage_cluster=SERVICE_CLUSTERS[cluster]()
        )
        target = PredictionTarget(
            config=config, dataset_bytes=profile.dataset_bytes
        )
        # Twice: the first call may fill the memo, the second hits it.
        for _ in range(2):
            assert target_fingerprint(target) == TARGET_GOLDEN[app, cluster]
            assert prediction_fingerprint(
                profile, target, "global reduction"
            ) == PREDICTION_GOLDEN[app, cluster]


class TestDigestMemo:
    """The memo returns ``content_digest(data)`` for every input."""

    @staticmethod
    def assert_distinct_exact(variants):
        for data in variants + variants:  # second round hits the memo
            assert _digest(data) == content_digest(data)
        assert len({content_digest(data) for data in variants}) == len(
            variants
        )

    def test_int_float_and_bool_are_distinct(self):
        self.assert_distinct_exact(
            [{"value": 1}, {"value": 1.0}, {"value": True}]
        )

    def test_list_order_matters(self):
        self.assert_distinct_exact(
            [{"pairs": [[1, 2], [3, 4]]}, {"pairs": [[3, 4], [1, 2]]}]
        )

    def test_int_keys_keep_numeric_order(self):
        profile, target = make_profile(), make_target()
        extra = (("sizes", {2: "a", 10: "b"}),)
        data = {
            "profile": _profile_dict(profile),
            "target": target_fingerprint(target),
            "model": "m",
            "extra": {"sizes": {2: "a", 10: "b"}},
        }
        for _ in range(2):
            assert prediction_fingerprint(
                profile, target, "m", extra=extra
            ) == content_digest(data)
        # A JSON round trip re-sorts the keys as strings ("10" < "2"),
        # so it is not a valid way to rebuild the digested data.
        assert content_digest(json.loads(json.dumps(data))) != (
            content_digest(data)
        )


class TestPredictionCache:
    def test_put_get_and_hit_counting(self):
        cache = PredictionCache(max_entries=4)
        cache.put("fp1", {"total": 1.0}, 10.0)
        entry = cache.get("fp1")
        assert entry is not None
        assert entry.payload == {"total": 1.0}
        assert entry.age_s(12.5) == pytest.approx(2.5)
        assert entry.hits == 1
        cache.get("fp1")
        assert cache.get("fp1").hits == 3
        assert cache.get("missing") is None

    def test_eviction_is_deterministic_oldest_first(self):
        cache = PredictionCache(max_entries=2)
        cache.put("a", {}, 1.0)
        cache.put("b", {}, 2.0)
        cache.put("c", {}, 3.0)
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.evictions == 1

    def test_refresh_moves_entry_to_back(self):
        cache = PredictionCache(max_entries=2)
        cache.put("a", {}, 1.0)
        cache.put("b", {}, 2.0)
        cache.put("a", {"fresh": True}, 3.0)  # refresh: now newest
        cache.put("c", {}, 4.0)
        assert cache.get("b") is None
        assert cache.get("a").payload == {"fresh": True}

    def test_round_trip_preserves_order_and_counters(self, tmp_path):
        cache = PredictionCache(max_entries=3)
        cache.put("a", {"total": 1.0}, 1.0)
        cache.put("b", {"total": 2.0}, 2.0)
        cache.get("b")
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = PredictionCache.load(path)
        assert len(loaded) == 2
        assert loaded.get("b").payload == {"total": 2.0}
        # Eviction order survives the round trip.
        loaded.put("c", {}, 3.0)
        loaded.put("d", {}, 4.0)
        assert loaded.get("a") is None
        assert loaded.get("b") is not None

    def test_corrupt_cache_file_names_remedy(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ torn")
        with pytest.raises(CorruptStoreError, match="rebuilds"):
            PredictionCache.load(path)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PredictionCache(max_entries=0)


class TestCachedPrediction:
    def test_age_never_negative(self):
        entry = CachedPrediction(payload={}, stored_at_s=5.0)
        assert entry.age_s(4.0) == 0.0
