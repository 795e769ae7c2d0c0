"""Tests for links, fair sharing and the fitted communication cost model."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec
from repro.simgrid.network import (
    CommCostModel,
    LinkModel,
    fit_linear_cost,
    maxmin_fair_share,
)

from repro.workloads.clusters import (
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)

from tests.conftest import small_cluster_spec

PROBE_SIZES = (1024.0, 8192.0, 65536.0, 524288.0)


@dataclasses.dataclass(frozen=True)
class DoubledLatencyCluster(ClusterSpec):
    """A cluster whose gather microbenchmark reports twice the latency."""

    def gather_message_time(self, nbytes: float) -> float:
        return 2.0 * self.intra_latency_s + nbytes / self.intra_bw


def fresh_fit(cluster):
    """The ``(w, l)`` an unmemoized fit gives for ``cluster``."""
    times = [cluster.gather_message_time(size) for size in PROBE_SIZES]
    w, l = fit_linear_cost(list(PROBE_SIZES), times)
    return max(w, 0.0), max(l, 0.0)


class TestLinkModel:
    def test_message_time(self):
        link = LinkModel(latency_s=0.001, bw=1e6)
        assert link.message_time(1e6) == pytest.approx(1.001)

    def test_stream_time_sums_messages(self):
        link = LinkModel(latency_s=0.001, bw=1e6)
        sizes = [1e5, 2e5]
        assert link.stream_time(sizes) == pytest.approx(
            sum(link.message_time(s) for s in sizes)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkModel(latency_s=-1, bw=1e6)
        with pytest.raises(ConfigurationError):
            LinkModel(latency_s=0, bw=0)
        with pytest.raises(ConfigurationError):
            LinkModel(latency_s=0, bw=1e6).message_time(-1)


class TestMaxMinFairShare:
    def test_under_capacity_everyone_satisfied(self):
        assert maxmin_fair_share([10, 10], 30) == [10, 10]

    def test_over_capacity_equal_split(self):
        assert maxmin_fair_share([50, 50, 50], 30) == [10, 10, 10]

    def test_bounded_flow_frozen_slack_redistributed(self):
        assert maxmin_fair_share([5, 50], 30) == [5, 25]

    def test_zero_demand_gets_zero(self):
        assert maxmin_fair_share([0, 50], 30) == [0, 30]

    def test_empty(self):
        assert maxmin_fair_share([], 30) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            maxmin_fair_share([1.0], 0.0)
        with pytest.raises(ConfigurationError):
            maxmin_fair_share([-1.0], 10.0)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e3), max_size=20),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_invariants(self, demands, capacity):
        alloc = maxmin_fair_share(demands, capacity)
        assert len(alloc) == len(demands)
        # Feasibility: never above demand, total never above capacity
        for a, d in zip(alloc, demands):
            assert a <= d + 1e-9
        assert sum(alloc) <= capacity + 1e-6
        # Work conservation: either all demands met or capacity exhausted.
        if sum(demands) >= capacity:
            assert sum(alloc) == pytest.approx(capacity, rel=1e-6)
        else:
            assert alloc == pytest.approx(demands)


class TestFitLinearCost:
    def test_recovers_exact_line(self):
        w_true, l_true = 2.5e-7, 1.2e-3
        sizes = [1e3, 1e4, 1e5, 1e6]
        times = [w_true * s + l_true for s in sizes]
        w, l = fit_linear_cost(sizes, times)
        assert w == pytest.approx(w_true, rel=1e-9)
        assert l == pytest.approx(l_true, rel=1e-9)

    def test_needs_two_distinct_sizes(self):
        with pytest.raises(ConfigurationError):
            fit_linear_cost([1.0], [1.0])
        with pytest.raises(ConfigurationError):
            fit_linear_cost([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            fit_linear_cost([1.0, 2.0], [1.0])


class TestCommCostModel:
    def test_fit_for_cluster_matches_interconnect(self):
        cluster = small_cluster_spec()
        model = CommCostModel.fit_for_cluster(cluster)
        assert model.w == pytest.approx(1.0 / cluster.intra_bw, rel=1e-6)
        assert model.l == pytest.approx(cluster.intra_latency_s, rel=1e-6)

    def test_memoized_fit_is_bitwise_a_fresh_fit(self):
        pentium = pentium_myrinet_cluster()
        clusters = [
            pentium,
            opteron_infiniband_cluster(),
            dataclasses.replace(pentium, intra_bw=pentium.intra_bw / 3.0),
            DoubledLatencyCluster(**{
                f.name: getattr(pentium, f.name)
                for f in dataclasses.fields(pentium)
            }),
        ]
        fits = []
        for cluster in clusters:
            expected = [x.hex() for x in fresh_fit(cluster)]
            for _ in range(2):  # the second call is answered by the memo
                model = CommCostModel.fit_for_cluster(cluster)
                assert [model.w.hex(), model.l.hex()] == expected
            fits.append((model.w, model.l))
        assert len(set(fits)) == len(clusters)

    def test_message_time(self):
        model = CommCostModel(w=1e-7, l=1e-4)
        assert model.message_time(1e4) == pytest.approx(1e-3 + 1e-4)

    def test_gather_is_c_minus_one_messages(self):
        model = CommCostModel(w=1e-7, l=1e-4)
        assert model.gather_time(1, 1e4) == 0.0
        assert model.gather_time(5, 1e4) == pytest.approx(
            4 * model.message_time(1e4)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CommCostModel(w=-1e-7, l=0.0)
        with pytest.raises(ConfigurationError):
            CommCostModel(w=1e-7, l=1e-4).gather_time(0, 100.0)
        with pytest.raises(ConfigurationError):
            CommCostModel(w=1e-7, l=1e-4).message_time(-1.0)
