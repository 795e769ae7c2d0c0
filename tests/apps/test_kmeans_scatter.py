"""k-means' bincount scatter-accumulate against the ``np.add.at`` form.

Both sum each (cluster, dimension) bin sequentially in point order, so
the per-chunk contributions — and therefore the centres of a whole run —
must be bitwise equal, not merely close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import charge_distance_ops, pairwise_sq_dists
from repro.apps.kmeans import KMeansClustering
from repro.middleware.instrument import OpCounter
from repro.middleware.runtime import FreerideGRuntime
from repro.workloads.configs import make_run_config
from repro.workloads.registry import make_dataset


class AddAtKMeans(KMeansClustering):
    """k-means whose chunk kernel scatters with ``np.add.at``."""

    def process_chunk(self, obj, payload, ops):
        points = np.asarray(payload, dtype=np.float64)
        n, d = points.shape
        assign = np.argmin(pairwise_sq_dists(points, self.centers), axis=1)
        contribution = np.zeros((self.k, d + 1))
        np.add.at(contribution[:, :d], assign, points)
        counts = np.bincount(assign, minlength=self.k).astype(np.float64)
        contribution[:, d] = counts
        obj.accumulate(contribution, count=float(n))
        charge_distance_ops(ops, n, self.k, d)
        ops.charge(flop=float(n) * d, mem=2.0 * n * d, branch=float(n))


def chunk_contribution(cls, centers, points):
    app = cls(k=len(centers), num_iterations=1)
    app.begin({"num_dims": points.shape[1]})
    app.centers = centers
    obj = app.make_local_object()
    ops = OpCounter()
    app.process_chunk(obj, points, ops)
    return obj.values, ops.ops


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chunk_scatter_bitwise_equal_to_add_at(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=5.0, size=(500, 4))
    centers = rng.normal(scale=5.0, size=(7, 4))
    centers[2] = 1.0e6  # never nearest: an empty cluster
    centers[5] = 1.0e6 + 1.0
    values, ops = chunk_contribution(KMeansClustering, centers, points)
    ref_values, ref_ops = chunk_contribution(AddAtKMeans, centers, points)
    assert np.array_equal(values, ref_values)
    assert ops == ref_ops
    counts = values[:, -1]
    assert counts[2] == counts[5] == 0.0
    assert counts.max() > 1  # repeated assignments to one cluster


def test_fig02_profile_centers_bitwise_equal():
    """Fig. 2's base-profile run: k-means, 1.4 GB, one data and one
    compute node."""
    dataset = make_dataset("kmeans")
    runtime = FreerideGRuntime(make_run_config(1, 1))
    run = runtime.execute(KMeansClustering(), dataset)
    ref = runtime.execute(AddAtKMeans(), dataset)
    assert np.array_equal(run.result["centers"], ref.result["centers"])
    assert run.result["shift_history"] == ref.result["shift_history"]
    assert run.breakdown == ref.breakdown
