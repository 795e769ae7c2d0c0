"""EM's whitened-matmul kernel against the einsum formulas it replaced.

``EMClustering`` evaluates the Mahalanobis form through Cholesky
whitening matrices and builds the M-pass scatter with one batched
``matmul``.  The oracle below keeps the direct form — explicit inverse
covariances, ``slogdet`` and two ``einsum`` contractions — so every
change to the kernel's NumPy form is checked against it.  The
operation charges are copied unchanged, so simulated breakdowns must be
exactly equal; numerical results must agree to ``RTOL`` relative, with
an absolute floor of ``RTOL * max|x|`` for entries near zero (off-
diagonal covariance terms of a degenerate plane).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.em import _COV_EPS, EMClustering
from repro.middleware.dataset import ArrayDataset
from repro.middleware.instrument import OpCounter
from repro.middleware.runtime import FreerideGRuntime
from repro.simgrid.errors import ConfigurationError
from repro.workloads.configs import make_run_config
from repro.workloads.registry import make_dataset

from tests.apps.conftest import execute

RTOL = 1.0e-12


def assert_close(actual, expected) -> None:
    expected = np.asarray(expected, dtype=np.float64)
    np.testing.assert_allclose(
        actual, expected, rtol=RTOL, atol=RTOL * float(np.max(np.abs(expected)))
    )


def einsum_responsibilities(app: EMClustering, points: np.ndarray):
    """Responsibilities and log evidence from the precision-matrix form."""
    precisions = np.linalg.inv(app.covs)
    sign, logdet = np.linalg.slogdet(app.covs)
    if np.any(sign <= 0):
        raise ConfigurationError("covariance matrix lost positive definiteness")
    d = points.shape[1]
    log_norms = -0.5 * (d * np.log(2.0 * np.pi) + logdet)
    diff = points[:, None, :] - app.means[None, :, :]  # (n, k, d)
    maha = np.einsum("nki,kij,nkj->nk", diff, precisions, diff)
    log_prob = log_norms[None, :] - 0.5 * maha
    log_weighted = log_prob + np.log(np.maximum(app.weights, 1.0e-300))
    top = log_weighted.max(axis=1, keepdims=True)
    shifted = np.exp(log_weighted - top)
    norm = shifted.sum(axis=1, keepdims=True)
    return shifted / norm, (top + np.log(norm)).ravel()


def einsum_scatter(resp: np.ndarray, points: np.ndarray, means: np.ndarray):
    """Responsibility-weighted scatter matrices ``S_k`` about ``means``."""
    diff = points[:, None, :] - means[None, :, :]  # (n, k, d)
    return np.einsum("nk,nki,nkj->kij", resp, diff, diff)


class EinsumEM(EMClustering):
    """EM whose per-chunk kernel is the einsum oracle, charges unchanged."""

    def process_chunk(self, obj, payload, ops):
        points = np.asarray(payload, dtype=np.float64)
        n, d = points.shape
        resp, log_evidence = einsum_responsibilities(self, points)
        if self._phase == "E":
            contribution = np.zeros(self.k * (d + 1) + 1)
            contribution[: self.k] = resp.sum(axis=0)
            contribution[self.k : self.k + self.k * d] = (resp.T @ points).ravel()
            contribution[-1] = float(log_evidence.sum())
        else:
            contribution = einsum_scatter(resp, points, self.means).ravel()
        obj.accumulate(contribution, count=float(n))
        nk = float(n) * self.k
        ops.charge(
            flop=nk * (d * d + 3.0 * d + 12.0),
            mem=float(n) * d + self.k * d * d + nk,
            branch=nk,
        )
        if self._phase == "M":
            ops.charge(flop=nk * d * d, mem=nk * d)


def seeded_state(seed: int, k: int, d: int, degenerate: bool = False):
    """An EM mid-run state: points, means, weights and SPD covariances."""
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=3.0, size=(249, d))
    means = rng.normal(scale=3.0, size=(k, d))
    factors = rng.normal(size=(k, d, d))
    covs = factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(d)
    if degenerate:
        # The last dimension is constant: its variance sits at the floor.
        points[:, -1] = 1.0
        means[:, -1] = 1.0
        covs[:, -1, :] = 0.0
        covs[:, :, -1] = 0.0
        covs[:, -1, -1] = _COV_EPS
    weights = rng.dirichlet(np.ones(k))
    return points, means, covs, weights


def prepared_app(means, covs, weights, phase="E") -> EMClustering:
    k, d = means.shape
    app = EMClustering(k=k, num_iterations=1, seed=3)
    app.begin({"num_dims": d})
    app.means, app.covs, app.weights = means, covs, weights
    app._refresh_precisions()
    app._phase = phase
    return app


CASES = [(11, 6, 4, False), (12, 3, 2, False), (13, 6, 4, True), (14, 2, 3, True)]


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("seed,k,d,degenerate", CASES)
    def test_responsibilities(self, seed, k, d, degenerate):
        points, means, covs, weights = seeded_state(seed, k, d, degenerate)
        app = prepared_app(means, covs, weights)
        resp, log_evidence, diff = app._responsibilities(points)
        ref_resp, ref_log_evidence = einsum_responsibilities(app, points)
        assert_close(resp, ref_resp)
        assert_close(log_evidence, ref_log_evidence)
        np.testing.assert_array_equal(
            diff, points[None, :, :] - means[:, None, :]
        )

    @pytest.mark.parametrize("seed,k,d,degenerate", CASES)
    def test_m_pass_scatter(self, seed, k, d, degenerate):
        points, means, covs, weights = seeded_state(seed, k, d, degenerate)
        app = prepared_app(means, covs, weights, phase="M")
        obj = app.make_local_object()
        app.process_chunk(obj, points, OpCounter())
        ref_resp, _ = einsum_responsibilities(app, points)
        assert_close(
            obj.values.reshape(k, d, d), einsum_scatter(ref_resp, points, means)
        )


def assert_runs_equivalent(run, ref) -> None:
    for key in ("means", "covariances", "weights", "loglik_history"):
        assert_close(run.result[key], ref.result[key])
    assert run.result["iterations"] == ref.result["iterations"]
    assert run.breakdown.num_passes == ref.breakdown.num_passes
    assert run.breakdown == ref.breakdown


@pytest.fixture(scope="module")
def em_dataset():
    return make_dataset("em", "350 MB")


class TestFullRunMatchesOracle:
    @pytest.mark.parametrize("data_nodes,compute_nodes", [(1, 1), (2, 4)])
    def test_em_workload(self, em_dataset, data_nodes, compute_nodes):
        runs = [
            FreerideGRuntime(make_run_config(data_nodes, compute_nodes)).execute(
                cls(), em_dataset
            )
            for cls in (EMClustering, EinsumEM)
        ]
        assert_runs_equivalent(*runs)

    def test_degenerate_plane(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(600, 3)).astype(np.float32)
        points[:, 2] = 1.0
        dataset = ArrayDataset(
            "flat", points, num_chunks=16,
            meta={"num_dims": 3, "init_sample": points[:64].astype(np.float64)},
        )
        runs = [
            execute(cls(k=2, num_iterations=3, seed=11), dataset, 1, 2)
            for cls in (EMClustering, EinsumEM)
        ]
        assert_runs_equivalent(*runs)
