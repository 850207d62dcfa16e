"""Lane-lane connectivity head."""

import numpy as np
import pytest

from lanetopo.bev import MlpWeights, mlp_forward, sigmoid
from lanetopo.topology import enhance_queries, predict_topology


def concat_topology(e, classifier):
    """The reference head: every (i, j) concatenation built with repeat and
    tile, then the whole classifier on the (n*n, 2c) matrix."""
    n = len(e)
    pairs = np.concatenate([np.repeat(e, n, axis=0), np.tile(e, (n, 1))], axis=1)
    return sigmoid(mlp_forward(classifier, pairs).reshape(n, n))


def identity_mlp(c):
    return MlpWeights([(np.eye(c), np.zeros(c), "none")])


def zero_mlp(n_out, n_in):
    return MlpWeights([(np.zeros((n_out, n_in)), np.zeros(n_out), "none")])


class TestEnhanceQueries:
    def test_identity_psi1_zero_psi2(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(3, 6))
        lines = rng.normal(size=(3, 4, 3))
        e = enhance_queries(q, lines, identity_mlp(6), zero_mlp(6, 12))
        assert np.array_equal(e, q)

    def test_zero_psi1_geometry_only(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(2, 6))
        line = rng.normal(size=(4, 3))
        lines = np.stack([line, line])
        psi2 = MlpWeights([(rng.normal(size=(6, 12)), rng.normal(size=6), "none")])
        e = enhance_queries(q, lines, zero_mlp(6, 6), psi2)
        assert np.array_equal(e[0], e[1])

    def test_matches_two_mlp_sum_oracle(self):
        rng = np.random.default_rng(2)
        c, k, n = 5, 3, 4
        q = rng.normal(size=(n, c))
        lines = rng.normal(size=(n, k, 3))
        w1, b1 = rng.normal(size=(c, c)), rng.normal(size=c)
        w2, b2 = rng.normal(size=(c, 3 * k)), rng.normal(size=c)
        psi1 = MlpWeights([(w1, b1, "none")])
        psi2 = MlpWeights([(w2, b2, "none")])
        e = enhance_queries(q, lines, psi1, psi2)
        for i in range(n):
            expected = (w1 @ q[i] + b1) + (w2 @ lines[i].reshape(-1) + b2)
            assert np.max(np.abs(e[i] - expected)) < 1e-12


class TestPredictTopology:
    def test_zero_classifier_gives_half(self):
        e = np.random.default_rng(3).normal(size=(4, 6))
        a = predict_topology(e, zero_mlp(1, 12))
        assert np.allclose(a, 0.5)

    def test_shape_and_range(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=(5, 6))
        clf = MlpWeights(
            [
                (rng.normal(size=(6, 12)), rng.normal(size=6), "relu"),
                (rng.normal(size=(1, 6)), rng.normal(size=1), "none"),
            ]
        )
        a = predict_topology(e, clf)
        assert a.shape == (5, 5)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(3, 4))
        w, b = rng.normal(size=(1, 8)), rng.normal(size=1)
        a = predict_topology(e, MlpWeights([(w, b, "none")]))
        for i in range(3):
            for j in range(3):
                logit = w @ np.concatenate([e[i], e[j]]) + b
                assert abs(a[i, j] - sigmoid(logit[0])) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        e = rng.normal(size=(4, 4))
        clf = MlpWeights([(rng.normal(size=(1, 8)), rng.normal(size=1), "none")])
        a = predict_topology(e, clf)
        perm = rng.permutation(4)
        a_perm = predict_topology(e[perm], clf)
        assert np.array_equal(a_perm, a[np.ix_(perm, perm)])

    @pytest.mark.parametrize("n, c, layers", [(300, 256, 2), (70, 64, 1), (70, 64, 3)])
    def test_factorised_head_matches_the_concatenation(self, n, c, layers):
        # 300 and 70 rows: blocks of PAIR_BLOCK with a partial last one;
        # (300, 256) is the full-size head, whose reference input is 369 MB
        rng = np.random.default_rng(7)
        e = rng.normal(size=(n, c))
        dims = [2 * c] + [c] * (layers - 1) + [1]
        clf = MlpWeights([
            (rng.normal(size=(d_out, d_in)) / np.sqrt(d_in), rng.normal(size=d_out),
             "relu" if i < layers - 1 else "none")
            for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:]))
        ])
        a = predict_topology(e, clf)
        assert a.shape == (n, n)
        assert np.allclose(a, concat_topology(e, clf), rtol=0.0, atol=1e-12)
