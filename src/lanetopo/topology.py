"""Lane-lane connectivity prediction from final queries and geometry.

Entry (i, j) of the topology matrix is the probability that centerline i's
end connects to centerline j's start.
"""

from __future__ import annotations

import numpy as np

from .bev import MlpWeights, activate, mlp_forward, sigmoid

PAIR_BLOCK = 32  # rows i of pairs (i, j) per block of the topology classifier


def enhance_queries(
    q: np.ndarray,
    lines: np.ndarray,
    psi1: MlpWeights,
    psi2: MlpWeights,
) -> np.ndarray:
    """Geometry-aware embeddings: E_i = psi1(q_i) + psi2(flatten(line_i)).

    ``lines`` is (n, k, 3); the k points are flattened in fixed point order.
    """
    q = np.asarray(q, dtype=np.float64)
    lines = np.asarray(lines, dtype=np.float64)
    if lines.ndim != 3 or lines.shape[0] != q.shape[0] or lines.shape[2] != 3:
        raise ValueError(f"lines must be (n, k, 3) with one polyline per query, got {lines.shape}")
    return mlp_forward(psi1, q) + mlp_forward(psi2, lines.reshape(lines.shape[0], -1))


def predict_topology(e: np.ndarray, classifier: MlpWeights) -> np.ndarray:
    """Pairwise adjacency probabilities from concatenated embedding pairs.

    Pair (i, j) feeds concat(E_i, E_j) to the classifier; the sigmoid output
    is the probability that lane i flows into lane j. The first layer is
    affine, so W1 [E_i; E_j] + b1 = A_i + B_j with A = E W1a^T + b1 and
    B = E W1b^T, computed once; the rest of the classifier runs over blocks
    of ``PAIR_BLOCK`` rows of pairs, so no (n*n, 2c) input is built.
    """
    e = np.asarray(e, dtype=np.float64)
    n, c = e.shape
    if classifier.in_dim != 2 * c:
        raise ValueError(f"classifier input dim must be {2 * c}, got {classifier.in_dim}")
    (w1, b1, act), *rest = classifier.layers
    src = e @ w1[:, :c].T + b1
    dst = e @ w1[:, c:].T
    logits = np.empty((n, n))
    for start in range(0, n, PAIR_BLOCK):
        x = activate(src[start:start + PAIR_BLOCK, None, :] + dst[None, :, :], act)
        x = x.reshape(-1, x.shape[-1])
        for mat, bias, layer_act in rest:
            x = activate(x @ mat.T + bias, layer_act)
        logits[start:start + PAIR_BLOCK] = x.reshape(-1, n)
    return sigmoid(logits)
