"""k-nearest-neighbour mutual information and the IMF selection rules."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from . import workers
from .emd import ImfSet
from .signals import Signal, ZeroVariance, _to_unit_peak, kurtosis


class DegenerateData(ValueError):
    """Ties collapse the neighbour distances; the series carry no geometry."""


# The paper's fixed selection: IMFs with more than MI_THRESHOLD nats of mutual
# information with the raw signal, estimated from KSG_K neighbours.
MI_THRESHOLD = 0.1
KSG_K = 3

# MI scoring subsamples anything longer than this by stride; neighbour
# search is quadratic in the worst case.
MAX_MI_SAMPLES = 20000

# Fixed salt so the tie-breaking jitter is reproducible run to run.
_JITTER_SALT = 0x9E3779B9


def _break_ties(a: np.ndarray, stream: int) -> np.ndarray:
    """Jitter duplicated coordinates by 1e-10 of the data range.

    The perturbation is drawn from a fixed-salt stream so results stay
    reproducible. Its one caller rejects a constant series first, so the
    range is positive.
    """
    if np.unique(a).size == a.size:
        return a
    span = float(a.max() - a.min())
    rng = np.random.default_rng((_JITTER_SALT, stream, a.size))
    return a + 1e-10 * span * rng.standard_normal(a.size)


def _strict_marginal_counts(a: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Per point: how many other points lie strictly within eps on this axis.

    Counting |a_j - a_i| < eps_i through interval endpoints (a_i +- eps_i)
    miscounts points exactly at distance eps_i, because the endpoint
    addition rounds. The endpoints only bracket each edge here: a short
    walk over the sorted unique values then settles it on the same float
    predicate a brute-force oracle evaluates, so the counts agree with it
    bit for bit.
    """
    uniq, multiplicity = np.unique(a, return_counts=True)
    cumulative = np.concatenate(([0], np.cumsum(multiplicity)))

    def first_hit(edge: np.ndarray, predicate) -> np.ndarray:
        # From each bracket, step to the first unique value that satisfies
        # the monotone predicate.
        down = np.flatnonzero(edge > 0)
        while down.size:
            down = down[predicate(uniq[edge[down] - 1], down)]
            edge[down] -= 1
            down = down[edge[down] > 0]
        up = np.flatnonzero(edge < uniq.size)
        while up.size:
            up = up[~predicate(uniq[edge[up]], up)]
            edge[up] += 1
            up = up[edge[up] < uniq.size]
        return edge

    # first unique value v with (v - a_i) >= eps_i, i.e. at/after the right edge
    right = first_hit(np.searchsorted(uniq, a + eps), lambda v, i: (v - a[i]) >= eps[i])
    # first unique value v with (a_i - v) < eps_i, i.e. the left edge itself
    left = first_hit(
        np.searchsorted(uniq, a - eps, side="right"), lambda v, i: (a[i] - v) < eps[i]
    )
    counts = (cumulative[right] - cumulative[left]).astype(np.float64)
    counts -= 1.0  # the point itself sits strictly inside when eps > 0
    counts[eps == 0.0] = 0.0
    return counts


def knn_mutual_information(x: np.ndarray, y: np.ndarray, k: int = KSG_K) -> float:
    """Mutual information in nats from k-th neighbour statistics.

    For each joint point the distance eps_i to its k-th nearest neighbour
    is found under the max-coordinate (Chebyshev) metric; n_x(i) and
    n_y(i) count the marginal points strictly inside eps_i. The estimate

        psi(N) + psi(k) - mean(psi(n_x + 1) + psi(n_y + 1))

    may come out slightly negative for independent data and is not
    clamped. Raises DegenerateData when more than 1% of the neighbour
    distances collapse to zero (identical or duplicated series).
    """
    xv = np.ascontiguousarray(x, dtype=np.float64)
    yv = np.ascontiguousarray(y, dtype=np.float64)
    if xv.size != yv.size:
        raise ValueError("x and y must have the same length")
    n = xv.size
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k + 1:
        raise ValueError(f"need more than k+1={k + 1} samples, got {n}")
    if xv.max() == xv.min() or yv.max() == yv.min():
        raise DegenerateData("constant series carries no neighbour geometry")
    # One shared power-of-two scale takes the joint peak into [0.5, 1), so
    # the data range and the neighbour distances stay finite for records
    # near the largest float. The scale is exact: where no value falls
    # into the subnormal range, the estimate keeps its bits.
    joint, _ = _to_unit_peak(np.stack((xv, yv)))
    xv = _break_ties(joint[0], 0)
    yv = _break_ties(joint[1], 1)
    points = np.column_stack((xv, yv))
    tree = cKDTree(points)
    eps = tree.query(points, k=k + 1, p=np.inf)[0][:, k]
    if np.count_nonzero(eps == 0.0) > 0.01 * n:
        raise DegenerateData("neighbour distances collapse to zero")
    nx = _strict_marginal_counts(xv, eps)
    ny = _strict_marginal_counts(yv, eps)
    psi_marginals = np.mean(digamma(nx + 1.0) + digamma(ny + 1.0))
    return float(digamma(n) + digamma(k) - psi_marginals)


@dataclass(frozen=True)
class MiScore:
    """Mutual information of one IMF against the raw signal."""

    imf_index: int  # 1-based, in decomposition order
    value_nats: float
    k: int
    degenerate: bool = False


def mi_stride(n: int) -> int:
    """Step that takes a record of n samples down to MAX_MI_SAMPLES or fewer."""
    return max(1, math.ceil(n / MAX_MI_SAMPLES))


def score_imfs(raw: Signal, imf_set: ImfSet) -> list[MiScore]:
    """One MiScore per IMF, from KSG_K neighbours, order preserved.

    Long records are strided down to MAX_MI_SAMPLES points for scoring
    only. A degenerate IMF (e.g. all-zero padding) scores 0 with its
    flag set instead of aborting the batch. The IMFs are scored on a
    thread pool opened and closed within the call, one thread per IMF up
    to the number of CPUs in the process's affinity mask, and at least
    one. The scores are the same bits at any thread count.
    """
    x = raw.samples
    if imf_set.source_length != x.size:
        raise ValueError("IMF set does not match the raw signal length")
    stride = mi_stride(x.size)
    xs = x[::stride]

    def score(i: int, imf: np.ndarray) -> MiScore:
        try:
            return MiScore(i, knn_mutual_information(xs, imf[::stride], KSG_K), KSG_K)
        except DegenerateData:
            return MiScore(i, 0.0, KSG_K, degenerate=True)

    # Tree building and queries, sorting and searchsorted run in native code
    # that releases the GIL, so the IMFs are scored side by side. map yields
    # in IMF order and re-raises the first failure in that order; each
    # estimate is the same computation on any thread.
    threads = max(1, min(imf_set.n_imfs, workers.usable_cpus()))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(score, range(1, imf_set.n_imfs + 1), imf_set.imfs))


def select_by_mi(scores: list[MiScore]) -> list[int]:
    """Indices of IMFs whose MI exceeds MI_THRESHOLD, ascending.

    An empty selection is a valid outcome and is reported upstream; so is
    an empty score list, which a decomposition with no IMFs produces.
    """
    return [s.imf_index for s in scores if s.value_nats > MI_THRESHOLD]


def select_by_kurtosis(imf_set: ImfSet) -> list[int]:
    """``[i]`` for the maximum-kurtosis IMF i (1-based; ties go to the lowest
    index), or ``[]`` when every IMF has zero variance."""
    best_index = 0
    best_value = -math.inf
    for i, imf in enumerate(imf_set.imfs, start=1):
        try:
            value = kurtosis(imf)
        except ZeroVariance:
            continue
        if value > best_value:
            best_index, best_value = i, value
    return [best_index] if best_index else []
