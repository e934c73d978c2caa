"""Seeded generation of the three random objects attached to a graphon:
the kernel matrix H_n(W), the probability matrix Q_n = min(1, rho*W), and
the Bernoulli graph G_n drawn from Q_n.

Randomness is organized as named Philox substreams of a single master seed
(latent draws and edge draws never share a stream), and edge uniforms are
generated in fixed row blocks so results do not depend on how consumers
partition the work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import ParameterError, substream
from .graphon import Graphon

# Fixed row-block size for edge-uniform generation; part of the seeding
# contract (changing it changes sampled graphs for a given seed).
EDGE_BLOCK = 2048


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric matrix with empty diagonal, tagged by role."""

    mat: np.ndarray
    role: str  # "adjacency" | "probability" | "kernel"

    def __post_init__(self) -> None:
        m = np.asarray(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ParameterError("need a square matrix with n >= 2")
        if not np.array_equal(m, m.T):
            raise ParameterError("matrix must be symmetric")
        if np.any(np.diagonal(m) != 0):
            raise ParameterError("diagonal must be identically 0")
        if self.role == "adjacency":
            if not np.isin(m, (0, 1)).all():
                raise ParameterError("adjacency entries must be 0/1")
        elif self.role == "probability":
            if np.any(m < 0) or np.any(m > 1):
                raise ParameterError("probability entries must lie in [0,1]")
        elif self.role == "kernel":
            pass
        else:
            raise ParameterError(f"unknown role {self.role!r}")
        object.__setattr__(self, "mat", m)

    @property
    def n(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Sample:
    """One seeded draw: latent positions, probability matrix, and graph."""

    latent: np.ndarray
    Q: SymMatrix | None
    G: SymMatrix
    rho_target: float
    seed: int


def as_matrix(M) -> np.ndarray:
    return np.asarray(M.mat if isinstance(M, SymMatrix) else M, dtype=float)


def sample_latent(W: Graphon, n: int, seed: int) -> np.ndarray:
    """n i.i.d. latent positions; sorted ascending on the unit interval."""
    if n < 2:
        raise ParameterError("need n >= 2")
    rng = substream(seed, "latent")
    x = W.sample_latent(n, rng)
    if W.latent_space == "unit_interval":
        x = np.sort(x)
    return x


def build_h(W: Graphon, latent) -> SymMatrix:
    """Kernel matrix H[i,j] = W(x_i, x_j), empty diagonal."""
    H = W.pair_eval(latent, latent).astype(float)
    H = (H + H.T) / 2.0  # guard against float asymmetry in analytic kernels
    np.fill_diagonal(H, 0.0)
    return SymMatrix(H, "kernel")


def build_q(W: Graphon, latent, rho: float) -> SymMatrix:
    """Probability matrix Q[i,j] = min(1, rho * W(x_i, x_j))."""
    if not 0.0 < rho <= 1.0:
        raise ParameterError("rho must lie in (0,1]")
    Q = np.minimum(1.0, rho * build_h(W, latent).mat)
    np.fill_diagonal(Q, 0.0)
    return SymMatrix(Q, "probability")


def _upper_edge_blocks(n: int, seed: int, prob_rows):
    """Yield (r0, r1, upper) for each EDGE_BLOCK-row block: the draws U < P of
    rows r0..r1-1, with U from substream (seed, "edges", block index) and
    P = prob_rows(r0, r1), kept on the strict upper triangle only.

    P is built before U and both die with the comparison, so at most two
    blocks of floats are alive at once.
    """
    for b, r0 in enumerate(range(0, n, EDGE_BLOCK)):
        r1 = min(r0 + EDGE_BLOCK, n)
        upper = prob_rows(r0, r1) > substream(seed, "edges", b).random((r1 - r0, n))
        upper &= np.arange(n)[None, :] > np.arange(r0, r1)[:, None]
        yield r0, r1, upper


def _adjacency(n: int, seed: int, prob_rows) -> SymMatrix:
    A = np.zeros((n, n), dtype=np.uint8)
    for r0, r1, upper in _upper_edge_blocks(n, seed, prob_rows):
        A[r0:r1] = upper
    return SymMatrix(A | A.T, "adjacency")


def _graphon_rows(W: Graphon, x: np.ndarray, rho: float):
    """Probability rows min(1, rho * W(x_i, x_j)) evaluated one block at a time."""
    return lambda r0, r1: np.minimum(1.0, rho * W.pair_eval(x[r0:r1], x))


def bernoulli_graph(Q, seed: int) -> SymMatrix:
    """Independent Bernoulli draw per unordered pair with success probability Q[i,j]."""
    Qm = as_matrix(Q)
    if np.any(Qm < 0) or np.any(Qm > 1):
        raise ParameterError("entries must be probabilities")
    return _adjacency(Qm.shape[0], seed, lambda r0, r1: Qm[r0:r1])


def generate_sample(W: Graphon, n: int, rho: float, seed: int, with_q: bool = True) -> Sample:
    """Draw latent positions and a W-random graph at target density rho.

    The graph is built blockwise straight from the latent positions, so the
    probability matrix is only materialized when requested.
    """
    x = sample_latent(W, n, seed)
    if not 0.0 < rho <= 1.0:
        raise ParameterError("rho must lie in (0,1]")
    G = _adjacency(n, seed, _graphon_rows(W, x, rho))
    Q = build_q(W, x, rho) if with_q else None
    return Sample(latent=x, Q=Q, G=G, rho_target=rho, seed=seed)


def sample_degrees(W: Graphon, n: int, rho: float, seed: int) -> np.ndarray:
    """Degree sequence of the same graph generate_sample would draw, without storing it."""
    x = sample_latent(W, n, seed)
    deg = np.zeros(n, dtype=np.int64)
    for r0, r1, upper in _upper_edge_blocks(n, seed, _graphon_rows(W, x, rho)):
        deg[r0:r1] += upper.sum(axis=1)
        deg += upper.sum(axis=0)
    return deg


def density(M) -> float:
    """n^-2 times the entry sum: the normalized matrix density."""
    m = as_matrix(M)
    return float(m.sum()) / m.shape[0] ** 2


# ---------------------------------------------------------------------------
# text file formats
# ---------------------------------------------------------------------------


def write_ssm(path: str, M, role: str | None = None) -> None:
    """Sparse symmetric text format: 'n <int>' then 1-based 'i j [value]' for i<j."""
    m = M.mat if isinstance(M, SymMatrix) else np.asarray(M)
    if role is None:
        role = M.role if isinstance(M, SymMatrix) else "kernel"
    n = m.shape[0]
    lines = [f"n {n}"]
    iu, ju = np.nonzero(np.triu(m, k=1))
    for i, j in zip(iu, ju):
        if role == "adjacency":
            lines.append(f"{i + 1} {j + 1}")
        else:
            lines.append(f"{i + 1} {j + 1} {float(m[i, j])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_dense(path: str, M) -> None:
    """Dense text variant: n rows of n space-separated values."""
    m = as_matrix(M)
    with open(path, "w") as fh:
        for row in m:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_matrix(path: str) -> SymMatrix:
    """Read either matrix text format, sniffing on the first line."""
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("n "):
            try:
                n = int(first.split()[1])
            except (IndexError, ValueError):
                raise ParameterError(
                    f"{path}:1: expected 'n <count>': {first.strip()!r}") from None
            m = np.zeros((n, n))
            is_adj = True
            for lineno, line in enumerate(fh, start=2):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) not in (2, 3):
                    raise ParameterError(
                        f"{path}:{lineno}: expected 'i j' or 'i j value': {line.strip()!r}")
                try:
                    i, j = int(parts[0]) - 1, int(parts[1]) - 1
                    v = float(parts[2]) if len(parts) == 3 else 1.0
                except ValueError:
                    raise ParameterError(
                        f"{path}:{lineno}: not a number: {line.strip()!r}") from None
                if not (0 <= i < n and 0 <= j < n):
                    raise ParameterError(
                        f"{path}:{lineno}: vertex index outside 1..{n}: {line.strip()!r}")
                if len(parts) == 3:
                    is_adj = False
                m[i, j] = m[j, i] = v
            if is_adj:
                return SymMatrix(m.astype(np.uint8), "adjacency")
            role = "probability" if m.max() <= 1.0 else "kernel"
            return SymMatrix(m, role)
        rows = [np.fromstring(first, sep=" ")]
        rows += [np.fromstring(line, sep=" ") for line in fh if line.strip()]
        m = np.vstack(rows)
        if m.shape[0] != m.shape[1]:
            raise ParameterError(f"dense matrix file {path} is not square")
        if np.isin(m, (0.0, 1.0)).all():
            return SymMatrix(m.astype(np.uint8), "adjacency")
        role = "probability" if m.max() <= 1.0 else "kernel"
        return SymMatrix(m, role)


def write_latent(path: str, latent: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in np.atleast_2d(latent.T).T:
            fh.write(" ".join(repr(float(v)) for v in np.atleast_1d(row)) + "\n")
