"""Seeded generation of the three random objects attached to a graphon:
the kernel matrix H_n(W), the probability matrix Q_n = min(1, rho*W), and
the Bernoulli graph G_n drawn from Q_n.

Randomness is organized as named Philox substreams of a single master seed
(latent draws and edge draws never share a stream), and edge uniforms are
generated in fixed row blocks so results do not depend on how consumers
partition the work.

The text formats: `write_ssm` and `read_matrix` handle the sparse symmetric
.ssm format and a dense text format. `read_edges` reads an .ssm file into
canonical edge arrays (`EdgeList`) in O(n + edges) time and memory, with no
n x n array; `read_matrix` is its dense lift. The .ssm rules (duplicates,
self-loops, roles) are set out in `_parse_ssm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
    """n^-2 times the entry sum: the normalized matrix density (dense or scipy sparse)."""
    m = M if sparse.issparse(M) else as_matrix(M)
    return float(m.sum()) / m.shape[0] ** 2


# ---------------------------------------------------------------------------
# text file formats
# ---------------------------------------------------------------------------

_MAX_PLAIN_DIGITS = 18     # a run of this many decimal digits always fits in int64
_MAX_SSM_N = 1 << 31       # keeps the pair key i * n + j inside int64


@dataclass(frozen=True)
class EdgeList:
    """The strict upper triangle of a symmetric matrix with empty diagonal.

    Entry e sits at (i[e], j[e]), 0-based with i < j, sorted by (i, j), one
    entry per pair; value is None when every entry is 1 (an adjacency
    matrix). Memory is O(n + number of entries).
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    value: np.ndarray | None
    role: str

    def weights(self) -> np.ndarray:
        return np.ones(self.i.size) if self.value is None else self.value

    def degrees(self) -> np.ndarray:
        """Row sums of the matrix, as floats."""
        w = self.weights()
        return np.bincount(self.i, w, self.n) + np.bincount(self.j, w, self.n)

    def csr(self) -> sparse.csr_array:
        """The full symmetric matrix as a scipy CSR array (float64)."""
        w = self.weights()
        rows = np.concatenate((self.i, self.j))
        cols = np.concatenate((self.j, self.i))
        return sparse.csr_array((np.concatenate((w, w)), (rows, cols)),
                                shape=(self.n, self.n))

    def matrix(self) -> SymMatrix:
        """The dense n x n lift (uint8 for adjacency, float64 otherwise)."""
        m = np.zeros((self.n, self.n), dtype=np.uint8 if self.value is None else float)
        m[self.i, self.j] = m[self.j, self.i] = self.weights()
        return SymMatrix(m, self.role)

    @classmethod
    def from_matrix(cls, M: SymMatrix) -> "EdgeList":
        i, j = _upper_nonzero(M.mat)
        value = None if M.role == "adjacency" else M.mat[i, j].astype(float)
        return cls(M.n, i, j, value, M.role)


def _upper_nonzero(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices of the nonzero entries above the diagonal."""
    i, j = np.nonzero(m)
    keep = i < j
    return i[keep], j[keep]


def write_ssm(path: str, M, role: str | None = None) -> None:
    """Sparse symmetric text format: 'n <int>' then 1-based 'i j [value]' for i<j.

    Adjacency matrices write 'i j' per edge, other roles 'i j repr(value)';
    all lines are formatted by one %-operation over the entry arrays.
    """
    m = M.mat if isinstance(M, SymMatrix) else np.asarray(M)
    if role is None:
        role = M.role if isinstance(M, SymMatrix) else "kernel"
    i, j = _upper_nonzero(m)
    cols = [i + 1, j + 1]
    if role != "adjacency":
        cols.append(m[i, j].astype(float))
    fields = np.empty((i.size, len(cols)), dtype=object)   # Python ints and floats
    for c, col in enumerate(cols):
        fields[:, c] = col
    line = "%d %d\n" if role == "adjacency" else "%d %d %r\n"
    with open(path, "w") as fh:
        fh.write(f"n {m.shape[0]}\n" + (line * i.size) % tuple(fields.ravel().tolist()))


def write_dense(path: str, M) -> None:
    """Dense text variant: n rows of n space-separated values."""
    m = as_matrix(M)
    with open(path, "w") as fh:
        for row in m:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _read_text(path: str) -> tuple[str, str]:
    """(first line, rest of the file), with universal newlines."""
    try:
        with open(path) as fh:
            return fh.readline(), fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not a text file ({exc.reason})") from None


def read_edges(path: str) -> EdgeList:
    """Read either matrix text format as an EdgeList.

    An .ssm file never becomes an n x n array; a dense text file is read
    whole (it holds n^2 values anyway) and then reduced to its entries.
    """
    first, body = _read_text(path)
    if first.startswith("n "):
        return _parse_ssm(path, first, body)
    return EdgeList.from_matrix(_parse_dense(path, first + body))


def read_matrix(path: str) -> SymMatrix:
    """Read either matrix text format as a dense SymMatrix, sniffing on the
    first line ('n <count>' starts an .ssm file)."""
    first, body = _read_text(path)
    if first.startswith("n "):
        return _parse_ssm(path, first, body).matrix()
    return _parse_dense(path, first + body)


def _parse_ssm(path: str, first: str, body: str) -> EdgeList:
    """Parse an .ssm file in bulk: numpy finds the tokens and the lines they
    sit on, plain decimal indices are converted in one pass and every other
    token by int() or float(), exactly as a line-by-line reader would.

    Rules: blank lines are skipped; a line holds 'i j' or 'i j value'; if a
    pair (in either order) appears on several lines the last one wins; a
    self-loop 'i i' is an error unless its last value is 0. The role is
    adjacency when no line has a value, else probability when no value
    exceeds 1 (values must then be >= 0) and kernel otherwise. A syntax
    error is reported by `_locate_ssm_error` as 'file:line'.
    """
    try:
        n = int(first.split()[1])
    except (IndexError, ValueError):
        raise ParameterError(f"{path}:1: expected 'n <count>': {first.strip()!r}") from None
    if not 2 <= n < _MAX_SSM_N:
        raise ParameterError(f"{path}:1: need 2 <= n < 2**31, got {n}")
    i, j, v, valued, lineno = _ssm_columns(path, n, body)
    lo, hi = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    del i, j
    key = lo * n + hi
    if np.any(key[1:] <= key[:-1]):                   # unsorted or repeated: last line wins
        last = key.size - 1 - np.unique(key[::-1], return_index=True)[1]
        lo, hi, v, lineno = lo[last], hi[last], v[last], lineno[last]

    def fail(bad, what):
        raise ParameterError(f"{path}:{lineno[bad].min()}: {what}")

    if np.isnan(v).any():
        fail(np.isnan(v), "value is not a number")
    loop = lo == hi
    if np.any(loop & (v != 0)):
        fail(loop & (v != 0), "self-loop (diagonal must be identically 0)")
    if loop.any():
        lo, hi, v, lineno = lo[~loop], hi[~loop], v[~loop], lineno[~loop]
    if not valued:
        return EdgeList(n, lo, hi, None, "adjacency")
    role = "probability" if v.max(initial=0.0) <= 1.0 else "kernel"
    if role == "probability" and np.any(v < 0):
        fail(v < 0, "probability entries must lie in [0,1]")
    return EdgeList(n, lo, hi, v, role)


def _ssm_columns(path: str, n: int, body: str):
    """(i, j, value, any line valued, line numbers) of the nonblank body
    lines, 1-based indices as written; a syntax error goes to
    `_locate_ssm_error`."""
    text = body if body.isascii() else body.translate(_unicode_spaces())
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    space = ((b - 9) <= 4) | ((b - 28) <= 4)     # uint8 wraps: bytes 9-13 and 28-32
    flips = np.flatnonzero(np.diff(space, prepend=True, append=True))
    del space
    starts = flips[0::2]                         # token starts and ends alternate
    lens = flips[1::2] - starts
    line = np.searchsorted(np.flatnonzero(b == 10), starts)   # 0-based body line
    head = np.flatnonzero(np.diff(line, prepend=-1))  # first token of each nonblank line
    lineno = line[head] + 2
    del line
    fields = np.diff(head, append=starts.size)
    tokens = None

    def strings(idx):
        nonlocal tokens
        if tokens is None:
            tokens = np.array(text.split(), dtype=object)
        return tokens[idx]

    try:
        if not np.all((fields == 2) | (fields == 3)):
            raise ValueError
        i = _parse_ints(b, starts, lens, head, strings)
        j = _parse_ints(b, starts, lens, head + 1, strings)
        if min(i.min(initial=1), j.min(initial=1)) < 1 or max(i.max(initial=1), j.max(initial=1)) > n:
            raise ValueError
        valued = fields == 3
        v = np.ones(head.size)
        if valued.any():
            v[valued] = np.fromiter(map(float, strings(head[valued] + 2)), float)
    except (ValueError, OverflowError):
        _locate_ssm_error(path, n, body)
        raise AssertionError("unreachable: bulk .ssm parse failed on a valid file")
    return i, j, v, bool(valued.any()), lineno


def _parse_ints(b: np.ndarray, starts: np.ndarray, lens: np.ndarray, idx: np.ndarray,
                strings) -> np.ndarray:
    """int() of tokens idx: runs of at most 18 ASCII digits are read by numpy,
    one digit position at a time; the rest (signs, underscores, other
    scripts' digits, anything malformed) go through int()."""
    s, ln = starts[idx], lens[idx]
    out = np.zeros(idx.size, dtype=np.int64)
    plain = ln <= _MAX_PLAIN_DIGITS
    for k in range(int(ln.max(initial=0))):
        at = ln > k
        d = b[np.minimum(s + k, b.size - 1)] - 48       # uint8: non-digits wrap to >= 10
        plain &= ~at | (d < 10)
        out = np.where(at, out * 10 + d, out)
    if not plain.all():
        out[~plain] = np.fromiter(map(int, strings(idx[~plain])), np.int64)
    return out


def _locate_ssm_error(path: str, n: int, body: str) -> None:
    """Raise ParameterError at the first malformed body line (the failure path
    of the bulk parser; it checks each line the way the bulk parse does)."""
    for lineno, line in enumerate(body.split("\n"), start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise ParameterError(
                f"{path}:{lineno}: expected 'i j' or 'i j value': {line.strip()!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            if len(parts) == 3:
                float(parts[2])
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: not a number: {line.strip()!r}") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParameterError(
                f"{path}:{lineno}: vertex index outside 1..{n}: {line.strip()!r}")


def _unicode_spaces() -> dict:
    """str.translate table sending every non-ASCII space to ' ', so that
    tokens split on the bytes of the encoded text as str.split() splits them."""
    return {c: " " for c in range(128, 0x3001) if chr(c).isspace()}


def _parse_dense(path: str, text: str) -> SymMatrix:
    """Dense text format: one row of values per nonblank line."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            rows.append([float(t) for t in parts])
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: not a number: {line.strip()!r}") from None
        if len(parts) != len(rows[0]):
            raise ParameterError(f"{path}:{lineno}: row has {len(parts)} values, "
                                 f"the first row {len(rows[0])}")
    m = np.array(rows, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"dense matrix file {path} is not square")
    if np.isin(m, (0.0, 1.0)).all():
        return SymMatrix(m.astype(np.uint8), "adjacency")
    role = "probability" if m.max() <= 1.0 else "kernel"
    return SymMatrix(m, role)


def write_latent(path: str, latent: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in np.atleast_2d(latent.T).T:
            fh.write(" ".join(repr(float(v)) for v in np.atleast_1d(row)) + "\n")
