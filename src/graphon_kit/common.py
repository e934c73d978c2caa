"""Shared plumbing: exceptions, numeric estimates, search budgets, seeded RNG
streams, and set partitions in restricted-growth form."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GraphonKitError(Exception):
    """Base class for all library errors."""


class DomainError(GraphonKitError):
    """A coordinate lies outside the graphon's latent space."""


class IntegrabilityError(GraphonKitError):
    """A requested integral diverges (e.g. power-law kernel with p >= 1/alpha)."""


class DegenerateError(GraphonKitError):
    """Degenerate input: zero graphon, empty graph, etc."""


class SizeError(GraphonKitError):
    """Instance too large for an exact-mode computation."""


class ConstructionError(GraphonKitError):
    """A constructive operation (e.g. grid rounding) cannot produce a valid output."""


class ParameterError(GraphonKitError):
    """Invalid parameter combination (usage-level error)."""


class Estimate(NamedTuple):
    """A numeric value together with an error estimate (0 for exact values)."""

    value: float
    error: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for heuristic searches; defaults are desk-scale."""

    restarts: int = 20
    iterations: int = 200

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.iterations < 1:
            raise ParameterError("search budget must have restarts >= 1 and iterations >= 1")


def substream(seed: int, *tags) -> np.random.Generator:
    """Derive a named RNG substream from a master seed.

    Uses the counter-based Philox generator keyed by (seed, tags), so streams
    for different purposes (latent draws, edge draws, restarts, ...) are
    independent and unaffected by how much randomness the others consume.
    String tags are hashed with crc32 to stable integers.
    """
    key = tuple(zlib.crc32(t.encode()) if isinstance(t, str) else int(t) for t in tags)
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def feasible_partitions(n: int, min_size: int, max_k: int):
    """All set partitions of [n] in restricted-growth order with every class
    of size >= min_size and at most max_k classes."""
    assign = np.zeros(n, dtype=int)
    sizes = [0] * max_k

    def rec(i: int, used: int):
        if i == n:
            if all(s == 0 or s >= min_size for s in sizes):
                yield assign.copy()
            return
        remaining = n - i
        # prune: every started-but-short class still needs filling
        deficit = sum(max(min_size - s, 0) for s in sizes[:used])
        if deficit > remaining:
            return
        for c in range(min(used + 1, max_k)):
            assign[i] = c
            sizes[c] += 1
            yield from rec(i + 1, max(used, c + 1))
            sizes[c] -= 1

    yield from rec(0, 0)


def canonical_labels(assign) -> np.ndarray:
    """Relabel classes in order of first appearance (restricted growth form)."""
    labels, first, inverse = np.unique(assign, return_index=True, return_inverse=True)
    rank = np.empty(labels.size, dtype=int)
    rank[np.argsort(first)] = np.arange(labels.size)
    return rank[inverse]
