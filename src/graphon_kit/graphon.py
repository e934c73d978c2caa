"""Graphon families and the analytic quantities defined on them.

A graphon here is a symmetric nonnegative kernel on a latent probability
space: the unit interval for step / analytic / power-law kernels, the
probability simplex for mixed-membership models. Step graphons are handled
in closed form throughout; power-law kernels get closed forms where they
exist and singularity-aware quadrature elsewhere; mixed-membership kernels
fall back to seeded Monte Carlo.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .common import (
    ConstructionError,
    DegenerateError,
    DomainError,
    Estimate,
    IntegrabilityError,
    ParameterError,
    SearchBudget,
    canonical_labels,
    feasible_partitions,
    first_min,
    substream,
)

_MASS_TOL = 1e-12
_MC_SAMPLES = 200_000      # Monte Carlo pairs for mixed-membership norms


@dataclass(frozen=True)
class BlockModel:
    """A step graphon's parameters: block masses p and symmetric affinity matrix B."""

    p: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if p.ndim != 1 or B.shape != (p.size, p.size):
            raise ParameterError("need a length-k mass vector and a k x k affinity matrix")
        if np.any(p < 0):
            raise ParameterError("block masses must be nonnegative")
        if abs(p.sum() - 1.0) > _MASS_TOL:
            raise ParameterError(f"block masses must sum to 1, got {p.sum()!r}")
        if np.any(B < 0):
            raise ParameterError("affinities must be nonnegative")
        if not np.allclose(B, B.T, rtol=0, atol=1e-9):
            raise ParameterError("affinity matrix must be symmetric")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "B", (B + B.T) / 2.0)

    @property
    def k(self) -> int:
        return self.p.size

    @property
    def min_mass(self) -> float:
        return float(self.p.min())

    def breakpoints(self) -> np.ndarray:
        """Cumulative masses 0 = t_0 <= ... <= t_k = 1."""
        t = np.concatenate(([0.0], np.cumsum(self.p)))
        t[-1] = 1.0
        return t

    def degrees(self) -> np.ndarray:
        """Per-block degree d_i = sum_j p_j B_ij."""
        return self.B @ self.p

    def scaled(self, c: float) -> "BlockModel":
        return BlockModel(self.p, c * self.B)


@dataclass(frozen=True)
class IntervalPartition:
    """Partition of [0,1] into consecutive intervals given by its breakpoints."""

    breakpoints: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.breakpoints, dtype=float)
        if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or t[-1] != 1.0:
            raise ParameterError("breakpoints must run from 0 to 1")
        if np.any(np.diff(t) <= 0):
            raise ParameterError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", t)

    @classmethod
    def uniform(cls, k: int) -> "IntervalPartition":
        return cls(np.linspace(0.0, 1.0, k + 1))

    @property
    def k(self) -> int:
        return self.breakpoints.size - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)


def _check_unit(*coords) -> None:
    for c in coords:
        a = np.asarray(c, dtype=float)
        if np.any(a < 0.0) or np.any(a > 1.0):
            raise DomainError("coordinate outside [0,1]")


class Graphon:
    """Base class; subclasses provide a symmetric nonnegative kernel."""

    latent_space = "unit_interval"

    def eval(self, x, y):
        raise NotImplementedError

    def pair_eval(self, xs, ys) -> np.ndarray:
        """Kernel values on the grid xs x ys (len(xs) by len(ys) matrix)."""
        return np.asarray(self.eval(np.asarray(xs)[:, None], np.asarray(ys)[None, :]))

    def sample_latent(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.latent_space != "unit_interval":
            raise NotImplementedError
        return rng.uniform(0.0, 1.0, size=n)

    # Integrability cutoff: lp_norm diverges for p >= this.
    def sup_p(self) -> float:
        return math.inf


class StepGraphon(Graphon):
    """Step graphon: constant B_ij on products of consecutive intervals of masses p."""

    def __init__(self, model: BlockModel):
        self.model = model
        self._t = model.breakpoints()

    def _block_of(self, x):
        _check_unit(x)
        idx = np.searchsorted(self._t, x, side="right") - 1
        return np.clip(idx, 0, self.model.k - 1)

    def eval(self, x, y):
        i = self._block_of(x)
        j = self._block_of(y)
        return self.model.B[i, j]


class AnalyticGraphon(Graphon):
    """Graphon given by a symmetric callable on [0,1]^2 (vectorized over numpy arrays)."""

    def __init__(self, fn: Callable, name: str = "", sup_p: float = math.inf):
        self._fn = fn
        self.name = name
        self._sup_p = sup_p

    def eval(self, x, y):
        _check_unit(x, y)
        return self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def sup_p(self) -> float:
        return self._sup_p


def _power_law_g(alpha: float):
    def g(x):
        with np.errstate(divide="ignore"):
            return (1.0 - alpha) * (1.0 - np.asarray(x, dtype=float)) ** (-alpha)

    return g


class _PowerLawBase(Graphon):
    def __init__(self, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise ParameterError("power-law exponent must lie in (0,1)")
        self.alpha = alpha
        self.g = _power_law_g(alpha)

    def sup_p(self) -> float:
        return 1.0 / self.alpha


class PowerLawSum(_PowerLawBase):
    """W(x,y) = (g(x) + g(y)) / 2 with g(x) = (1-a)(1-x)^(-a); already normalized."""

    def eval(self, x, y):
        _check_unit(x, y)
        return 0.5 * (self.g(x) + self.g(y))


class PowerLawProduct(_PowerLawBase):
    """W(x,y) = g(x) g(y) with g(x) = (1-a)(1-x)^(-a); already normalized."""

    def eval(self, x, y):
        _check_unit(x, y)
        return self.g(x) * self.g(y)


class MixedMembership(Graphon):
    """Kernel W(u,v) = u' B v on the simplex with Dirichlet(alpha) latent measure."""

    latent_space = "simplex"

    def __init__(self, alpha, B):
        alpha = np.asarray(alpha, dtype=float)
        B = np.asarray(B, dtype=float)
        if alpha.ndim != 1 or np.any(alpha <= 0):
            raise ParameterError("Dirichlet parameters must be positive")
        if B.shape != (alpha.size, alpha.size) or np.any(B < 0):
            raise ParameterError("affinity matrix must be nonnegative k x k")
        if not np.allclose(B, B.T, rtol=0, atol=1e-9):
            raise ParameterError("affinity matrix must be symmetric")
        self.alpha = alpha
        self.B = (B + B.T) / 2.0
        self.mean = alpha / alpha.sum()

    def _check_simplex(self, u) -> np.ndarray:
        a = np.asarray(u, dtype=float)
        if a.shape[-1] != self.alpha.size or np.any(a < -1e-12):
            raise DomainError("point outside the latent simplex")
        if np.any(np.abs(a.sum(axis=-1) - 1.0) > 1e-9):
            raise DomainError("simplex coordinates must sum to 1")
        return a

    def eval(self, x, y):
        u = self._check_simplex(x)
        v = self._check_simplex(y)
        # average of the two evaluation orders so symmetry is bit-exact
        fwd = np.einsum("...i,ij,...j->...", u, self.B, v)
        rev = np.einsum("...i,ij,...j->...", v, self.B, u)
        return (fwd + rev) / 2.0

    def pair_eval(self, xs, ys) -> np.ndarray:
        u = np.atleast_2d(self._check_simplex(xs))
        v = np.atleast_2d(self._check_simplex(ys))
        fwd = np.einsum("ai,ij,bj->ab", u, self.B, v)
        rev = np.einsum("ai,ij,bj->ba", v, self.B, u)
        return (fwd + rev) / 2.0

    def sample_latent(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Standard gamma-variate construction of Dirichlet draws. The last
        # coordinate is rebuilt as the complement so rows sum to 1 exactly.
        gam = rng.standard_gamma(self.alpha, size=(n, self.alpha.size))
        pts = gam / gam.sum(axis=1, keepdims=True)
        pts[:, -1] = np.maximum(0.0, 1.0 - pts[:, :-1].sum(axis=1))
        return pts


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _quad_1d(f, a: float, b: float, points=None, rel_tol: float = 1e-9):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        kwargs = dict(epsabs=1e-14, epsrel=rel_tol, limit=300)
        if points:
            pts = sorted(p for p in points if a < p < b)
            if pts:
                kwargs["points"] = pts
        return integrate.quad(f, a, b, **kwargs)


def _square_quad(f, rel_tol: float = 1e-7, x_points=None, y_points=None) -> Estimate:
    """Nested adaptive quadrature of f over [0,1]^2.

    ``y_points`` may be a callable x -> breakpoints, which is how kernel-level
    singular curves (truncation boundaries, y = 1 blowups) get communicated to
    the inner integrator.
    """

    def inner(x):
        pts = y_points(x) if callable(y_points) else y_points
        v, _ = _quad_1d(lambda y: f(x, y), 0.0, 1.0, points=pts, rel_tol=rel_tol)
        return v

    v, e = _quad_1d(inner, 0.0, 1.0, points=x_points, rel_tol=rel_tol)
    return Estimate(v, max(e, abs(v) * rel_tol))


# ---------------------------------------------------------------------------
# analytic quantities
# ---------------------------------------------------------------------------


def lp_norm(W: Graphon, p: float) -> Estimate:
    """L^p norm of a graphon: exact for steps, quadrature / Monte Carlo otherwise."""
    if p < 1:
        raise ParameterError("p must be >= 1")
    if p >= W.sup_p():
        raise IntegrabilityError(f"L^{p} norm diverges for this graphon (p >= {W.sup_p()})")
    if isinstance(W, StepGraphon):
        m = W.model
        val = float(np.einsum("i,j,ij->", m.p, m.p, m.B**p)) ** (1.0 / p)
        return Estimate(val, 0.0)
    if isinstance(W, PowerLawProduct):
        a = W.alpha
        gp = (1.0 - a) ** p / (1.0 - a * p)  # integral of g^p
        return Estimate((gp * gp) ** (1.0 / p), 0.0)
    if isinstance(W, PowerLawSum):
        # integrate in s = 1-x, t = 1-y so the singularity sits at the origin,
        # where the adaptive integrator resolves algebraic blowups accurately
        a = W.alpha
        kern = lambda s, t: (0.5 * (1.0 - a) * (s ** (-a) + t ** (-a))) ** p
        est = _square_quad(kern)
        return Estimate(est.value ** (1.0 / p), est.error)
    if isinstance(W, MixedMembership):
        if p == 1:
            return Estimate(float(W.mean @ W.B @ W.mean), 0.0)
        rng = substream(0, "lp_norm")
        xs = W.sample_latent(_MC_SAMPLES, rng)
        ys = W.sample_latent(_MC_SAMPLES, rng)
        vals = W.eval(xs, ys) ** p
        mean = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(_MC_SAMPLES)
        return Estimate(mean ** (1.0 / p), se / max(p * mean ** (1 - 1 / p), 1e-300))
    est = _square_quad(lambda x, y: float(W.eval(x, y)) ** p)
    return Estimate(est.value ** (1.0 / p), est.error)


def normalize(W: Graphon) -> Graphon:
    """Rescale W so that its L^1 norm is 1."""
    n1 = lp_norm(W, 1.0)
    if n1.value <= 0:
        raise DegenerateError("cannot normalize the zero graphon")
    if abs(n1.value - 1.0) <= 1e-12:
        return W
    c = 1.0 / n1.value
    if isinstance(W, StepGraphon):
        return StepGraphon(W.model.scaled(c))
    if isinstance(W, MixedMembership):
        return MixedMembership(W.alpha, c * W.B)
    if isinstance(W, (PowerLawSum, PowerLawProduct)):
        return W  # integral of g is 1, so these are normalized by construction
    name = getattr(W, "name", "")
    fn = W._fn
    return AnalyticGraphon(lambda x, y: c * fn(x, y),
                           name=f"scaled({name})", sup_p=W.sup_p())


def _require_normalized(W: Graphon) -> None:
    if isinstance(W, (PowerLawSum, PowerLawProduct)):
        return  # integral of g is 1, so these are normalized by construction
    if getattr(W, "_normalized_ok", False):
        return  # cached: the check below is a quadrature, too slow to repeat
    n1 = lp_norm(W, 1.0)
    if abs(n1.value - 1.0) > max(1e-6, 5 * n1.error):
        raise ParameterError("degree quantities require a normalized graphon")
    try:
        W._normalized_ok = True
    except AttributeError:
        pass


def degree(W: Graphon, x) -> float:
    """Degree W_x = integral of W(x, .) over the latent measure."""
    _require_normalized(W)
    if isinstance(W, StepGraphon):
        d = W.model.degrees()
        return float(d[W._block_of(x)])
    if isinstance(W, PowerLawSum):
        _check_unit(x)
        return float(0.5 + 0.5 * W.g(x))
    if isinstance(W, PowerLawProduct):
        _check_unit(x)
        return float(W.g(x))
    if isinstance(W, MixedMembership):
        u = W._check_simplex(x)
        return float(u @ W.B @ W.mean)
    v, _ = _quad_1d(lambda y: float(W.eval(x, y)), 0.0, 1.0)
    return v


def degree_cdf(W: Graphon, lam: float, mc_samples: int = 100_000, seed: int = 0) -> Estimate:
    """Distribution function D_W(lambda) of the degree W_x under the latent measure."""
    _require_normalized(W)
    if isinstance(W, StepGraphon):
        d = W.model.degrees()
        return Estimate(float(W.model.p[d <= lam].sum()), 0.0)
    if isinstance(W, (PowerLawSum, PowerLawProduct)):
        a = W.alpha
        # invert the monotone degree map: W_x = 1/2 + g(x)/2 (sum), g(x) (product)
        t = 2.0 * lam - 1.0 if isinstance(W, PowerLawSum) else lam
        if t < 1.0 - a:
            return Estimate(0.0, 0.0)
        return Estimate(float(1.0 - ((1.0 - a) / t) ** (1.0 / a)), 0.0)
    rng = substream(seed, "degree_cdf")
    xs = W.sample_latent(mc_samples, rng)
    if isinstance(W, MixedMembership):
        degs = xs @ (W.B @ W.mean)
    else:
        # vectorized Gauss grid over y for analytic kernels
        nodes, wts = np.polynomial.legendre.leggauss(256)
        ynodes = 0.5 * (nodes + 1.0)
        degs = 0.5 * (W.eval(xs[:, None], ynodes[None, :]) * wts).sum(axis=1)
    frac = float(np.mean(degs <= lam))
    se = math.sqrt(max(frac * (1 - frac), 0.0) / mc_samples)
    return Estimate(frac, se)


def tail_rho(W: Graphon, rho: float, p: float) -> Estimate:
    """Truncation tail ||W - min(W, 1/rho)||_p."""
    if not 0.0 < rho <= 1.0:
        raise ParameterError("rho must lie in (0,1]")
    if p < 1:
        raise ParameterError("p must be >= 1")
    if p >= W.sup_p():
        raise IntegrabilityError("tail norm diverges at this p")
    c = 1.0 / rho
    if isinstance(W, StepGraphon):
        m = W.model
        excess = np.maximum(m.B - c, 0.0)
        val = float(np.einsum("i,j,ij->", m.p, m.p, excess**p)) ** (1.0 / p)
        return Estimate(val, 0.0)
    if isinstance(W, (PowerLawSum, PowerLawProduct)):
        # work in s = 1-x, t = 1-y: g = (1-a) s^(-a), singular at the origin
        a = W.alpha
        ca = 1.0 - a
        if isinstance(W, PowerLawSum):
            kern = lambda s, t: 0.5 * ca * (s ** (-a) + t ** (-a))
            # truncation active for t^(-a) >= 2c/ca - s^(-a)
            s_all = (2.0 * c / ca - 1.0) ** (-1.0 / a) if 2.0 * c / ca > 1.0 else 1.0

            def t_cut(s):
                tau = 2.0 * c / ca - s ** (-a)
                return [tau ** (-1.0 / a)] if tau > 1.0 else []
        else:
            kern = lambda s, t: ca * ca * (s * t) ** (-a)
            s_all = (ca * ca / c) ** (1.0 / a) if c > ca * ca else 1.0

            def t_cut(s):
                tau = c * s**a / (ca * ca)  # solves kern = c at t = tau^(-1/a)
                return [tau ** (-1.0 / a)] if tau > 1.0 else []

        f = lambda s, t: max(kern(s, t) - c, 0.0) ** p
        est = _square_quad(f, x_points=[s_all], y_points=t_cut)
        return Estimate(est.value ** (1.0 / p) if est.value > 0 else 0.0, est.error)
    if isinstance(W, MixedMembership):
        if float(W.B.max()) <= c:
            return Estimate(0.0, 0.0)
        rng = substream(0, "tail_rho")
        xs = W.sample_latent(_MC_SAMPLES, rng)
        ys = W.sample_latent(_MC_SAMPLES, rng)
        vals = np.maximum(W.eval(xs, ys) - c, 0.0) ** p
        mean = float(vals.mean())
        return Estimate(mean ** (1.0 / p) if mean > 0 else 0.0,
                        float(vals.std(ddof=1)) / math.sqrt(vals.size))
    est = _square_quad(lambda x, y: max(float(W.eval(x, y)) - c, 0.0) ** p)
    return Estimate(est.value ** (1.0 / p) if est.value > 0 else 0.0, est.error)


def _g_interval_mean(alpha: float, a: float, b: float) -> float:
    """Average of g over [a,b]; the antiderivative of g is -(1-x)^(1-alpha)."""
    return ((1.0 - a) ** (1.0 - alpha) - (1.0 - b) ** (1.0 - alpha)) / (b - a)


def step_average(W: Graphon, P: IntervalPartition) -> BlockModel:
    """Average W over the cells of an interval partition, yielding a block model."""
    if W.latent_space != "unit_interval":
        raise DomainError("step averaging needs a graphon over [0,1]")
    t = P.breakpoints
    k = P.k
    lengths = P.lengths()
    if isinstance(W, StepGraphon):
        # common refinement with W's own breakpoints; exact
        cuts = np.unique(np.concatenate([t, W._t]))
        mids = (cuts[:-1] + cuts[1:]) / 2.0
        seg_len = np.diff(cuts)
        cell = np.searchsorted(t, mids, side="right") - 1
        vals = W.eval(mids[:, None], mids[None, :])
        B = np.zeros((k, k))
        np.add.at(B, (cell[:, None].repeat(mids.size, 1), cell[None, :].repeat(mids.size, 0)),
                  vals * np.outer(seg_len, seg_len))
        B /= np.outer(lengths, lengths)
    elif isinstance(W, (PowerLawSum, PowerLawProduct)):
        gbar = np.array([_g_interval_mean(W.alpha, t[i], t[i + 1]) for i in range(k)])
        if isinstance(W, PowerLawSum):
            B = 0.5 * (gbar[:, None] + gbar[None, :])
        else:
            B = np.outer(gbar, gbar)
    else:
        B = np.zeros((k, k))
        for i in range(k):
            for j in range(i, k):
                def inner(x, lo=t[j], hi=t[j + 1]):
                    v, _ = _quad_1d(lambda y: float(W.eval(x, y)), lo, hi)
                    return v
                v, _ = _quad_1d(inner, t[i], t[i + 1])
                B[i, j] = B[j, i] = v / (lengths[i] * lengths[j])
    return BlockModel(lengths, B)


# ---------------------------------------------------------------------------
# oracle error and rounding for block models
# ---------------------------------------------------------------------------


def _merge_model(m: BlockModel, assign) -> BlockModel:
    """Merge blocks by group assignment, mass-weighted averaging of affinities."""
    g = np.asarray(assign)
    r = g.max() + 1
    mass = np.outer(m.p, m.p)
    cells = (g[:, None].repeat(m.k, 1), g[None, :].repeat(m.k, 0))
    Bm = np.zeros((r, r))
    Wm = np.zeros((r, r))
    np.add.at(Bm, cells, mass * m.B)
    np.add.at(Wm, cells, mass)
    with np.errstate(invalid="ignore", divide="ignore"):
        Bm = np.where(Wm > 0, Bm / Wm, 0.0)
    return BlockModel(np.bincount(g, weights=m.p), Bm)


def _merge_value(m: BlockModel, merged: BlockModel, assign, p: float) -> float:
    g = np.asarray(assign)
    diff = np.abs(m.B - merged.B[np.ix_(g, g)]) ** p
    return float(np.einsum("i,j,ij->", m.p, m.p, diff)) ** (1.0 / p)


def oracle_error_step(model: BlockModel, kappa: float, p: float,
                      budget: SearchBudget = SearchBudget()) -> tuple[float, BlockModel]:
    """Upper bound on the best block-model approximation error at block floor kappa.

    Searches merge patterns of the source blocks and scores each candidate
    with the coupling induced by the merge. For k <= 8 every merge pattern is
    tried. Above that the candidates are one greedy merge (repeatedly join the
    lightest too-light group with the lightest other group) and
    budget.iterations variants of it, each moving one random block of the
    greedy merge to a random group; the search never moves away from the
    greedy merge. Exact zero with the model itself as the certificate
    whenever the model already satisfies the floor.
    """
    if not 0.0 < kappa <= 1.0:
        raise ParameterError("kappa must lie in (0,1]")
    if model.min_mass >= kappa:
        return 0.0, model

    def candidates():
        if model.k <= 8:
            yield from feasible_partitions(model.k, 1, model.k)
            return
        # greedy pairwise merging of infeasible (too small) groups
        assign = np.arange(model.k)
        while True:
            gm = np.bincount(assign, weights=model.p)
            small = np.flatnonzero(gm < kappa)
            if small.size == 0 or gm.size == 1:
                break
            g0 = small[np.argmin(gm[small])]
            g1 = np.argmin(np.where(np.arange(gm.size) == g0, np.inf, gm))
            assign = canonical_labels(np.where(assign == g1, g0, assign))
        yield assign
        rng = substream(0, "oracle_swaps")
        for _ in range(budget.iterations):
            i = int(rng.integers(model.k))       # the block is drawn before its group
            cand = assign.copy()
            cand[i] = int(rng.integers(assign.max() + 1))
            yield canonical_labels(cand)

    def scored():
        for assign in candidates():
            merged = _merge_model(model, assign)
            if merged.min_mass >= kappa - _MASS_TOL:
                yield _merge_value(model, merged, assign, p), merged

    best_val, best_cert = first_min(scored())
    if best_cert is None:
        # merging everything into one block is always feasible for kappa <= 1
        assign = np.zeros(model.k, dtype=int)
        merged = _merge_model(model, assign)
        best_val = _merge_value(model, merged, assign, p)
        best_cert = merged
    return best_val, best_cert


def round_to_grid(model: BlockModel, n: int, kappa: float) -> BlockModel:
    """Round block masses to multiples of 1/n, keeping every block >= floor(kappa*n)/n.

    Blocks are reordered by increasing mass and the cumulative sums are rounded
    to the nearest multiple of 1/n, ties going to the left.
    """
    if n * kappa < 1.0:
        raise ParameterError("need n * kappa >= 1")
    if model.min_mass < kappa - _MASS_TOL:
        raise ParameterError("model must already satisfy the kappa floor")
    order = np.argsort(model.p, kind="stable")
    p = model.p[order]
    B = model.B[np.ix_(order, order)]
    cum = np.cumsum(p) * n
    scaled = np.where(np.abs(cum - np.round(cum)) < 1e-9, np.round(cum),
                      np.where(np.abs(cum - np.floor(cum) - 0.5) < 1e-12,
                               np.floor(cum),  # ties to the left
                               np.round(cum)))
    scaled[-1] = n
    pr = np.diff(np.concatenate(([0.0], scaled))) / n
    floor = math.floor(kappa * n)
    if np.any(np.round(pr * n) < floor - 1e-9):
        bad = [i for i in range(pr.size) if round(pr[i] * n) < floor]
        raise ConstructionError(
            f"rounding drops blocks {bad} below the floor {floor}/{n} "
            f"(masses {pr[bad].tolist()})")
    return BlockModel(pr, B)


# ---------------------------------------------------------------------------
# closed-form rate exponents
# ---------------------------------------------------------------------------


def holder_rates(d: int, alpha: float, beta: float, p: float,
                 compact: bool, uniform: bool) -> tuple[float, float]:
    """Rate exponents (alpha', beta') for Holder-smooth kernels over R^d."""
    if d < 1 or not 0.0 < alpha <= 1.0 or p < 1:
        raise ParameterError("need d >= 1, alpha in (0,1], p >= 1")
    if compact:
        a_prime = alpha / d if uniform else alpha / (p * alpha + d)
        return a_prime, math.inf
    if p >= beta / alpha:
        raise IntegrabilityError("non-compact case requires p < beta/alpha")
    b_prime = beta / (p * alpha) - 1.0
    a_prime = (alpha / (p * alpha + d)) * b_prime / (1.0 + b_prime)
    return a_prime, b_prime


def power_law_rates(alpha: float, p: float, variant: str) -> tuple[float, float, bool]:
    """Rate exponents (alpha', beta', log-factor flag) for the power-law families."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0,1)")
    if variant not in ("sum", "product"):
        raise ParameterError("variant must be 'sum' or 'product'")
    if not 1.0 <= p < 1.0 / alpha:
        raise IntegrabilityError("need 1 <= p < 1/alpha")
    a_prime = 1.0 / p - alpha
    b_prime = (1.0 - p * alpha) / (p * alpha)
    return a_prime, b_prime, variant == "product"


# ---------------------------------------------------------------------------
# JSON serialization and named registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Graphon] = {}


def register_graphon(name: str, W: Graphon) -> None:
    _REGISTRY[name] = W


def named_graphon(name: str) -> Graphon:
    if name not in _REGISTRY:
        raise ParameterError(f"unknown graphon name {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


register_graphon("quadratic_xy", AnalyticGraphon(lambda x, y: 4.0 * x * y, name="quadratic_xy"))
register_graphon("min_xy", AnalyticGraphon(lambda x, y: 3.0 * np.minimum(x, y), name="min_xy"))


def _upper_triangle(B: np.ndarray) -> list[float]:
    return B[np.triu_indices(B.shape[0])].tolist()


def _from_upper_triangle(kind: str, vals, k: int) -> np.ndarray:
    v = np.asarray(vals, dtype=float)
    if v.shape != (k * (k + 1) // 2,):
        raise ParameterError(f"graphon kind {kind!r} needs k(k+1)/2 = {k * (k + 1) // 2} "
                             f"b_upper values for k = {k}, got {v.size}")
    B = np.zeros((k, k))
    i, j = np.triu_indices(k)
    B[i, j] = B[j, i] = v
    return B


def graphon_to_json(W: Graphon) -> dict:
    if isinstance(W, StepGraphon):
        return {"kind": "step", "p": W.model.p.tolist(),
                "b_upper": _upper_triangle(W.model.B)}
    if isinstance(W, PowerLawSum):
        return {"kind": "power_law_sum", "alpha": W.alpha}
    if isinstance(W, PowerLawProduct):
        return {"kind": "power_law_product", "alpha": W.alpha}
    if isinstance(W, MixedMembership):
        return {"kind": "mixed_membership", "alpha": W.alpha.tolist(),
                "b_upper": _upper_triangle(W.B)}
    name = getattr(W, "name", "")
    if name in _REGISTRY:
        return {"kind": "named", "name": name}
    raise ParameterError("analytic graphons must be registered by name to serialize")


_SPEC_KEYS = {"step": ("p", "b_upper"), "power_law_sum": ("alpha",),
              "power_law_product": ("alpha",), "mixed_membership": ("alpha", "b_upper"),
              "named": ("name",)}


def graphon_from_json(doc: dict) -> Graphon:
    if not isinstance(doc, dict):
        raise ParameterError(f"graphon spec must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind not in _SPEC_KEYS:
        raise ParameterError(f"unknown graphon kind {kind!r}")
    missing = [key for key in _SPEC_KEYS[kind] if key not in doc]
    if missing:
        raise ParameterError(f"graphon kind {kind!r} lacks key(s) {missing}")
    if kind == "step":
        p = np.asarray(doc["p"], dtype=float)
        return StepGraphon(BlockModel(p, _from_upper_triangle(kind, doc["b_upper"], p.size)))
    if kind == "power_law_sum":
        return PowerLawSum(float(doc["alpha"]))
    if kind == "power_law_product":
        return PowerLawProduct(float(doc["alpha"]))
    if kind == "mixed_membership":
        alpha = np.asarray(doc["alpha"], dtype=float)
        return MixedMembership(alpha, _from_upper_triangle(kind, doc["b_upper"], alpha.size))
    return named_graphon(doc["name"])


def constant_graphon(c: float) -> StepGraphon:
    return StepGraphon(BlockModel(np.array([1.0]), np.array([[c]])))
