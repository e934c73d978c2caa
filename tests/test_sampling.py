import numpy as np
import pytest

from graphon_kit import (
    BlockModel,
    MixedMembership,
    PowerLawSum,
    StepGraphon,
    bernoulli_graph,
    build_h,
    build_q,
    constant_graphon,
    density,
    generate_sample,
    lp_norm,
    matrix_lp,
    named_graphon,
    read_matrix,
    sample_degrees,
    sample_latent,
    write_dense,
    write_ssm,
)
from graphon_kit.sampling import EDGE_BLOCK, as_matrix


class TestSampleLatent:
    def test_deterministic(self):
        a = sample_latent(constant_graphon(1.0), 50, seed=9)
        b = sample_latent(constant_graphon(1.0), 50, seed=9)
        assert np.array_equal(a, b)

    def test_sorted(self):
        xs = sample_latent(PowerLawSum(0.5), 200, seed=1)
        assert np.all(np.diff(xs) >= 0)

    def test_uniform_mean(self):
        xs = sample_latent(constant_graphon(1.0), 10_000, seed=2)
        assert abs(xs.mean() - 0.5) < 0.02

    def test_simplex(self):
        w = MixedMembership([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        xs = sample_latent(w, 100, seed=3)
        assert xs.shape == (100, 2)
        assert np.all(xs.sum(axis=1) == 1.0)


class TestBuildQ:
    def test_constant_rho_one(self):
        q = as_matrix(build_q(constant_graphon(1.0), np.linspace(0, 1, 5), 1.0))
        assert np.all(q[~np.eye(5, dtype=bool)] == 1.0)
        assert np.all(np.diag(q) == 0.0)

    def test_no_clipping_equals_rho_h(self):
        w = named_graphon("quadratic_xy")  # bounded by 4, so rho = 0.2 never clips
        latent = sample_latent(w, 30, seed=4)
        q = as_matrix(build_q(w, latent, 0.2))
        h = as_matrix(build_h(w, latent))
        assert np.array_equal(q, 0.2 * h)

    def test_clipping_near_singularity(self):
        w = PowerLawSum(0.5)
        latent = np.array([0.5, 0.9999999])  # g(y) huge, so W > 1 on the pair
        q = as_matrix(build_q(w, latent, 1.0))
        assert q[0, 1] == 1.0


class TestBuildH:
    def test_constant(self):
        h = as_matrix(build_h(constant_graphon(1.0), np.linspace(0, 1, 4)))
        assert np.all(h == 1.0 - np.eye(4))

    def test_norm_converges(self):
        w = PowerLawSum(0.5)
        latent = sample_latent(w, 2000, seed=5)
        h = build_h(w, latent)
        assert abs(matrix_lp(h, 1) - lp_norm(w, 1).value) <= 0.05

    def test_n2_edge_case(self):
        h = as_matrix(build_h(constant_graphon(1.0), np.array([0.2, 0.8])))
        assert matrix_lp(h, 1) == pytest.approx(0.5)


class TestBernoulliGraph:
    def test_zero_q(self):
        g = as_matrix(bernoulli_graph(np.zeros((5, 5)), seed=0))
        assert np.all(g == 0.0)

    def test_all_ones_q(self):
        q = 1.0 - np.eye(6)
        g = as_matrix(bernoulli_graph(q, seed=0))
        assert np.array_equal(g, q)

    def test_edge_count_concentrates(self):
        n = 200
        q = 0.3 * (1.0 - np.eye(n))
        g = as_matrix(bernoulli_graph(q, seed=11))
        edges = g.sum() / 2.0
        m = n * (n - 1) / 2
        sigma = np.sqrt(m * 0.3 * 0.7)
        assert abs(edges - 0.3 * m) <= 4.0 * sigma

    def test_deterministic_and_symmetric(self):
        rng = np.random.default_rng(6)
        q = rng.random((20, 20))
        q = np.triu(q, 1)
        q = q + q.T
        a = as_matrix(bernoulli_graph(q, seed=13))
        b = as_matrix(bernoulli_graph(q, seed=13))
        assert np.array_equal(a, b)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)

    def test_marginal_frequencies(self):
        n = 6
        rng = np.random.default_rng(7)
        q = rng.random((n, n))
        q = np.triu(q, 1)
        q = q + q.T
        reps = 10_000
        freq = np.zeros((n, n))
        for s in range(reps):
            freq += as_matrix(bernoulli_graph(q, seed=s))
        freq /= reps
        sigma = np.sqrt(q * (1.0 - q) / reps)
        off = ~np.eye(n, dtype=bool)
        assert np.all(np.abs(freq - q)[off] <= 4.0 * sigma[off])


class TestDensity:
    def test_empty(self):
        assert density(np.zeros((4, 4))) == 0.0

    def test_complete(self):
        n = 7
        assert density(1.0 - np.eye(n)) == pytest.approx((n * n - n) / n**2)

    def test_sampled_density_matches_binomial_mean(self):
        s = generate_sample(constant_graphon(1.0), 400, rho=0.1, seed=8)
        expected = 0.1 * (400 - 1) / 400
        assert abs(density(s.G) - expected) <= 0.01

    def test_q_density_tracks_rho(self):
        s = generate_sample(constant_graphon(1.0), 4000, rho=0.01, seed=9)
        assert abs(density(s.Q) / 0.01 - 1.0) <= 0.05


class TestGenerateSample:
    def test_invariants(self):
        s = generate_sample(named_graphon("quadratic_xy"), 60, rho=0.3, seed=10)
        g, q = as_matrix(s.G), as_matrix(s.Q)
        assert np.all(np.diff(s.latent) >= 0)
        assert np.all(q <= 1.0)
        assert np.all(g[q == 0.0] == 0.0)
        assert set(np.unique(g)) <= {0.0, 1.0}

    def test_latent_independent_of_edge_randomness(self):
        a = generate_sample(constant_graphon(1.0), 40, rho=0.2, seed=12)
        b = sample_latent(constant_graphon(1.0), 40, seed=12)
        assert np.array_equal(a.latent, b)

    def test_sample_degrees_matches_full_sample(self):
        step = StepGraphon(BlockModel([0.3, 0.7], [[2.0, 0.5], [0.5, 1.0]]))
        # EDGE_BLOCK + 52 vertices take uniforms from two row blocks
        for w in (named_graphon("quadratic_xy"), step):
            for n in (50, EDGE_BLOCK + 52):
                d = sample_degrees(w, n, rho=0.3, seed=14)
                s = generate_sample(w, n, rho=0.3, seed=14)
                assert np.array_equal(d, as_matrix(s.G).sum(axis=1))
        # a step kernel evaluates bit-identically in both argument orders, so
        # drawing from the materialized Q reproduces the same graph
        assert np.array_equal(as_matrix(bernoulli_graph(s.Q, 14)), as_matrix(s.G))


class TestFileFormats:
    def test_ssm_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        m = rng.random((8, 8))
        m = np.triu(m, 1)
        m = m + m.T
        path = tmp_path / "m.ssm"
        write_ssm(str(path), m)
        back = as_matrix(read_matrix(str(path)))
        assert np.allclose(back, m, atol=1e-15)

    def test_ssm_adjacency_omits_value(self, tmp_path):
        g = as_matrix(bernoulli_graph(0.5 * (1.0 - np.eye(6)), seed=16))
        path = tmp_path / "g.ssm"
        write_ssm(str(path), g, role="adjacency")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n 6"
        assert all(len(l.split()) == 2 for l in lines[1:])
        assert np.array_equal(as_matrix(read_matrix(str(path))), g)

    def test_dense_round_trip(self, tmp_path):
        m = np.array([[0.0, 1.5], [1.5, 0.0]])
        path = tmp_path / "m.txt"
        write_dense(str(path), m)
        assert np.array_equal(as_matrix(read_matrix(str(path))), m)
