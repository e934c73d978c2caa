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
    ParameterError,
    read_edges,
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


def _line_loop_read(path):
    """Reference .ssm reader: the per-line loop the bulk parser replaced,
    returning (matrix, role) or raising ParameterError('file:line: ...')."""
    with open(path) as fh:
        n = int(fh.readline().split()[1])
        m = np.zeros((n, n))
        is_adj = True
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) not in (2, 3):
                raise ParameterError(f"{path}:{lineno}: field count")
            try:
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                v = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: not a number") from None
            if not (0 <= i < n and 0 <= j < n):
                raise ParameterError(f"{path}:{lineno}: index")
            if len(parts) == 3:
                is_adj = False
            m[i, j] = m[j, i] = v
    if is_adj:
        return m.astype(np.uint8), "adjacency"
    return m, "probability" if m.max() <= 1.0 else "kernel"


def _line_loop_write(path, m, role):
    """Reference .ssm writer: the per-line loop write_ssm replaced."""
    lines = [f"n {m.shape[0]}"]
    iu, ju = np.nonzero(np.triu(m, k=1))
    for i, j in zip(iu, ju):
        if role == "adjacency":
            lines.append(f"{i + 1} {j + 1}")
        else:
            lines.append(f"{i + 1} {j + 1} {float(m[i, j])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TestSsmParser:
    @pytest.mark.parametrize("body", [
        "",
        "1 2\n\n3 4\n\n",                            # blank lines
        "1 2\r\n2 3\r\n",                            # CRLF
        "1 2   \n  2 3\t\n",                         # trailing and leading spaces
        "+1 2\n1_0 3\n",                             # int() spellings
        "1 2 0.3\n2 1 0.5\n",                        # last line wins, either order
        "1 2\n2 1\n1 2\n",                           # repeated edge counts once
        "1 2 1.0\n3 4 1\n",                          # explicit values: probability
        "1 2 0\n3 4\n",                              # explicit 0 value
        "1 2 0.5\n1 2 0\n",                          # overwritten by 0
        "1 2 2.5\n3 4 0.1\n",                        # kernel
        "1 2 -0.5\n3 4 7\n",                         # negative kernel entry
        "1 2\n1 3 0.5\n",                            # 2- and 3-field lines mixed
        "3 3 0\n1 2\n",                              # self-loop with value 0
        "3 3 1\n3 3 0\n",                            # self-loop zeroed by a later line
        "9 10 1e-300\n1 10 inf\n",                   # tiny and infinite values
    ])
    def test_matches_line_loop(self, tmp_path, body):
        path = tmp_path / "m.ssm"
        path.write_bytes(("n 10\n" + body).encode())
        mat, role = _line_loop_read(str(path))
        got = read_matrix(str(path))
        assert got.role == role
        assert got.mat.dtype == mat.dtype
        assert np.array_equal(got.mat, mat)
        edges = read_edges(str(path))
        assert edges.role == role
        assert np.array_equal(edges.degrees(), mat.sum(axis=1))
        assert np.array_equal(edges.csr().toarray(), mat)
        assert np.all(edges.i < edges.j)

    @pytest.mark.parametrize("body, line", [
        ("1 2\n2 2\n", 3),                           # self-loop
        ("1 2\n3\n1 2 5\n", 3),                      # 4 tokens on two lines, not 2 + 2
        ("0 2\n", 2),
        ("1 2\n\n1 7\n", 4),
        ("1 x\n", 2),
        ("1 2 0.5 9\n", 2),
        ("1 2\n1 2.0\n", 3),
        ("1 2 x\n", 2),
        ("1 99999999999999999999\n", 2),
        ("1 2 nan\n", 2),
        ("1 2 0.5\n3 4 -0.5\n", 3),                  # negative probability
    ])
    def test_errors_name_the_line(self, tmp_path, body, line):
        path = tmp_path / "bad.ssm"
        path.write_text("n 4\n" + body)
        for reader in (read_matrix, read_edges):
            with pytest.raises(ParameterError, match=rf"bad\.ssm:{line}:"):
                reader(str(path))

    @pytest.mark.parametrize("header", ["n 1", "n x", "n", "n -3", "n 4294967296"])
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "bad.ssm"
        path.write_text(header + "\n1 2\n")
        with pytest.raises(ParameterError, match=r"bad\.ssm:1:"):
            read_edges(str(path))

    def test_line_errors_match_line_loop(self, tmp_path):
        # first bad line wins, as in the reference loop
        path = tmp_path / "bad.ssm"
        path.write_text("n 4\n1 2\n1\n5 1\n")
        with pytest.raises(ParameterError, match=r"bad\.ssm:3:"):
            _line_loop_read(str(path))
        with pytest.raises(ParameterError, match=r"bad\.ssm:3:"):
            read_matrix(str(path))

    def test_non_ascii_spaces_and_digits(self, tmp_path):
        path = tmp_path / "u.ssm"
        path.write_text("n 4\n1 2\n٣ 4 \n", encoding="utf-8")
        mat, role = _line_loop_read(str(path))
        got = read_matrix(str(path))
        assert (got.role, got.mat.tolist()) == (role, mat.tolist())

    def test_sampled_graph_round_trip(self, tmp_path):
        s = generate_sample(PowerLawSum(0.5), 300, 0.2, seed=5)
        path = tmp_path / "g.ssm"
        write_ssm(str(path), s.G)
        mat, role = _line_loop_read(str(path))
        assert read_matrix(str(path)).role == role == "adjacency"
        assert np.array_equal(read_matrix(str(path)).mat, mat)
        assert np.array_equal(read_edges(str(path)).degrees(), as_matrix(s.G).sum(axis=1))


class TestWriteSsm:
    @pytest.mark.parametrize("role", ["adjacency", "probability", "kernel"])
    def test_bytes_match_line_loop(self, tmp_path, role):
        rng = np.random.default_rng(61)
        s = generate_sample(named_graphon("quadratic_xy"), 60, 0.2, seed=6)
        m = {"adjacency": as_matrix(s.G),
             "probability": as_matrix(s.Q),
             "kernel": as_matrix(s.Q) / 0.2}[role]
        if role != "adjacency":
            m = m.copy()
            m[0, 1] = m[1, 0] = 0.1
            m[0, 2] = m[2, 0] = 1e-300
            m[3, 4] = m[4, 3] = rng.random() * 5.0 if role == "kernel" else 1.0
        new, old = tmp_path / "new.ssm", tmp_path / "old.ssm"
        write_ssm(str(new), m, role=role)
        _line_loop_write(str(old), m, role)
        assert new.read_bytes() == old.read_bytes()

    def test_empty_and_uint8(self, tmp_path):
        new, old = tmp_path / "new.ssm", tmp_path / "old.ssm"
        for m, role in ((np.zeros((3, 3)), "kernel"),
                        (np.array([[0, 1], [1, 0]], dtype=np.uint8), "adjacency"),
                        (np.array([[0, 1], [1, 0]], dtype=np.uint8), "probability")):
            write_ssm(str(new), m, role=role)
            _line_loop_write(str(old), m, role)
            assert new.read_bytes() == old.read_bytes()


class TestDenseFormat:
    @pytest.mark.parametrize("text, line", [
        ("1 x\nx 1\n", 1),
        ("0 1\n1\n", 2),
        ("0 1\n\n1 0 1\n", 3),
    ])
    def test_malformed_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ParameterError, match=rf"m\.txt:{line}:"):
            read_matrix(str(path))

    def test_not_square(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 1 0\n1 0 0\n")
        with pytest.raises(ParameterError, match="not square"):
            read_matrix(str(path))

    def test_read_edges_of_dense_file(self, tmp_path):
        m = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.25], [0.0, 0.25, 0.0]])
        path = tmp_path / "m.txt"
        write_dense(str(path), m)
        edges = read_edges(str(path))
        assert edges.role == "probability"
        assert np.array_equal(edges.csr().toarray(), m)
        assert np.array_equal(edges.matrix().mat, m)
