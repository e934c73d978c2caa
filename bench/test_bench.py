"""Fast tests of the benchmark itself: every workload passes its checks at a
tiny size, and every check fails when fed a deliberately corrupted output.

    python3 -m pytest bench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = {"sparse_pipeline": [11], "planted_search": [21, 22, 23],
         "cut_and_align": [31, 32, 33, 34, 35, 36, 37]}


def _run_op(name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.TINY[name], str(tmp_path))
    wl.setup()
    try:
        seeds = SEEDS[name]
        assert len(seeds) == wl.seeds_per_op
        out = wl.op(seeds)
        fails = wl.check(seeds, out)
    finally:
        getattr(wl, "close", lambda: None)()
    return wl, seeds, out, fails


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    return {name: _run_op(name, tmp_path_factory.mktemp(name)) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(ops, name):
    assert ops[name][3] == []


# ---------------------------------------------------------------------------
# corruptions: each names the check it must trip
# ---------------------------------------------------------------------------


def _drop_edge(o):
    n, edges, lines = o["ssm"]
    o["ssm"] = (n, edges[1:], lines - 1)


def _extra_line(o):
    n, edges, lines = o["ssm"]
    o["ssm"] = (n, edges, lines + 1)


def _shift_latent(o):
    o["latent"] = np.sort(np.minimum(o["latent"] * 1.05, 0.999))


def _permute_partition(o):
    o["model"]["assignment"] = list(np.random.default_rng(0).permutation(o["model"]["assignment"]))


def _unbalance(o):
    a = np.asarray(o["model"]["assignment"])
    a[a == 1] = 0
    a[a == 2] = 1
    o["model"]["assignment"] = a.tolist()


def _scale_blocks(o):
    o["model"]["b_upper"] = [v * 1.01 for v in o["model"]["b_upper"]]


def _wrong_masses(o):
    o["model"]["p"] = [v + 1e-3 for v in o["model"]["p"]]


def _bad_truth(o):
    o["truth_err"] = 10.0


def _light_tail(o):
    o["tail_degrees"] = np.random.default_rng(0).poisson(20.0, o["tail_degrees"].size) + 1


def _bad_levy(o):
    o["levy"] = {"value": 1.5}


SPARSE = {
    "drop_edge": (_drop_edge, "ssm edges differ"),
    "extra_line": (_extra_line, "edge lines"),
    "shift_latent": (_shift_latent, "rebuilt from the seed"),
    "permute_partition": (_permute_partition, "contiguous in degree order"),
    "unbalance": (_unbalance, "differ by more than 1"),
    "scale_blocks": (_scale_blocks, "block averages differ"),
    "wrong_masses": (_wrong_masses, "class masses"),
    "bad_truth": (_bad_truth, "not below the one-block"),
    "light_tail": (_light_tail, "tail slope"),
    "bad_levy": (_bad_levy, "outside [0, 1]"),
}


def _first_trial(o):
    return o["trials"][min(o["trials"])]


def _wrong_objective(o):
    row, g, a = _first_trial(o)
    row["objective"] = repr(float(row["objective"]) * 1.001)


def _permute_ls(o):
    s = min(o["trials"])
    row, g, a = o["trials"][s]
    o["trials"][s] = (row, g, np.random.default_rng(1).permutation(a))


def _worse_than_planted(o):
    # a consistent but poor partition: objective and partition agree, yet
    # the planted two-block split fits better
    s = min(o["trials"])
    row, g, a = o["trials"][s]
    poor = np.arange(a.size) % (a.max() + 1)
    row["objective"] = repr(checks.lp(checks.block_residual(g, poor), 2))
    o["trials"][s] = (row, g, poor)


def _below_floor(o):
    s = min(o["trials"])
    row, g, a = o["trials"][s]
    a = a.copy()
    a[np.flatnonzero(a == 0)[:-1]] = 1
    o["trials"][s] = (row, g, a)


def _flip_edge(o):
    s = min(o["trials"])
    row, g, a = o["trials"][s]
    g = g.copy()
    g[0, 1] = g[1, 0] = 1.0 - g[0, 1]
    o["trials"][s] = (row, g, a)


def _missing_trial(o):
    o["trials"].pop(min(o["trials"]))


def _cut_above_l1(o):
    a, assign, obj = o["cut"]
    o["cut"] = (a, assign, checks.lp(checks.block_residual(a, assign), 1) + 1e-3)


def _cut_negative(o):
    a, assign, obj = o["cut"]
    o["cut"] = (a, assign, -1e-3)


def _cut_below_floor(o):
    a, assign, obj = o["cut"]
    assign = assign.copy()
    assign[np.flatnonzero(assign == assign[0])[:-1]] = (assign[0] + 1) % (assign.max() + 1)
    o["cut"] = (a, assign, obj)


PLANTED = {
    "wrong_objective": (_wrong_objective, "!= ||A - A_pi||_2"),
    "permute_partition": (_permute_ls, "!= ||A - A_pi||_2"),
    "below_floor": (_below_floor, "below"),
    "flip_edge": (_flip_edge, "differs from the rebuilt graph"),
    "missing_trial": (_missing_trial, "expected"),
    "cut_above_l1": (_cut_above_l1, "least cut objective"),
    "cut_negative": (_cut_negative, "least cut objective"),
    "cut_below_floor": (_cut_below_floor, "least cut class sizes"),
}


def test_above_planted_is_reported_not_failed(ops):
    wl, seeds, out, _ = ops["planted_search"]
    cfg = wl.check_cfg(seeds)
    assert checks.above_planted(out, cfg) == []
    bad = copy.deepcopy(out)
    _worse_than_planted(bad)
    assert wl.verify(copy.deepcopy(bad), cfg) == []
    assert checks.above_planted(bad, cfg) == [min(out["trials"])]


def _complement_certificate(o):
    D, (v, S, T), lower = o["exact"]
    o["exact"] = (D, (v, np.setdiff1d(np.arange(D.shape[0]), S), T), lower)


def _exact_below_lower(o):
    D, exact, lower = o["exact"]
    o["exact"] = (D, exact, (exact[0] * 1.1 + 1e-3,) + tuple(lower[1:]))


def _exact_above_l1(o):
    D, (v, S, T), lower = o["exact"]
    o["exact"] = (D * 1e-6, (v, S, T), (0.0,))


def _wrong_brute(o):
    Ds, vs = o["exact_small"]
    o["exact_small"] = (Ds, vs * 1.01 + 1e-6)


def _lower_certificate(o):
    Dl, (vl, Sl, Tl) = o["lower"]
    o["lower"] = (Dl, (vl, Sl[1:], Tl))


def _swap_sigma(sigma, a, b, value_fn):
    """A transposition of sigma that changes the objective."""
    base = value_fn(sigma)
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            s = np.array(sigma)
            s[i], s[j] = s[j], s[i]
            if not checks.close(value_fn(s), base):
                return s
    raise AssertionError("no transposition changes the objective")


def _hat_p_swapped(o):
    a, b, p, (val, sigma) = o["hat_p"]
    s = _swap_sigma(sigma, a, b, lambda s: checks.lp(a[np.ix_(s, s)] - b, p))
    o["hat_p"] = (a, b, p, (val, s))


def _hat_p_not_perm(o):
    a, b, p, (val, sigma) = o["hat_p"]
    s = np.array(sigma)
    s[0] = s[1]
    o["hat_p"] = (a, b, p, (val, s))


def _hat_p_above_start(o):
    # value and certificate agree, but the certificate is worse than the
    # degree-sorted start the search must never leave for the worse
    a, b, p, _ = o["hat_p"]
    s0 = checks.degree_sorted_alignment(a, b)
    worst = max((np.random.default_rng(i).permutation(a.shape[0]) for i in range(200)),
                key=lambda s: checks.lp(a[np.ix_(s, s)] - b, p))
    v = checks.lp(a[np.ix_(worst, worst)] - b, p)
    assert v > checks.lp(a[np.ix_(s0, s0)] - b, p)
    o["hat_p"] = (a, b, p, (v, worst))


def _hat_cut_swapped(o):
    a, b, (val, sigma) = o["hat_cut"]
    s = _swap_sigma(sigma, a, b, lambda s: checks.cut_norm_brute(a[np.ix_(s, s)] - b))
    o["hat_cut"] = (a, b, (val, s))


def _step_above_product(o):
    # value and coupling agree, but the coupling (north-west corner plan of
    # the blocks in opposite orders) is worse than the product coupling
    (p1, B1), (p2, B2), p, _ = o["step"]
    nu = np.zeros((p1.size, p2.size))
    r1, r2 = p1.copy(), p2[::-1].copy()
    i = j = 0
    while i < p1.size and j < p2.size:
        m = min(r1[i], r2[j])
        nu[i, p2.size - 1 - j] += m
        r1[i] -= m
        r2[j] -= m
        i, j = (i + 1, j) if r1[i] <= r2[j] else (i, j + 1)
    diff = np.abs(B1[:, None, :, None] - B2[None, :, None, :]) ** p
    val = float(np.einsum("ik,jl,ikjl->", nu, nu, diff)) ** (1 / p)
    prod = np.outer(p1, p2)
    assert val > float(np.einsum("ik,jl,ikjl->", prod, prod, diff)) ** (1 / p)
    o["step"] = ((p1, B1), (p2, B2), p, (val, nu))


def _step_bad_marginals(o):
    m1, m2, p, (val, nu) = o["step"]
    o["step"] = (m1, m2, p, (val, np.asarray(nu)[::-1].copy() * 1.1))


def _step_wrong_value(o):
    m1, m2, p, (val, nu) = o["step"]
    o["step"] = (m1, m2, p, (val * 0.9, nu))


def _levy_asymmetric(o):
    ab, ba, aa = o["levy"]
    o["levy"] = (ab, ab + 1e-3, aa)


def _levy_self(o):
    ab, ba, aa = o["levy"]
    o["levy"] = (ab, ba, 1e-3)


CUT_ALIGN = {
    "complement_certificate": (_complement_certificate, "exact cut certificate"),
    "exact_below_lower": (_exact_below_lower, "below the heuristic lower bound"),
    "exact_above_l1": (_exact_above_l1, "above ||A||_1"),
    "wrong_brute": (_wrong_brute, "brute force over S and T"),
    "lower_certificate": (_lower_certificate, "cut_norm_lower certificate"),
    "hat_p_swapped": (_hat_p_swapped, "!= ||A^sigma - B||_p"),
    "hat_p_not_perm": (_hat_p_not_perm, "not a permutation"),
    "hat_p_above_start": (_hat_p_above_start, "above the degree-sorted alignment"),
    "hat_cut_swapped": (_hat_cut_swapped, "brute cut norm of A^sigma - B"),
    "step_above_product": (_step_above_product, "above the product coupling"),
    "step_bad_marginals": (_step_bad_marginals, "marginals"),
    "step_wrong_value": (_step_wrong_value, "value of its coupling"),
    "levy_asymmetric": (_levy_asymmetric, "not symmetric"),
    "levy_self": (_levy_self, "with itself"),
}

CASES = ([("sparse_pipeline", k, *v) for k, v in SPARSE.items()]
         + [("planted_search", k, *v) for k, v in PLANTED.items()]
         + [("cut_and_align", k, *v) for k, v in CUT_ALIGN.items()])


@pytest.mark.parametrize("name,case,corrupt,expect", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_check_catches_corruption(ops, name, case, corrupt, expect):
    wl, seeds, out, _ = ops[name]
    assert wl.verify(copy.deepcopy(out), wl.check_cfg(seeds)) == []
    bad = copy.deepcopy(out)
    corrupt(bad)
    fails = wl.verify(bad, wl.check_cfg(seeds))
    assert any(expect in f for f in fails), fails


# ---------------------------------------------------------------------------
# the command itself
# ---------------------------------------------------------------------------


def _run_tiny(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    run.emit(run.run(name, 3, 1.0, trace, workloads.TINY))
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_command_prints_result_line(monkeypatch, tmp_path, capsys):
    result = _run_tiny("cut_and_align", True, monkeypatch, tmp_path, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["metrics.cut_norm_exact.subsets"]["value"] > 0
    assert (tmp_path / "BENCH_cut_and_align_s3_trace.json").is_file()


@pytest.mark.parametrize("where", ["op", "check", "verdict"])
def test_failing_ops_are_counted(where, monkeypatch, tmp_path, capsys):
    cls = workloads.WORKLOADS["cut_and_align"]

    def boom(*args):
        raise ValueError("broken")

    if where == "op":
        monkeypatch.setattr(cls, "op", boom)
    elif where == "check":
        monkeypatch.setattr(cls, "read_outputs", boom)
    else:
        monkeypatch.setattr(cls, "verify", staticmethod(lambda out, cfg: ["wrong"]))
    result = _run_tiny("cut_and_align", False, monkeypatch, tmp_path, capsys)
    assert not result["correct"]
    assert result["attempted"] >= 2 and result["failed"] == result["attempted"]
    assert "op_s" not in result["metrics"] and "setup_s" in result["metrics"]


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cut_and_align", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
