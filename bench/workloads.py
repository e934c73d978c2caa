"""The three benchmark workloads.

A workload has a ``setup`` (fixed inputs, built once per process), an ``op``
(one user-level job, timed on its own) and a ``check`` (untimed; see
checks.py). Ops reach graphon_kit only through module attributes looked up at
call time, so the tracer's wrappers see them.

``SIZES`` holds the full-size parameters; ``TINY`` the sizes the
benchmark's own tests use.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os

import numpy as np

import checks

SIZES = {
    "sparse_pipeline": {"n": 4096, "alpha": 0.5, "tail_n": 4096, "tail_tol": 0.4},
    "planted_search": {"n": 128, "kappa": 0.25, "rho": 0.1, "restarts": 2, "seeds": 2,
                       "cut_n": 48, "cut_kappa": 0.2, "cut_rho": 0.3, "cut_restarts": 1},
    "cut_and_align": {"exact_n": 20, "brute_n": 10, "lower_n": 512, "hat_p_n": 32,
                      "hat_cut_n": 10, "step_n": 512, "step_k": 4, "rho": 0.25},
}
TINY = {
    "sparse_pipeline": {"n": 256, "alpha": 0.5, "tail_n": 4096, "tail_tol": 0.4},
    "planted_search": {"n": 40, "kappa": 0.25, "rho": 0.3, "restarts": 2, "seeds": 2,
                       "cut_n": 24, "cut_kappa": 0.2, "cut_rho": 0.4, "cut_restarts": 1},
    "cut_and_align": {"exact_n": 12, "brute_n": 8, "lower_n": 64, "hat_p_n": 12,
                      "hat_cut_n": 7, "step_n": 128, "step_k": 3, "rho": 0.25},
}

PLANTED_B = [[0.5, 1.5], [1.5, 0.5]]


def gk(layer: str):
    return importlib.import_module(f"graphon_kit.{layer}")


def run_cli(argv: list) -> None:
    """graphon_kit.cli.main in-process; its stderr chatter is kept only for errors."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = gk("cli").main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"graphon-kit {argv[0]} exited {code}: {err.getvalue().strip()}")


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


class Workload:
    def __init__(self, size: dict, tmp: str):
        self.size = size
        self.tmp = tmp

    def check(self, seeds, out) -> list:
        """Read the op's files into ``out``, then run the workload's checks."""
        self.read_outputs(out)
        return self.verify(out, self.check_cfg(seeds))

    def op_dir(self, seed: int) -> str:
        d = os.path.join(self.tmp, f"op{seed}")
        os.makedirs(d, exist_ok=True)
        return d


class SparsePipeline(Workload):
    """CLI sample -> estimate degsort -> distance lp-levy, then the truth
    error of the fit and a power-law degree tail."""

    seeds_per_op = 1
    verify = staticmethod(checks.check_sparse)

    def setup(self) -> None:
        z = self.size
        n = z["n"]
        self.n, self.rho, self.k = n, n ** -0.5, math.ceil(n ** 0.25)
        spec = {"kind": "power_law_sum", "alpha": z["alpha"]}
        self.spec = _write_json(os.path.join(self.tmp, "graphon.json"), spec)
        self.W = gk("graphon").graphon_from_json(spec)
        self.W_tail = gk("graphon").PowerLawProduct(z["alpha"])
        self.cfg = {"n": n, "rho": self.rho, "k": self.k,
                    "kernel": checks.power_law_sum(z["alpha"]),
                    "one_block_err": checks.power_law_sum_l1_to_one(z["alpha"]),
                    "tail_alpha": z["alpha"], "tail_tol": z["tail_tol"]}

    def op(self, seeds) -> dict:
        seed, = seeds
        d = self.op_dir(seed)
        g, lat = os.path.join(d, "g.ssm"), os.path.join(d, "latent.txt")
        model, dist = os.path.join(d, "model.json"), os.path.join(d, "dist.json")
        run_cli(["sample", "--graphon", self.spec, "--n", self.n, "--rho", repr(self.rho),
                 "--seed", seed, "--out", g, "--emit-latent", lat])
        run_cli(["estimate", "--algo", "degsort", "--k", self.k, "--in", g,
                 "--seed", seed, "--out", model])
        run_cli(["distance", "--kind", "lp-levy", "--a", g, "--graphon", self.spec,
                 "--seed", seed, "--out", dist])
        with open(model, encoding="utf-8") as fh:
            doc = json.load(fh)
        p = np.asarray(doc["p"])
        B = checks.upper_to_full(doc["b_upper"], p.size)
        assign = np.asarray(doc["assignment"])
        rho_obs = float(p @ B @ p)      # = edge-sum / n^2 of the fitted graph
        truth_err = gk("experiments").step_matrix_vs_graphon_lp(
            B[np.ix_(assign, assign)] / rho_obs, self.W, 1.0)
        tail_n = self.size["tail_n"]
        tail = gk("sampling").sample_degrees(self.W_tail, tail_n, tail_n ** -0.5, seed)
        return {"dir": d, "model": doc, "truth_err": truth_err, "tail_degrees": tail}

    def check_cfg(self, seeds) -> dict:
        return dict(self.cfg, seed=seeds[0])

    def read_outputs(self, out) -> None:
        d = out["dir"]
        out["ssm"] = checks.parse_ssm(os.path.join(d, "g.ssm"))
        out["latent"] = checks.parse_latent(os.path.join(d, "latent.txt"))
        with open(os.path.join(d, "dist.json"), encoding="utf-8") as fh:
            out["levy"] = json.load(fh)


class PlantedSearch(Workload):
    """CLI experiment (consistency, least squares, planted two-block model),
    then one least_cut_search where single-vertex moves are allowed."""

    verify = staticmethod(checks.check_planted)

    @property
    def seeds_per_op(self) -> int:
        return self.size["seeds"] + 1

    def setup(self) -> None:
        self.graphon_doc = {"kind": "step", "p": [0.5, 0.5],
                            "b_upper": [PLANTED_B[0][0], PLANTED_B[0][1], PLANTED_B[1][1]]}
        self.W = gk("graphon").graphon_from_json(self.graphon_doc)
        self.captured = {}
        # The experiment writes no partition, so the estimator's input graph
        # and returned partition are kept here (one extra call per trial).
        exp = gk("experiments")

        def capture(A, kappa, restarts=50, seed=0):
            res = gk("estimators").least_squares_search(A, kappa, restarts, seed)
            self.captured[int(seed)] = (np.array(A, dtype=float), res.partition.assign.copy())
            return res

        self._restore = (exp, exp.least_squares_search)
        exp.least_squares_search = capture
        self.tally = {"ls_trials": 0, "ls_above_planted": 0}

    def check(self, seeds, out) -> list:
        fails = super().check(seeds, out)
        if not fails:
            self.tally["ls_trials"] += len(out["trials"])
            self.tally["ls_above_planted"] += len(checks.above_planted(out, self.check_cfg(seeds)))
        return fails

    def layer_metrics(self) -> dict:
        trials = self.tally["ls_trials"]
        return {"estimators.least_squares_search.above_planted_pct":
                100.0 * self.tally["ls_above_planted"] / trials if trials else 0.0}

    def close(self) -> None:
        mod, fn = self._restore
        mod.least_squares_search = fn

    def op(self, seeds) -> dict:
        z = self.size
        *exp_seeds, cut_seed = seeds
        d = self.op_dir(cut_seed)
        config = {"kind": "consistency", "graphon": self.graphon_doc, "ns": [z["n"]],
                  "density": {"kind": "constant", "c": z["rho"]}, "seeds": exp_seeds,
                  "algorithm": "least_squares", "kappa": z["kappa"],
                  "restarts": z["restarts"], "p": 1.0}
        cfg = _write_json(os.path.join(d, "config.json"), config)
        self.captured.clear()
        run_cli(["experiment", "--config", cfg, "--out", os.path.join(d, "out")])
        trials = dict(self.captured)
        sample = gk("sampling").generate_sample(self.W, z["cut_n"], z["cut_rho"], cut_seed,
                                                with_q=False)
        a = gk("sampling").as_matrix(sample.G)
        res = gk("estimators").least_cut_search(a, z["cut_kappa"], z["cut_restarts"], cut_seed)
        return {"dir": d, "trials": trials,
                "cut": (a, res.partition.assign.copy(), float(res.objective))}

    def check_cfg(self, seeds) -> dict:
        z = self.size
        return {"n": z["n"], "kappa": z["kappa"], "rho": z["rho"], "seeds": seeds[:-1],
                "kernel": checks.two_block(PLANTED_B), "cut_kappa": z["cut_kappa"]}

    def read_outputs(self, out) -> None:
        with open(os.path.join(out["dir"], "out", "trials.csv"), encoding="utf-8") as fh:
            rows = {int(r["seed"]): r for r in csv.DictReader(fh)}
        out["trials"] = {s: (rows.get(s, {"objective": "nan"}), g, a)
                         for s, (g, a) in out["trials"].items()}


class CutAndAlign(Workload):
    """The metrics layer alone: cut norms of A - Q residuals, relabeling
    distances and a coupling distance between sampled graphs, Levy-Prokhorov."""

    seeds_per_op = 7
    verify = staticmethod(checks.check_cut_align)

    def setup(self) -> None:
        self.W = gk("graphon").named_graphon("quadratic_xy")

    def _sample(self, n: int, seed: int, with_q: bool = False):
        s = gk("sampling").generate_sample(self.W, n, self.size["rho"], seed, with_q=with_q)
        a = gk("sampling").as_matrix(s.G)
        return a - gk("sampling").as_matrix(s.Q) if with_q else a

    def op(self, s) -> dict:
        z = self.size
        met, est = gk("metrics"), gk("estimators")
        D = self._sample(z["exact_n"], s[0], with_q=True)
        exact = met.cut_norm_exact(D)
        lower = met.cut_norm_lower(D, seed=s[0])
        Ds = self._sample(z["brute_n"], s[1], with_q=True)
        Dl = self._sample(z["lower_n"], s[2], with_q=True)
        a, b = self._sample(z["hat_p_n"], s[3]), self._sample(z["hat_p_n"], s[4])
        hat_p = met.hat_delta_p(a, b, 2.0, mode="heuristic", seed=s[3])
        ac, bc = self._sample(z["hat_cut_n"], s[4]), self._sample(z["hat_cut_n"], s[3])
        hat_cut = met.hat_delta_cut(ac, bc, mode="heuristic", seed=s[4])
        g1, g2 = self._sample(z["step_n"], s[5]), self._sample(z["step_n"], s[6])
        m1 = est.degree_sorting(g1, z["step_k"]).normalized
        m2 = est.degree_sorting(g2, z["step_k"]).normalized
        val, coupling = met.delta_p_step(m1, m2, 2.0, seed=s[5])
        c1, c2 = met.degree_cdf_of_matrix(g1), met.degree_cdf_of_matrix(g2)
        levy = (met.levy_prokhorov(c1, c2), met.levy_prokhorov(c2, c1),
                met.levy_prokhorov(c1, c1))
        return {"exact": (D, exact, lower), "exact_small": (Ds, met.cut_norm_exact(Ds)[0]),
                "lower": (Dl, met.cut_norm_lower(Dl, seed=s[2])),
                "hat_p": (a, b, 2.0, hat_p), "hat_cut": (ac, bc, hat_cut),
                "step": ((m1.p, m1.B), (m2.p, m2.B), 2.0, (val, coupling.nu)),
                "levy": levy}

    def check_cfg(self, seeds) -> dict:
        return {}

    def read_outputs(self, out) -> None:
        pass


WORKLOADS = {"sparse_pipeline": SparsePipeline, "planted_search": PlantedSearch,
             "cut_and_align": CutAndAlign}
