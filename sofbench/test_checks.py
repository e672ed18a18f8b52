"""Each output check accepts the program's output and rejects a perturbed one.

    python3 -m pytest sofbench/test_checks.py     (or: python3 sofbench/test_checks.py)
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from sofreg.cli import main as sofreg_main  # noqa: E402
from sofreg.dataio import gof_report, slope_report  # noqa: E402
from sofreg.estimators import fit_slope  # noqa: E402
from sofreg.functional import fpc_decompose  # noqa: E402
from sofreg.gof import build_a_matrix, wild_bootstrap_test  # noqa: E402
from sofreg.simulation import DgpConfig, generate_dataset  # noqa: E402
from sofreg.svgplot import curve_plot  # noqa: E402

B = 200


def _sample(n=40, seed=3):
    mar, _, _ = generate_dataset(DgpConfig(beta_id=3, eta=2.0, n=n), seed)
    sample = checks.Sample(mar.x.grid.points, mar.x.values, mar.y, mar.r)
    return mar, sample


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.mar, cls.sample = _sample()
        basis = fpc_decompose(cls.mar.x)
        cls.fits, cls.tests = {}, {}
        for tag in ("S", "SL", "IL", "W"):
            slope = fit_slope(cls.mar, basis, tag, seed=5)
            cls.fits[tag] = json.loads(json.dumps(slope_report(slope, cls.mar)))
            result = wild_bootstrap_test(cls.mar, basis, tag, b=B, seed=5)
            cls.tests[tag] = json.loads(json.dumps(gof_report(result)))

    def test_a_matrix(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(12, 3))
        block[5] = block[2]  # one duplicated point
        block[9] = block[7] = block[8]  # and a triple
        a = build_a_matrix(block).values
        checks.check_a_matrix(a, block)
        bad = a.copy()
        bad[1, 4] += 1e-6 * np.abs(a).max()
        with self.assertRaises(CheckError):
            checks.check_a_matrix(bad, block)

    def test_simplified_fit(self):
        report = self.fits["S"]
        checks.check_simplified_fit(self.sample, report)
        for key in ("coefficients", "curve", "predictions"):
            bad = copy.deepcopy(report)
            bad[key][0] *= 1.0 + 1e-4
            with self.assertRaises(CheckError, msg=key):
                checks.check_simplified_fit(self.sample, bad)
        bad = copy.deepcopy(report)
        bad["intercept"] += 1e-4
        with self.assertRaises(CheckError):
            checks.check_simplified_fit(self.sample, bad)

    def test_lasso_support(self):
        report = self.fits["SL"]
        checks.check_lasso_support(self.sample, report)
        scores = checks.fpc(self.sample.curves[self.sample.obs], self.sample.grid)[0]
        k_eff = min(scores.shape[1], self.sample.n_obs - 1)
        support = report["indices"]
        outside = [j for j in range(1, k_eff + 1) if j not in support]
        perturbed = [sorted(support + outside[:1])] if outside else []
        if len(support) > 1:
            perturbed.append(support[:-1])
        self.assertTrue(perturbed)
        for indices in perturbed:
            bad = dict(report, indices=indices)
            with self.assertRaises(CheckError, msg=str(indices)):
                checks.check_lasso_support(self.sample, bad)

    def test_statistic(self):
        for tag in ("S", "SL", "IL", "W"):
            checks.check_statistic(self.sample, self.fits[tag], self.tests[tag])
            bad = dict(self.tests[tag], statistic=self.tests[tag]["statistic"] * 1.001)
            with self.assertRaises(CheckError, msg=tag):
                checks.check_statistic(self.sample, self.fits[tag], bad)
        bad_fit = copy.deepcopy(self.fits["IL"])
        bad_fit["predictions"][int(self.sample.obs[0])] += 0.01
        with self.assertRaises(CheckError):
            checks.check_statistic(self.sample, bad_fit, self.tests["IL"])

    def test_p_value_recount_and_lattice(self):
        report = self.tests["IL"]
        checks.check_p_value(report)
        p = report["p_value"]
        shifted = p + 1.0 / B if p < 1.0 else p - 1.0 / B
        with self.assertRaises(CheckError):
            checks.check_p_value(dict(report, p_value=shifted))
        with self.assertRaises(CheckError):
            checks.check_lattice(min(p + 0.5 / B, 1.0 - 0.5 / B), B)
        with self.assertRaises(CheckError):
            checks.check_lattice(1.0 + 1.0 / B, B)

    def test_mc_report(self):
        with tempfile.TemporaryDirectory() as out:
            code = sofreg_main(["mc", "--n", "30", "--eta", "1.0", "--m", "2",
                                "--bootstrap", "20", "--estimators", "S", "IL",
                                "--seed", "4", "--threads", "1", "--out", out])
            self.assertEqual(code, 0)
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        self.assertEqual(checks.check_mc_report(report, 2, 20, ["S", "IL"]), 0)
        bad = copy.deepcopy(report)
        bad["cells"][0]["p_values"]["S"][0] = 0.025
        with self.assertRaises(CheckError):
            checks.check_mc_report(bad, 2, 20, ["S", "IL"])
        bad = copy.deepcopy(report)
        bad["cells"][0]["rejection"]["IL"] += 0.5
        with self.assertRaises(CheckError):
            checks.check_mc_report(bad, 2, 20, ["S", "IL"])

    def test_svg(self):
        text = curve_plot(np.linspace(0, 1, 5), {"b": np.arange(5.0)}, "t")
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "plot.svg")
            for content, ok in ((text, True), (text[:-10], False),
                                ("<html></html>", False)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
                if ok:
                    checks.check_svg(path)
                else:
                    with self.assertRaises(CheckError):
                        checks.check_svg(path)


class TracerTest(unittest.TestCase):
    def test_spans_cover_the_wall_time_and_uninstall_restores(self):
        import time

        import sofreg.estimators
        import sofreg.lasso
        from spans import METRICS, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            import sofreg.cli

            with tempfile.TemporaryDirectory() as out:
                t0 = time.perf_counter()
                code = sofreg.cli.main(["mc", "--n", "30", "--eta", "1.0", "--m", "2",
                                        "--bootstrap", "20", "--estimators", "SL", "IL",
                                        "--seed", "4", "--threads", "1", "--out", out])
                wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(sofreg.estimators.lasso_select, sofreg.lasso.lasso_select)
        layers = tracer.metrics(units=2, wall_s=wall)
        self.assertEqual(set(layers), {name for name, _, _ in METRICS})
        # SL fit + test refit, IL fit + test refit with two selections each
        self.assertEqual(layers["lasso.lasso_select.calls"], 6.0)
        with self.assertRaises(AssertionError):
            tracer.metrics(units=2, wall_s=2.0 * wall)

    def test_time_in_no_layer_fails_the_coverage_check(self):
        from spans import Tracer

        tracer = Tracer()
        # 1 s in cli.main: a layer claims 0.95 s of it, then only 0.2 s
        tracer.spans = [["cli.main", 0.0, 1.0, -1], ["lasso.lasso_select", 0.0, 0.95, 0]]
        tracer.metrics(units=1, wall_s=1.0)
        tracer.spans[1][2] = 0.2
        with self.assertRaises(AssertionError):
            tracer.metrics(units=1, wall_s=1.0)


if __name__ == "__main__":
    unittest.main()
