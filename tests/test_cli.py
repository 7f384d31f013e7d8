import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import cevpolar as cp
from cevpolar.cli import parse_grid, run


@pytest.fixture()
def model_config(tmp_path):
    cfg = {
        "radial": {"kind": "rayleigh"},
        "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
        "angular": {"kind": "uniform"},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def mixture_config(tmp_path):
    cfg = {"mixture": {"p": 0.4, "rho": 0.8, "tau_mix": -0.4}}
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    header = None
    rows = []
    meta = {}
    for line in open(path):
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestGridParsing:
    def test_integer_index_generation(self):
        grid = parse_grid("-5:5:0.1")
        assert len(grid) == 101
        assert grid[0] == -5.0
        assert grid[-1] == pytest.approx(5.0, abs=1e-12)

    def test_bad_grids(self):
        for bad in ("1:2", "a:b:c", "1:2:-0.5", "3:1:0.5",
                    "3:inf:1", "nan:5:1", "0:1e300:1e-300", "0:1e12:1"):
            with pytest.raises(cp.ConfigError):
                parse_grid(bad)


class TestLimitCommand:
    def test_cdf_matches_gaussian(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run(["limit", "--eta", "2", "--zeta", "1",
                    "--grid", "-5:5:0.1", "-o", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["y", "cdf", "pdf"]
        assert "config_sha256" in meta
        ys = np.array([float(r[0]) for r in rows])
        cdf = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(cdf - norm.cdf(ys))) <= 1e-10

    def test_json_format(self, tmp_path):
        out = tmp_path / "h.json"
        code = run(["limit", "--eta", "3", "--zeta", "1",
                    "--grid", "0:1:0.5", "-o", str(out), "--format", "json"])
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"meta", "y", "cdf", "pdf"}
        assert len(data["y"]) == 3


class TestSimulateCommand:
    def test_rerun_is_bitwise_identical(self, model_config, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "-c", str(model_config), "--n", "500", "--seed", "7"]
        assert run(args + ["-o", str(out_a)]) == 0
        assert run(args + ["-o", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_seed_names_flag(self, model_config, tmp_path, capsys):
        code = run(["simulate", "-c", str(model_config), "--n", "10",
                    "-o", str(tmp_path / "x.csv")])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_conditional_has_weights_and_metadata(self, model_config, tmp_path):
        out = tmp_path / "cond.csv"
        code = run(["simulate", "-c", str(model_config), "--n", "2000",
                    "--seed", "3", "--threshold", "4.0", "-o", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["x", "y", "weight"]
        assert "effective_size" in meta
        assert all(float(r[0]) > 4.0 for r in rows)

    def test_degenerate_threshold_exit_two(self, model_config, tmp_path, capsys):
        code = run(["simulate", "-c", str(model_config), "--n", "100",
                    "--seed", "3", "--threshold", "80.0", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "degenerate_weights"

    def test_mixture_simulation(self, mixture_config, tmp_path):
        out = tmp_path / "mix.csv"
        code = run(["simulate", "-c", str(mixture_config), "--n", "50000",
                    "--seed", "5", "-o", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        xy = np.array([[float(a), float(b)] for a, b in rows])
        # mixture correlation p*rho + (1-p)*tau = 0.08
        assert np.corrcoef(xy[:, 0], xy[:, 1])[0, 1] == pytest.approx(0.08, abs=0.02)

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"radial": {"kind": "rayleigh"},
                                   "curve": {"kind": "elliptical", "params": {"rho": 0}},
                                   "angular": {"kind": "uniform"},
                                   "extra": 1}))
        code = run(["simulate", "-c", str(cfg), "--n", "10", "--seed", "1",
                    "-o", str(tmp_path / "x.csv")])
        assert code == 1
        assert "extra" in capsys.readouterr().err

    def test_bad_json_exit_one(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run(["simulate", "-c", str(cfg), "--n", "10", "--seed", "1",
                    "-o", str(tmp_path / "x.csv")]) == 1

    def test_unknown_flag_exit_one(self, model_config, tmp_path):
        assert run(["simulate", "-c", str(model_config), "--n", "10", "--seed", "1",
                    "--frobnicate", "-o", str(tmp_path / "x.csv")]) == 1


class TestAnalysisCommands:
    def test_verify_json_fields(self, model_config, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "-c", str(model_config), "--levels", "0.99,0.999",
                    "--n", "2000", "--seed", "11", "-o", str(out), "--format", "json"])
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"meta", "thresholds", "ks", "eff_size", "oracle_dist", "pass"}
        assert len(data["thresholds"]) == 2

    def test_tail_ratio_column(self, model_config, tmp_path):
        out = tmp_path / "tail.csv"
        code = run(["tail", "-c", str(model_config), "--x-grid", "5:8:3", "-o", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["x", "asymptotic", "oracle", "ratio"]
        ratios = [float(r[3]) for r in rows]
        assert 0.9 < ratios[0] < 1.1

    def test_independence_command(self, model_config, tmp_path):
        out = tmp_path / "indep.json"
        code = run(["independence", "-c", str(model_config), "--t-grid", "2:4:1",
                    "-o", str(out), "--format", "json"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["thresholds"] == [100.0, 1000.0, 10000.0]
        assert all(b > a for a, b in zip(data["ratios"], data["ratios"][1:]))

    def test_independence_solves_each_level_once(self, model_config, tmp_path, monkeypatch):
        import cevpolar.diagnostics as diag

        calls = {"x": 0, "y": 0}

        def counted(axis, solve):
            def wrapper(*args, **kwargs):
                calls[axis] += 1
                return solve(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(diag, "solve_b_x", counted("x", diag.solve_b_x))
        monkeypatch.setattr(diag, "solve_b_y", counted("y", diag.solve_b_y))
        code = run(["independence", "-c", str(model_config), "--t-grid", "2:3:1",
                    "-o", str(tmp_path / "indep.csv")])
        assert code == 0
        assert calls == {"x": 2, "y": 2}

    def test_second_order_command(self, model_config, tmp_path):
        out = tmp_path / "so.csv"
        code = run(["second-order", "-c", str(model_config), "--x-grid", "8:8:1",
                    "--z-grid", "-1:1:1", "-o", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["x", "z", "first_order", "corrected", "oracle"]
        for r in rows:
            assert abs(float(r[3]) - float(r[4])) < abs(float(r[2]) - float(r[4]))

    def test_decompose_command(self, tmp_path):
        cfg = tmp_path / "dec.json"
        cfg.write_text(json.dumps({"curve": {"kind": "elliptical", "params": {"rho": 0.0}},
                                   "profile": "gaussian"}))
        out = tmp_path / "dec.csv"
        code = run(["decompose", "-c", str(cfg), "-o", str(out), "--points", "51"])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["component", "grid", "value"]
        ang = [float(r[2]) for r in rows if r[0] == "angular"]
        assert max(abs(a - 1.0) for a in ang) < 1e-6

    def test_second_order_unsupported_model_exit_one(self, tmp_path):
        cfg = tmp_path / "lp.json"
        cfg.write_text(json.dumps({"radial": {"kind": "weibull", "params": {"shape": 1.0}},
                                   "curve": {"kind": "lp", "params": {"p": 3.0, "rho": 0.0}},
                                   "angular": {"kind": "uniform"}}))
        code = run(["second-order", "-c", str(cfg), "--x-grid", "8:8:1",
                    "--z-grid", "0:0:1", "-o", str(tmp_path / "x.csv")])
        assert code == 1


_ELL = {"radial": {"kind": "rayleigh"},
        "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
        "angular": {"kind": "uniform"}}
_VM_GRID = {"x": [0.0, 1.0, 2.0], "J": [0.0, 1.0, 2.0], "Jp": [1.0, 1.0, 1.0]}
_NUM_GRID = {"x": [0.0, 1.0, 2.0], "log_survival": [0.0, -1.0, -2.0]}
_TAB_GRID = {"t": [0.0, 0.5, 1.0], "cdf": [0.0, 0.5, 1.0]}
_SIMULATE = ("simulate", "-c", "{config}", "--n", "10", "--seed", "1")
_DECOMPOSE = ("decompose", "-c", "{config}", "--points", "3")
_TAIL = ("tail", "-c", "{config}", "--x-grid", "0.5:2:0.5")


#: name -> (config written to "{config}", argv); each must exit 1 with one error line
BAD_INPUTS = {
    "curve-param-not-a-number": (
        {**_ELL, "curve": {"kind": "elliptical", "params": {"rho": "a"}}}, _SIMULATE),
    "lp-param-not-a-number": (
        {**_ELL, "curve": {"kind": "lp", "params": {"p": "x"}}}, _SIMULATE),
    "param-numeric-string": (
        {**_ELL, "curve": {"kind": "elliptical", "params": {"rho": "0.5"}}}, _SIMULATE),
    "param-bool": ({**_ELL, "radial": {"kind": "exponential", "params": {"rate": True}}},
                   _SIMULATE),
    "param-nan": ({**_ELL, "curve": {"kind": "power", "params": {
        "t0": 0.5, "kappa": 2.0, "delta": 1.0, "c_minus": 0.4, "c_plus": 0.6,
        "lambda_v": math.nan, "rho": 0.3}}}, _SIMULATE),
    "uniform-unknown-key": ({**_ELL, "angular": {"kind": "uniform", "mode": 1}}, _SIMULATE),
    "tabulated-unknown-key": ({**_ELL, "angular": {
        "kind": "tabulated", "params": {"t0": 0.5}, "grid": _TAB_GRID, "mode": 1}}, _SIMULATE),
    "von-mises-unknown-key": ({**_ELL, "radial": {
        "kind": "von_mises", "grid": _VM_GRID, "mode": 1}}, _SIMULATE),
    "numeric-unknown-key": ({**_ELL, "radial": {
        "kind": "numeric", "params": {}, "grid": _NUM_GRID, "mode": 1}}, _SIMULATE),
    "von-mises-unknown-param": ({**_ELL, "radial": {
        "kind": "von_mises", "params": {"shift": 2.0}, "grid": _VM_GRID}}, _SIMULATE),
    "von-mises-flat-tail": ({**_ELL, "radial": {
        "kind": "von_mises", "grid": {**_VM_GRID, "Jp": [1.0, 1.0, 0.0]}}}, _SIMULATE),
    "von-mises-grid-past-zero": ({**_ELL, "radial": {
        "kind": "von_mises", "grid": {**_VM_GRID, "x": [1.0, 2.0, 3.0]}}}, _TAIL),
    "numeric-grid-past-zero": ({**_ELL, "radial": {
        "kind": "numeric", "params": {},
        "grid": {"x": [1.0, 2.0, 3.0], "log_survival": [-1.0, -2.0, -3.0]}}}, _TAIL),
    "tabulated-grid-short-of-one": ({**_ELL, "angular": {
        "kind": "tabulated", "params": {"t0": 0.5},
        "grid": {**_TAB_GRID, "t": [0.0, 0.5, 0.9]}}}, _SIMULATE),
    "mixture-param-string": ({"mixture": {"p": 0.4, "rho": "0.8", "tau_mix": -0.4}},
                             _SIMULATE),
    # each config reader (curve, angular, radial, model, mixture, decompose) fed a
    # value that is not a mapping, an unknown key, a missing key and a non-number
    # param, where no case above does so
    "curve-not-a-mapping": ({**_ELL, "curve": "elliptical"}, _SIMULATE),
    "curve-unknown-key": ({**_ELL, "curve": {**_ELL["curve"], "mode": 1}}, _SIMULATE),
    "curve-without-kind": ({**_ELL, "curve": {"params": {"rho": 0.6}}}, _SIMULATE),
    "curve-missing-param": ({**_ELL, "curve": {"kind": "lp", "params": {"rho": 0.0}}},
                            _SIMULATE),
    "angular-not-a-mapping": ({**_ELL, "angular": ["uniform"]}, _SIMULATE),
    "tabulated-without-grid": ({**_ELL, "angular": {"kind": "tabulated", "params": {"t0": 0.5}}},
                               _SIMULATE),
    "angular-param-not-a-number": ({**_ELL, "angular": {
        "kind": "power", "params": {"t0": 0.5, "tau": None}}}, _SIMULATE),
    "radial-not-a-mapping": ({**_ELL, "radial": 1.0}, _SIMULATE),
    "kind-not-a-string": ({**_ELL, "radial": {"kind": ["rayleigh"]}}, _SIMULATE),
    "von-mises-without-grid": ({**_ELL, "radial": {"kind": "von_mises"}}, _SIMULATE),
    "numeric-grid-unknown-key": ({**_ELL, "radial": {
        "kind": "numeric", "params": {}, "grid": {**_NUM_GRID, "density": [1.0, 1.0, 1.0]}}},
        _SIMULATE),
    "config-not-an-object": ([_ELL], _SIMULATE),
    "model-unknown-key": ({**_ELL, "copula": "gumbel"}, _SIMULATE),
    "model-missing-key": ({"radial": _ELL["radial"], "curve": _ELL["curve"]}, _SIMULATE),
    "mixture-not-an-object": ({"mixture": [0.4, 0.8, -0.4]}, _SIMULATE),
    "mixture-unknown-key": ({"mixture": {"p": 0.4, "rho": 0.8, "tau_mix": -0.4, "nu": 3}},
                            _SIMULATE),
    "mixture-beside-a-model": ({**_ELL, "mixture": {"p": 0.4, "rho": 0.8, "tau_mix": -0.4}},
                               _SIMULATE),
    "decompose-unknown-key": ({"curve": _ELL["curve"], "radial": {"kind": "rayleigh"}},
                              _DECOMPOSE),
    "decompose-without-curve": ({"profile": "gaussian"}, _DECOMPOSE),
    "decompose-unknown-profile": ({"curve": _ELL["curve"], "profile": "laplace"}, _DECOMPOSE),
    "decompose-curve-param-not-a-number": ({"curve": {"kind": "elliptical",
                                                      "params": {"rho": [0.3]}}}, _DECOMPOSE),
    "mixture-cone-not-numbers": (
        {"mixture": {"p": 0.4, "rho": 0.8, "tau_mix": -0.4, "cone": ["a", 1.0]}}, _SIMULATE),
    "negative-seed-flag": (_ELL, ("simulate", "-c", "{config}", "--n", "10",
                                  "--seed", "-1")),
    "negative-config-seed": ({**_ELL, "seed": -3},
                             ("simulate", "-c", "{config}", "--n", "10")),
    "bool-config-seed": ({**_ELL, "seed": True}, ("simulate", "-c", "{config}", "--n", "10")),
    "ridge-weight-not-bool": (
        {"curve": {"kind": "elliptical", "params": {"rho": 0.0}}, "ridge_weight": "no"},
        _DECOMPOSE),
    "independence-nan-y": (_ELL, ("independence", "-c", "{config}", "--t-grid", "2:2:1",
                                  "--y", "nan", "--format", "json")),
    "independence-overflowing-grid": (_ELL, ("independence", "-c", "{config}",
                                             "--t-grid", "400:401:1")),
    "independence-underflowing-product": (_ELL, ("independence", "-c", "{config}",
                                                 "--t-grid", "300:301:1")),
    "independence-underflowing-last-product": (_ELL, ("independence", "-c", "{config}",
                                                      "--t-grid", "2:300:298")),
    "limit-nan-weight": (None, ("limit", "--eta", "2", "--zeta", "1", "--grid", "0:1:1",
                                "--weight-minus", "nan")),
    "simulate-nan-threshold": (_ELL, _SIMULATE + ("--threshold", "nan")),
    "simulate-inf-threshold": (_ELL, _SIMULATE + ("--threshold", "inf")),
    "numeric-flat-tail": ({**_ELL, "radial": {
        "kind": "numeric", "grid": {**_NUM_GRID, "log_survival": [0.0, -1.0, -1.0]}}}, _TAIL),
    # a builder's arithmetic error: speed ** p overflows, the power normalizer underflows
    "lp-p-overflows": ({**_ELL, "curve": {"kind": "lp", "params": {"p": 1e308}}}, _SIMULATE),
    "power-tau-underflows": ({**_ELL, "angular": {
        "kind": "power", "params": {"t0": 0.5, "tau": 1e300}}}, _SIMULATE),
    # counts no array can hold
    "simulate-n-past-arrays": (_ELL, ("simulate", "-c", "{config}", "--n", str(10 ** 20),
                                      "--seed", "1")),
    "simulate-conditional-n-past-arrays": (_ELL, ("simulate", "-c", "{config}", "--n",
                                                  str(10 ** 20), "--seed", "1",
                                                  "--threshold", "3")),
    "verify-n-past-arrays": (_ELL, ("verify", "-c", "{config}", "--levels", "0.99",
                                    "--n", str(10 ** 20), "--seed", "1")),
    "decompose-points-past-arrays": ({"curve": _ELL["curve"]},
                                     ("decompose", "-c", "{config}", "--points", str(10 ** 20))),
    "simulate-negative-n": (_ELL, ("simulate", "-c", "{config}", "--n", "-1", "--seed", "1")),
    # a sweep and a decomposition need at least one draw and one point
    "verify-zero-n": (_ELL, ("verify", "-c", "{config}", "--levels", "0.99", "--n", "0",
                             "--seed", "1")),
    "decompose-zero-points": ({"curve": _ELL["curve"]},
                              ("decompose", "-c", "{config}", "--points", "0")),
}


class TestBadInputExitsOne:
    """Malformed input ends in exit code 1 and one ``error:`` line, never a traceback."""

    def _expect_one_error_line(self, code, capsys):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_input_table(self, name, tmp_path, capsys):
        config, argv = BAD_INPUTS[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [arg.format(config=path) for arg in argv]
        self._expect_one_error_line(run(argv + ["-o", str(tmp_path / "out")]), capsys)

    @pytest.mark.parametrize("name, line", [
        ("lp-p-overflows",
         "error: bad parameters for curve 'lp': OverflowError: Numerical result out of range"),
        ("power-tau-underflows",
         "error: bad parameters for angular 'power': ZeroDivisionError: float division by zero"),
    ])
    def test_builder_arithmetic_error_is_named(self, name, line, tmp_path, capsys):
        # the exception's type and text, not the errno tuple an overflow carries
        config, argv = BAD_INPUTS[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        run([arg.format(config=path) for arg in argv] + ["-o", str(tmp_path / "out")])
        assert capsys.readouterr().err == line + "\n"

    def test_config_rules_are_stated_only_in_numerics(self):
        """Only the reader in numerics.py rejects unknown or missing keys and
        maps a builder's TypeError or ArithmeticError."""
        import inspect
        import re
        from pathlib import Path

        from cevpolar import numerics

        rule = re.compile(r"except TypeError\b|except \(TypeError, ArithmeticError\)"
                          r"|unknown .*keys|lacks the keys|set\(\w+\) -")
        hits = [(path.name, line) for path in sorted(Path(cp.__file__).parent.glob("*.py"))
                for line in path.read_text().splitlines() if rule.search(line)]
        inside = inspect.getsource(numerics._read_keys) + inspect.getsource(numerics._read_spec)
        assert hits
        assert all(name == "numerics.py" and line in inside for name, line in hits), hits

    def test_mixture_without_weight(self, tmp_path, capsys):
        cfg = tmp_path / "mix.json"
        cfg.write_text(json.dumps({"mixture": {"rho": 0.8, "tau_mix": -0.4}}))
        code = run(["simulate", "-c", str(cfg), "--n", "10", "--seed", "1",
                    "-o", str(tmp_path / "x.csv")])
        self._expect_one_error_line(code, capsys)

    def test_curve_params_not_a_mapping(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"radial": {"kind": "rayleigh"},
                                   "curve": {"kind": "elliptical", "params": 5},
                                   "angular": {"kind": "uniform"}}))
        code = run(["simulate", "-c", str(cfg), "--n", "10", "--seed", "1",
                    "-o", str(tmp_path / "x.csv")])
        self._expect_one_error_line(code, capsys)

    def test_unwritable_output_path(self, model_config, tmp_path, capsys):
        code = run(["simulate", "-c", str(model_config), "--n", "10", "--seed", "1",
                    "-o", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
        self._expect_one_error_line(code, capsys)

    def _tail_with_radial(self, tmp_path, radial):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"radial": radial,
                                   "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
                                   "angular": {"kind": "uniform"}}))
        return run(["tail", "-c", str(cfg), "--x-grid", "1:1:1",
                    "-o", str(tmp_path / "tail.csv")])

    def test_numeric_grid_with_nan(self, tmp_path, capsys):
        radial = {"kind": "numeric", "params": {},
                  "grid": {"x": [0.0, 1.0, 2.0], "log_survival": [0.0, math.nan, -2.0]}}
        self._expect_one_error_line(self._tail_with_radial(tmp_path, radial), capsys)

    @pytest.mark.parametrize("params", [{"x0": 0.0}, {"scale": 1.0}, {"x0": 0.0, "scale": 1.0}],
                             ids=["x0", "scale", "both"])
    def test_von_mises_takes_no_params(self, tmp_path, capsys, params):
        # the start point and constant of a von Mises tail only shift J: a spec
        # carrying them is rejected, and one with no params or empty ones runs
        radial = {"kind": "von_mises", "params": params, "grid": _VM_GRID}
        self._expect_one_error_line(self._tail_with_radial(tmp_path, radial), capsys)
        for spec in ({"kind": "von_mises", "grid": _VM_GRID},
                     {"kind": "von_mises", "params": {}, "grid": _VM_GRID}):
            assert self._tail_with_radial(tmp_path, spec) == 0

    def test_out_of_memory_is_one_error_line(self, model_config, tmp_path, capsys, monkeypatch):
        # a count an array can hold may still not fit in memory
        import cevpolar.cli

        def no_memory(*args):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(cevpolar.cli, "sample_joint", no_memory)
        code = run(["simulate", "-c", str(model_config), "--n", "10000000000000", "--seed", "1",
                    "-o", str(tmp_path / "x.csv")])
        self._expect_one_error_line(code, capsys)

    def test_counts_share_one_rule(self):
        from cevpolar import cli

        # --n of simulate and verify and --points of decompose: one argparse type, which
        # alone states each command's least count (an empty sample only for simulate)
        commands = cli._build_parser()._subparsers._group_actions[0].choices
        types = {name: action.type for name, parser in commands.items()
                 for action in parser._actions if action.dest in ("n", "points")}
        assert {t.__code__ for t in types.values()} == {cli._count(0).__code__}
        least = {}
        for name, count in types.items():
            try:
                least[name] = count("0")
            except argparse.ArgumentTypeError:
                least[name] = count("1")
        assert least == {"simulate": 0, "verify": 1, "decompose": 1}

    def test_decompose_nonpositive_points(self, tmp_path, capsys):
        cfg = tmp_path / "dec.json"
        cfg.write_text(json.dumps({"curve": {"kind": "elliptical", "params": {"rho": 0.0}}}))
        code = run(["decompose", "-c", str(cfg), "-o", str(tmp_path / "dec.csv"),
                    "--points", "-1"])
        self._expect_one_error_line(code, capsys)


class _NanBeyondSix(cp.Rayleigh):
    """Rayleigh law whose log survival kernel turns NaN past radius 6."""

    def _log_survival(self, x):
        return np.where(x > 6.0, np.nan, -0.5 * x * x)


def test_non_finite_oracle_exits_two(model_config, tmp_path, capsys, monkeypatch):
    import cevpolar.radial

    monkeypatch.setitem(cevpolar.radial._CATALOG, "rayleigh", lambda params: _NanBeyondSix())
    code = run(["tail", "-c", str(model_config), "--x-grid", "3:3:1",
                "-o", str(tmp_path / "tail.csv")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "quadrature"
    assert not math.isfinite(payload["achieved_tolerance"])


@pytest.mark.parametrize("cls", [cp.NumericError, cp.QuadratureError, cp.DegenerateWeightsError])
def test_every_numeric_failure_reports_by_one_rule(cls, model_config, tmp_path, capsys,
                                                   monkeypatch):
    # the stderr report is the error's kind, its message, then its details, in order
    assert cls.payload is cp.NumericError.payload
    details = {"value": 1.5, "threshold": 3.0}
    assert list(cls("went wrong", details).payload().items()) == [
        ("error", cls.kind), ("message", "went wrong"), *details.items()]

    def fail(*args, **kwargs):
        raise cls("went wrong")

    monkeypatch.setattr(cp.cli, "survival_x_oracle", fail)
    code = run(["tail", "-c", str(model_config), "--x-grid", "3:3:1",
                "-o", str(tmp_path / "tail.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {"error": cls.kind, "message": "went wrong"}


def test_unconverged_brent_exits_two(model_config, tmp_path, capsys, monkeypatch):
    # Brent's method out of steps (here in the curve's zero scans) is a numeric failure:
    # one payload line naming its bracket, no traceback
    monkeypatch.setattr(cp.numerics, "_BRENT_STEPS", 2)
    code = run(["independence", "-c", str(model_config), "--t-grid", "2:6:1",
                "-o", str(tmp_path / "indep.csv")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "numeric" and payload["steps"] == 2
    assert len(payload["bracket"]) == 2


def _artifact(tmp_path, config, argv, out="out.csv", fmt="csv"):
    """(metadata, data rows) of one run on ``config`` written to "{config}"."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / out
    argv = [arg.format(config=path) for arg in argv]
    assert run(argv + ["-o", str(out), "--format", fmt]) == 0
    if fmt == "json":
        data = json.loads(out.read_text())
        return data.pop("meta"), data
    meta, _, rows = read_csv(out)
    return meta, rows


def _reseeded(argv, seed):
    """``argv`` with its --seed value set to ``seed``, or without --seed for None."""
    at = argv.index("--seed")
    return [*argv[:at], *(() if seed is None else ("--seed", seed)), *argv[at + 2:]]


_DEC = {"curve": {"kind": "elliptical", "params": {"rho": 0.3}}, "ridge_weight": True}

#: command -> (config, argv, the same with one hashed input changed)
HASH_CASES = {
    "limit": (None, ("limit", "--eta", "2", "--zeta", "1", "--grid", "0:1:1"),
              (None, ("limit", "--eta", "2", "--zeta", "1.5", "--grid", "0:1:1"))),
    "simulate": (_ELL, _SIMULATE, (_ELL, _SIMULATE + ("--threshold", "2.0"))),
    "verify": (_ELL, ("verify", "-c", "{config}", "--levels", "0.9", "--n", "200",
                      "--seed", "1"),
               (_ELL, ("verify", "-c", "{config}", "--levels", "0.9", "--n", "300",
                       "--seed", "1"))),
    "tail": (_ELL, ("tail", "-c", "{config}", "--x-grid", "2:2:1"),
             (_ELL, ("tail", "-c", "{config}", "--x-grid", "3:3:1"))),
    "independence": (_ELL, ("independence", "-c", "{config}", "--t-grid", "2:2:1"),
                     (_ELL, ("independence", "-c", "{config}", "--t-grid", "2:2:1",
                             "--x-std", "0.5"))),
    "second-order": (_ELL, ("second-order", "-c", "{config}", "--x-grid", "6:6:1",
                            "--z-grid", "0:0:1"),
                     (_ELL, ("second-order", "-c", "{config}", "--x-grid", "6:6:1",
                             "--z-grid", "1:1:1"))),
    "decompose": (_DEC, ("decompose", "-c", "{config}", "--points", "3"),
                  ({**_DEC, "ridge_weight": False},
                   ("decompose", "-c", "{config}", "--points", "3"))),
}


class TestDispatch:
    """What ``run`` does for every command: resolve the seed, hash, emit."""

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_config_seed_stands_for_the_flag(self, command, tmp_path):
        _, argv, _ = HASH_CASES[command]
        meta, rows = _artifact(tmp_path, {**_ELL, "seed": 7}, _reseeded(argv, None))
        assert meta["seed"] == "7"
        assert rows == _artifact(tmp_path, _ELL, _reseeded(argv, "7"))[1]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_seed_flag_overrides_config_seed(self, command, tmp_path):
        _, argv, _ = HASH_CASES[command]
        argv = _reseeded(argv, "3")
        meta, rows = _artifact(tmp_path, {**_ELL, "seed": 7}, argv)
        assert meta["seed"] == "3"
        assert rows == _artifact(tmp_path, _ELL, argv)[1]

    @pytest.mark.parametrize("command", sorted(HASH_CASES))
    def test_hash_covers_config_and_flags_only(self, command, tmp_path):
        config, argv, (changed_config, changed_argv) = HASH_CASES[command]
        sha = _artifact(tmp_path, config, argv)[0]["config_sha256"]
        assert _artifact(tmp_path, changed_config, changed_argv)[0]["config_sha256"] != sha
        assert _artifact(tmp_path, config, argv, out="other.csv")[0]["config_sha256"] == sha
        assert _artifact(tmp_path, config, argv, fmt="json")[0]["config_sha256"] == sha
        if "--seed" in argv:
            meta = _artifact(tmp_path, config, _reseeded(argv, "2"))[0]
            assert meta["config_sha256"] == sha and meta["seed"] == "2"

    def test_verify_hashes_levels_as_numbers(self, tmp_path):
        _, argv, _ = HASH_CASES["verify"]
        sha = _artifact(tmp_path, _ELL, argv)[0]["config_sha256"]
        spelled = [arg.replace("0.9", "0.90") for arg in argv]
        assert _artifact(tmp_path, _ELL, spelled)[0]["config_sha256"] == sha

    def test_decompose_points_are_hashed(self, tmp_path):
        argv = ["decompose", "-c", "{config}", "--points"]
        sha = _artifact(tmp_path, _DEC, argv + ["3"])[0]["config_sha256"]
        meta, rows = _artifact(tmp_path, _DEC, argv + ["4"])
        assert meta["config_sha256"] != sha and len(rows) == 8

    def test_commands_only_compute(self):
        """No command loads, seeds, hashes or emits, and the module takes each
        of those steps in one place."""
        import inspect

        import cevpolar.cli as cli

        steps = {"_emit", "_metadata", "_load_config", "_split_config", "_require_seed"}
        functions = {name: fn for name, fn in vars(cli).items()
                     if inspect.isfunction(fn) and fn.__module__ == cli.__name__}
        commands = {name: fn for name, fn in functions.items() if name.startswith("_cmd_")}
        assert len(commands) == 7
        for name, fn in commands.items():
            assert not steps & set(fn.__code__.co_names), name
        for step in steps:
            callers = [name for name, fn in functions.items() if step in fn.__code__.co_names]
            assert len(callers) == 1, (step, callers)


def test_benchmark_self_test_passes():
    # the harness wraps the public functions and the law methods from outside the
    # package, and its self-test fails on a traced method that moved or a function
    # the tracer cannot wrap
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test passed"


#: the scipy modules a command loads where it uses them: special with the asymptotics,
#: a mixture or a limit law's quantile, integrate only where a law built from a density
#: has a panel that needs QAGS's bisection; no path loads scipy.optimize or
#: scipy.interpolate (the tables are the package's own Hermite splines), a limit law's
#: cdf is the package's own incomplete gamma function, and start-up loads none of them
_DEFERRED_SCIPY = ("scipy.special", "scipy.integrate")


def _deferred_imports(code):
    """The modules among scipy itself, scipy.optimize, scipy.interpolate and
    ``_DEFERRED_SCIPY`` that a fresh interpreter holds after running ``code``."""
    src = str(Path(cp.__file__).resolve().parents[1])
    watched = ("scipy", "scipy.optimize", "scipy.interpolate", *_DEFERRED_SCIPY)
    script = f"{code}\nimport sys\nprint(*[m for m in {watched!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _run_in_fresh_interpreter(argv):
    return f"from cevpolar.cli import run\nassert run({argv!r}) == 0"


def test_start_up_imports_no_deferred_scipy_module():
    # numpy only: Brent's method is the package's own, and each scipy module is
    # imported where it serves its one narrow path
    assert _deferred_imports("import cevpolar.cli") == []


def test_parametric_simulate_neither_integrates_nor_interpolates(model_config, tmp_path):
    argv = ["simulate", "-c", str(model_config), "--n", "200", "--seed", "3",
            "--threshold", "3.0", "-o", str(tmp_path / "cond.csv")]
    assert _deferred_imports(_run_in_fresh_interpreter(argv)) == []


def test_parametric_independence_loads_no_scipy_module(model_config, tmp_path):
    argv = ["independence", "-c", str(model_config), "--t-grid", "2:6:1",
            "-o", str(tmp_path / "indep.csv")]
    assert _deferred_imports(_run_in_fresh_interpreter(argv)) == []


def test_verify_loads_no_scipy_module(model_config, tmp_path):
    # the limit law's cdf takes the incomplete gamma function from numerics._gammainc
    argv = ["verify", "-c", str(model_config), "--levels", "0.99", "--n", "2000",
            "--seed", "3", "-o", str(tmp_path / "verify.csv")]
    assert _deferred_imports(_run_in_fresh_interpreter(argv)) == []


def test_limit_loads_no_scipy_module(tmp_path):
    # cdf and pdf of a non-Gaussian, asymmetric law: the incomplete gamma function and
    # math.gamma
    argv = ["limit", "--eta", "3", "--zeta", "0.5", "--weight-minus", "0.3",
            "--grid", "-3:3:0.5", "-o", str(tmp_path / "limit.csv")]
    assert _deferred_imports(_run_in_fresh_interpreter(argv)) == []


def test_von_mises_build_loads_no_scipy_module():
    # QAGS's first step is numerics._qk21, and every panel of this table passes its
    # test; "scipy" itself is watched, so no scipy module at all is loaded
    code = "import cevpolar as cp\ncp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s))"
    assert _deferred_imports(code) == []


def _tabulated_config(name):
    if name == "vm":
        return {"radial": cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s)).to_dict(),
                "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
                "angular": {"kind": "uniform"}}
    return cp.decompose_density(cp.standard_normal_profile, cp.elliptical_curve(0.3)).to_dict()


@pytest.mark.parametrize("name", ["vm", "num"])
def test_tabulated_simulate_loads_no_scipy_module(name, tmp_path):
    # a serialized table evaluates and inverts on the package's own Hermite splines
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_tabulated_config(name)))
    argv = ["simulate", "-c", str(path), "--n", "200", "--seed", "3", "--threshold", "3.0",
            "-o", str(tmp_path / "cond.csv")]
    assert _deferred_imports(_run_in_fresh_interpreter(argv)) == []
