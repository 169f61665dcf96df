import json

import pytest

from kqr.cli import main
from kqr.solver import model_from_json


def write_config(tmp_path, text, name="config.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CHECK_CFG = """
[run]
seed = 11

[model]
family = bounded-density-mixture
halfwidth = 0.5
location = sine
amplitude = 0.5

[check]
taus = 0.5
ps = inf
cells = 4
count = 25
tolerance = 1e-8
"""

TRAIN_CFG = """
[run]
seed = 5

[model]
family = bounded-density-mixture

[kernel]
family = gaussian
bandwidth = 0.5

[data]
n = 40

[svm]
lambda = 0.05
tau = 0.5
tol = 1e-6
"""

RATES_CFG = """
[run]
seed = 3

[model]
family = bounded-density-mixture

[kernel]
family = gaussian
bandwidth = 0.5

[rates]
sample_sizes = 32
repetitions = 1
tau = 0.5
tol = 1e-4
max_iter = 100
"""

SPECTRUM_CFG = """
[run]
seed = 9

[kernel]
family = gaussian
bandwidth = 0.5

[spectrum]
n = 120
"""


def test_check_calibration_passes(tmp_path):
    cfg = write_config(tmp_path, CHECK_CFG)
    out = tmp_path / "out"
    assert main(["check-calibration", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.csv").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["command"] == "check-calibration"
    assert "config_sha256" in manifest


def test_check_variance_passes(tmp_path):
    cfg = write_config(tmp_path, CHECK_CFG)
    out = tmp_path / "out"
    assert main(["check-variance", "--config", cfg, "--out", str(out)]) == 0


def test_check_inner_risk(tmp_path):
    cfg = write_config(tmp_path, CHECK_CFG)
    out = tmp_path / "ir"
    assert main(["check-inner-risk", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "report.csv").read_text().strip().split("\n")
    assert body[0] == "x_index,tau,t,closed_form,direct,abs_err"


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, CHECK_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["check-calibration", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["check-calibration", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_seed_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, CHECK_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["check-calibration", "--config", cfg, "--out", str(out1)])
    main(["check-calibration", "--config", cfg, "--out", str(out2), "--seed", "99"])
    assert (out1 / "report.csv").read_bytes() != (out2 / "report.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_train_command(tmp_path):
    cfg = write_config(tmp_path, TRAIN_CFG)
    out = tmp_path / "t"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    model = model_from_json((out / "model.json").read_text())
    assert len(model.coef) == 40


def test_tv_svm_command(tmp_path):
    cfg = write_config(tmp_path, TRAIN_CFG)
    out = tmp_path / "tv"
    assert main(["tv-svm", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid_mode"] == "geometric"
    assert summary["chosen_lambda"] in [2.0**-j for j in range(30)]


def test_tv_svm_summary_reports_each_lambda(tmp_path):
    cfg = write_config(tmp_path, TRAIN_CFG)
    out = tmp_path / "tv"
    assert main(["tv-svm", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    report = (out / "report.csv").read_text().splitlines()
    per = summary["per_lambda"]
    # keyed and ordered as the report's lambda column, with no timing
    assert list(per) == [line.split(",")[0] for line in report[1:]]
    assert all(sorted(fit) == ["duality_gap", "iterations"] for fit in per.values())
    assert all(isinstance(fit["iterations"], int) and fit["iterations"] >= 1
               for fit in per.values())
    assert max(fit["duality_gap"] for fit in per.values()) == summary["convergence"]["worst_gap"]


def test_tv_svm_strict_grid_flag(tmp_path):
    cfg = write_config(tmp_path, TRAIN_CFG.replace("n = 40", "n = 10"))
    out = tmp_path / "tvs"
    assert main(["tv-svm", "--config", cfg, "--out", str(out), "--strict-grid"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid_mode"] == "strict"
    assert summary["grid_size"] == 100


def test_rates_command(tmp_path):
    cfg = write_config(tmp_path, RATES_CFG)
    out = tmp_path / "r"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "report.csv").read_text().strip().split("\n")
    assert len(body) == 2  # header plus one row
    summary = json.loads((out / "summary.json").read_text())
    assert summary["excess_slope"] is None


def test_spectrum_command(tmp_path):
    cfg = write_config(tmp_path, SPECTRUM_CFG)
    out = tmp_path / "s"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rho_hat"] <= 0.5


def test_missing_config_is_usage_error(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2


def test_malformed_config_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, "[run\nseed = oops")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_family_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, "[model]\nfamily = nope\n" + CHECK_CFG.split("[model]")[0])
    assert main(["check-calibration", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x", "--out", "y"])
    assert exc.value.code == 2


def test_missing_model_section_takes_library_defaults(tmp_path):
    import configparser

    from kqr.distributions import bounded_density_mixture

    check = "[run]\nseed = 4\n\n[check]\ntaus = 0.3\nps = 2\ncells = 3\ncount = 5\n"
    bare = write_config(tmp_path, check, "bare.ini")
    full = configparser.ConfigParser()
    full.read_string(check)
    full["model"] = bounded_density_mixture().to_config()
    with open(tmp_path / "full.ini", "w") as fh:
        full.write(fh)
    out1, out2 = tmp_path / "bare", tmp_path / "full"
    assert main(["check-calibration", "--config", bare, "--out", str(out1)]) == 0
    assert main(["check-calibration", "--config", str(tmp_path / "full.ini"),
                 "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_missing_kernel_section_takes_library_defaults(tmp_path):
    from kqr.kernels import GaussianKernel

    kernel = "\n".join(f"{k} = {v}" for k, v in GaussianKernel().to_dict().items())
    bare = write_config(tmp_path, "[spectrum]\nn = 40\n", "bare.ini")
    full = write_config(tmp_path, f"[kernel]\n{kernel}\n\n[spectrum]\nn = 40\n", "full.ini")
    out1, out2 = tmp_path / "bare", tmp_path / "full"
    assert main(["spectrum", "--config", bare, "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", full, "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_rates_defaults_come_from_rate_config(tmp_path):
    from dataclasses import MISSING, fields

    from kqr.experiments import RateConfig

    # the config key of each RateConfig option; rho = None reads "estimate"
    keys = {"grid_mode": "grid"}
    spelled = "\n".join(
        f"{keys.get(f.name, f.name)} = {'estimate' if f.default is None else f.default}"
        for f in fields(RateConfig) if f.default is not MISSING)
    rates = "[rates]\nsample_sizes = 32\nrepetitions = 1\n"
    bare = write_config(tmp_path, rates, "bare.ini")
    full = write_config(tmp_path, rates + spelled + "\n", "full.ini")
    out1, out2 = tmp_path / "bare", tmp_path / "full"
    assert main(["rates", "--config", bare, "--out", str(out1)]) == 0
    assert main(["rates", "--config", full, "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def _no_eigendecomposition(monkeypatch):
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition before the kernel was validated")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def test_nan_bandwidth_exits_2_before_eigendecomposition(tmp_path, monkeypatch):
    _no_eigendecomposition(monkeypatch)
    cfg = write_config(tmp_path, TRAIN_CFG.replace("bandwidth = 0.5", "bandwidth = nan"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_kernel_dim_mismatch_exits_2_before_eigendecomposition(tmp_path, monkeypatch):
    _no_eigendecomposition(monkeypatch)
    cfg = write_config(tmp_path, "[kernel]\nfamily = polynomial\ndim = 1\n\n"
                                 "[spectrum]\nn = 40\ndim = 2\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_misspelled_kernel_key_exits_2(tmp_path, capsys):
    cases = [
        ("spectrum", "[kernel]\nbandwith = 0.1\n\n[spectrum]\nn = 40\n", "bandwith"),
        ("spectrum", "[kernal]\nbandwidth = 0.1\n\n[spectrum]\nn = 40\n", "kernal"),
        ("train", TRAIN_CFG.replace("lambda = 0.05", "lamda = 0.5"), "lamda"),
        ("tv-svm", TRAIN_CFG + "max_iters = 3\n", "max_iters"),
        ("rates", RATES_CFG.replace("repetitions = 1", "repetition = 1"), "repetition"),
    ]
    for i, (command, text, misspelled) in enumerate(cases):
        cfg = write_config(tmp_path, text, f"case{i}.ini")
        out = tmp_path / f"o{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, misspelled
        assert misspelled in capsys.readouterr().err
        assert not out.exists()


def test_misspelled_model_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, CHECK_CFG.replace(
        "family = bounded-density-mixture", "family = polynomial-density\nexponant = 3"))
    out = tmp_path / "o"
    assert main(["check-calibration", "--config", cfg, "--out", str(out)]) == 2
    assert "exponant" in capsys.readouterr().err
    assert not out.exists()


def test_bad_rates_exponents_exit_2_before_any_fit(tmp_path, monkeypatch):
    from kqr import experiments

    def refuse(*args, **kwargs):
        raise AssertionError("a fit ran before the config was validated")

    monkeypatch.setattr(experiments, "train", refuse)
    for i, bad in enumerate(["q = 0.5", "q = nan", "p = 0", "p = -inf", "rho = 1.5", "rho = 0"]):
        cfg = write_config(tmp_path, RATES_CFG + bad + "\n", f"case{i}.ini")
        out = tmp_path / f"o{i}"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 2, bad
        assert not out.exists()


def test_bad_solver_settings_exit_2_before_any_gram(tmp_path, monkeypatch):
    from kqr import experiments, solver

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram was prepared before the settings were validated")

    monkeypatch.setattr(solver, "_prepare", refuse)
    monkeypatch.setattr(experiments, "_prepare", refuse)
    svm_cases = [("tol = 1e-6", "tol = nan"), ("tol = 1e-6", "tol = -1"),
                 ("tau = 0.5", "tau = 0.5\nmax_iter = 0"),
                 ("tau = 0.5", "tau = 0.5\nmax_iter = -5")]
    cases = [("train", TRAIN_CFG.replace("lambda = 0.05", bad)) for bad in
             ("lambda = nan", "lambda = inf", "lambda = -inf", "lambda = 0")]
    cases += [(command, TRAIN_CFG.replace(*case))
              for command in ("train", "tv-svm") for case in svm_cases]
    cases += [("rates", RATES_CFG.replace(*case)) for case in
              [("tol = 1e-4", "tol = nan"), ("tol = 1e-4", "tol = -1"),
               ("max_iter = 100", "max_iter = 0")]]
    for i, (command, text) in enumerate(cases):
        cfg = write_config(tmp_path, text, f"case{i}.ini")
        out = tmp_path / f"o{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, (command, text)
        assert not out.exists()


def test_negative_tolerance_exits_2(tmp_path):
    for i, command in enumerate(["check-calibration", "check-variance", "check-inner-risk"]):
        cfg = write_config(tmp_path, CHECK_CFG.replace("tolerance = 1e-8", "tolerance = -1"),
                           f"case{i}.ini")
        out = tmp_path / f"o{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, command
        assert not out.exists()


def test_solver_summaries_report_convergence(tmp_path):
    cfg = write_config(tmp_path, TRAIN_CFG)
    assert main(["tv-svm", "--config", cfg, "--out", str(tmp_path / "tv")]) == 0
    conv = json.loads((tmp_path / "tv" / "summary.json").read_text())["convergence"]
    assert conv["fits"] == 12 and conv["converged"] == 12 and conv["worst_gap"] <= 1e-8
    assert "gap" not in (tmp_path / "tv" / "report.csv").read_text()

    cfg = write_config(tmp_path, RATES_CFG.replace("sample_sizes = 32", "sample_sizes = 32 64"),
                       "rates.ini")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    conv = json.loads((tmp_path / "r" / "summary.json").read_text())["convergence"]
    assert sorted(conv) == ["32", "64"]
    assert [conv[n]["fits"] for n in ("32", "64")] == [11, 13]
    assert all(c["converged"] == c["fits"] and c["worst_gap"] <= 1e-8 for c in conv.values())
    assert "gap" not in (tmp_path / "r" / "report.csv").read_text()
