import json
import math

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


INNER_RISK_MODELS = [
    "family = bounded-density-mixture",
    "family = uniform\nhalfwidth = 0.3",
    "family = polynomial-density",
    "family = dirac-atom-mixture",
    "family = two-atom",
    "family = bounded-density-mixture\ncontaminant_weight = 0.2\ncontaminant_atom = 0.1",
    "family = polynomial-density\nexponent = 1.5\ncontaminant_weight = 0.3\n"
    "contaminant_atom = -0.2",
]


@pytest.mark.parametrize("model", INNER_RISK_MODELS)
def test_check_inner_risk_matches_reference_loop(tmp_path, model):
    """check-inner-risk evaluates each tau over all xs at once; its report is
    byte for byte the one built from per-(x, tau) library calls."""
    import numpy as np

    from kqr.cli import build_model, load_config
    from kqr.inner_risk import excess_inner_risk, inner_risk, min_inner_risk
    from kqr.util import csv_text, derive_rng, fmt17

    cfg = write_config(tmp_path, f"[run]\nseed = 4\n\n[model]\n{model}\n\n"
                                 "[check]\ntaus = 0.1 0.5 0.9\nxs = 7\nt_points = 23\n")
    assert main(["check-inner-risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    reference = build_model(load_config(cfg)["model"])
    xs = derive_rng(4, "inner-risk-xs").uniform(-1.0, 1.0, size=(7, 1))
    ts = np.linspace(-1.0, 1.0, 23)
    rows, worst = [], 0.0
    for xi, x in enumerate(xs):
        for tau in (0.1, 0.5, 0.9):
            c_star = min_inner_risk(reference, x, tau).c_star
            closed = excess_inner_risk(reference, x, tau, ts)
            direct = inner_risk(reference, x, tau, ts) - c_star
            for t, a, b in zip(ts, closed, direct):
                err = float(abs(a - b))
                worst = max(worst, err)
                rows.append([xi, fmt17(tau), fmt17(t), fmt17(a), fmt17(b), fmt17(err)])
    want = csv_text(["x_index", "tau", "t", "closed_form", "direct", "abs_err"], rows)
    assert (tmp_path / "o" / "report.csv").read_text() == want
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["max_abs_err"] == worst


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

    # every RateConfig option with a config key; rho = None reads "estimate",
    # and grid_mode is set by --strict-grid alone
    spelled = "\n".join(
        f"{f.name} = {'estimate' if f.default is None else f.default}"
        for f in fields(RateConfig) if f.default is not MISSING and f.name != "grid_mode")
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


def test_amplitude_with_zero_location_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[model]\nfamily = two-atom\nlocation = zero\namplitude = 0.3\n\n"
                                 "[check]\ntaus = 0.5\nxs = 5\nt_points = 5\n")
    out = tmp_path / "o"
    assert main(["check-inner-risk", "--config", cfg, "--out", str(out)]) == 2
    assert "amplitude" in capsys.readouterr().err
    assert not out.exists()


def test_rates_grid_comes_from_the_flag_alone(tmp_path, capsys):
    cfg = write_config(tmp_path, RATES_CFG + "grid = strict\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 2
    assert "grid" in capsys.readouterr().err
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


def test_checks_of_nothing_exit_2_before_any_work(tmp_path, monkeypatch):
    from kqr.noise import NoiseLaw

    def refuse(*args, **kwargs):
        raise AssertionError("a check ran before its size was validated")

    monkeypatch.setattr(NoiseLaw, "quantile_interval", refuse)
    cases = [("check-calibration", CHECK_CFG.replace("count = 25", "count = 0")),
             ("check-variance", CHECK_CFG.replace("count = 25", "count = 0")),
             ("check-calibration", CHECK_CFG.replace("count = 25", "count = -1")),
             ("check-inner-risk", CHECK_CFG + "xs = 0\n"),
             ("check-inner-risk", CHECK_CFG + "t_points = 0\n"),
             ("check-inner-risk", CHECK_CFG.replace("taus = 0.5", "taus ="))]
    for i, (command, text) in enumerate(cases):
        cfg = write_config(tmp_path, text, f"case{i}.ini")
        out = tmp_path / f"o{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, (command, text)
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


# -- the report writer against the per-element rendering it replaced ---------------

MATERN_TRAIN_CFG = """
[run]
seed = 6

[model]
family = bounded-density-mixture

[kernel]
family = matern
nu = 0.5
lengthscale = 0.5

[data]
n = 800

[svm]
lambda = 0.01
tau = 0.5
tol = 1e-6
max_iter = 1000
"""


def _per_element_csv(header, rows):
    """The CSV body as first written: csv.writer with bare newlines."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def test_reports_match_per_element_rendering(tmp_path):
    """Formatting by column writes the bytes that fmt17 per element and
    csv.writer wrote, for train (and its model.json), spectrum,
    check-calibration and check-inner-risk."""
    import numpy as np

    from kqr import cli
    from kqr.calibration import check_self_calibration, random_test_functions
    from kqr.distributions import sample_joint
    from kqr.inner_risk import excess_inner_risk, inner_risk, min_inner_risk
    from kqr.kernels import MaternKernel, gram_spectrum
    from kqr.solver import train
    from kqr.util import derive_rng, fmt17

    def report(command, text):
        cfg = write_config(tmp_path, text, f"{command}.ini")
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        return (out / "report.csv").read_text(), out

    got, out = report("train", MATERN_TRAIN_CFG.replace("n = 800", "n = 300"))
    spec = MaternKernel(nu=0.5, lengthscale=0.5)
    data = sample_joint(cli.build_model({"family": "bounded-density-mixture"}), 300,
                        cli._seed(6, "train-data"))
    model, _ = train(data, spec, 0.01, 0.5, tol=1e-6, max_iter=1000)
    preds = spec.pairwise(data.x, data.x) @ model.coef
    rows = [[i, fmt17(data.x[i, 0]), fmt17(data.y[i]), fmt17(preds[i]),
             fmt17(np.clip(preds[i], -1, 1)), fmt17(model.coef[i])] for i in range(300)]
    assert got == _per_element_csv(["i", "x", "y", "prediction", "clipped", "alpha"], rows)
    assert (out / "model.json").read_text() == json.dumps({
        "kernel": spec.to_dict(),
        "lambda": float(0.01).hex(),
        "tau": float(0.5).hex(),
        "support_x": [[float(v).hex() for v in row] for row in model.support_x],
        "coef": [float(v).hex() for v in model.coef],
    }, indent=2)

    got, _ = report("spectrum", "[run]\nseed = 3\n\n[kernel]\nfamily = matern\nnu = 1.5\n\n"
                                "[spectrum]\nn = 150\n")
    xs = derive_rng(3, "spectrum-points").uniform(-1.0, 1.0, size=(150, 1))
    evals = gram_spectrum(MaternKernel(nu=1.5), xs)
    assert got == _per_element_csv(["i", "eigenvalue"],
                                   [[i + 1, fmt17(v)] for i, v in enumerate(evals)])

    text = CHECK_CFG.replace("taus = 0.5\nps = inf", "taus = 0.1 0.5\nps = 1 inf")
    got, _ = report("check-calibration", text)
    model = cli.build_model(cli.load_config(tmp_path / "check-calibration.ini")["model"])
    rows = []
    for tau in (0.1, 0.5):
        for p in (1.0, math.inf):
            fs = random_test_functions(4, 25, cli._seed(11, "test-functions", tau, p))
            checked = check_self_calibration(model, tau, p, fs, tol=1e-8)
            for i, (lhs, rhs) in enumerate(zip(checked.lhs, checked.rhs)):
                rows.append([fmt17(tau), "inf" if math.isinf(p) else fmt17(p), i,
                             fmt17(lhs), fmt17(rhs), fmt17(rhs - lhs)])
    assert got == _per_element_csv(["tau", "p", "f_index", "lhs", "rhs", "slack"], rows)

    got, _ = report("check-inner-risk", "[run]\nseed = 4\n\n[model]\nfamily = two-atom\n\n"
                                        "[check]\ntaus = 0.1 0.5 0.9\nxs = 5\nt_points = 17\n")
    model = cli.build_model({"family": "two-atom"})
    xs = derive_rng(4, "inner-risk-xs").uniform(-1.0, 1.0, size=(5, 1))
    rows = []
    for xi, x in enumerate(xs):
        for tau in (0.1, 0.5, 0.9):
            ts = np.linspace(-1.0, 1.0, 17)
            c_star = min_inner_risk(model, x, tau).c_star
            closed = excess_inner_risk(model, x, tau, ts)
            direct = inner_risk(model, x, tau, ts) - c_star
            for t, a, b in zip(ts, closed, direct):
                rows.append([xi, fmt17(tau), fmt17(t), fmt17(a), fmt17(b),
                             fmt17(float(abs(a - b)))])
    assert got == _per_element_csv(
        ["x_index", "tau", "t", "closed_form", "direct", "abs_err"], rows)


# -- a NaN row fails its check --------------------------------------------------------


@pytest.mark.parametrize("command, checker", [
    ("check-calibration", "check_self_calibration"),
    ("check-variance", "check_variance_bound"),
])
def test_nan_slack_fails_and_names_its_row(tmp_path, monkeypatch, capsys, command, checker):
    import numpy as np

    from kqr import cli

    real = getattr(cli, checker)

    def with_a_nan(model, tau, p, fs, **options):
        checked = real(model, tau, p, fs, **options)
        if tau == 0.5 and p == 4.0:
            checked.lhs = checked.lhs.copy()
            checked.lhs[3] = np.nan
        return checked

    monkeypatch.setattr(cli, checker, with_a_nan)
    cfg = write_config(tmp_path, CHECK_CFG.replace("taus = 0.5\nps = inf",
                                                   "taus = 0.1 0.5\nps = 1 4 inf"))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    message = capsys.readouterr().out
    assert message.startswith("FAIL: slack nan at tau=0.5 p=4.0 f_index=3"), message
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False and math.isnan(summary["min_slack"])
    assert "0.5,4,3,nan," in (out / "report.csv").read_text()


def test_nan_inner_risk_error_fails_and_names_its_row(tmp_path, monkeypatch, capsys):
    import numpy as np

    from kqr import cli

    real = cli.excess_in_frame

    def with_a_nan(frame, t):
        out = real(frame, t)
        if frame.tau == 0.5:
            out[2, 7] = np.nan
        return out

    monkeypatch.setattr(cli, "excess_in_frame", with_a_nan)
    cfg = write_config(tmp_path, CHECK_CFG + "xs = 4\nt_points = 9\n")
    out = tmp_path / "o"
    assert main(["check-inner-risk", "--config", cfg, "--out", str(out)]) == 1
    message = capsys.readouterr().out
    assert message.startswith("FAIL: closed-form/direct gap nan at x_index=2 tau=0.5 t=0.75"), \
        message
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False and math.isnan(summary["max_abs_err"])


# -- the PSD certificate of a full-rank Gram ---------------------------------------------


def test_full_rank_train_certifies_its_gram_with_one_cholesky(tmp_path, monkeypatch):
    """The Matern(1/2) train at n = 800 is past the pivoted Cholesky's rank
    cutoff: one dense Cholesky certifies its Gram and no eigen-solve runs."""
    import numpy as np

    calls = {"cholesky": 0, "eigvalsh": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    cfg = write_config(tmp_path, MATERN_TRAIN_CFG)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"]) == 0
    assert calls == {"cholesky": 1, "eigvalsh": 0}


def _no_factorization(monkeypatch):
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("factorization before the kernel was validated")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)


def test_nan_lengthscale_exits_2_before_cholesky(tmp_path, monkeypatch):
    _no_factorization(monkeypatch)
    _no_eigendecomposition(monkeypatch)
    cfg = write_config(tmp_path, MATERN_TRAIN_CFG.replace("lengthscale = 0.5",
                                                          "lengthscale = nan"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
