"""Command-line front end.

Runs the checkers and experiments from INI-style config files and writes
plot-ready artifacts: report.csv, summary.json and manifest.json in the
output directory (plus model.json for the solver commands).

Exit codes: 0 on success/pass, 1 when an inequality check fails, 2 on
usage or configuration errors.

All randomness derives from the single config seed through labeled
SeedSequences (see util.derive_seed_sequence), so identical config plus
seed reproduces identical CSV bodies byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import inspect
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, distributions
from .calibration import (
    check_self_calibration,
    check_variance_bound,
    random_test_functions,
)
from .distributions import ConditionalModel, SineLocation, ZeroLocation, sample_joint
from .experiments import (
    RateConfig,
    lambda_grid,
    learning_rate_experiment,
    tv_svm,
)
from .inner_risk import excess_in_frame, noise_frame
from .kernels import _FAMILIES as _KERNELS, fit_power_law, gram_spectrum, kernel_spec_from_dict
from .losses import tau_value
from .solver import SvmModel, model_to_json, train
from .util import csv_text, derive_rng, derive_seed_sequence, fmt17, fmt17_column


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _numbers(text: str, kind=float) -> tuple:
    """A space- or comma-separated list; float() reads inf and infinity too."""
    return tuple(kind(token) for token in text.replace(",", " ").split())


def _given(section, **parsers) -> dict:
    """The named keys the section has, parsed.  A key left out is not passed
    on, so the library's signature is the one place its default lives."""
    return {key: parse(section[key]) for key, parse in parsers.items() if key in section}


# family -> constructor in kqr.distributions, looked up at call time
_MODEL_FAMILIES = {
    "bounded-density-mixture": "bounded_density_mixture",
    "uniform": "bounded_density_mixture",
    "polynomial-density": "polynomial_density",
    "dirac-atom-mixture": "dirac_atom_mixture",
    "two-atom": "two_atom",
}


def _constructor_keys(name: str) -> set:
    """The [model] keys a family constructor takes by name."""
    return set(inspect.signature(getattr(distributions, name)).parameters) - {"location"}


def _location(section) -> SineLocation | ZeroLocation:
    kind = section.get("location", "sine")
    if kind == "zero":
        return ZeroLocation()
    if kind == "sine":
        return SineLocation(**_given(section, amplitude=float))
    raise ConfigError(f"unknown location {kind!r}")


def build_model(section) -> ConditionalModel:
    """The [model] keys map onto the family constructor's parameters by name;
    a key left out takes the constructor's default and any other key is an
    error.  Every model has x in [-1, 1]: the quadrature checks and the
    reports are one-dimensional."""
    family = section.get("family", "bounded-density-mixture")
    if family not in _MODEL_FAMILIES:
        raise ConfigError(f"unknown model family {family!r}")
    constructor = getattr(distributions, _MODEL_FAMILIES[family])
    keys = _constructor_keys(_MODEL_FAMILIES[family])
    unknown = sorted(set(section) - keys - {"family", "location", "amplitude"})
    if unknown:
        raise ConfigError(f"unknown [model] key(s) for {family}: {', '.join(unknown)}")
    # every parameter is a float, apart from two-atom's lists
    parsers = {**dict.fromkeys(keys, float), "locations": _numbers, "weights": _numbers}
    return constructor(location=_location(section), **_given(section, **parsers))


# section -> every key some command reads from it; build_model and
# kernel_spec_from_dict narrow [model] and [kernel] to the chosen family
SECTIONS = {
    "run": {"seed"},
    "model": {"family", "location", "amplitude"}.union(
        *(_constructor_keys(name) for name in _MODEL_FAMILIES.values())),
    "kernel": {"family"} | {f.name for cls in _KERNELS.values() for f in fields(cls)},
    "check": {"taus", "ps", "cells", "count", "tolerance", "xs", "t_points"},
    "data": {"n"},
    "svm": {"lambda", "tau", "tol", "max_iter"},
    "rates": {"tau", "sample_sizes", "repetitions", "beta", "p", "q", "rho", "grid", "tol",
              "max_iter"},
    "spectrum": {"n", "dim", "floor"},
}


def load_config(path: str) -> configparser.ConfigParser:
    """Parse the INI file: every section of SECTIONS is present, empty when
    the file leaves it out, and any other section or key is an error."""
    parser = configparser.ConfigParser()
    parser.read_dict(dict.fromkeys(SECTIONS, {}))
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read_string(p.read_text(), source=path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for name in parser.sections():
        if name not in SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = sorted(set(parser[name]) - SECTIONS[name])
        if unknown:
            raise ConfigError(f"unknown [{name}] key(s): {', '.join(unknown)}")
    return parser


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What a command produced; `main` writes it out and picks the exit code."""

    report: str                     # report.csv body
    summary: dict                   # summary.json
    message: str                    # the line printed on stdout
    passed: bool = True             # False when an inequality fails: exit 1
    model: SvmModel | None = None   # model.json, for the solver commands


def _manifest(command: str, config_path: str, seed: int) -> str:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    payload = {
        "command": command,
        "config": str(config_path),
        "config_sha256": digest,
        "seed": seed,
        "versions": {
            "kqr": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# commands: (cfg, seed, strict_grid) -> Outcome
# ---------------------------------------------------------------------------


def _seed(seed: int, *labels) -> int:
    return int(derive_seed_sequence(seed, *labels).generate_state(1)[0])


def _cmd_check_inner_risk(cfg, seed: int, strict_grid: bool) -> Outcome:
    check = cfg["check"]
    model = build_model(cfg["model"])
    taus = _numbers(check.get("taus", "0.1 0.5 0.9"))
    n_x = check.getint("xs", 20)
    n_t = check.getint("t_points", 50)
    tol = check.getfloat("tolerance", 1e-8)
    if not taus:
        raise ConfigError("[check] taus needs at least one value")
    if n_x < 1 or n_t < 1:
        raise ConfigError("[check] xs and t_points must be >= 1")
    if not tol >= 0:
        raise ConfigError("[check] tolerance must be >= 0")
    rng = derive_rng(seed, "inner-risk-xs")
    xs = rng.uniform(-1.0, 1.0, size=(n_x, model.dim))
    ts = np.linspace(-1.0, 1.0, n_t)
    # each tau over all xs at once: t - g(x) in the noise frame, (xs x ts)
    t_noise = ts - np.array([model.g_scalar(x) for x in xs])[:, None]
    closed, direct = [], []
    for tau in taus:
        frame = noise_frame(model.noise, tau_value(tau))
        c_star = float(model.noise.pinball(frame.tau, frame.t1))
        closed.append(excess_in_frame(frame, t_noise))
        direct.append(model.noise.pinball(frame.tau, t_noise) - c_star)
    # (xs, taus, ts): the order of the report's rows
    closed, direct = np.stack(closed, axis=1), np.stack(direct, axis=1)
    errs = np.abs(closed - direct)
    tau_text, t_text = fmt17_column(taus), fmt17_column(ts)
    keys = itertools.product(range(n_x), tau_text, t_text)
    cells = zip(fmt17_column(closed), fmt17_column(direct), fmt17_column(errs))
    rows = [[*key, *cell] for key, cell in zip(keys, cells)]
    worst = float(np.max(errs))
    passed = bool(worst <= tol)
    if math.isnan(worst):
        xi, ti, j = np.unravel_index(np.argmax(np.isnan(errs)), errs.shape)
        message = f"FAIL: closed-form/direct gap nan at x_index={xi} tau={taus[ti]} t={ts[j]}"
    elif passed:
        message = f"ok: max gap {worst:g} within {tol:g}"
    else:
        message = f"FAIL: max closed-form/direct gap {worst:g} exceeds {tol:g}"
    return Outcome(
        csv_text(["x_index", "tau", "t", "closed_form", "direct", "abs_err"], rows),
        {"max_abs_err": worst, "tolerance": tol, "pass": passed},
        message,
        passed,
    )


def _check_inequality(cfg, seed: int, checker) -> Outcome:
    check = cfg["check"]
    model = build_model(cfg["model"])
    taus = _numbers(check.get("taus", "0.1 0.5 0.9"))
    ps = _numbers(check.get("ps", "1 4 inf"))
    if not (taus and ps):
        raise ConfigError("[check] taus and ps need at least one value each")
    cells = check.getint("cells", 8)
    count = check.getint("count", 1000)
    if count < 1:
        raise ConfigError("[check] count must be >= 1")
    options = {"tol": check.getfloat("tolerance")} if "tolerance" in check else {}
    rows = []
    min_slack, where = math.inf, None
    for tau in taus:
        for p in ps:
            fs = random_test_functions(cells, count, _seed(seed, "test-functions", tau, p))
            report = checker(model, tau, p, fs, **options)
            slack = report.slack
            tau_text, p_text = fmt17(tau), "inf" if math.isinf(p) else fmt17(p)
            rows += [[tau_text, p_text, i, *fields] for i, fields in enumerate(zip(
                fmt17_column(report.lhs), fmt17_column(report.rhs), fmt17_column(slack)))]
            # a NaN slack is the worst row: it fails, and the first one is named
            nan = np.flatnonzero(np.isnan(slack))
            if len(nan) and not math.isnan(min_slack):
                min_slack, where = math.nan, (tau, p, int(nan[0]))
            elif np.min(slack) < min_slack:
                i = int(np.argmin(slack))
                min_slack, where = float(slack[i]), (tau, p, i)
    tol = report.tol
    passed = min_slack >= -tol
    if passed:
        message = f"ok: {len(rows)} rows, min slack {min_slack:g}"
    else:
        message = "FAIL: slack {:g}{} at tau={} p={} f_index={}".format(
            min_slack, "" if math.isnan(min_slack) else f" below -{tol:g}", *where)
    return Outcome(
        csv_text(["tau", "p", "f_index", "lhs", "rhs", "slack"], rows),
        {"min_slack": min_slack, "tolerance": tol, "pass": passed, "rows": len(rows)},
        message,
        passed,
    )


def _sample(cfg, seed: int, label: str):
    """The [kernel] spec and a sample of [data] n points from the [model]."""
    model = build_model(cfg["model"])
    spec = kernel_spec_from_dict(cfg["kernel"])
    return spec, sample_joint(model, cfg["data"].getint("n", 200), _seed(seed, label))


def _cmd_train(cfg, seed: int, strict_grid: bool) -> Outcome:
    svm = cfg["svm"]
    spec, data = _sample(cfg, seed, "train-data")
    lam = svm.getfloat("lambda", 0.01)
    tau = svm.getfloat("tau", 0.5)
    trained, diag = train(data, spec, lam, tau, **_given(svm, tol=float, max_iter=int))
    preds = trained.kernel.pairwise(data.x, trained.support_x) @ trained.coef
    columns = (data.x[:, 0], data.y, preds, np.clip(preds, -1, 1), trained.coef)
    rows = [[i, *fields] for i, fields in enumerate(zip(*map(fmt17_column, columns)))]
    return Outcome(
        csv_text(["i", "x", "y", "prediction", "clipped", "alpha"], rows),
        {
            "n": len(data), "lambda": lam, "tau": tau,
            "objective": diag.final_objective,
            "kkt_residual": diag.kkt_residual,
            "iterations": diag.iterations,
            "converged": diag.converged,
            "duality_gap": diag.duality_gap,
        },
        f"ok: objective {diag.final_objective:g}, kkt {diag.kkt_residual:g}, "
        f"converged {diag.converged}",
        model=trained,
    )


def _cmd_tv_svm(cfg, seed: int, strict_grid: bool) -> Outcome:
    svm = cfg["svm"]
    spec, data = _sample(cfg, seed, "tv-data")
    grid = lambda_grid(len(data), "strict" if strict_grid else "geometric")
    result = tv_svm(data, spec, grid, svm.getfloat("tau", 0.5), tol=svm.getfloat("tol", 1e-5),
                    max_iter=svm.getint("max_iter", 300))
    rows = [[fmt17(lam), fmt17(risk), int(result.diagnostics[lam].converged)]
            for lam, risk in sorted(result.validation_risks.items(), reverse=True)]
    return Outcome(
        csv_text(["lambda", "validation_risk", "converged"], rows),
        {
            "chosen_lambda": result.chosen_lambda,
            "grid_mode": grid.mode,
            "grid_size": len(grid.values),
            "validation_risk": result.validation_risks[result.chosen_lambda],
            "convergence": result.convergence(),
            # no seconds per lambda: the fits of a block share one interior-point solve
            "per_lambda": {fmt17(lam): {"iterations": d.iterations, "duality_gap": d.duality_gap}
                           for lam, d in sorted(result.diagnostics.items(), reverse=True)},
        },
        f"ok: chose lambda {result.chosen_lambda:g} out of {len(grid.values)}",
        model=result.model,
    )


def _cmd_rates(cfg, seed: int, strict_grid: bool) -> Outcome:
    rates = cfg["rates"]
    options = _given(rates, beta=float, p=float, q=float, tol=float, max_iter=int,
                     rho=lambda text: None if text.strip() == "estimate" else float(text))
    if strict_grid or "grid" in rates:
        options["grid_mode"] = "strict" if strict_grid else rates["grid"]
    report = learning_rate_experiment(RateConfig(
        model=build_model(cfg["model"]),
        kernel=kernel_spec_from_dict(cfg["kernel"]),
        tau=rates.getfloat("tau", 0.5),
        sample_sizes=_numbers(rates.get("sample_sizes", "128 256 512"), int),
        repetitions=rates.getint("repetitions", 5),
        seed=seed,
        **options,
    ))
    return Outcome(
        report.to_csv(),
        report.summary(),
        f"ok: {len(report.rows)} rows; excess slope {report.excess_slope}, "
        f"dist slope {report.dist_slope}, theory gamma {report.theoretical_gamma:g}",
    )


def _cmd_spectrum(cfg, seed: int, strict_grid: bool) -> Outcome:
    spec = kernel_spec_from_dict(cfg["kernel"])
    section = cfg["spectrum"]
    rng = derive_rng(seed, "spectrum-points")
    xs = rng.uniform(-1.0, 1.0, size=(section.getint("n", 500), section.getint("dim", 1)))
    evals = gram_spectrum(spec, xs)
    est = fit_power_law(evals, **_given(section, floor=float))
    return Outcome(
        csv_text(["i", "eigenvalue"], list(enumerate(fmt17_column(evals), 1))),
        {
            "rho_hat": est.rho_hat,
            "a_hat": est.a_hat,
            "n_used": est.n_used,
            "index_range": list(est.index_range),
            "fit_residual": est.residual,
            "note": "empirical Gram spectrum; approximates the integral operator",
        },
        f"ok: rho_hat {est.rho_hat:.4f} from {est.n_used} eigenvalues",
    )


# name -> (command, whether it takes --strict-grid); library functions are
# named in the bodies, so a rebinding of a kqr module global holds here too
COMMANDS = {
    "check-inner-risk": (_cmd_check_inner_risk, False),
    "check-calibration": (
        lambda cfg, seed, _: _check_inequality(cfg, seed, check_self_calibration), False),
    "check-variance": (
        lambda cfg, seed, _: _check_inequality(cfg, seed, check_variance_bound), False),
    "train": (_cmd_train, False),
    "tv-svm": (_cmd_tv_svm, True),
    "rates": (_cmd_rates, True),
    "spectrum": (_cmd_spectrum, False),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kqr", description="kernel quantile regression checks and experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, strict_grid) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        if strict_grid:
            p.add_argument("--strict-grid", action="store_true",
                           help="use the exact n^-2 net instead of the geometric grid")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg["run"].getint("seed", 0)
        if seed < 0 or seed >= 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        command, _ = COMMANDS[args.command]
        outcome = command(cfg, seed, getattr(args, "strict_grid", False))
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(outcome.report)
    if outcome.model is not None:
        (out_dir / "model.json").write_text(model_to_json(outcome.model))
    (out_dir / "summary.json").write_text(json.dumps(outcome.summary, indent=2))
    (out_dir / "manifest.json").write_text(_manifest(args.command, args.config, seed))
    print(outcome.message)
    return 0 if outcome.passed else 1


if __name__ == "__main__":
    sys.exit(main())
