"""The three workloads: inputs, the timed body, and the independent checks.

Each workload builds its inputs in `setup`, runs one round of kqr calls in
`body`, and `check`s a round's outputs against `oracles`.  A check that
fails marks the operation that produced the output as failed; problems
that belong to no operation go to `problems` and make the run incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from kqr import calibration, cli, distributions, experiments, kernels, solver

# A fit counts as certified when its duality gap, in objective units, is at
# most this.  The excess risks the rate experiment measures are 1e-3 and up,
# so a larger gap would show in them.  Fixed here, apart from the solver's
# own KKT tolerance, which is in alpha units and grows like 1/lambda.
GAP_TOL = 1e-5
# Agreement between kqr's quadrature and the oracles'.
RISK_RTOL = 1e-7          # |f - f*|^r with fractional r is singular where f meets the
                          # quantile; the two rules agree to about 1e-9 there
PREDICTOR_RTOL = 1e-9     # kernel predictors: composite rules, kinks where f is clipped
INEQUALITY_TOL = 1e-8     # the paper's inequalities, lhs <= rhs + tol


@dataclass
class Check:
    """Outcome of checking one round."""

    ops: int
    failed: set = field(default_factory=set)          # indices of failed operations
    problems: list = field(default_factory=list)      # faults outside any operation
    layers: dict = field(default_factory=dict)        # per-layer figures, name -> value
    details: list = field(default_factory=list)       # text lines for the traced run


@dataclass
class Fit:
    data: object
    kernel: dict
    lam: float
    tau: float
    coef: np.ndarray
    diag: object


class FitLog:
    """Keeps every solver fit and tv_svm call of a round for the checks."""

    def __init__(self):
        self.fits: list[Fit] = []
        self.tv: list[tuple] = []      # (data, result, first fit, end fit)

    def install(self, patches):
        patches.patch(solver, "train", self._train)
        patches.patch(experiments, "tv_svm", self._tv_svm)

    def _train(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model, diag = fn(*args, **kwargs)
            self.fits.append(Fit(args[0], model.kernel.to_dict(), model.lam, model.tau,
                                 model.coef, diag))
            return model, diag
        return wrapper

    def _tv_svm(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = len(self.fits)
            result = fn(*args, **kwargs)
            self.tv.append((args[0], result, start, len(self.fits)))
            return result
        return wrapper


def _grams(fits):
    """The oracle Gram of each distinct training set, keyed by its id."""
    out = {}
    for f in fits:
        if id(f.data) not in out:
            out[id(f.data)] = oracles.kernel_matrix(f.kernel, f.data.x, f.data.x)
    return out


def check_fits(fits) -> tuple[list[float], set, set]:
    """Duality gaps of every fit, the fits that break box feasibility or
    weak duality, and the fits left uncertified."""
    grams = _grams(fits)
    gaps, broken, uncertified = [], set(), set()
    for i, f in enumerate(fits):
        p, d, scale = oracles.primal_dual(grams[id(f.data)], f.data.y, f.coef, f.lam, f.tau)
        gaps.append(p - d)
        if (oracles.box_violation(f.coef, f.lam, f.tau) > oracles.BOX_RTOL
                or p - d < -oracles.WEAK_DUALITY_RTOL * scale):
            broken.add(i)
        if not f.diag.converged or p - d > GAP_TOL:
            uncertified.add(i)
    return gaps, broken, uncertified


def _same_fits(a, b) -> bool:
    return len(a) == len(b) and all(
        x.lam == y.lam and x.diag.converged == y.diag.converged
        and x.diag.iterations == y.diag.iterations and np.array_equal(x.coef, y.coef)
        for x, y in zip(a, b))


def _seed_int(seed: int, *tags) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


class Rates:
    """learning_rate_experiment on the acceptance-gate configuration, one
    repetition per n.  Operations are solver fits.

    The sample is fixed (seed 1, as in the gate) and does not follow --seed:
    which fits stop at max_iter depends on the sample (34 of 95 at seed 1,
    36 at seed 2), and the failed share must not change with the seed."""

    name = "rates"
    warmup = False
    SAMPLE_SEED = 1
    AMP, HALFWIDTH, TAU, R = 0.5, 0.5, 0.5, 2.0

    def __init__(self, seed, workdir):
        pass  # fixed sample, and nothing written

    def setup(self):
        self.config = experiments.RateConfig(
            model=distributions.uniform_noise(halfwidth=self.HALFWIDTH),
            kernel=kernels.GaussianKernel(0.5),
            tau=self.TAU,
            sample_sizes=(128, 256, 512, 1024, 2048),
            repetitions=1,
            seed=self.SAMPLE_SEED,
            p=math.inf,
            q=2.0,
            rho=0.1,
            tol=1e-4,
            max_iter=300,
        )

    def capture(self, patches):
        self.log = FitLog()
        self.log.install(patches)

    def body(self):
        return experiments.learning_rate_experiment(self.config), self.log

    def same(self, a, b) -> bool:
        return a[0].rows == b[0].rows and _same_fits(a[1].fits, b[1].fits)

    def check(self, out) -> Check:
        report, log = out
        chk = Check(ops=len(log.fits))
        gaps, broken, uncertified = check_fits(log.fits)
        chk.failed |= broken | uncertified
        if len(log.tv) != len(report.rows):
            chk.problems.append("one tv_svm call per report row expected")
        for row, (data, result, lo, hi) in zip(report.rows, log.tv):
            m = len(data) // 2 + 1
            d1x, d2x, d2y = data.x[:m], data.x[m:], data.y[m:]
            k21 = oracles.kernel_matrix(log.fits[lo].kernel, d2x, d1x)
            risks = {}
            for f in log.fits[lo:hi]:
                if not np.array_equal(f.data.x, d1x):
                    chk.failed.add(lo + len(risks))
                preds = np.clip(k21 @ f.coef, -1.0, 1.0)
                risks[f.lam] = float(np.mean(oracles.pinball(self.TAU, d2y, preds)))
            chosen = next(i for i in range(lo, hi) if log.fits[i].lam == result.chosen_lambda)
            if (not oracles.close(list(risks.values()),
                                  [result.validation_risks[lam] for lam in risks], 1e-12)
                    or result.chosen_lambda != oracles.smallest_minimizer(risks)
                    or row.lambda_chosen != result.chosen_lambda):
                chk.failed.add(chosen)
            fit = log.fits[chosen]
            support = fit.data.x
            ex, dist, _ = oracles.predictor_risks(
                lambda x: oracles.kernel_matrix(fit.kernel, x[:, None], support) @ fit.coef,
                self.AMP, self.HALFWIDTH, self.TAU, self.R)
            if not (oracles.close(row.excess_risk, ex, PREDICTOR_RTOL)
                    and oracles.close(row.dist_norm, dist, PREDICTOR_RTOL)):
                chk.failed.add(chosen)
            if row.converged != fit.diag.converged:
                chk.failed.add(chosen)
        # rows left out of the per-n means are the ones the report flags
        kept = {}
        for row in report.rows:
            if row.converged:
                kept.setdefault(row.n, []).append(row.excess_risk)
        if {n: float(np.mean(v)) for n, v in kept.items()} != report.mean_excess:
            chk.problems.append("mean excess per n is not the mean of the converged rows")
        chk.details = ["fits by lambda, largest first: '.' converged, 'X' stopped at max_iter;"
                       " then the gaps of the uncertified fits"]
        for _, result, lo, hi in log.tv:
            marks = "".join("." if f.diag.converged else "X" for f in log.fits[lo:hi])
            unc = " ".join(f"{gaps[i]:.1e}" for i in range(lo, hi) if i in uncertified)
            chk.details.append(f"m={len(log.fits[lo].data):5d} {marks:<24} {unc}")
        chk.layers = {
            "fits": len(log.fits),
            "solver.gap_max": max(gaps),
            "experiments.rows_uncertified": sum(not row.converged for row in report.rows),
            "experiments.rows_excluded": len(report.rows) - sum(len(v) for v in kept.values()),
        }
        return chk


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


class Calibration:
    """check_self_calibration and check_variance_bound over the four
    families x tau x p on random piecewise-constant test functions.
    Operations are (test function, inequality) checks."""

    name = "calibration"
    warmup = True
    TAUS = (0.1, 0.5, 0.9)
    PS = (1.0, 4.0, math.inf)
    CELLS = 8
    COUNT = 10                 # test functions per (family, tau, p)
    AMP, HALFWIDTH = 0.5, 0.5  # the uniform family's sine location and noise

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.models = {
            "uniform": distributions.bounded_density_mixture(halfwidth=self.HALFWIDTH),
            "polynomial": distributions.polynomial_density(),
            "dirac": distributions.dirac_atom_mixture(),
            "two-atom": distributions.two_atom(),
        }
        edges = np.linspace(-1.0, 1.0, self.CELLS + 1)
        self.cases = []
        for fi, family in enumerate(self.models):
            for ti, tau in enumerate(self.TAUS):
                for pi, p in enumerate(self.PS):
                    rng = np.random.default_rng(_seed_int(self.seed, fi, ti, pi))
                    values = rng.uniform(-1.0, 1.0, size=(self.COUNT, self.CELLS))
                    fs = [calibration.PiecewiseConstant(edges, v) for v in values]
                    self.cases.append((family, tau, p, fs))

    def capture(self, patches):
        pass

    def body(self):
        out = []
        for family, tau, p, fs in self.cases:
            model = self.models[family]
            sc = calibration.check_self_calibration(model, tau, p, fs, tol=INEQUALITY_TOL)
            vb = calibration.check_variance_bound(model, tau, p, fs, tol=INEQUALITY_TOL)
            out.append((sc.lhs, sc.rhs, vb.lhs, vb.rhs))
        return out

    def same(self, a, b) -> bool:
        return all(np.array_equal(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    def check(self, out) -> Check:
        chk = Check(ops=2 * len(self.cases) * self.COUNT)
        for ci, ((family, tau, p, fs), (sc_l, sc_r, vb_l, vb_r)) in enumerate(zip(self.cases, out)):
            base = 2 * ci * self.COUNT
            for i, f in enumerate(fs):
                ok_sc = sc_l[i] <= sc_r[i] + INEQUALITY_TOL
                ok_vb = vb_l[i] <= vb_r[i] + INEQUALITY_TOL
                if family == "uniform":
                    q, gamma = oracles.uniform_certificate(self.HALFWIDTH, tau)
                    r = q if math.isinf(p) else p * q / (p + 1.0)
                    ex, dist, var = oracles.piecewise_risks(
                        f.breakpoints, f.values, self.AMP, self.HALFWIDTH, tau, r)
                    rhs_sc, rhs_vb = oracles.calibration_bounds(ex, q, gamma, p)
                    ok_sc &= (oracles.close(sc_l[i], dist, RISK_RTOL, 1e-12)
                              and oracles.close(sc_r[i], rhs_sc, RISK_RTOL, 1e-12))
                    ok_vb &= (oracles.close(vb_l[i], var, RISK_RTOL, 1e-12)
                              and oracles.close(vb_r[i], rhs_vb, RISK_RTOL, 1e-12))
                if not ok_sc:
                    chk.failed.add(base + 2 * i)
                if not ok_vb:
                    chk.failed.add(base + 2 * i + 1)
        chk.layers["checks"] = chk.ops
        return chk


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_CONFIGS = {
    "check-inner-risk": """
[model]
family = two-atom

[check]
taus = 0.1 0.5 0.9
xs = 40
t_points = 50
""",
    "check-calibration": """
[model]
family = dirac-atom-mixture

[check]
taus = 0.1 0.5 0.9
ps = 1 4 inf
cells = 8
count = 40
""",
    "check-variance": """
[model]
family = polynomial-density
exponent = 1

[check]
taus = 0.1 0.5 0.9
ps = 1 4 inf
cells = 8
count = 40
""",
    "train": """
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
""",
    "tv-svm": """
[model]
family = polynomial-density

[kernel]
family = polynomial
degree = 3

[data]
n = 200

[svm]
tau = 0.5
tol = 1e-5
max_iter = 300
""",
    "rates": """
[model]
family = bounded-density-mixture

[kernel]
family = gaussian
bandwidth = 0.5

[rates]
sample_sizes = 32 64 128
repetitions = 1
tol = 1e-4
max_iter = 300
""",
    "spectrum": """
[kernel]
family = matern
nu = 1.5
lengthscale = 0.5

[spectrum]
n = 1025
""",
}


def _csv_column(text: str, name: str) -> list[str]:
    lines = text.splitlines()
    col = lines[0].split(",").index(name)
    return [line.split(",")[col] for line in lines[1:]]


class Cli:
    """Each of the seven commands through kqr.cli.main, in process, twice
    with the same seed.  Operations are command invocations.

    The solver commands draw their sample with a fixed seed: how many epochs
    a fit takes depends on the sample, and across seeds 1-5 it moved the
    tv-svm time by a factor of three.  The other commands follow --seed."""

    name = "cli"
    warmup = True
    REPEATS = 2
    SOLVER_COMMANDS = ("train", "tv-svm", "rates")
    SOLVER_SEED = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self):
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for command, text in CLI_CONFIGS.items():
            path = cfg_dir / f"{command}.ini"
            path.write_text(text)
            self.configs[command] = str(path)

    def capture(self, patches):
        self.log = FitLog()
        self.log.install(patches)

    def body(self):
        runs = []
        for command, config in self.configs.items():
            seed = self.SOLVER_SEED if command in self.SOLVER_COMMANDS else self.seed
            for rep in range(self.REPEATS):
                out_dir = self.workdir / "out" / f"{command}-{rep}"
                argv = [command, "--config", config, "--out", str(out_dir), "--seed", str(seed)]
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    code = cli.main(argv)
                    dt = time.perf_counter() - t0
                files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                runs.append((command, code, dt, files))
        return runs, self.log

    @staticmethod
    def parts(out):
        """The wall time of each invocation, the timed parts of a round."""
        return {i: dt for i, (_, _, dt, _) in enumerate(out[0])}

    @staticmethod
    def _outputs(runs):
        # manifest.json carries a timestamp; every other file must repeat
        return [(c, code, {k: v for k, v in files.items() if k != "manifest.json"})
                for c, code, _, files in runs]

    def same(self, a, b) -> bool:
        return self._outputs(a[0]) == self._outputs(b[0]) and _same_fits(a[1].fits, b[1].fits)

    def check(self, out) -> Check:
        runs, log = out
        chk = Check(ops=len(runs))
        first = {}
        for i, (command, code, _, files) in enumerate(runs):
            if code != 0:
                chk.failed.add(i)
            elif command not in first:
                first[command] = i
                if not self._check_command(command, files):
                    chk.failed.add(i)
            elif files.get("report.csv") != runs[first[command]][3].get("report.csv"):
                chk.failed.add(i)
        # an uncertified fit does not fail a command, which exits 0 by design
        gaps, broken, _ = check_fits(log.fits)
        if broken:
            chk.problems.append(f"fits {sorted(broken)} break box feasibility or weak duality")
        times = {}
        for command, _, dt, _ in runs:
            times.setdefault(command, []).append(dt)
        chk.layers = {f"cli.{c}_s": statistics.median(v) for c, v in times.items()}
        chk.layers["cli.bytes_written"] = sum(len(v) for *_, files in runs for v in files.values())
        chk.layers["solver.gap_max"] = max(gaps)
        chk.layers["fits"] = len(log.fits)
        chk.layers["checks"] = sum(
            json.loads(files["summary.json"])["rows"]
            for command, _, _, files in runs if command in ("check-calibration", "check-variance"))
        return chk

    def _check_command(self, command, files) -> bool:
        report = files["report.csv"].decode()
        summary = json.loads(files["summary.json"])
        if command == "train":
            model = json.loads(files["model.json"])
            sx = np.array([[float.fromhex(v) for v in row] for row in model["support_x"]])
            coef = np.array([float.fromhex(v) for v in model["coef"]])
            lam, tau = float.fromhex(model["lambda"]), float.fromhex(model["tau"])
            x = np.array([float(v) for v in _csv_column(report, "x")])[:, None]
            y = np.array([float(v) for v in _csv_column(report, "y")])
            pred = np.array([float(v) for v in _csv_column(report, "prediction")])
            own = oracles.kernel_matrix(model["kernel"], x, sx) @ coef
            p, _, _ = oracles.primal_dual(oracles.kernel_matrix(model["kernel"], sx, sx),
                                          y, coef, lam, tau)
            return (np.array_equal(x, sx) and oracles.close(pred, own, 1e-10, 1e-12)
                    and oracles.close(summary["objective"], p, 1e-10))
        if command == "spectrum":
            evals = np.array([float(v) for v in _csv_column(report, "eigenvalue")])
            # Matern has k(x, x) = 1, so trace(G)/n = 1 at any points
            return bool(evals.min() >= -1e-12 and abs(evals.sum() - 1.0) <= 1e-10)
        if command == "tv-svm":
            risks = {float(lam): float(r) for lam, r in zip(_csv_column(report, "lambda"),
                                                           _csv_column(report, "validation_risk"))}
            return summary["chosen_lambda"] == oracles.smallest_minimizer(risks, tie=0.0)
        return True


WORKLOADS = {w.name: w for w in (Rates, Calibration, Cli)}
