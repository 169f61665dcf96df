"""Spans and counters recorded from outside the library.

`patch` rebinds a function or method wherever kqr has bound it, so a
wrapper sees every call however the caller imported the name.  A `Tracer`
installs timing wrappers at the module boundaries listed in `install`;
each span records its parent, and a layer's self time is its time minus
the time of the spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _kqr_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kqr" or name.startswith("kqr."))]


class Patches:
    """Rebindings made by `patch`, undone in reverse order by `undo`."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, attr, make):
        """Replace owner.attr, and every kqr module global bound to the same
        object, with make(old)."""
        old = getattr(owner, attr)
        new = make(old)
        places = [(owner, attr)]
        if not isinstance(owner, type):
            places += [(m, name) for m in _kqr_modules() for name, value in vars(m).items()
                       if value is old and (m, name) != (owner, attr)]
        for obj, name in places:
            self._undo.append((obj, name, old))
            setattr(obj, name, new)

    def undo(self):
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


class Tracer:
    """In-memory spans: per (name, parent) the count and time, plus counters."""

    def __init__(self):
        self.total = defaultdict(float)      # name -> seconds inside the span
        self.child = defaultdict(float)      # name -> seconds inside its child spans
        self.calls = Counter()               # name -> spans closed
        self.edges = Counter()               # (parent, name) -> spans closed
        self.edge_s = defaultdict(float)     # (parent, name) -> seconds
        self.counts = Counter()              # counter name -> value
        self.maxima = defaultdict(float)     # gauge name -> largest value seen
        self._stack = []                     # [name, seconds of children so far]

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def span(self, name, after=None, skip_under=None):
        """Wrapper factory: time fn as span `name`; `after(tracer, args, kwargs,
        result, seconds)` updates counters; inside a span named `skip_under`
        the call is left to its parent."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if skip_under is not None and self.parent() == skip_under:
                    return fn(*args, **kwargs)
                parent = self.parent()
                frame = [name, 0.0]
                self._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self._stack.pop()
                    self.total[name] += dt
                    self.child[name] += frame[1]
                    self.calls[name] += 1
                    self.edges[(parent, name)] += 1
                    self.edge_s[(parent, name)] += dt
                    if self._stack:
                        self._stack[-1][1] += dt
                if after is not None:
                    after(self, args, kwargs, result, dt)
                return result

            return wrapper

        return make

    def counter(self, before):
        """Wrapper factory for hot helpers: `before(tracer, args, kwargs)`
        updates counters, no span is opened."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before(self, args, kwargs)
                return fn(*args, **kwargs)

            return wrapper

        return make

    def self_time(self, name) -> float:
        return self.total[name] - self.child[name]


# ---------------------------------------------------------------------------
# the module boundaries
# ---------------------------------------------------------------------------


def _count(name):
    def before(tr, args, kwargs):
        tr.counts[name] += 1
    return before


def _gram_after(tr, args, kwargs, result, dt):
    tr.counts["kernels.gram_entries"] += result.size


def _pairwise_after(tr, args, kwargs, result, dt):
    tr.counts["kernels.pairwise_entries"] += result.size


def _train_after(tr, args, kwargs, result, dt):
    _, diag = result
    max_iter = args[5] if len(args) > 5 else kwargs.get("max_iter", 1000)
    tr.counts["solver.epochs"] += diag.iterations
    if not diag.converged and diag.iterations >= max_iter:
        tr.counts["solver.fits_max_iter"] += 1
    tr.maxima["solver.kkt_max"] = max(tr.maxima["solver.kkt_max"], diag.kkt_residual)


def _eigvalsh_after(tr, args, kwargs, result, dt):
    tr.total[f"linalg.eigvalsh_s.n{len(args[0])}"] += dt
    tr.counts[f"linalg.eigvalsh_calls.n{len(args[0])}"] += 1


def _tv_svm_after(tr, args, kwargs, result, dt):
    tr.total[f"experiments.tv_svm_s.n{len(args[0])}"] += dt


def _moments_after(tr, args, kwargs, result, dt):
    tr.counts["noise.interval_moments_elems"] += np.asarray(result[0]).size


def _segment(tr, args, kwargs):
    # segment_nodes(lo, hi, order); panel_nodes calls it once per panel
    tr.counts["calibration.segments"] += 1
    tr.counts["calibration.quad_nodes"] += int(args[2])


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions of each kqr module at its boundary."""
    # import_module, since the package rebinds the name kqr.inner_risk to a function
    calibration, cli, distributions, experiments, inner_risk, kernels, noise, solver, util = (
        importlib.import_module(f"kqr.{name}") for name in (
            "calibration", "cli", "distributions", "experiments", "inner_risk", "kernels",
            "noise", "solver", "util"))

    span = tracer.span
    # Every other public function becomes an anonymous library span, so that
    # cli.self_s is the command's own time and not that of library calls.
    named = {"gram", "train", "tv_svm", "learning_rate_experiment", "check_self_calibration",
             "check_variance_bound", "excess_risk", "dist_norm", "sample_joint", "gamma_inv_norm"}
    for mod in (kernels, solver, experiments, calibration, distributions, inner_risk):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if attr not in named and callable(fn) and not isinstance(fn, type):
                patches.patch(mod, attr, span(f"lib.{mod.__name__[4:]}.{attr}"))

    patches.patch(kernels, "gram", span("kernels.gram", _gram_after))
    for cls in (kernels.GaussianKernel, kernels.MaternKernel, kernels.PolynomialKernel):
        patches.patch(cls, "pairwise", span("kernels.pairwise", _pairwise_after,
                                            skip_under="kernels.gram"))
    patches.patch(np.linalg, "eigvalsh", span("linalg.eigvalsh", _eigvalsh_after))
    patches.patch(solver, "train", span("solver.train", _train_after))
    patches.patch(experiments, "tv_svm", span("experiments.tv_svm", _tv_svm_after))
    patches.patch(experiments, "learning_rate_experiment",
                  span("experiments.learning_rate_experiment"))
    for attr in ("check_self_calibration", "check_variance_bound", "excess_risk", "dist_norm"):
        patches.patch(calibration, attr, span(f"calibration.{attr}"))
    patches.patch(util, "segment_nodes", tracer.counter(_segment))
    patches.patch(noise.NoiseLaw, "interval_moments",
                  span("noise.interval_moments", _moments_after))
    patches.patch(noise.NoiseLaw, "cdf", span("noise.cdf"))
    patches.patch(noise.NoiseLaw, "pinball", span("noise.pinball"))
    patches.patch(noise.PowerPiece, "moments", tracer.counter(_count("noise.piece_moments_calls")))
    patches.patch(inner_risk, "noise_frame", span("inner_risk.noise_frame"))
    patches.patch(inner_risk, "excess_in_frame", span("inner_risk.excess_in_frame"))
    patches.patch(distributions, "sample_joint", span("distributions.sample_joint"))
    patches.patch(distributions, "gamma_inv_norm", span("distributions.gamma_inv_norm"))
    patches.patch(distributions.SineLocation, "crossings",
                  tracer.counter(_count("distributions.crossings_calls")))
    patches.patch(cli, "main", span("cli.main"))


def layer_metrics(tr: Tracer, rounds: int) -> dict:
    """Per-round layer figures in BENCHMARK.json's per_layer names."""
    per = 1.0 / rounds
    calls = tr.calls
    moments = calls["noise.interval_moments"]
    out = {
        "kernels.gram_s": tr.self_time("kernels.gram") * per,
        "kernels.gram_calls": calls["kernels.gram"] * per,
        "kernels.gram_entries": tr.counts["kernels.gram_entries"] * per,
        "kernels.pairwise_s": tr.self_time("kernels.pairwise") * per,
        "kernels.pairwise_entries": tr.counts["kernels.pairwise_entries"] * per,
        "linalg.eigvalsh_calls": calls["linalg.eigvalsh"] * per,
        "linalg.eigvalsh_s": tr.self_time("linalg.eigvalsh") * per,
        "solver.train_s": tr.self_time("solver.train") * per,
        "solver.fits": calls["solver.train"] * per,
        "solver.epochs": tr.counts["solver.epochs"] * per,
        "solver.fits_max_iter": tr.counts["solver.fits_max_iter"] * per,
        "solver.kkt_max": tr.maxima["solver.kkt_max"],
        "experiments.tv_svm_self_s": tr.self_time("experiments.tv_svm") * per,
        "calibration.check_self_calibration_s":
            tr.self_time("calibration.check_self_calibration") * per,
        "calibration.check_variance_bound_s":
            tr.self_time("calibration.check_variance_bound") * per,
        "calibration.excess_risk_s": tr.self_time("calibration.excess_risk") * per,
        "calibration.dist_norm_s": tr.self_time("calibration.dist_norm") * per,
        "calibration.segments": tr.counts["calibration.segments"] * per,
        "calibration.quad_nodes": tr.counts["calibration.quad_nodes"] * per,
        "noise.interval_moments_calls": moments * per,
        "noise.interval_moments_elems":
            tr.counts["noise.interval_moments_elems"] / moments if moments else 0.0,
        "noise.interval_moments_s": tr.self_time("noise.interval_moments") * per,
        "noise.piece_moments_calls": tr.counts["noise.piece_moments_calls"] * per,
        "noise.cdf_calls": calls["noise.cdf"] * per,
        "noise.cdf_s": tr.self_time("noise.cdf") * per,
        "noise.pinball_s": tr.self_time("noise.pinball") * per,
        "inner_risk.noise_frame_calls": calls["inner_risk.noise_frame"] * per,
        "inner_risk.noise_frame_s": tr.self_time("inner_risk.noise_frame") * per,
        "inner_risk.excess_in_frame_s": tr.self_time("inner_risk.excess_in_frame") * per,
        "distributions.sample_joint_s": tr.self_time("distributions.sample_joint") * per,
        "distributions.crossings_calls":
            tr.counts["distributions.crossings_calls"] * per,
        "distributions.gamma_inv_norm_s":
            tr.self_time("distributions.gamma_inv_norm") * per,
        "cli.self_s": tr.self_time("cli.main") * per,
    }
    for n in (128, 256, 512, 1024, 2048):
        out[f"experiments.tv_svm_s.n{n}"] = tr.total[f"experiments.tv_svm_s.n{n}"] * per
    return out


def report(tr: Tracer, rounds: int) -> list[str]:
    """The call tree and the counters, per round, as text lines."""
    lines = [f"{'parent':<42} {'span':<42} {'calls':>9} {'seconds':>9}"]
    for (parent, name), calls in sorted(tr.edges.items(), key=lambda e: -tr.edge_s[e[0]]):
        lines.append(f"{parent or '-':<42} {name:<42} {calls / rounds:>9.0f} "
                     f"{tr.edge_s[(parent, name)] / rounds:>9.4f}")
    for name in sorted(tr.counts):
        lines.append(f"counter {name} = {tr.counts[name] / rounds:g}")
    for name in sorted(n for n in tr.total if re.search(r"\.n\d+$", n)):
        lines.append(f"seconds {name} = {tr.total[name] / rounds:.4f}")
    return lines
