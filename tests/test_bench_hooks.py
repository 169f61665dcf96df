"""The benchmark in kqrbench/ reaches into kqr by name: its workloads build
kqr objects with keyword arguments, and its tracer rebinds kqr functions.
Setting each workload up and installing the tracer here makes a renamed or
deleted name fail this suite, not the benchmark run."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "kqrbench"


def test_every_workload_sets_up_and_every_hook_installs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    with spans.Patches() as patches:
        for name, workload_class in workloads.WORKLOADS.items():
            workload = workload_class(1, tmp_path / name)
            workload.setup()
            workload.capture(patches)
        spans.install(spans.Tracer(), patches)


def test_traced_calibration_round_sees_every_call_through_the_memos(tmp_path, monkeypatch):
    """The tracer wraps the memoized inner_risk.noise_frame from outside, so
    it still counts every call of a round, cache hits included, and a traced
    round gives the outputs of an untraced one."""
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans
    import workloads

    workload = workloads.Calibration(1, tmp_path)
    workload.setup()
    checks = 2 * len(workload.cases)
    plain, _ = run._round(workload)
    tracer = spans.Tracer()
    traced, _ = run._round(workload, tracer)
    assert workload.same(plain, traced)
    assert tracer.calls["inner_risk.noise_frame"] == checks == 72
    assert tracer.calls["distributions.gamma_inv_norm"] == checks


@pytest.mark.parametrize("name", ["Rates", "Cli"])
def test_traced_solver_round_passes_the_benchmark_checks(tmp_path, monkeypatch, name):
    """A plain and a traced round of each solver workload give the same
    outputs, and the traced one passes the workload's own checks: every
    fit certified against the oracles' Gram, and the tracer's reads of
    each fit's diagnostics still work."""
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans
    import workloads

    workload = getattr(workloads, name)(1, tmp_path)
    workload.setup()
    plain, _ = run._round(workload)
    traced, _ = run._round(workload, spans.Tracer())
    assert workload.same(plain, traced)
    check = workload.check(traced)
    assert check.ops > 0
    assert check.failed == set() and check.problems == []
