"""The benchmark in kqrbench/ reaches into kqr by name: its workloads build
kqr objects with keyword arguments, and its tracer rebinds kqr functions.
Setting each workload up and installing the tracer here makes a renamed or
deleted name fail this suite, not the benchmark run."""

from pathlib import Path

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
