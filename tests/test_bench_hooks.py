"""The benchmark's traced run resolves every hook it installs, and the
CLI still accepts the argument vectors the benchmark passes.

`perfbench/layers.py` wraps module-level names of the package by name.
When one of them is renamed or removed, the traced run still exits 0
but its per-layer metrics read null.  These runs catch that here."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize(
    "argv",
    [["scan", "--ell-max", "8", "--jobs", "2", "--out", "{out}"],
     ["general", "--map", "5,1", "--ell-max", "8", "--verify-sample", "20", "--jobs", "1",
      "--out", "{out}"],
     ["fibers", "--y", "2", "--x-min", "4", "--x-max", "6", "--scan-bound", "300"],
     ["ghost", "--map", "5,1", "--x", "7", "--y", "3", "--sigma", "0,1,2"]],
    ids=["scan", "general", "fibers", "general-single"],
)
def test_traced_run_resolves_every_hook(argv, tmp_path):
    spans = tmp_path / "spans.json"
    cli_args = [arg.format(out=tmp_path / "out.jsonl") for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), *cli_args],
                          cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["missing"] == []
    values = layers.layer_metrics(doc)
    assert [name for name, value in values.items() if value is None] == []
    assert abs(values["trace.unattributed_s"]) <= 1e-6
    if argv[0] == "fibers":
        # rows x = 4, 5, 6 each call the hooked cli.fiber_period_bruteforce;
        # a call that bypassed the hook would read 0 here, not null
        assert values["semilinear.rows"] == 3
    if "--sigma" in argv:
        # the one command whose orbit is traced through the hooked names
        assert values["dynamics.orbits_verified"] == 1
        assert values["cycle.resolve_s"] > 0


def test_the_benchmarks_argv_still_parses(capsys, monkeypatch, tmp_path):
    # each workload's own argv, at its set-up size, and its own output check
    from ghostcycles.cli import main

    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling `layers`
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # @dataclass looks the module up there
    spec.loader.exec_module(bench)
    for name, workload in bench.WORKLOADS.items():
        out_path = tmp_path / f"{name}.out"
        argv = workload.argv(True) + ["--seed", "1"] + ["--out", str(out_path)] * workload.writes_out
        assert main(argv) == 0, name
        assert workload.check(capsys.readouterr().out, out_path, True) > 0


def test_benchmark_reads_the_backend_name():
    from ghostcycles import kernel

    assert isinstance(kernel.backend_name(), str)
