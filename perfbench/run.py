"""End-to-end benchmark of the ghostcycles CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload scan-3n1 --seed 1 --seconds 30 --trace 0

Run it from a source checkout: the CLI is started from `src/` with
`python3 -m ghostcycles`, so nothing needs to be built or installed.
One driver process starts one CLI invocation at a time and starts the
next only after the previous one has exited (a closed loop with one
client).  Each invocation is timed from spawn to exit; its CPU time and
peak RSS come from `os.wait4` on its pid, which covers its pool workers
once they are reaped.  Every invocation's output is checked, and a
failed check or a nonzero exit counts as a failed invocation.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the
time on untraced invocations and half on traced ones (`traced_cli.py`
runs the CLI with the spans of `layers.py` installed) and reports the
per-layer metrics, with the tracing overhead as traced minus untraced
median wall time.  The last line of stdout is the JSON result; the line
before it describes the machine and the code; a table for people goes
to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPS = 9
TIMEOUT_S = 120
clock = time.perf_counter


class CheckFailed(Exception):
    pass


def fibonacci_patterns(ell_max: int) -> int:
    """Number of parity patterns with x + y <= ell_max, counted independently."""
    return sum(comb(ell - y - 1, y - 1) for ell in range(2, ell_max + 1) for y in range(1, ell // 2 + 1))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Scan:
    """`scan`/`general` up to a length bound, records to --out."""

    why: str
    command: list[str]
    ell_max: int
    jobs: int
    verify_sample: int
    reference: tuple[int, str]  # (bytes, sha256) of the JSONL, recorded at --jobs 1
    integrals: frozenset = frozenset()
    writes_out = True

    def argv(self, setup: bool) -> list[str]:
        ell = 2 if setup else self.ell_max
        return [*self.command, "--ell-max", str(ell), "--jobs", str(self.jobs),
                "--verify-sample", str(self.verify_sample)]

    def check(self, stdout: str, out_path: Path, setup: bool) -> int:
        ell = 2 if setup else self.ell_max
        expected = fibonacci_patterns(ell)
        head = next((line for line in stdout.splitlines() if line.startswith("scan ")), "")
        fields = dict(re.findall(r"(\w+)=(-?\d+)", head))
        if int(fields.get("patterns", -1)) != expected:
            raise CheckFailed(f"summary reports patterns={fields.get('patterns')}, expected {expected}")
        sample = min(self.verify_sample, expected)
        if int(fields.get("verified_sample", -1)) != sample:
            raise CheckFailed(f"summary reports verified_sample={fields.get('verified_sample')}, "
                              f"expected {sample}")
        if setup:
            with open(out_path, "rb") as fh:
                lines = sum(1 for _ in fh)
            if lines != expected:
                raise CheckFailed(f"{lines} JSONL lines, expected {expected}")
            return expected
        size, digest = out_path.stat().st_size, sha256_file(out_path)
        if (size, digest) != self.reference:
            raise CheckFailed(f"JSONL is {size} bytes sha256 {digest}, expected {self.reference}")
        values = {int(v) for v in re.findall(r"^  integral: .* -> (-?\d+)", stdout, re.M)}
        if not self.integrals <= values:
            raise CheckFailed(f"integral values {sorted(self.integrals - values)} not reported")
        return expected


@dataclass
class Fibers:
    """`fibers` with the brute-force oracle: rows x bound membership queries."""

    why: str
    y: int
    x_range: tuple[int, int]
    scan_bound: int
    setup_range: tuple[int, int]
    setup_bound: int
    writes_out = False

    def argv(self, setup: bool) -> list[str]:
        (lo, hi), bound = (self.setup_range, self.setup_bound) if setup else (self.x_range, self.scan_bound)
        return ["fibers", "--y", str(self.y), "--x-min", str(lo), "--x-max", str(hi),
                "--scan-bound", str(bound)]

    def check(self, stdout: str, out_path: Path, setup: bool) -> int:
        (lo, hi), bound = (self.setup_range, self.setup_bound) if setup else (self.x_range, self.scan_bound)
        expected = ["y,x,period_exact,period_bruteforce,agree"]
        for x in range(lo, hi + 1):
            period = (1 << x) - 3**self.y
            if period > 0:
                expected.append(f"{self.y},{x},{period},{period},true")
        if stdout.splitlines() != expected:
            raise CheckFailed("fiber table differs from the closed form 2^x - 3^y or disagrees")
        return (len(expected) - 1) * bound


WORKLOADS = {
    "scan-3n1": Scan(
        why="output-bound 3n+1 scan, the only one with a process pool: record building "
            "~75%, kernel ~17% in the pool, dynamics idle",
        command=["scan"], ell_max=28, jobs=2, verify_sample=8,
        reference=(96202424, "aec2af98b6f49c11d400effea1ad55cbd250fd094aa32dfc919bb9b5aab5cfd6"),
    ),
    "verify-5n1": Scan(
        why="verification-bound 5n+1 scan on the generalized (q,d) path: orbit replay "
            "~65%, kernel ~3%, no pool",
        command=["general", "--map", "5,1"], ell_max=23, jobs=1, verify_sample=40000,
        reference=(9007105, "e3cd6995fb1d8ee2f2b52695f465defab417938a512402104458e0ef0aff13be"),
        integrals=frozenset({1, 13, 17}),
    ),
    "fibers-oracle": Fibers(
        why="brute-force fiber-period oracle: semilinear ~99.8%, no scan layer runs, so "
            "a scan-only change should not move it",
        y=2, x_range=(4, 16), scan_bound=200000, setup_range=(4, 4), setup_bound=64,
    ),
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    work: int = 0
    error: str | None = None
    layers: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.invocations: list[Invocation] = []

    def invoke(self, setup: bool = False, traced: bool = False) -> Invocation:
        w = self.work_dir
        out_path, stdout_path, spans_path = w / "out.jsonl", w / "stdout.txt", w / "spans.json"
        cli = self.workload.argv(setup) + ["--seed", str(self.seed)]
        if self.workload.writes_out:
            cli += ["--out", str(out_path)]
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *cli]
        else:
            argv = [sys.executable, "-m", "ghostcycles", *cli]
        inv = spawn(argv, self.env, stdout_path, w / "stderr.txt")
        self.invocations.append(inv)
        try:
            if inv.error is None:
                stdout = stdout_path.read_text(encoding="utf-8")
                inv.work = self.workload.check(stdout, out_path, setup)
                if traced:
                    inv.layers = traced_layers(spans_path, stdout)
        except (CheckFailed, OSError, ValueError) as exc:
            inv.error = f"{type(exc).__name__}: {exc}"
        finally:
            for path in (out_path, spans_path):
                path.unlink(missing_ok=True)
        if inv.error is not None:
            print(f"invocation failed: {' '.join(cli)}: {inv.error}", file=sys.stderr)
        return inv

    def loop(self, seconds: float, traced: bool = False, with_setup: bool = False):
        """Invoke back to back until the next round would overrun `seconds`.

        With `with_setup`, each round also runs the smallest input first,
        so that set-up is sampled across the whole run, not at its start.
        """
        deadline = clock() + seconds
        setups: list[Invocation] = []
        runs: list[Invocation] = []
        while True:
            if with_setup:
                setups.append(self.invoke(setup=True))
            runs.append(self.invoke(traced=traced))
            rounds = [setups, runs] if with_setup else [runs]
            if clock() + sum(statistics.median(r.wall_s for r in rs) for rs in rounds) > deadline:
                break
        while with_setup and len(setups) < SETUP_REPS:
            setups.append(self.invoke(setup=True))
        return setups, runs


def spawn(argv, env, stdout_path: Path, stderr_path: Path) -> Invocation:
    """Run one process group to completion; time it and take its rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(TIMEOUT_S, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = clock() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    inv = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    if code != 0:
        kill_group(proc.pid)  # a CLI that died may leave pool workers behind
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
        inv.error = f"exit code {code}: {tail.strip()}"
    return inv


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def traced_layers(spans_path: Path, stdout: str) -> dict:
    with open(spans_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["missing"]:
        print(f"missing hooks, their metrics are null: {', '.join(doc['missing'])}", file=sys.stderr)
    values = layers.layer_metrics(doc)
    values["semilinear.rows_agree"] = sum(line.endswith(",true") for line in stdout.splitlines())
    if values["trace.unattributed_s"] is not None and abs(values["trace.unattributed_s"]) > 1e-6:
        raise CheckFailed(f"self times miss the root span by {values['trace.unattributed_s']} s")
    return values


# ------------------------------------------------------------- metrics


E2E_UNITS = {"patterns_per_s": "1/s", "queries_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "cpu_s": "s"}


def median_or_none(values):
    values = list(values)
    return None if not values or any(v is None for v in values) else statistics.median(values)


def end_to_end(setups, timed) -> dict[str, list]:
    """Samples of each end-to-end metric, one per invocation that passed."""
    ok = [r for r in timed if r.error is None]
    rates = [r.work / r.wall_s for r in ok]
    return {
        "patterns_per_s": rates,
        "queries_per_s": rates,
        "setup_s": [r.wall_s for r in setups if r.error is None],
        "peak_rss_mb": [r.rss_mb for r in ok],
        "cpu_s": [r.cpu_s for r in ok],
    }


def per_layer(untraced, traced) -> dict[str, list]:
    """Samples of each per-layer metric, one per traced invocation that passed."""
    ok = [r for r in traced if r.error is None]
    samples = {name: [r.layers.get(name) for r in ok] for name in layers.PER_LAYER}
    base = median_or_none(r.wall_s for r in untraced if r.error is None)
    top = median_or_none(r.wall_s for r in ok)
    samples["trace.overhead_s"] = [None if base is None or top is None else top - base]
    return samples


def spread(values) -> str:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


# ------------------------------------------------------------- context


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ghostcycles").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def describe(args, bench: Bench) -> dict:
    imported = subprocess.run(
        [sys.executable, "-c",
         "import ghostcycles, ghostcycles.kernel as k; print(ghostcycles.__file__); print(k.backend_name())"],
        env=bench.env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    if not Path(imported[0]).resolve().is_relative_to(SRC):
        raise SystemExit(f"ghostcycles imports from {imported[0]}, not from {SRC}")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": bench.workload.why,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": sys.version.split()[0], "git_commit": git_commit(),
        "source_sha256": source_sha256(), "backend_importable": imported[1],
    }


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True, help="passed to the CLI's --seed")
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ghostcycles" / "cli.py").is_file():
        print(f"no ghostcycles source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(workload, args.seed, Path(tmp))
        context = describe(args, bench)
        bench.invoke(setup=True)  # warm-up: byte-compiles the package, not timed
        if args.trace == 0:
            samples = end_to_end(*bench.loop(args.seconds, with_setup=True))
            units = E2E_UNITS
        else:
            _, untraced = bench.loop(args.seconds / 2)
            _, traced = bench.loop(args.seconds / 2, traced=True)
            samples = per_layer(untraced, traced)
            units = {name: unit for name, (unit, _needs) in layers.PER_LAYER.items()}
    metrics = {name: (median_or_none(values), units[name]) for name, values in samples.items()}
    if args.trace == 1:
        context["backend_cells"] = {"pure": metrics["kernel.cells_pure"][0],
                                    "compiled": metrics["kernel.cells_compiled"][0]}

    attempted = len(bench.invocations)
    failed = sum(r.error is not None for r in bench.invocations)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"error_rate={failed / attempted:.6g} ({failed}/{attempted} invocations)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown:>12s} {unit:6s} {spread(samples[name])}", file=sys.stderr)

    # a missing per-layer metric is reported as such; every end-to-end one must exist
    correct = failed == 0 and (args.trace == 1 or None not in (v for v, _unit in metrics.values()))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
