"""CLI behavior: rendering, schemas, exit codes, determinism across job
counts, and agreement with the library routes."""

import json
import multiprocessing
import os
import random
import subprocess
import sys

import pytest

from ghostcycles import _kernel_py, cli
from ghostcycles.cli import main
from ghostcycles.cycle import ghost_cycle
from ghostcycles.dynamics import DynamicsViolation
from ghostcycles.generalized import GeneralizedMap, general_ghost_cycle
from ghostcycles.padic import _inverse_mod_pow2
from ghostcycles.patterns import ParityPattern, enumerate_by_length, length_cells
from ghostcycles.records import ghost_record


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_ghost_text_output(capsys):
    code, out, err = run(["ghost", "--x", "4", "--y", "2", "--sigma", "0,1"], capsys)
    assert code == 0
    assert "n0 mod 32 = 19" in out
    assert "verdict: ghost" in out
    assert "valuations=1,3" in out


def test_ghost_integer_output(capsys):
    code, out, _ = run(["ghost", "--x", "2", "--y", "1", "--sigma", "0"], capsys)
    assert code == 0
    assert "verdict: integer-cycle n = 1" in out


def test_ghost_json_matches_library_record(capsys):
    code, out, _ = run(
        ["ghost", "--x", "4", "--y", "2", "--sigma", "0,1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    expected = ghost_record(ghost_cycle(ParityPattern(4, 2, (0, 1)), 64))
    assert payload["ghost"] == expected
    assert payload["trace"]["valuations"] == [1, 3]
    assert payload["trace"]["closed"] is True
    int(payload["ghost"]["C"])  # big ints are decimal strings
    int(payload["ghost"]["n0"]["residue"])


def test_bad_sigma_is_a_usage_error_naming_the_clause(capsys):
    code, _, err = run(["ghost", "--x", "4", "--y", "2", "--sigma", "1,2"], capsys)
    assert code == 1
    assert "sigma[0] must be 0" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(["ghost", "--no-such-flag"], capsys)
    assert code == 1


def test_missing_subcommand_exits_one(capsys):
    code, _, _ = run([], capsys)
    assert code == 1


def test_scan_ell_two_single_inadmissible_record(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(["scan", "--ell-max", "2", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["pattern"] == {"x": 1, "y": 1, "sigma": [0], "ell": 2, "admissible": False}
    assert rec["verdict"] == "integer-cycle"
    assert rec["integer_value"] == "-1"
    assert "patterns=1" in out


def test_scan_twelve_integral_admissibles_are_the_trivial_family(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(["scan", "--ell-max", "12", "--out", str(out_path)], capsys)
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    integral_admissible = [
        r for r in records if r["verdict"] == "integer-cycle" and r["pattern"]["admissible"]
    ]
    got = {
        (r["pattern"]["x"], r["pattern"]["y"], tuple(r["pattern"]["sigma"]), r["integer_value"])
        for r in integral_admissible
    }
    assert got == {
        (2 * r, r, tuple(range(0, 2 * r, 2)), "1") for r in range(1, 5)
    }
    # summary counts mirror the record stream
    assert f"patterns={len(records)}" in out
    assert f"integer_cycles={sum(1 for r in records if r['verdict'] == 'integer-cycle')}" in out


def test_scan_five_n_plus_one(capsys, tmp_path):
    out_path = tmp_path / "scan51.jsonl"
    code, _, _ = run(["scan", "--ell-max", "12", "--map", "5,1", "--out", str(out_path)], capsys)
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert all(r["q"] == 5 and r["d"] == 1 for r in records)
    by_pattern = {
        (r["pattern"]["x"], r["pattern"]["y"], tuple(r["pattern"]["sigma"])): r for r in records
    }
    assert by_pattern[(5, 2, (0, 1))]["integer_value"] == "1"
    assert by_pattern[(5, 2, (0, 1))]["pattern"]["admissible"] is True
    assert by_pattern[(7, 3, (0, 1, 2))]["integer_value"] == "13"
    # admissibility is the map's, not the 3n+1 one: 2^4 > 3^2 but 16 < 25
    assert by_pattern[(4, 2, (0, 1))]["pattern"]["admissible"] is False


def test_scan_bytes_identical_across_jobs(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["scan", "--ell-max", "14", "--jobs", "1", "--out", str(a)], capsys)[0] == 0
    assert run(["scan", "--ell-max", "14", "--jobs", "3", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_general_map_31_scan_equals_base_scan(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["scan", "--ell-max", "10", "--out", str(a)], capsys)[0] == 0
    assert run(["general", "--map", "3,1", "--ell-max", "10", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_records_equal_library_records(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    run(["scan", "--ell-max", "8", "--out", str(out_path)], capsys)
    for line in out_path.read_text().splitlines():
        rec = json.loads(line)
        p = ParityPattern(rec["pattern"]["x"], rec["pattern"]["y"], tuple(rec["pattern"]["sigma"]))
        assert rec == ghost_record(ghost_cycle(p, 64))


@pytest.mark.parametrize(
    "argv,precision",
    [([], 64), (["--map", "5,1"], 64), (["--map", "3,-1"], 64),
     ([], 5), (["--map", "3,-1"], 5), ([], 96), (["--map", "5,1"], 96)],
    ids=["3n+1", "5n+1", "3n-1", "3n+1-precision-5", "3n-1-precision-5",
         "3n+1-precision-96", "5n+1-precision-96"],
)
def test_scan_template_is_json_dumps_of_the_library_record(argv, precision, capsys, tmp_path,
                                                           monkeypatch):
    # the expected stream is built from the cycle modules, not the kernel
    m = GeneralizedMap(*map(int, argv[1].split(","))) if argv else None
    expected = []
    for p, _adm in enumerate_by_length(16):
        if m is not None:
            rec = ghost_record(general_ghost_cycle(m, p, precision), m.q, m.d)
        else:
            rec = ghost_record(ghost_cycle(p, precision))
        expected.append(json.dumps(rec, separators=(",", ":")) + "\n")
    expected = "".join(expected).encode()
    base = ["scan", "--ell-max", "16", *argv]
    if precision != 64:
        # replay every record; at precision 5 each with x >= 4 takes the lifted replay
        base += ["--precision", str(precision), "--verify-sample", "100000"]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # --jobs 2 runs a pool on any host
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert run([*base, "--jobs", "1", "--out", str(one)], capsys)[0] == 0
    assert run([*base, "--jobs", "2", "--out", str(two)], capsys)[0] == 0
    code, out, _ = run(base, capsys)
    assert code == 0
    assert one.read_bytes() == expected
    assert two.read_bytes() == expected
    assert out.encode() == expected


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--precision", "0"], "argument --precision: must be >= 1, got 0"),
        (["--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
        (["--verify-sample", "-1"], "argument --verify-sample: must be >= 0, got -1"),
        (["--format", "csv"], "--format csv is not supported"),
        (["--format", "text"], "--format text is not supported"),
    ],
    ids=["precision-0", "jobs-0", "verify-sample-negative", "format-csv", "format-text"],
)
def test_scan_rejects_inputs_outside_its_contract_before_any_work(flags, message, capsys,
                                                                  tmp_path, monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell ran on a rejected scan")

    monkeypatch.setattr(cli, "_cell_worker", no_cell)
    out_path = tmp_path / "scan.jsonl"
    code, _, err = run(["scan", "--ell-max", "6", *flags, "--out", str(out_path)], capsys)
    assert code == 1
    assert message in err
    assert not out_path.exists()


def test_unwritable_scan_out_fails_before_the_kernel_runs(capsys, monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell ran before --out was opened")

    monkeypatch.setattr(cli, "_cell_worker", no_cell)
    code, _, err = run(["scan", "--ell-max", "12", "--out", "/nonexistent/dir/f"], capsys)
    assert code == 3
    assert "i/o error" in err


def test_scan_workers_are_clamped_to_cells_and_cpus(capsys, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
    # one cell: no pool whatever --jobs says
    assert run(["scan", "--ell-max", "2", "--jobs", "4"], capsys)[0] == 0
    # two CPUs: one is the parent's, and one worker runs in-process
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run(["scan", "--ell-max", "10", "--jobs", "4"], capsys)[0] == 0
    # one CPU: no pool either
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run(["scan", "--ell-max", "10", "--jobs", "4"], capsys)[0] == 0


def _violation_with_this_pid(*args):
    raise DynamicsViolation(0, 1, os.getpid())


FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="pool workers inherit patched functions only when forked")


@FORK_ONLY
def test_dynamics_violation_in_a_pool_worker_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "replay_record", _violation_with_this_pid)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, _, err = run(["scan", "--ell-max", "12", "--jobs", "2", "--verify-sample", "50"], capsys)
    assert code == 2
    assert "dynamics violation: valuation violation at odd step 0: expected 1, observed " in err
    assert f"observed {os.getpid()}" not in err  # raised in a worker, not in this process


@pytest.mark.parametrize("jobs", [pytest.param("1", id="in-process"),
                                  pytest.param("2", id="pool", marks=FORK_ONLY)])
@pytest.mark.parametrize("argv", [[], ["--map", "3,-1"], ["--precision", "5"],
                                  ["--verify-sample", "100", "--seed", "7"]],
                         ids=["3n+1", "3n-1", "precision-5", "sample-100"])
def test_scan_replays_exactly_the_records_it_writes(jobs, argv, capsys, tmp_path, monkeypatch):
    calls_path = tmp_path / "calls.jsonl"
    real = cli.replay_record

    def spy(q, d, x, sigma, c, n0, modulus, precision):
        with open(calls_path, "a", encoding="utf-8") as fh:  # pool workers append too
            fh.write(json.dumps([x, list(sigma), str(c), str(n0), str(modulus)]) + "\n")
        real(q, d, x, sigma, c, n0, modulus, precision)

    monkeypatch.setattr(cli, "replay_record", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = run(["scan", "--ell-max", "12", "--verify-sample", "1000", *argv,
                      "--jobs", jobs, "--out", str(out_path)], capsys)
    assert code == 0
    written = []
    for line in out_path.read_text().splitlines():
        rec = json.loads(line)
        pat = rec["pattern"]
        written.append([pat["x"], pat["sigma"], rec["C"], rec["n0"]["residue"], rec["modulus"]])
    assert len(written) == 232
    sampled = written  # 1000 covers every pattern of length <= 12
    if "--seed" in argv:
        sampled = [written[i] for i in sorted(random.Random(7).sample(range(232), 100))]
    calls = [json.loads(line) for line in calls_path.read_text().splitlines()]
    if jobs == "1":
        assert calls == sampled  # one call per sampled line, in line order
    else:
        # cells finish in any order across workers; each pattern is unique
        assert sorted(calls) == sorted(sampled)


def _wrong_inverse(a, bits):
    return _inverse_mod_pow2(a, bits) ^ 2  # still odd, so every written n0 is off


@pytest.mark.parametrize("jobs", [pytest.param("1", id="in-process"),
                                  pytest.param("2", id="pool", marks=FORK_ONLY)])
def test_scan_with_a_corrupted_n0_exits_two(jobs, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_inverse_mod_pow2", _wrong_inverse)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, _, err = run(["scan", "--ell-max", "12", "--verify-sample", "1000", "--jobs", jobs,
                        "--out", str(tmp_path / "scan.jsonl")], capsys)
    assert code == 2
    assert "dynamics violation: closure violation" in err


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1), (7, 3)])
@pytest.mark.parametrize("precision", [5, 64, 96])
def test_cell_writer_records_equal_the_kernel_oracle(q, d, precision):
    for _ell, y, x in length_cells(16):
        blocks, admissible, hits = cli._cell_worker((x, y, q, d, precision, True, ()))
        got = []
        for line in "\n".join(blocks).split("\n"):
            rec = json.loads(line)
            quo = int(rec["integer_value"]) if rec["verdict"] == "integer-cycle" else None
            got.append((tuple(rec["pattern"]["sigma"]), int(rec["C"]),
                        int(rec["n0"]["residue"]), quo))
        oracle = _kernel_py.cell_records(x, y, q, d, precision)
        assert got == oracle
        assert all(len(b.split("\n")) >= cli._BLOCK_LINES for b in blocks[:-1])
        is_admissible = (1 << x) > q**y if d > 0 else (1 << x) < q**y
        assert admissible == (len(oracle) if is_admissible else 0)
        assert hits == [(x, y, sigma, quo, is_admissible)
                        for sigma, _c, _n0, quo in oracle if quo is not None]


def test_general_single_pattern(capsys):
    code, out, _ = run(
        ["general", "--map", "5,1", "--x", "7", "--y", "3", "--sigma", "0,1,2"], capsys
    )
    assert code == 0
    assert "verdict: integer-cycle n = 13" in out
    assert "valuations=1,1,5" in out


def test_general_needs_map(capsys):
    code, _, _ = run(["general", "--ell-max", "4"], capsys)
    assert code == 1


def test_general_needs_some_mode(capsys):
    code, _, err = run(["general", "--map", "5,1"], capsys)
    assert code == 1
    assert "either" in err


def test_fibers_csv(capsys):
    code, out, _ = run(
        ["fibers", "--y", "1", "--x-min", "2", "--x-max", "6", "--scan-bound", "200"], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "y,x,period_exact,period_bruteforce,agree",
        "1,2,1,1,true",
        "1,3,5,5,true",
        "1,4,13,13,true",
        "1,5,29,29,true",
        "1,6,61,61,true",
    ]


def test_fibers_skip_inadmissible_x(capsys):
    code, out, _ = run(["fibers", "--y", "2", "--x-min", "1", "--x-max", "6"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["4", "5", "6"]
    assert [row.split(",")[2] for row in rows] == ["7", "23", "55"]


def test_witness_text_and_json(capsys):
    code, out, _ = run(["witness", "--y", "1", "--bound", "1000"], capsys)
    assert code == 0 and "x=10 period=1021" in out
    code, out, _ = run(["witness", "--y", "2", "-M", "100", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"y": 2, "M": "100", "x": 7, "period": "119"}


@pytest.mark.parametrize(
    "argv,target",
    [
        (["fibers", "--y", "1", "--x-min", "2", "--x-max", "3", "--format", "json"],
         "fiber_period_exact"),
        (["fibers", "--y", "1", "--x-min", "2", "--x-max", "3", "--format", "text"],
         "fiber_period_exact"),
        (["witness", "--y", "1", "--bound", "10", "--format", "csv"], "nonsemilinearity_witness"),
        (["ghost", "--x", "4", "--y", "2", "--sigma", "0,1", "--format", "csv"], "ghost_cycle"),
        (["density-probe", "--target", "1", "--format", "csv"], "kernel"),
    ],
    ids=["fibers-json", "fibers-text", "witness-csv", "ghost-csv", "density-probe-csv"],
)
def test_commands_reject_formats_they_do_not_write(argv, target, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, target, None)  # any work would fail on the missing name
    out_path = tmp_path / "out"
    code, out, err = run([*argv, "--out", str(out_path)], capsys)
    assert code == 1
    assert f"--format {argv[-1]} is not supported" in err
    assert f"error: {argv[0]} writes " in err
    assert out == "" and not out_path.exists()


def test_density_probe_even_target_never_matches(capsys):
    code, out, _ = run(
        ["density-probe", "--target", "0", "--target-precision", "8", "--ell-max", "8",
         "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exploratory"] is True
    assert set(payload["histogram"]) == {"0"}  # every n0 is odd; an even target fails at bit 0
    assert payload["best"]["depth"] == 0


def test_density_probe_odd_target_matches_bit_zero(capsys):
    code, out, _ = run(
        ["density-probe", "--target", "1", "--target-precision", "8", "--ell-max", "8",
         "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    assert all(int(depth) >= 1 for depth in payload["histogram"])


def test_density_probe_self_match(capsys):
    target = ghost_cycle(ParityPattern(4, 2, (0, 1)), 16).n0.residue
    code, out, _ = run(
        ["density-probe", "--target", str(target), "--target-precision", "16",
         "--ell-max", "6", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["best"]["depth"] == 16


def test_density_probe_precision_cap(capsys):
    code, _, err = run(["density-probe", "--target", "1", "--target-precision", "33"], capsys)
    assert code == 1


def test_unwritable_out_is_io_error(capsys):
    code, _, err = run(
        ["witness", "--y", "1", "--bound", "10", "--out", "/nonexistent-dir/w.txt"], capsys
    )
    assert code == 3


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ghostcycles", "witness", "--y", "1", "--bound", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "x=3 period=5" in proc.stdout


def test_console_script_usage_error_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ghostcycles", "ghost", "--x", "4", "--y", "2", "--sigma", "1,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "sigma[0] must be 0" in proc.stderr
