"""CLI behavior: rendering, schemas, exit codes, and agreement with the
library routes."""

import inspect
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from ghostcycles import _kernel_py, cli, dynamics
from ghostcycles.cli import main
from ghostcycles.cycle import ghost_cycle
from ghostcycles.padic import _inverse_mod_pow2
from ghostcycles.patterns import (
    COLLATZ,
    GeneralizedMap,
    ParityPattern,
    is_admissible,
    length_cells,
)
from ghostcycles.semilinear import nonsemilinearity_witness

from oracles import enumerate_by_length, ghost_record, trace_cycle, trace_record


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


def _run_quiet(argv):
    """main(argv) in-process as (exit code, stdout, stderr), for a
    hypothesis test, which cannot take the function-scoped capsys."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def ghost_cases(draw):
    """(q, d, x, sigma, precision): a pattern with x <= 14 under one of the
    four test maps or a drawn map with odd q <= 9, at a precision from
    x + 2 to x + 70."""
    q, d = draw(st.sampled_from([(3, 1), (5, 1), (3, -1), (7, 3)])
                | st.tuples(st.sampled_from([3, 5, 7, 9]),
                            st.integers(-15, 15).filter(lambda v: v % 2)))
    x = draw(st.integers(1, 14))
    y = draw(st.integers(1, x))
    sigma = (0, *sorted(draw(st.permutations(range(1, x)))[:y - 1]))
    return q, d, x, sigma, draw(st.integers(x + 2, x + 70))


@settings(max_examples=80, deadline=None)
@given(ghost_cases())
@example((5, 1, 7, (0, 1, 2), 64))  # the 5n+1 integer cycle through 13
@example((5, 1, 4, (0, 1), 20))  # inadmissible: 2^4 < 5^2
@example((3, 1, 4, (0, 1), 64))  # the default map, written without "q" and "d"
def test_ghost_json_is_json_dumps_of_the_oracle_records(case):
    q, d, x, sigma, precision = case
    m, p = GeneralizedMap(q, d), ParityPattern(x, len(sigma), sigma)
    flags = [] if m == COLLATZ else ["--map", f"{q},{d}"]
    code, out, err = _run_quiet(["ghost", *flags, "--x", str(x), "--y", str(len(sigma)),
                                 "--sigma", ",".join(map(str, sigma)),
                                 "--precision", str(precision), "--format", "json"])
    assert code == 0, err
    payload = {"ghost": ghost_record(ghost_cycle(p, precision, m), m),
               "trace": trace_record(trace_cycle(p, precision, m), m)}
    assert out == json.dumps(payload, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ghost_solves_the_cycle_once(fmt, capsys, monkeypatch):
    # a stand-in counts the solves through dynamics.ghost_cycle and through
    # any other module's binding of ghost_cycle; the hooked
    # cli.iterate_cycle is called once
    calls = []

    def counted(name, fn):
        def stand_in(*args):
            calls.append(name)
            return fn(*args)
        return stand_in

    solve = counted("solve", ghost_cycle)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ghostcycles" and getattr(module, "ghost_cycle", None) is ghost_cycle:
            monkeypatch.setattr(module, "ghost_cycle", solve)
    assert dynamics.ghost_cycle is solve
    monkeypatch.setattr(cli, "iterate_cycle", counted("trace", cli.iterate_cycle))
    code, out, _ = run(["ghost", "--x", "4", "--y", "2", "--sigma", "0,1", "--format", fmt],
                       capsys)
    assert code == 0 and out
    assert calls == ["trace", "solve"]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 10**30))
@example(2, 100)
def test_witness_json_is_json_dumps_of_its_dict(y, bound):
    code, out, err = _run_quiet(["witness", "--y", str(y), "--bound", str(bound),
                                 "--format", "json"])
    assert code == 0, err
    rec = nonsemilinearity_witness(y, bound)
    payload = {"y": y, "M": str(bound), "x": rec.x, "period": str(rec.period)}
    assert out == json.dumps(payload, separators=(",", ":")) + "\n"


def test_ghost_rejects_a_precision_too_small_before_it_solves(capsys, monkeypatch):
    # with the solver gone any solve fails; solving x = 99999999999 first
    # ran out of memory and exited 3
    monkeypatch.setattr(dynamics, "ghost_cycle", None)
    code, out, err = run(["ghost", "--x", "99999999999", "--y", "1", "--sigma", "0",
                          "--precision", "2"], capsys)
    assert code == 1
    assert "precision 2 too small" in err
    assert out == ""


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
def test_scan_template_is_json_dumps_of_the_library_record(argv, precision, capsys, tmp_path):
    # the expected stream is built from the cycle modules, not the kernel
    m = GeneralizedMap(*map(int, argv[1].split(","))) if argv else COLLATZ
    expected = []
    for p, _adm in enumerate_by_length(16):
        rec = ghost_record(ghost_cycle(p, precision, m), m)
        expected.append(json.dumps(rec, separators=(",", ":")) + "\n")
    expected = "".join(expected).encode()
    base = ["scan", "--ell-max", "16", *argv]
    if precision != 64:
        # replay every record; at precision 5 most records have x >= precision
        base += ["--precision", str(precision), "--verify-sample", "100000"]
    out_path = tmp_path / "scan.jsonl"
    assert run([*base, "--jobs", "2", "--out", str(out_path)], capsys)[0] == 0  # --jobs is a no-op
    code, out, _ = run(base, capsys)
    assert code == 0
    assert out_path.read_bytes() == expected
    assert out.encode() == expected


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--precision", "0"], "argument --precision: must be >= 1, got 0"),
        (["--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
        (["--verify-sample", "-1"], "argument --verify-sample: must be >= 0, got -1"),
        (["--format", "csv"], "error: unrecognized arguments: --format csv"),
        (["--format", "text"], "error: unrecognized arguments: --format text"),
        # past sys.maxsize patterns (a 64-bit build), before any cell is sized
        (["--ell-max", "92"], "error: --ell-max 92 is out of reach: the 12200160415121876737"
                              " patterns up to ell 92 exceed sys.maxsize = 9223372036854775807"),
        (["--ell-max", "3000"], "error: --ell-max 3000 is out of reach: the 12200160415121876737"
                                " patterns up to ell 92 exceed sys.maxsize"),
    ],
    ids=["precision-0", "jobs-0", "verify-sample-negative", "format-csv", "format-text",
         "ell-max-92", "ell-max-3000"],
)
def test_scan_rejects_inputs_outside_its_contract_before_any_work(flags, message, capsys,
                                                                  tmp_path, monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell ran on a rejected scan")

    monkeypatch.setattr(cli, "_cell_worker", no_cell)
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(["scan", "--ell-max", "6", *flags, "--out", str(out_path)], capsys)
    assert code == 1
    assert message in err
    assert out == "" and not out_path.exists()


def test_unwritable_scan_out_fails_before_the_kernel_runs(capsys, monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell ran before --out was opened")

    monkeypatch.setattr(cli, "_cell_worker", no_cell)
    code, _, err = run(["scan", "--ell-max", "12", "--out", "/nonexistent/dir/f"], capsys)
    assert code == 3
    assert "i/o error" in err


@pytest.mark.parametrize("argv", [[], ["--map", "3,-1"], ["--precision", "5"],
                                  ["--verify-sample", "100", "--seed", "7"],
                                  ["--verify-sample", "200", "--seed", "7"]],
                         ids=["3n+1", "3n-1", "precision-5", "sample-100", "sample-200"])
def test_scan_replays_exactly_the_records_it_writes(argv, capsys, tmp_path, monkeypatch):
    calls = []
    real = cli.replay_record

    def spy(q, d, x, sigma, c, n0, modulus, precision, quotient):
        quo = None if quotient is None else str(quotient)
        calls.append([x, list(sigma), str(c), str(n0), str(modulus), quo])
        real(q, d, x, sigma, c, n0, modulus, precision, quotient)

    monkeypatch.setattr(cli, "replay_record", spy)
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = run(["scan", "--ell-max", "12", "--verify-sample", "1000", *argv,
                      "--out", str(out_path)], capsys)
    assert code == 0
    written = []
    for line in out_path.read_text().splitlines():
        rec = json.loads(line)
        pat = rec["pattern"]
        written.append([pat["x"], pat["sigma"], rec["C"], rec["n0"]["residue"], rec["modulus"],
                        rec.get("integer_value")])
    assert len(written) == 232
    sampled = written  # 1000 covers every pattern of length <= 12
    if "100" in argv:
        sampled = [written[i] for i in sorted(random.Random(7).sample(range(232), 100))]
    elif "200" in argv:  # more than half: the scan draws the 32 lines it skips
        skip = set(random.Random(7).sample(range(232), 32))
        sampled = [line for i, line in enumerate(written) if i not in skip]
        assert len(sampled) == 200
    assert calls == sampled  # one call per sampled line, in line order


@pytest.mark.parametrize("argv", [[], ["--map", "5,1"], ["--map", "3,-1"], ["--map", "7,3"]],
                         ids=["3n+1", "5n+1", "3n-1", "7n+3"])
def test_scan_replaying_every_record_writes_the_unverified_bytes(argv, capsys, tmp_path):
    full, none = tmp_path / "full.jsonl", tmp_path / "none.jsonl"
    base = ["scan", "--ell-max", "16", *argv]
    code, out, _ = run([*base, "--verify-sample", "100000", "--out", str(full)], capsys)
    assert code == 0 and f"verified_sample={len(full.read_bytes().splitlines())}\n" in out
    assert run([*base, "--verify-sample", "0", "--out", str(none)], capsys)[0] == 0
    assert full.read_bytes() == none.read_bytes()


def _wrong_inverse(a, bits):
    return _inverse_mod_pow2(a, bits) ^ 2  # still odd, so every written n0 is off


def test_scan_with_a_corrupted_n0_exits_two(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_inverse_mod_pow2", _wrong_inverse)
    code, _, err = run(["scan", "--ell-max", "12", "--verify-sample", "1000",
                        "--out", str(tmp_path / "scan.jsonl")], capsys)
    assert code == 2
    assert "dynamics violation: closure violation" in err


def _cell_worker_with(old, new):
    """cli._cell_worker compiled from its own source with one line changed."""
    source = inspect.getsource(cli._cell_worker)
    assert source.count(old) == 1
    namespace = dict(vars(cli))  # the module's globals, so the mutant resolves every name
    exec(compile(source.replace(old, new), cli.__file__, "exec"), namespace)
    return namespace["_cell_worker"]


def test_scan_with_an_integer_value_off_by_one_exits_two(capsys, monkeypatch, tmp_path):
    mutant = _cell_worker_with("quo = c // modulus\n", "quo = c // modulus + 1\n")
    monkeypatch.setattr(cli, "_cell_worker", mutant)
    out_path = tmp_path / "scan.jsonl"
    base = ["scan", "--ell-max", "12", "--out", str(out_path)]
    # unverified, the mutant writes 2 for the trivial cycle through 1 and exits 0
    assert run([*base, "--verify-sample", "0"], capsys)[0] == 0
    line = next(line for line in out_path.read_text().splitlines()
                if line.startswith('{"pattern":{"x":4,"y":2,"sigma":[0,2],'))
    assert json.loads(line)["integer_value"] == "2"
    code, _, err = run([*base, "--verify-sample", "1000"], capsys)
    assert code == 2
    assert "dynamics violation: verdict violation at odd step " in err


def test_scan_with_c_moved_past_the_precision_exits_two(capsys, monkeypatch, tmp_path):
    # C moved by modulus * 2**(precision + x) keeps n0 * modulus = C mod
    # 2**precision and moves an integral record's quotient by 2**(precision
    # + x); the orbit of the moved C / modulus then closes mod 2**precision,
    # so only an exact closure can tell
    mutant = _cell_worker_with(
        "c, n0 = base + cs, (bn0 + ns) & mask\n",
        "c, n0 = base + cs + (modulus << (precision + x)), (bn0 + ns) & mask\n")
    monkeypatch.setattr(cli, "_cell_worker", mutant)
    out_path = tmp_path / "scan.jsonl"
    base = ["scan", "--ell-max", "12", "--out", str(out_path)]
    assert run([*base, "--verify-sample", "0"], capsys)[0] == 0
    line = next(line for line in out_path.read_text().splitlines()
                if line.startswith('{"pattern":{"x":4,"y":2,"sigma":[0,2],'))
    rec = json.loads(line)
    assert (rec["C"], rec["n0"]["residue"], rec["integer_value"]) == (
        str(7 + (7 << 68)), "1", str(1 + (1 << 68)))
    code, _, err = run([*base, "--verify-sample", "100000"], capsys)
    assert code == 2
    assert "dynamics violation: closure violation at odd step " in err


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1), (7, 3)])
@pytest.mark.parametrize("precision", [5, 64, 96])
def test_cell_writer_records_equal_the_kernel_oracle(q, d, precision):
    for _ell, y, x in length_cells(16):
        hits = []
        blocks = list(cli._cell_worker(x, y, GeneralizedMap(q, d), precision, (), hits))
        got = []
        for line in "\n".join(blocks).split("\n"):
            rec = json.loads(line)
            quo = int(rec["integer_value"]) if rec["verdict"] == "integer-cycle" else None
            got.append((tuple(rec["pattern"]["sigma"]), int(rec["C"]),
                        int(rec["n0"]["residue"]), quo))
        oracle = _kernel_py.cell_records(x, y, q, d, precision)
        assert got == oracle
        assert all(len(b.split("\n")) >= cli._BLOCK_LINES for b in blocks[:-1])
        admissible = (1 << x) > q**y if d > 0 else (1 << x) < q**y
        assert hits == [(x, y, sigma, quo, admissible)
                        for sigma, _c, _n0, quo in oracle if quo is not None]


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1), (7, 3)])
def test_scan_summary_counts_the_maps_admissible_patterns_and_lines_carry_the_map(
        q, d, capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(["scan", "--ell-max", "14", "--map", f"{q},{d}", "--out", str(out_path)],
                       capsys)
    assert code == 0
    admissible = sum(is_admissible(p.x, p.y, q, d) for p, _adm in enumerate_by_length(14))
    assert f" admissible={admissible} " in out
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert sum(rec["pattern"]["admissible"] for rec in records) == admissible
    tail = {} if (q, d) == (3, 1) else {"q": q, "d": d}  # 3n+1 lines name no map
    assert all({key: rec[key] for key in ("q", "d") if key in rec} == tail for rec in records)


def _record_of(line):
    """(sigma, C, n0 residue, quotient or None) of one written scan line."""
    rec = json.loads(line)
    quo = int(rec["integer_value"]) if rec["verdict"] == "integer-cycle" else None
    return tuple(rec["pattern"]["sigma"]), int(rec["C"]), int(rec["n0"]["residue"]), quo


@st.composite
def sampled_cells(draw):
    """One scan cell (x <= 16) and sorted cell-local sample indices that
    always hold its first and last record."""
    x = draw(st.integers(1, 16))
    y = draw(st.integers(1, x))
    q, d = draw(st.sampled_from([(3, 1), (5, 1), (3, -1), (7, 3)]))
    precision = draw(st.integers(1, 96))
    last = comb(x - 1, y - 1) - 1
    inner = draw(st.sets(st.integers(0, last), max_size=30))
    return x, y, q, d, precision, tuple(sorted(inner | {0, last}))


@settings(max_examples=80, deadline=None)
@given(sampled_cells())
# sampled records that are also integral: the one rewrite pass must append
# each one's hit once and replay the very values of the line it writes
@example((2, 1, 3, 1, 64, (0,)))  # the cycle through 1
@example((4, 2, 3, 1, 64, (0, 1, 2)))  # index 1 is sigma (0, 2), the cycle through 1
@example((7, 3, 5, 1, 64, tuple(range(comb(6, 2)))))  # 5n+1: six integral records, all sampled
def test_sampled_cell_writer_equals_the_kernel_oracle_and_replays_its_lines(cell):
    x, y, q, d, precision, verify = cell
    calls, hits = [], []
    real = cli.replay_record

    def spy(*args):
        calls.append(args)
        real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "replay_record", spy)
        blocks = list(cli._cell_worker(x, y, GeneralizedMap(q, d), precision, verify, hits))
    lines = "\n".join(blocks).split("\n")
    oracle = _kernel_py.cell_records(x, y, q, d, precision)
    assert [_record_of(line) for line in lines] == oracle
    admissible = (1 << x) > q**y if d > 0 else (1 << x) < q**y
    assert hits == [(x, y, sigma, quo, admissible)
                    for sigma, _c, _n0, quo in oracle if quo is not None]
    modulus = (1 << x) - q**y
    written = [_record_of(lines[i]) for i in verify]
    assert calls == [(q, d, x, sigma, c, n0, modulus, precision, quo)
                     for sigma, c, n0, quo in written]


# One pattern of a general qn+d map is `ghost --map`; `general` is a scan.


def test_general_single_pattern(capsys):
    code, out, _ = run(
        ["ghost", "--map", "5,1", "--x", "7", "--y", "3", "--sigma", "0,1,2"], capsys
    )
    assert code == 0
    assert "verdict: integer-cycle n = 13" in out
    assert "valuations=1,1,5" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_general_single_pattern_on_3n_plus_1_prints_what_ghost_prints(fmt, capsys):
    flags = ["--x", "4", "--y", "2", "--sigma", "0,1", "--format", fmt]
    mapped = run(["ghost", "--map", "3,1", *flags], capsys)
    assert mapped[0] == 0
    assert mapped == run(["ghost", *flags], capsys)


def test_general_single_pattern_trace_uses_the_maps_admissibility(capsys):
    code, out, _ = run(["ghost", "--map", "5,1", "--x", "4", "--y", "2", "--sigma", "0,1",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ghost"]["pattern"] == payload["trace"]["pattern"]
    assert payload["trace"]["pattern"]["admissible"] is False  # 2^4 > 3^2 but 16 < 25


def test_general_single_pattern_rejects_verify_sample(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "iterate_cycle", None)  # any work would fail on the missing name
    out_path = tmp_path / "out"
    code, out, err = run(["ghost", "--map", "5,1", "--x", "7", "--y", "3", "--sigma", "0,1,2",
                          "--verify-sample", "5", "--out", str(out_path)], capsys)
    assert code == 1
    assert "error: unrecognized arguments: --verify-sample 5\n" in err
    assert out == "" and not out_path.exists()


def test_general_needs_map(capsys):
    code, _, _ = run(["general", "--ell-max", "4"], capsys)
    assert code == 1


def test_general_needs_some_mode(capsys):
    code, _, err = run(["general", "--map", "5,1"], capsys)
    assert code == 1
    assert "error: the following arguments are required: --ell-max\n" in err


@pytest.mark.parametrize("flag,value", [("--x", "4"), ("--y", "2"), ("--sigma", "0,1")])
def test_general_scan_rejects_single_pattern_flags(flag, value, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_cell_worker", None)  # any work would fail on the missing name
    out_path = tmp_path / "out"
    code, out, err = run(["general", "--map", "5,1", "--ell-max", "3", flag, value,
                          "--out", str(out_path)], capsys)
    assert code == 1
    assert f"error: unrecognized arguments: {flag} {value}\n" in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("command", [["scan", "--ell-max", "4"], ["general", "--ell-max", "4"],
                                     ["ghost", "--x", "4", "--y", "2", "--sigma", "0,1"]],
                         ids=["scan", "general", "ghost"])
@pytest.mark.parametrize(
    "text,message",
    [("4,1", "multiplier q must be an odd integer >= 3, got 4"),
     ("3,0", "offset d must be odd and nonzero, got 0"),
     ("3", "expects two integers q,d, got '3'"),
     ("x,1", "expects two integers q,d, got 'x,1'")],
)
def test_bad_map_names_its_reason(command, text, message, capsys):
    code, out, err = run([*command, "--map", text], capsys)
    assert code == 1
    assert f"error: argument --map: {message}\n" in err
    assert "_parse_map" not in err and out == ""


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
        (["ghost", "--x", "4", "--y", "2", "--sigma", "0,1", "--format", "csv"], "iterate_cycle"),
    ],
    ids=["fibers-json", "fibers-text", "witness-csv", "ghost-csv"],
)
def test_commands_reject_formats_they_do_not_write(argv, target, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, target, None)  # any work would fail on the missing name
    out_path = tmp_path / "out"
    code, out, err = run([*argv, "--out", str(out_path)], capsys)
    assert code == 1
    if argv[0] == "fibers":  # fibers writes CSV only and takes no --format
        assert f"error: unrecognized arguments: --format {argv[-1]}\n" in err
    else:
        assert f"error: argument --format: invalid choice: '{argv[-1]}'" in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("command,flags", [
    ("ghost", "--x --y --sigma --map --precision --format --out"),
    ("scan", "--ell-max --map --precision --verify-sample --seed --jobs --out"),
    ("general", "--ell-max --map --precision --verify-sample --seed --jobs --out"),
    ("fibers", "--y --x-min --x-max --scan-bound --seed --out"),
    ("witness", "--y --bound -M --format --out"),
])
def test_help_lists_exactly_the_flags_the_command_reads(command, flags, capsys):
    code, out, _ = run([command, "--help"], capsys)
    assert code == 0
    options = out.split("\n\n", 1)[1]  # the option list, after the usage lines
    listed = dict.fromkeys(re.findall(r"(?<![\w-])--?[a-zA-Z][\w-]*", options))
    assert list(listed) == ["-h", "--help", *flags.split()]


_COMMANDS = {  # each command's argv and the worker that any of its work would call
    "ghost": (["ghost", "--x", "4", "--y", "2", "--sigma", "0,1"], "iterate_cycle"),
    "scan": (["scan", "--ell-max", "4"], "_cell_worker"),
    "general": (["general", "--map", "5,1", "--ell-max", "4"], "_cell_worker"),
    "fibers": (["fibers", "--y", "1", "--x-min", "2", "--x-max", "3"], "fiber_period_exact"),
    "witness": (["witness", "--y", "1", "--bound", "10"], "nonsemilinearity_witness"),
}


@pytest.mark.parametrize("command,flag", [
    ("ghost", ["--jobs", "2"]), ("ghost", ["--seed", "7"]),
    ("scan", ["--format", "json"]),
    ("general", ["--format", "json"]), ("general", ["--x", "7"]), ("general", ["--y", "3"]),
    ("general", ["--sigma", "0,1,2"]),
    ("fibers", ["--precision", "64"]), ("fibers", ["--format", "csv"]), ("fibers", ["--jobs", "2"]),
    ("witness", ["--precision", "64"]), ("witness", ["--seed", "7"]), ("witness", ["--jobs", "2"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_a_flag_the_command_does_not_read_is_rejected_before_work(command, flag, capsys,
                                                                  monkeypatch, tmp_path):
    argv, worker = _COMMANDS[command]

    def no_work(*args):
        raise AssertionError(f"{worker} ran on a rejected command")

    monkeypatch.setattr(cli, worker, no_work)
    out_path = tmp_path / "out"
    code, out, err = run([*argv, *flag, "--out", str(out_path)], capsys)
    assert code == 1
    assert f"error: unrecognized arguments: {' '.join(flag)}\n" in err
    assert out == "" and not out_path.exists()


_FULL = {  # each command with every flag it reads but --out, spelled in full
    "ghost": ["ghost", "--x", "4", "--y", "2", "--sigma", "0,1", "--map", "3,1",
              "--precision", "64", "--format", "json"],
    "scan": ["scan", "--ell-max", "5", "--map", "3,1", "--precision", "64",
             "--verify-sample", "3", "--seed", "1", "--jobs", "1"],
    "general": ["general", "--ell-max", "5", "--map", "5,1", "--precision", "64",
                "--verify-sample", "3", "--seed", "1", "--jobs", "1"],
    "fibers": ["fibers", "--y", "1", "--x-min", "2", "--x-max", "4", "--scan-bound", "60",
               "--seed", "1"],
    "witness": ["witness", "--y", "1", "--bound", "10", "--format", "json"],
}


def _abbreviations():
    """(command, flag, its shortest unique prefix) for every long flag of a
    command that has a prefix shorter than itself."""
    cases = []
    for command, argv in _FULL.items():
        flags = [a for a in argv if a.startswith("--")] + ["--out", "--help"]
        for flag in flags:
            for n in range(3, len(flag)):
                if not any(f.startswith(flag[:n]) for f in flags if f != flag):
                    cases.append((command, flag, flag[:n]))
                    break
    return cases


_ABBREVIATIONS = _abbreviations()


@pytest.mark.parametrize("command,flag,prefix", _ABBREVIATIONS,
                         ids=[f"{c}-{p}" for c, _, p in _ABBREVIATIONS])
def test_a_flag_abbreviation_is_rejected_before_work(command, flag, prefix, capsys,
                                                     monkeypatch, tmp_path):
    worker = _COMMANDS[command][1]

    def no_work(*args):
        raise AssertionError(f"{worker} ran on a rejected command")

    monkeypatch.setattr(cli, worker, no_work)
    out_path = tmp_path / "out"
    argv = [prefix if a == flag else a for a in [*_FULL[command], "--out", str(out_path)]]
    if flag == "--help":
        argv.append(prefix)
    code, out, err = run(argv, capsys)
    assert code == 1
    # a required flag is then missing, which argparse reports first
    assert (f"error: unrecognized arguments: {prefix}" in err
            or re.search(rf"error: the following arguments are required: .*{flag}\b", err))
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("command", sorted(_FULL))
def test_full_flag_names_and_flag_equals_value_still_parse(command, capsys, tmp_path):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    argv = _FULL[command]
    assert run([*argv, "--out", str(spaced)], capsys)[0] == 0
    pairs = [f"{argv[i]}={argv[i + 1]}" for i in range(1, len(argv), 2)]
    assert run([command, *pairs, f"--out={joined}"], capsys)[0] == 0
    assert joined.read_bytes() == spaced.read_bytes() != b""


@pytest.fixture
def default_digit_cap():
    """CPython's default cap on int/str conversion for the test, and the
    cap the process had before restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before CPython 3.10.7
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _round_trips(text):
    assert str(int(text)) == text
    return int(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ghost_writes_every_integer_exactly_past_the_digit_cap(fmt, capsys, default_digit_cap):
    code, out, err = run(["ghost", "--x", "4", "--y", "2", "--sigma", "0,1", "--precision", "20000",
                          "--format", fmt], capsys)
    assert (code, err) == (0, "")
    if fmt == "json":
        payload = json.loads(out)
        rec = payload["ghost"]
        c, modulus, n0 = rec["C"], rec["modulus"], rec["n0"]["residue"]
        for m in payload["trace"]["m"]:
            _round_trips(m["residue"])
    else:
        fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
        c, modulus = fields["C"], fields["modulus"]
        n0, _, at = fields["n0"].partition(" + ")
        assert at == "O(2^20000)"
    assert len(n0) > 4300  # past CPython's default cap
    assert (_round_trips(n0) * _round_trips(modulus) - _round_trips(c)) % (1 << 20000) == 0


def test_scan_replays_every_record_past_the_digit_cap(capsys, monkeypatch, tmp_path,
                                                      default_digit_cap):
    calls = []
    real = cli.replay_record

    def spy(*record):
        calls.append(record)
        real(*record)

    monkeypatch.setattr(cli, "replay_record", spy)
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(["scan", "--ell-max", "6", "--precision", "20000", "--verify-sample",
                        "100000", "--out", str(out_path)], capsys)
    assert code == 0 and " verified_sample=12\n" in out
    lines = out_path.read_text().splitlines()
    assert len(lines) == len(calls) == 12
    for line, (*_, c, n0, modulus, precision, _quo) in zip(lines, calls):
        rec = json.loads(line)
        assert (_round_trips(rec["C"]), _round_trips(rec["n0"]["residue"])) == (c, n0)
        assert precision == 20000 and (n0 * modulus - c) % (1 << 20000) == 0


def test_witness_and_fibers_print_their_closed_forms_past_the_digit_cap(capsys, default_digit_cap):
    code, out, _ = run(["witness", "--y", "20000", "--bound", "1"], capsys)
    x = (1 + 3**20000).bit_length()
    assert (code, out) == (0, f"y=20000 M=1 -> x={x} period={(1 << x) - 3**20000}\n")
    code, out, _ = run(["fibers", "--y", "9100", "--x-min", "14425", "--x-max", "14427"], capsys)
    assert code == 0
    assert out.splitlines() == ["y,x,period_exact,period_bruteforce,agree"] + [
        f"9100,{x},{(1 << x) - 3**9100},," for x in (14425, 14426, 14427)]


def test_out_of_memory_exits_three_with_one_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_witness", exhausted)
    code, out, err = run(["witness", "--y", "1", "--bound", "1"], capsys)
    assert (code, out, err) == (3, "", "error: out of memory\n")


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


def _run_into_a_closed_pipe(argv, closed, buffered=True):
    """Run the CLI with each stream named in `closed` writing into a pipe
    whose reader is gone before the command starts, and stderr otherwise
    captured.  Buffered streams meet the closed pipe as late as the
    interpreter's flush at exit, where a failure would give code 120."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "ghostcycles", *argv],
            stdout=write_end if "stdout" in closed else subprocess.DEVNULL,
            stderr=write_end if "stderr" in closed else subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [
    ["scan", "--ell-max", "12"],
    ["fibers", "--y", "2", "--x-min", "4", "--x-max", "8"],
    ["ghost", "--x", "4", "--y", "2", "--sigma", "0,1"],
], ids=["scan", "fibers", "ghost"])
@pytest.mark.parametrize("closed", [("stdout", "stderr"), ("stdout",)],
                         ids=["stdout-and-stderr", "stdout"])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_output_pipe_exits_three(argv, closed, buffered):
    proc = _run_into_a_closed_pipe(argv, closed, buffered)
    assert proc.returncode == 3
    if "stderr" not in closed:
        assert proc.stderr.decode() == "i/o error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [["scan"], ["ghost", "--x", "4", "--y", "2", "--sigma", "1,2"]],
                         ids=["argparse", "pattern"])
def test_a_usage_error_with_stderr_closed_exits_one(argv):
    assert _run_into_a_closed_pipe(argv, ("stderr",)).returncode == 1


def test_console_script_usage_error_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ghostcycles", "ghost", "--x", "4", "--y", "2", "--sigma", "1,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "sigma[0] must be 0" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["scan", "--ell-max", "2"],
     ["fibers", "--y", "2", "--x-min", "4", "--x-max", "4", "--scan-bound", "64"],
     ["general", "--map", "5,1", "--ell-max", "2"],
     ["ghost", "--map", "5,1", "--x", "7", "--y", "3", "--sigma", "0,1,2", "--format", "json"],
     ["witness", "--y", "2", "--bound", "100", "--format", "json"]],
    ids=["scan", "fibers", "general", "ghost-json", "witness-json"],
)
def test_cli_start_loads_no_pool_or_json_module(argv):
    # -X importtime lists on stderr every module the run imports.  No start
    # needs a pool, json, or dataclasses (with inspect): the package writes
    # JSON from fixed templates.  Only fibers and witness load the
    # semilinear module.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ghostcycles", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "ghostcycles.cli" in loaded
    assert {name for name in loaded
            if name.split(".")[0] in ("concurrent", "multiprocessing", "json",
                                      "dataclasses", "inspect")} == set()
    if argv[0] not in ("fibers", "witness"):
        assert "ghostcycles.semilinear" not in loaded


def _scan_peak_rss_kb(ell_max):
    """Peak RSS of one `scan --ell-max N`, read in a fresh process whose only
    child is that scan (ru_maxrss of RUSAGE_CHILDREN is the largest child's)."""
    probe = ("import os, resource, subprocess, sys\n"
             "subprocess.run([sys.executable, '-m', 'ghostcycles', 'scan', '--ell-max', sys.argv[1],"
             " '--out', os.devnull], check=True, stdout=subprocess.DEVNULL)\n"
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", probe, str(ell_max)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_scan_memory_stays_flat_in_ell_max():
    # the largest cell at ell 30 holds about 200k records, some 40 MB of
    # lines; each block is written as soon as it fills, so the peak stays
    # within a few MB of a scan whose largest cell is 40 times smaller
    assert _scan_peak_rss_kb(30) - _scan_peak_rss_kb(22) <= 5 * 1024
