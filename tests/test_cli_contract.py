"""The scan's input contract, differentially: random argument vectors,
valid and invalid, must give the same exit code and the same bytes in one
process and in a pool of two workers."""

import io
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest
from hypothesis import event, given, settings, strategies as st

from ghostcycles import cli
from ghostcycles.patterns import length_cells

MAPS = ["3,1", "5,1", "3,-1", "7,3"]
BAD_MAPS = ["4,1", "3,0", "3", "x,1"]


class _Flags:
    """Draws one argument vector flag by flag.

    Each flag takes a value outside the contract about one time in six,
    so that valid vectors are not rare.  A value of None leaves the flag
    out; `bad` collects the flags drawn out of contract."""

    def __init__(self, draw, command):
        self.draw, self.command = draw, command
        self.flags, self.bad = [], []

    def option(self, name, good, bad=()):
        if bad and not self.draw(st.sampled_from([True] * 5 + [False])):
            self.bad.append(name)
            value = self.draw(st.sampled_from(bad))
        else:
            value = self.draw(st.sampled_from(good))
        if value is not None:
            self.flags.append([name, str(value)])
        return value

    def argv(self):
        order = self.draw(st.permutations(self.flags))
        return [self.command] + [part for flag in order for part in flag]


@st.composite
def scan_vectors(draw):
    """(argv without --jobs/--out, whether it is valid, ell_max, --out given).

    Valid vectors start pools, so they must not be rare (see _Flags)."""
    f = _Flags(draw, draw(st.sampled_from(["scan", "general"])))
    ell = f.option("--ell-max", range(2, 11), [1])
    if f.command == "scan":
        f.option("--map", [None, *MAPS], BAD_MAPS)
    else:
        f.option("--map", MAPS, [*BAD_MAPS, None])  # general needs --map
    f.option("--precision", [None, 1, 2, 5, 17, 64, 96], [0])
    f.option("--format", [None, "json"], ["csv", "text"])
    f.option("--verify-sample", [None, 0, 3, 1000], [-1])
    f.option("--seed", [None, 0, 7])
    return f.argv(), not f.bad, ell, draw(st.booleans())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse-level usage errors
            code = exc.code

    def steady(text):  # the wall time is the one field allowed to differ
        return [line for line in text.splitlines() if not line.startswith("wall_time=")]

    return code, steady(out.getvalue()), steady(err.getvalue())


@settings(max_examples=30, deadline=None)
@given(scan_vectors())
def test_scan_contract_is_the_same_in_process_and_in_a_pool(vector):
    argv, valid, ell, to_file = vector
    event("valid" if valid else "invalid")
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    runs = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ProcessPoolExecutor", CountingPool)
        mp.setattr(os, "cpu_count", lambda: 3)  # --jobs 2 may start a pool on any host
        for jobs in ("1", "2"):
            out_path = os.path.join(tmp, f"jobs{jobs}.jsonl")
            full = [*argv, "--jobs", jobs] + (["--out", out_path] if to_file else [])
            pools.clear()
            code, out, err = _run(full)
            written = None
            if os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    written = fh.read()
            runs[jobs] = (code, out, err, written, list(pools))

    code, out, err, written, pools_one = runs["1"]
    assert code == (0 if valid else 1)
    assert pools_one == []
    assert runs["2"][:4] == runs["1"][:4]
    cells = list(length_cells(ell)) if ell >= 2 else []
    # the pool side must really be a pool, or the comparison checks nothing
    assert runs["2"][4] == ([2] if valid and len(cells) > 1 else [])
    if valid:
        records = written.decode().splitlines() if to_file else out
        assert len(records) == sum(comb(x - 1, y - 1) for _ell, y, x in cells)
        assert all(line.startswith('{"pattern":') for line in records)
    else:
        assert written is None and out == []


@st.composite
def fiber_vectors(draw):
    """(argv without --out, the flags drawn out of contract) for `fibers`
    or `witness`.  For `fibers` an out-of-contract --x-max is one below
    --x-min."""
    f = _Flags(draw, draw(st.sampled_from(["fibers", "witness"])))
    f.option("--y", range(1, 4), [0, -1])
    if f.command == "fibers":
        low = f.option("--x-min", range(0, 9), [-3])
        f.option("--x-max", [low + span for span in range(0, 5)], [low - 1, low - 4])
        f.option("--scan-bound", [None, 1, 5, 60, 400, 3000], [0, -5])
        f.option("--format", [None, "csv"], ["json", "text"])
    else:
        f.option("--bound" if draw(st.booleans()) else "-M", [1, 10, 1000, 10**12], [0, -7])
        f.option("--format", [None, "text", "json"], ["csv"])
    return f.argv(), f.bad


@settings(max_examples=40, deadline=None)
@given(fiber_vectors(), st.booleans())
def test_fibers_and_witness_contract(vector, to_file):
    argv, bad_flags = vector
    valid = not bad_flags
    event("valid" if valid else "invalid")
    flags = dict(zip(argv[1::2], argv[2::2]))
    y = int(flags["--y"])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if not valid:  # rejected before any work: a row or witness would fail here
            for name in ("fiber_period_exact", "fiber_period_bruteforce",
                         "nonsemilinearity_witness"):
                mp.setattr(cli, name, None)
        out_path = os.path.join(tmp, "out")
        code, out, err = _run([*argv] + (["--out", out_path] if to_file else []))
        written = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                written = fh.read().splitlines()

    if not valid:
        assert code == 1
        assert out == [] and written is None
        if bad_flags == ["--x-max"]:
            assert any("--x-min" in line and "--x-max" in line for line in err)
        return
    assert code == 0
    lines = written if to_file else out
    if argv[0] == "witness":
        bound = int(flags.get("--bound", flags.get("-M")))
        if flags.get("--format") == "json":
            record = json.loads(lines[0])
            x, period = record["x"], int(record["period"])
        else:
            x, period = (int(part.split("=")[1]) for part in lines[0].split()[-2:])
        assert period == (1 << x) - 3**y > bound
        return
    assert lines[0] == "y,x,period_exact,period_bruteforce,agree"
    xs = [x for x in range(int(flags["--x-min"]), int(flags["--x-max"]) + 1) if (1 << x) > 3**y]
    assert [int(row.split(",")[1]) for row in lines[1:]] == xs
    scan_bound = flags.get("--scan-bound")
    for row in lines[1:]:
        row_y, x, exact, _brute, agree = row.split(",")
        assert int(row_y) == y and int(exact) == (1 << int(x)) - 3**y
        if scan_bound is not None and int(scan_bound) >= 3 * int(exact):
            assert agree == "true"
