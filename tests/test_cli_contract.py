"""The CLI's input contracts: random argument vectors, valid and invalid.
A valid vector exits 0 with the output it promises; an invalid one exits 1
and writes nothing."""

import io
import json
import os
import tempfile
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


def _run(argv, to_file):
    """Run argv, with --out in a fresh directory when `to_file`; return the
    exit code, stdout and stderr lines, and the --out file's lines (None
    when no file was written)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main([*argv] + (["--out", out_path] if to_file else []))
            except SystemExit as exc:  # argparse-level usage errors
                code = exc.code
        written = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                written = fh.read().splitlines()
    return code, out.getvalue().splitlines(), err.getvalue().splitlines(), written


@st.composite
def scan_vectors(draw):
    """(argv without --out, whether it is valid, ell_max) for `scan` or
    for `general`, which is `scan` with --map required.  Neither takes
    --format or a single-pattern flag."""
    f = _Flags(draw, draw(st.sampled_from(["scan", "general"])))
    ell = f.option("--ell-max", range(2, 11), [1, 92, 3000])
    if f.command == "scan":
        f.option("--map", [None, *MAPS], BAD_MAPS)
    else:
        f.option("--map", MAPS, [*BAD_MAPS, None])  # general needs --map
        flag, value = draw(st.sampled_from([("--x", 4), ("--y", 2), ("--sigma", "0,1")]))
        f.option(flag, [None], [value])
    f.option("--precision", [None, 1, 2, 5, 17, 64, 96], [0])
    f.option("--format", [None], ["json", "csv", "text"])
    f.option("--verify-sample", [None, 0, 3, 1000], [-1])
    f.option("--jobs", [None, 1, 2, 7], [0, -1])
    f.option("--seed", [None, 0, 7])
    return f.argv(), not f.bad, ell


@settings(max_examples=40, deadline=None)
@given(scan_vectors(), st.booleans())
def test_scan_contract(vector, to_file):
    argv, valid, ell = vector
    event("valid" if valid else "invalid")
    with pytest.MonkeyPatch.context() as mp:
        if not valid:  # rejected before any work: a cell would fail here
            mp.setattr(cli, "_cell_worker", None)
        code, out, _err, written = _run(argv, to_file)
    if not valid:
        assert code == 1
        assert out == [] and written is None
        return
    assert code == 0
    records = written if to_file else out
    cells = length_cells(ell)
    assert len(records) == sum(comb(x - 1, y - 1) for _ell, y, x in cells)
    assert all(line.startswith('{"pattern":') for line in records)


@st.composite
def ghost_vectors(draw):
    """(argv without --out, whether it is valid, x, sigma) for `ghost` on
    any map.  An out-of-contract sigma does not start at 0, does not
    increase strictly, has an entry >= x, or has the wrong length; an
    out-of-contract precision is at most x + 1.  The scan flags
    --verify-sample, --seed and --jobs are out of its contract."""
    f = _Flags(draw, "ghost")
    f.option("--map", [None, *MAPS], BAD_MAPS)
    f.option("--verify-sample", [None], [0, 5])
    f.option("--seed", [None], [0, 7])
    f.option("--jobs", [None], [1, 2])
    x = f.option("--x", range(1, 11))
    y = f.option("--y", range(1, x + 1))
    sigma = [0, *sorted(draw(st.permutations(range(1, x)))[:y - 1])]
    bad_sigmas = [[s + 1 for s in sigma], [*sigma[:-1], x + draw(st.integers(0, 3))],
                  [*sigma, sigma[-1] + 1]]
    if y > 1:
        bad_sigmas += [[*sigma[:-1], sigma[-2]], sigma[:-1]]
    f.option("--sigma", [",".join(map(str, sigma))],
             [",".join(map(str, bad)) for bad in bad_sigmas])
    f.option("--precision", [None, x + 2, x + 3, 64, 96], [1, x, x + 1])
    f.option("--format", [None, "text", "json"], ["csv"])
    return f.argv(), not f.bad, x, sigma


@settings(max_examples=40, deadline=None)
@given(ghost_vectors(), st.booleans())
def test_ghost_contract(vector, to_file):
    argv, valid, x, sigma = vector
    event("valid" if valid else "invalid")
    code, out, _err, written = _run(argv, to_file)
    if not valid:
        assert code == 1
        assert out == [] and written is None
        return
    assert code == 0
    lines = written if to_file else out
    if "json" in argv:
        valuations = json.loads(lines[0])["trace"]["valuations"]
    else:
        trace = next(line for line in lines if line.startswith("trace: valuations="))
        valuations = [int(v) for v in trace.split()[1].split("=")[1].split(",")]
    steps = [b - a for a, b in zip(sigma, sigma[1:])] + [x - sigma[-1]]
    assert valuations == steps


@st.composite
def fiber_vectors(draw):
    """(argv without --out, the flags drawn out of contract) for `fibers`
    or `witness`.  For `fibers` an out-of-contract --x-max is one below
    --x-min.  Neither takes --precision or --jobs; `fibers` takes no
    --format, and accepts --seed with no effect, and `witness` takes no
    --seed."""
    f = _Flags(draw, draw(st.sampled_from(["fibers", "witness"])))
    f.option("--y", range(1, 4), [0, -1])
    if f.command == "fibers":
        low = f.option("--x-min", range(0, 9), [-3])
        f.option("--x-max", [low + span for span in range(0, 5)], [low - 1, low - 4])
        f.option("--scan-bound", [None, 1, 5, 60, 400, 3000], [0, -5])
        f.option("--format", [None], ["csv", "json", "text"])
        f.option("--seed", [None, 0, 7])
    else:
        f.option("--bound" if draw(st.booleans()) else "-M", [1, 10, 1000, 10**12], [0, -7])
        f.option("--format", [None, "text", "json"], ["csv"])
        f.option("--seed", [None], [0, 7])
    f.option("--precision", [None], [1, 64])
    f.option("--jobs", [None], [1, 2])
    return f.argv(), f.bad


@settings(max_examples=40, deadline=None)
@given(fiber_vectors(), st.booleans())
def test_fibers_and_witness_contract(vector, to_file):
    argv, bad_flags = vector
    valid = not bad_flags
    event("valid" if valid else "invalid")
    flags = dict(zip(argv[1::2], argv[2::2]))
    y = int(flags["--y"])
    with pytest.MonkeyPatch.context() as mp:
        if not valid:  # rejected before any work: a row or witness would fail here
            for name in ("fiber_period_exact", "fiber_period_bruteforce",
                         "nonsemilinearity_witness"):
                mp.setattr(cli, name, None)
        code, out, err, written = _run(argv, to_file)

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
