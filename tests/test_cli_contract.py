"""The scan's input contract, differentially: random argument vectors,
valid and invalid, must give the same exit code and the same bytes in one
process and in a pool of two workers."""

import io
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


@st.composite
def scan_vectors(draw):
    """(argv without --jobs/--out, whether it is valid, ell_max, --out given).

    Each flag takes a value outside the contract about one time in six,
    so that valid vectors, which start pools, are not rare.  A value of
    None leaves the flag out."""
    valid = True
    flags = []

    def option(name, good, bad=()):
        nonlocal valid
        if bad and not draw(st.sampled_from([True] * 5 + [False])):
            valid = False
            value = draw(st.sampled_from(bad))
        else:
            value = draw(st.sampled_from(good))
        if value is not None:
            flags.append([name, str(value)])
        return value

    command = draw(st.sampled_from(["scan", "general"]))
    ell = option("--ell-max", range(2, 11), [1])
    if command == "scan":
        option("--map", [None, *MAPS], BAD_MAPS)
    else:
        option("--map", MAPS, [*BAD_MAPS, None])  # general needs --map
    option("--precision", [None, 1, 2, 5, 17, 64, 96], [0])
    option("--format", [None, "json"], ["csv", "text"])
    option("--verify-sample", [None, 0, 3, 1000], [-1])
    option("--seed", [None, 0, 7])
    argv = [command] + [part for flag in draw(st.permutations(flags)) for part in flag]
    return argv, valid, ell, draw(st.booleans())


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
