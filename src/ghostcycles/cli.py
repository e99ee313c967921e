"""Command-line driver: scans, single-pattern verification, fiber tables
and witnesses.

Each subcommand parses only the flags it reads, spelled in full, and
argparse enforces every choice, so any other flag, abbreviation or value
exits 1 before work.  `general` is `scan` with `--map q,d` required.

Exit codes: 0 success, 1 usage error, 2 dynamics violation (should never
happen; a genuine bug if it does), 3 I/O failure.

Every command runs in the calling process.  A scan's `--jobs` (>= 1) and
`fibers --seed` are accepted for compatibility and have no effect.

Output discipline: machine-readable streams (JSONL for scans, CSV for
fiber tables) are byte-identical for identical flags.  Anything
nondeterministic (wall time) goes to the summary on the other stream,
never into the records.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from bisect import bisect_left
from contextlib import nullcontext
from itertools import chain
from math import comb

from .cycle import ghost_cycle
from .dynamics import DynamicsViolation, iterate_cycle, replay_record
from .padic import _inverse_mod_pow2
from .patterns import (
    COLLATZ,
    GeneralizedMap,
    ParityPattern,
    PatternError,
    is_admissible,
    length_cells,
)

# A command imports what only it runs inside itself, so a scan loads
# neither `records` nor `semilinear`.  The semilinear functions are served
# by __getattr__ and called as attributes of this module (`_this`), so that
# a name set on the module, such as the benchmark's traced wrapper or a
# test's stand-in, is the one that runs.
_this = sys.modules[__name__]
_SEMILINEAR = {"fiber_period_exact", "fiber_period_bruteforce", "nonsemilinearity_witness"}


def __getattr__(name: str):
    # perfbench/layers.py also hooks ProcessPoolExecutor and
    # general_iterate_cycle, and a traced metric whose hook is missing reads
    # null.  No command uses a process pool, so concurrent.futures (and with
    # it multiprocessing) is imported only when asked for; every map's orbit
    # is traced by the one iterate_cycle.
    if name in _SEMILINEAR:
        from . import semilinear
        return getattr(semilinear, name)
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    if name == "general_iterate_cycle":
        return iterate_cycle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2; add_subparsers builds
    # every subcommand's parser from this class, so none takes abbreviations
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        _report(f"{self.prog}: error: {message}")
        self.exit(1)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_sigma(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PatternError("sigma syntax", f"sigma must be comma-separated integers, got {text!r}")


def _parse_map(text: str) -> GeneralizedMap:
    try:
        q, d = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects two integers q,d, got {text!r}")
    try:
        return GeneralizedMap(q, d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(lines, out_path: str | None) -> None:
    """Write each item followed by a newline, as the iterable yields it.

    An item may be a whole block of newline-joined lines.  `out_path` is
    opened before the first item is drawn, so a lazy iterable does no
    work when the path cannot be written.
    """
    to = nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8")
    with to as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


# ---------------------------------------------------------------- ghost


def _render_ghost_text(g, t, rec) -> list[str]:
    p = g.pattern
    lines = []
    head = f"pattern x={p.x} y={p.y} sigma={','.join(map(str, p.sigma))} ell={p.ell}"
    if "q" in rec:
        head += f" map={rec['q']}n{rec['d']:+d}"
    lines.append(head + (" admissible" if rec["pattern"]["admissible"] else " inadmissible"))
    lines.append(f"C = {g.constant}")
    lines.append(f"modulus = {g.modulus}")
    if rec["verdict"] == "integer-cycle":
        lines.append(f"verdict: integer-cycle n = {rec['integer_value']}")
    else:
        lines.append("verdict: ghost")
    low = p.x + 1
    lines.append(f"n0 mod {1 << low} = {g.n0.residue & ((1 << low) - 1)}")
    lines.append(f"n0 = {g.n0}")
    lines.append(
        f"trace: valuations={','.join(map(str, t.step_valuations))}"
        f" closed={t.closed} final_precision={t.final_precision}"
    )
    return lines


def cmd_ghost(args) -> int:
    import json

    from .records import ghost_record, trace_record

    p = ParityPattern(args.x, args.y, _parse_sigma(args.sigma))
    g = ghost_cycle(p, args.precision, args.map)
    t = iterate_cycle(p, args.precision, args.map)
    rec = ghost_record(g, args.map)
    if args.format == "json":
        payload = {"ghost": rec, "trace": trace_record(t, args.map)}
        _emit([json.dumps(payload, separators=(",", ":"))], args.out)
    else:
        _emit(_render_ghost_text(g, t, rec), args.out)
    return 0


# ----------------------------------------------------------------- scan


_BLOCK_LINES = 4096
# The base case of a scan cell's walk writes the last _TAIL_DEPTH sigma
# entries from a per-cell table.  Building every line of a 3n+1 scan to
# ell 28 took 0.85 s of CPU at depth 1, 0.69 s at depth 2 and 0.59 s at
# depth 3 (median of four best-of-7 runs, 2 vCPUs, Python 3.11); depth 4
# was within the noise of depth 3, with tables up to four times larger.
_TAIL_DEPTH = 3


def _cell_worker(x, y, map_, precision, verify, hits):
    """One cell of a scan: its JSONL lines, each record built once, and
    the replay of its sampled records.

    Sigma is walked in lexicographic order by recursion on its prefix,
    every entry but the last `depth` = min(_TAIL_DEPTH, y - 1), so the
    prefix always starts with sigma_0 = 0.  Each level carries the
    prefix's part of C, of its n0 residue and of its text.  Once per cell,
    a table holds every strictly increasing tail of the last `depth`
    entries (one empty row for y = 1), with its text and its parts of C
    and n0, built level by level in time proportional to its size.  The
    tails that complete a prefix whose last entry is lo - 1 are exactly
    the table's rows from offset[lo] on, so the walk's base case writes
    them in one list comprehension: per record one add, one add-and-mask,
    one exact division test and one f-string, with no Python call or
    slice of its own.  Integral records (the comprehension leaves None)
    and sampled records are then rewritten one by one by `record`.

    Every field is an int or a digit string, so the fixed template writes
    the bytes of json.dumps(ghost_record(g, map_), separators=(",", ":"))
    with nothing to escape.  `verify` holds sorted cell-local record
    indices; each of those records is replayed from the very sigma, C, n0
    and quotient that its written line is built from.  Each integral
    record appends (x, y, sigma, quotient, admissible) to `hits`.

    A generator: it yields the lines as blocks of at least _BLOCK_LINES
    lines (the last may be shorter), each as soon as it fills, so a scan
    never holds more than one block of a cell.
    """
    q, d = map_.q, map_.d
    mask = (1 << precision) - 1
    modulus = (1 << x) - q**y
    inv = _inverse_mod_pow2(modulus & mask, precision)
    admissible = is_admissible(x, y, q, d)
    head = f'{{"pattern":{{"x":{x},"y":{y},"sigma":['
    mid = f'],"ell":{x + y},"admissible":{"true" if admissible else "false"}}},"C":"'
    n0_at = f'","modulus":"{modulus}","n0":{{"residue":"'
    verdict = f'","precision":{precision}}},"verdict":'
    tail = f',"q":{q},"d":{d}}}' if map_ != COLLATZ else "}"
    ghost = f'{verdict}"ghost"{tail}'
    integer = f'{verdict}"integer-cycle","integer_value":"'
    # level k puts d * q^(y-1-k) << sigma_k into C: per shift, its text,
    # that term and the term's n0 residue; the last level (q^0) closes
    # the sigma list
    levels = []
    for k in range(y):
        scale = d * q ** (y - 1 - k)
        sep = "," if k < y - 1 else mid
        levels.append([(f"{s}{sep}", scale << s, ((scale << s) * inv) & mask) for s in range(x)])
    # the table of tails: every strictly increasing run of the last `depth`
    # entries, lexicographic, as (text, C term, n0 term) rows; tails[r] is
    # row r's entries and offset[v] the first row whose first entry is >= v,
    # built from the last level up, each row once from a row of the level below
    depth = min(_TAIL_DEPTH, y - 1)
    top = y - depth  # entries below `top` are the walked prefix
    rows, tails, offset = [("", 0, 0)], [()], [0] * (x + 1)
    for k in range(y - 1, top - 1, -1):
        below, below_tails, below_offset = rows, tails, offset
        rows, tails, offset = [], [], []
        for s in range(x + 1):
            offset.append(len(rows))
            if k <= s < x:
                text, cs, ns = levels[k][s]
                r = below_offset[s + 1]
                rows += [(text + t, cs + c, ns + n) for t, c, n in below[r:]]
                tails += [(s, *entries) for entries in below_tails[r:]]
    chosen = [0] * top
    samples = iter(verify)
    size = comb(x - 1, y - 1)
    nxt = next(samples, size)  # the cell's size once every sample is replayed
    lines: list[str] = []
    done = 0  # records of the cell written before the current run of rows

    def record(pre, text, c, n0):
        """One record's line and its quotient (None for a ghost)."""
        if c % modulus:
            return f"{pre}{text}{c}{n0_at}{n0}{ghost}", None
        quo = c // modulus
        return f"{pre}{text}{c}{n0_at}{n0}{integer}{quo}\"{tail}", quo

    def walk(k, lo, base, bn0, pre):
        nonlocal nxt, done
        if k < top:
            for s in range(lo, x - (y - 1 - k)):
                chosen[k] = s
                text, cs, ns = levels[k][s]
                yield from walk(k + 1, s + 1, base + cs, bn0 + ns, pre + text)
            return
        start = offset[lo]
        chunk = [f"{pre}{text}{c}{n0_at}{(bn0 + ns) & mask}{ghost}" if (c := base + cs) % modulus
                 else None for text, cs, ns in rows[start:]]
        if None in chunk:  # integer cycles are rare: write them one by one
            for i, line in enumerate(chunk):
                if line is None:
                    text, cs, ns = rows[start + i]
                    chunk[i], quo = record(pre, text, base + cs, (bn0 + ns) & mask)
                    hits.append((x, y, (*chosen, *tails[start + i]), quo, admissible))
        end = done + len(chunk)
        if nxt < end:
            prefix = tuple(chosen)
            while nxt < end:
                r = start + nxt - done
                text, cs, ns = rows[r]
                c, n0 = base + cs, (bn0 + ns) & mask
                # the line written is the one built from the replayed C, n0
                # and quotient; DynamicsViolation escapes as exit 2
                chunk[r - start], quo = record(pre, text, c, n0)
                replay_record(q, d, x, prefix + tails[r], c, n0, modulus, precision, quo)
                nxt = next(samples, size)
        done = end
        lines.extend(chunk)
        if len(lines) >= _BLOCK_LINES:
            # the writer encodes one bounded block at a time, never a whole cell
            block = "\n".join(lines)
            lines.clear()
            yield block

    text, cs, ns = levels[0][0]  # sigma_0 is always 0
    yield from walk(1, 1, cs, ns, head + text)
    if lines:
        yield "\n".join(lines)
    del walk  # it reaches itself through its closure: free the cell now, not at the next gc


def cmd_scan(args) -> int:
    import random

    map_, precision = args.map, args.precision
    q, d = map_.q, map_.d
    started = time.perf_counter()

    shapes = [(x, y) for _, y, x in length_cells(args.ell_max)]
    sizes = [comb(x - 1, y - 1) for x, y in shapes]
    total = sum(sizes)
    sample_size = min(args.verify_sample, total)
    rng = random.Random(args.seed)
    if 2 * sample_size > total:
        # draw the smaller side: the complement of a uniform subset is a
        # uniform subset, and it comes out in scan order without a sort
        skip = set(rng.sample(range(total), total - sample_size))
        sampled = [i for i in range(total) if i not in skip]
    else:
        sampled = sorted(rng.sample(range(total), sample_size))
    # each cell replays the sampled scan indices that fall inside it
    verify = []
    offset = lo = 0
    for size in sizes:
        hi = bisect_left(sampled, offset + size, lo)
        verify.append([i - offset for i in sampled[lo:hi]])
        offset, lo = offset + size, hi

    integral: list[tuple[int, int, tuple[int, ...], int, bool]] = []
    _emit(chain.from_iterable(_cell_worker(x, y, map_, precision, local, integral)
                              for (x, y), local in zip(shapes, verify)), args.out)
    elapsed = time.perf_counter() - started
    admissible = sum(size for (x, y), size in zip(shapes, sizes) if is_admissible(x, y, q, d))

    summary_to = sys.stdout if args.out else sys.stderr
    mapname = f"{q}n{d:+d}"
    print(
        f"scan ell_max={args.ell_max} map={mapname} precision={precision}:"
        f" patterns={total} admissible={admissible}"
        f" integer_cycles={len(integral)} ghosts={total - len(integral)}"
        f" verified_sample={sample_size}",
        file=summary_to,
    )
    for x, y, sigma, value, adm in integral:
        note = "" if adm else " (inadmissible)"
        print(
            f"  integral: x={x} y={y} sigma={','.join(map(str, sigma))} -> {value}{note}",
            file=summary_to,
        )
    print(f"wall_time={elapsed:.3f}s", file=summary_to)
    return 0


# ---------------------------------------------------------------- fibers


def cmd_fibers(args) -> int:
    from .semilinear import InconclusivePeriod

    if args.x_min > args.x_max:
        raise ValueError(f"--x-min {args.x_min} exceeds --x-max {args.x_max}")
    rows = ["y,x,period_exact,period_bruteforce,agree"]
    for x in range(args.x_min, args.x_max + 1):
        if not is_admissible(x, args.y):
            continue
        exact = _this.fiber_period_exact(args.y, x).period
        brute = agree = ""  # left empty unless the oracle answers
        if args.scan_bound is not None:
            try:
                brute = _this.fiber_period_bruteforce(args.y, x, args.scan_bound)
                agree = "true" if brute == exact else "false"
            except InconclusivePeriod:
                pass
        rows.append(f"{args.y},{x},{exact},{brute},{agree}")
    _emit(rows, args.out)
    return 0


# --------------------------------------------------------------- witness


def cmd_witness(args) -> int:
    import json

    rec = _this.nonsemilinearity_witness(args.y, args.bound)
    if args.format == "json":
        payload = {"y": rec.y, "M": str(args.bound), "x": rec.x, "period": str(rec.period)}
        _emit([json.dumps(payload, separators=(",", ":"))], args.out)
    else:
        _emit([f"y={rec.y} M={args.bound} -> x={rec.x} period={rec.period}"], args.out)
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="ghostcycles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    precision = dict(type=_int_at_least(1), default=64, help="working 2-adic precision in bits")
    out = dict(default=None, help="write the output here instead of stdout")
    map_flag = dict(type=_parse_map, default=COLLATZ, help="q,d of the qn+d map; 3,1 if optional")

    p_ghost = sub.add_parser("ghost", help="one pattern: cycle, verdict, trace")
    p_ghost.add_argument("--x", type=int, required=True)
    p_ghost.add_argument("--y", type=int, required=True)
    p_ghost.add_argument("--sigma", required=True, help="comma-separated, starting at 0")
    p_ghost.add_argument("--map", **map_flag)
    p_ghost.add_argument("--precision", **precision)
    p_ghost.add_argument("--format", choices=("text", "json"), default="text")
    p_ghost.add_argument("--out", **out)
    p_ghost.set_defaults(func=cmd_ghost)

    # `general` is `scan` with --map required.  cmd_scan is read from the
    # module when the parser is built, so a wrapper set on it is what runs.
    for name, needs_map in (("scan", False), ("general", True)):
        p_scan = sub.add_parser(name, help="exhaustive scan up to a length bound"
                                + (", --map required" if needs_map else ""))
        p_scan.add_argument("--ell-max", type=int, required=True)
        p_scan.add_argument("--map", **map_flag, required=needs_map)
        p_scan.add_argument("--precision", **precision)
        p_scan.add_argument("--verify-sample", type=_int_at_least(0), default=8,
                            help="dynamics-verify this many randomly drawn patterns")
        p_scan.add_argument("--seed", type=int, default=0, help="seed of that draw")
        p_scan.add_argument("--jobs", type=_int_at_least(1), default=1, help="no effect")
        p_scan.add_argument("--out", **out)
        p_scan.set_defaults(func=cmd_scan)

    p_fib = sub.add_parser("fibers", help="fiber-period table (CSV)")
    p_fib.add_argument("--y", type=_int_at_least(1), required=True)
    p_fib.add_argument("--x-min", type=_int_at_least(0), required=True)
    p_fib.add_argument("--x-max", type=int, required=True)
    p_fib.add_argument("--scan-bound", type=_int_at_least(1), default=None,
                       help="also run the brute-force oracle up to this bound")
    p_fib.add_argument("--seed", type=int, default=0, help="no effect")
    p_fib.add_argument("--out", **out)
    p_fib.set_defaults(func=cmd_fibers)

    p_wit = sub.add_parser("witness", help="refute a claimed fiber-period bound")
    p_wit.add_argument("--y", type=_int_at_least(1), required=True)
    p_wit.add_argument("--bound", "-M", type=_int_at_least(1), required=True, dest="bound")
    p_wit.add_argument("--format", choices=("text", "json"), default="text")
    p_wit.add_argument("--out", **out)
    p_wit.set_defaults(func=cmd_witness)

    return parser


def _report(message: str) -> None:
    """Print an error to stderr as far as it can be written.

    A reader may have closed stdout or stderr.  A stream that can no longer
    be flushed is pointed at os.devnull: what it still buffers can never be
    delivered, and the interpreter's own flush at exit would fail again and
    exit with 120 instead of the code that main returns.
    """
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone from stdout is an i/o error here, not at exit
        return code
    except PatternError as exc:
        _report(f"usage error: {exc}")
        return 1
    except ValueError as exc:
        _report(f"error: {exc}")
        return 1
    except DynamicsViolation as exc:
        _report(f"dynamics violation: {exc}")
        return 2
    except OSError as exc:
        _report(f"i/o error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
