"""Command-line driver: scans, single-pattern verification, fiber tables,
witnesses, and the exploratory density probe.

Exit codes: 0 success, 1 usage error, 2 dynamics violation (should never
happen; a genuine bug if it does), 3 I/O failure.

Output discipline: machine-readable streams (JSONL for scans, CSV for
fiber tables) are byte-identical for identical flags regardless of
--jobs.  Anything nondeterministic (wall time) goes to the summary on
the other stream, never into the records.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, nullcontext
from math import comb

from . import kernel
from .cycle import ghost_cycle
from .dynamics import DynamicsViolation, iterate_cycle, replay_record
from .generalized import GeneralizedMap, general_ghost_cycle, general_iterate_cycle
from .padic import _inverse_mod_pow2
from .patterns import ParityPattern, PatternError, is_admissible, length_cells
from .records import ghost_record, trace_record
from .semilinear import (
    FiberUndefined,
    InconclusivePeriod,
    fiber_period_bruteforce,
    fiber_period_exact,
    nonsemilinearity_witness,
)

COLLATZ_QD = (3, 1)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=_int_at_least(1), default=64,
                        help="working 2-adic precision in bits")
    common.add_argument("--format", choices=("json", "csv", "text"), default=None)
    common.add_argument("--out", default=None, help="write records here instead of stdout")
    common.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="scan worker processes, at most one per cell and CPUs - 1 in all")
    common.add_argument("--seed", type=int, default=0, help="seed for verification sampling")
    return common


def _parse_sigma(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PatternError("sigma syntax", f"sigma must be comma-separated integers, got {text!r}")


def _parse_map(text: str) -> GeneralizedMap:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--map expects q,d (got {text!r})")
    return GeneralizedMap(int(parts[0]), int(parts[1]))


def _check_format(args, written: tuple[str, ...], command: str) -> None:
    """Reject, before any work, a --format that the command does not write."""
    if args.format not in (None, *written):
        raise ValueError(f"{command} writes {' or '.join(written)} only;"
                         f" --format {args.format} is not supported")


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


def _render_ghost_text(g, t, q: int | None = None, d: int | None = None) -> list[str]:
    p = g.pattern
    rec = ghost_record(g, q, d)
    lines = []
    head = f"pattern x={p.x} y={p.y} sigma={','.join(map(str, p.sigma))} ell={p.ell}"
    if q is not None:
        head += f" map={q}n{d:+d}"
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
    _check_format(args, ("text", "json"), "ghost")
    p = ParityPattern(args.x, args.y, _parse_sigma(args.sigma))
    qd = getattr(args, "map", None)
    if qd is None:
        g = ghost_cycle(p, args.precision)
        t = iterate_cycle(p, args.precision)
        q = d = None
    else:
        g = general_ghost_cycle(qd, p, args.precision)
        t = general_iterate_cycle(qd, p, args.precision)
        q, d = qd.q, qd.d
    if args.format == "json":
        payload = {"ghost": ghost_record(g, q, d), "trace": trace_record(t)}
        _emit([json.dumps(payload, separators=(",", ":"))], args.out)
    else:
        _emit(_render_ghost_text(g, t, q, d), args.out)
    return 0


# ----------------------------------------------------------------- scan


_BLOCK_LINES = 4096


def _cell_worker(cell):
    """One cell of a scan: its JSONL lines, each record built once, and
    the replay of its sampled records.

    Sigma is walked in lexicographic order by recursion on the prefix.
    Each level carries the prefix's part of C, of its n0 residue and of
    its text, so a record costs one add, one add-and-mask, one division
    test and one f-string.  Every field is an int or a digit string, so
    the fixed template writes the bytes of json.dumps(ghost_record(...),
    separators=(",", ":")) with nothing to escape.  `verify` holds sorted
    cell-local record indices; each of those records is replayed from
    the very sigma, C and n0 just written.

    Returns the lines as blocks of at least _BLOCK_LINES lines (the last
    may be shorter), the number of admissible patterns, and the
    integral hits.
    """
    x, y, q, d, precision, include_map, verify = cell
    mask = (1 << precision) - 1
    modulus = (1 << x) - q**y
    inv = _inverse_mod_pow2(modulus & mask, precision)
    admissible = is_admissible(x, y, q, d)
    head = f'{{"pattern":{{"x":{x},"y":{y},"sigma":['
    mid = f'],"ell":{x + y},"admissible":{"true" if admissible else "false"}}},"C":"'
    n0_at = f'","modulus":"{modulus}","n0":{{"residue":"'
    verdict = f'","precision":{precision}}},"verdict":'
    tail = f',"q":{q},"d":{d}}}' if include_map else "}"
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
    leaf = levels[-1]
    stop = x if y > 1 else 1  # sigma_0 is always 0
    chosen = [0] * y
    samples = iter(verify)
    size = comb(x - 1, y - 1)
    nxt = next(samples, size)  # the cell's size once every sample is replayed
    blocks: list[str] = []
    lines: list[str] = []
    append = lines.append
    written = 0  # lines already moved into blocks
    hits = []

    def last(lo, base, bn0, pre):
        nonlocal nxt, written
        i = written + len(lines) - lo  # the record ending in s has cell index i + s
        at = nxt - i  # the last entry of the next sampled record, if it is in this leaf
        for s, (text, cs, ns) in enumerate(leaf[lo:stop], lo):
            c, n0 = base + cs, (bn0 + ns) & mask
            if c % modulus:
                quo = None
                append(f"{pre}{text}{c}{n0_at}{n0}{ghost}")
            else:
                quo = c // modulus
                append(f"{pre}{text}{c}{n0_at}{n0}{integer}{quo}\"{tail}")
                hits.append((x, y, (*chosen[:-1], s), quo, admissible))
            if s == at:
                # the record just written, verdict and quotient included;
                # DynamicsViolation escapes as exit 2
                replay_record(q, d, x, (*chosen[:-1], s), c, n0, modulus, precision, quo)
                nxt = next(samples, size)
                at = nxt - i
        if len(lines) >= _BLOCK_LINES:
            # bounded blocks: the parent encodes one block at a time as it
            # writes, never a copy of a whole cell
            blocks.append("\n".join(lines))
            written += len(lines)
            lines.clear()

    def walk(k, lo, base, bn0, pre):
        if k == y - 1:
            return last(lo, base, bn0, pre)
        for s in range(lo, x - (y - 1 - k)):
            chosen[k] = s
            text, cs, ns = levels[k][s]
            walk(k + 1, s + 1, base + cs, bn0 + ns, pre + text)

    if y == 1:
        last(0, 0, 0, head)
    else:
        text, cs, ns = levels[0][0]
        walk(1, 1, cs, ns, head + text)
    if lines:
        blocks.append("\n".join(lines))
    del walk  # it reaches itself through its closure: free the cell now, not at the next gc
    return blocks, size if admissible else 0, hits


def cmd_scan(args) -> int:
    _check_format(args, ("json",), "scan")
    qd = getattr(args, "map", None)
    include_map = qd is not None and (qd.q, qd.d) != COLLATZ_QD
    q, d = (qd.q, qd.d) if qd is not None else COLLATZ_QD
    precision = args.precision
    started = time.perf_counter()

    shapes = [(x, y) for _, y, x in length_cells(args.ell_max)]
    sizes = [comb(x - 1, y - 1) for x, y in shapes]
    total = sum(sizes)
    sample_size = min(args.verify_sample, total)
    sampled = sorted(random.Random(args.seed).sample(range(total), sample_size))
    # each cell replays the sampled scan indices that fall inside it
    cells = []
    offset = lo = 0
    for (x, y), size in zip(shapes, sizes):
        hi = bisect_left(sampled, offset + size, lo)
        local = tuple(i - offset for i in sampled[lo:hi])
        cells.append((x, y, q, d, precision, include_map, local))
        offset, lo = offset + size, hi
    # The parent receives and writes every byte the workers produce, so it
    # keeps a CPU of its own.  With as many workers as CPUs, workers and
    # parent oversubscribe them and the scan's speed swings with whatever
    # else the host runs; one worker would only add the copy to the parent,
    # so below two workers the scan runs in this process.
    workers = min(args.jobs, len(cells), (os.cpu_count() or 1) - 1)

    integral: list[tuple[int, int, tuple[int, ...], int, bool]] = []
    admissible_count = 0

    def blocks():
        nonlocal admissible_count
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
            # one cell per task keeps a worker's peak memory at one cell
            results = pool.map(_cell_worker, cells, chunksize=1)
        else:
            pool = None
            results = map(_cell_worker, cells)
        try:
            for cell_blocks, admissible, hits in results:
                admissible_count += admissible
                integral.extend(hits)
                cell_blocks.reverse()
                while cell_blocks:
                    yield cell_blocks.pop()  # free each block once it is written
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    with closing(blocks()) as stream:
        _emit(stream, args.out)
    elapsed = time.perf_counter() - started

    summary_to = sys.stdout if args.out else sys.stderr
    mapname = f"{q}n{d:+d}"
    print(
        f"scan ell_max={args.ell_max} map={mapname} precision={precision}:"
        f" patterns={total} admissible={admissible_count}"
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
    _check_format(args, ("csv",), "fibers")
    if args.x_min > args.x_max:
        raise ValueError(f"--x-min {args.x_min} exceeds --x-max {args.x_max}")
    rows = ["y,x,period_exact,period_bruteforce,agree"]
    for x in range(args.x_min, args.x_max + 1):
        if not is_admissible(x, args.y):
            continue
        exact = fiber_period_exact(args.y, x).period
        if args.scan_bound is not None:
            try:
                brute = fiber_period_bruteforce(args.y, x, args.scan_bound)
                agree = "true" if brute == exact else "false"
                rows.append(f"{args.y},{x},{exact},{brute},{agree}")
            except InconclusivePeriod:
                rows.append(f"{args.y},{x},{exact},,")
        else:
            rows.append(f"{args.y},{x},{exact},,")
    _emit(rows, args.out)
    return 0


# --------------------------------------------------------------- witness


def cmd_witness(args) -> int:
    _check_format(args, ("text", "json"), "witness")
    rec = nonsemilinearity_witness(args.y, args.bound)
    if args.format == "json":
        payload = {"y": rec.y, "M": str(args.bound), "x": rec.x, "period": str(rec.period)}
        _emit([json.dumps(payload, separators=(",", ":"))], args.out)
    else:
        _emit([f"y={rec.y} M={args.bound} -> x={rec.x} period={rec.period}"], args.out)
    return 0


# --------------------------------------------------------- density probe


def cmd_density_probe(args) -> int:
    _check_format(args, ("text", "json"), "density-probe")
    if not 1 <= args.target_precision <= 32:
        raise ValueError(f"--target-precision must be in [1, 32], got {args.target_precision}")
    tp = args.target_precision
    mask = (1 << tp) - 1
    target = args.target & mask

    best = None  # (depth, x, y, sigma)
    histogram: dict[int, int] = {}
    for _, y, x in length_cells(args.ell_max):
        if not is_admissible(x, y):
            continue
        for sigma, _c, n0, _quo in kernel.cell_records(x, y, 3, 1, tp):
            diff = (n0 ^ target) & mask
            depth = tp if diff == 0 else (diff & -diff).bit_length() - 1
            histogram[depth] = histogram.get(depth, 0) + 1
            if best is None or depth > best[0]:
                best = (depth, x, y, sigma)

    if best is None:
        raise ValueError(f"no admissible patterns with ell <= {args.ell_max}")
    depth, x, y, sigma = best
    hist_items = sorted(histogram.items())
    if args.format == "json":
        payload = {
            "exploratory": True,
            "target": str(target),
            "target_precision": tp,
            "ell_max": args.ell_max,
            "best": {"x": x, "y": y, "sigma": list(sigma), "depth": depth},
            "histogram": {str(k): v for k, v in hist_items},
        }
        _emit([json.dumps(payload, separators=(",", ":"))], args.out)
    else:
        lines = [
            "density probe (exploratory: the statistic is ours, it proves nothing)",
            f"target={target} precision={tp} ell_max={args.ell_max}",
            f"best: x={x} y={y} sigma={','.join(map(str, sigma))} depth={depth}",
            "histogram: " + " ".join(f"{k}:{v}" for k, v in hist_items),
        ]
        _emit(lines, args.out)
    return 0


# -------------------------------------------------------------- general


def cmd_general(args) -> int:
    if args.ell_max is not None:
        return cmd_scan(args)
    if args.x is not None and args.y is not None and args.sigma is not None:
        return cmd_ghost(args)
    raise ValueError("general needs either --ell-max (scan) or --x/--y/--sigma (single pattern)")


# ----------------------------------------------------------------- main


def build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(prog="ghostcycles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_ghost = sub.add_parser("ghost", parents=[common], help="one pattern: cycle, verdict, trace")
    p_ghost.add_argument("--x", type=int, required=True)
    p_ghost.add_argument("--y", type=int, required=True)
    p_ghost.add_argument("--sigma", required=True, help="comma-separated, starting at 0")
    p_ghost.set_defaults(func=cmd_ghost)

    p_scan = sub.add_parser("scan", parents=[common], help="exhaustive scan up to a length bound")
    p_scan.add_argument("--ell-max", type=int, required=True)
    p_scan.add_argument("--map", type=_parse_map, default=None, help="q,d for a qn+d map")
    p_scan.add_argument("--verify-sample", type=_int_at_least(0), default=8,
                        help="dynamics-verify this many randomly chosen patterns")
    p_scan.set_defaults(func=cmd_scan)

    p_fib = sub.add_parser("fibers", parents=[common], help="fiber-period table (CSV)")
    p_fib.add_argument("--y", type=_int_at_least(1), required=True)
    p_fib.add_argument("--x-min", type=_int_at_least(0), required=True)
    p_fib.add_argument("--x-max", type=int, required=True)
    p_fib.add_argument("--scan-bound", type=_int_at_least(1), default=None,
                       help="also run the brute-force oracle up to this bound")
    p_fib.set_defaults(func=cmd_fibers)

    p_wit = sub.add_parser("witness", parents=[common], help="refute a claimed fiber-period bound")
    p_wit.add_argument("--y", type=_int_at_least(1), required=True)
    p_wit.add_argument("--bound", "-M", type=_int_at_least(1), required=True, dest="bound")
    p_wit.set_defaults(func=cmd_witness)

    p_den = sub.add_parser("density-probe", parents=[common],
                           help="exploratory: closest ghost n0 to a 2-adic target")
    p_den.add_argument("--target", type=int, required=True)
    p_den.add_argument("--target-precision", type=int, default=16)
    p_den.add_argument("--ell-max", type=int, default=12)
    p_den.set_defaults(func=cmd_density_probe)

    p_gen = sub.add_parser("general", parents=[common], help="scan/ghost for a qn+d map")
    p_gen.add_argument("--map", type=_parse_map, required=True)
    p_gen.add_argument("--ell-max", type=int, default=None)
    p_gen.add_argument("--x", type=int, default=None)
    p_gen.add_argument("--y", type=int, default=None)
    p_gen.add_argument("--sigma", default=None)
    p_gen.add_argument("--verify-sample", type=_int_at_least(0), default=8)
    p_gen.set_defaults(func=cmd_general)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PatternError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FiberUndefined, InconclusivePeriod, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DynamicsViolation as exc:
        print(f"dynamics violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
