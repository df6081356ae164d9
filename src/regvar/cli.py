"""Command-line harness: sample, transform, estimate, verify, scan.

Exit codes: 0 success, 1 a failed scenario check, 2 a refusal: a bad
command line, or a RegvarError or OSError, printed as one `error:` line.
Any other exception is a bug: it shows its traceback and exits 1. Sample
CSVs carry a x1,...,xd header and %.17g floats, which round-trip doubles
exactly, so piping stages through files reproduces in-memory results bit
for bit. A rejected CSV exits 2 naming its first rejected data line in
file order: ragged, a cell that is not a number, or a zero, NaN, infinite
or overflowing point. A report holding a NaN or infinite value exits 2.

The file steps parse once, then work block by block, and none holds a
whole batch. `sample` writes each chunk as RegVarModel.chunks draws it.
`transform` and `estimate` parse their input once with np.loadtxt, then
take the (n, d) rows 65 536 at a time as SampleBatch blocks: `transform`
maps and writes each block, and `estimate` keeps the n norms and the
directions of the top k alone. Every output is written to a temporary
sibling that replaces it on success, so a step that fails leaves no output
and an earlier file as it was. Rows are formatted 16 384 at a time by
regvar.g17's exact array kernel. The README's CLI and Memory sections give
each step's peak RSS and the CSV write and read times.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys

import numpy as np

from .batch import SampleBatch
from .errors import DegeneratePoint, InvalidParameter, NonFiniteInput, RegvarError
from .estimation import (
    check_r_grid,
    check_top,
    estimate_from_top,
    tail_scan,
    top_count,
    top_indices,
)
from .g17 import format_rows
from .rng import CHUNK, GAIN_STREAM, substream
from .scenarios import (
    DEFAULT_N,
    DEFAULT_SEED,
    SCENARIO_NAMES,
    Scenario,
    run_scenario,
)
from .specs import (
    gain_from_spec,
    is_random_gain_spec,
    load_spec,
    map_from_spec,
    measure_from_spec,
    model_from_spec,
    random_gain_from_spec,
    report_json,
)
from .sphere import ArcSet
from .transforms import (
    TransformedModel,
    radial_scale_apply,
    randomized_scale_apply,
    spherical_map_apply,
)

# rows that transform and estimate take from the parsed file at a time:
# one sampling chunk
_BLOCK_ROWS = CHUNK
# rows formatted per write: bounds the kernel's working arrays, 7.3 MB
# at d = 2 by tracemalloc (29 MB at 65 536 rows, which raised the file
# pipeline's peak RSS by 15%; the per-value writer used 8 MB there)
_CSV_BLOCK_ROWS = 16_384


@contextlib.contextmanager
def _replacing(path, mode: str, **kwargs):
    """A file opened on a temporary sibling of path, which replaces path
    when the block completes. On any error the sibling is removed and path
    keeps what it held, so a step that fails writes no output. A path that
    exists but is no regular file (/dev/null, a pipe) is written directly:
    there is nothing there to leave half written."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str, dim: int, batches) -> tuple[int, int]:
    """Write a x1,...,xd header and one %.17g row per point of each batch
    in turn; return the number of points written and the batches' summed
    zero_count.

    Batches are consumed one at a time, so a generator of blocks is never
    held whole, and the file appears at path only once the last is written
    (_replacing). Rows are formatted a block at a time by g17.format_rows,
    which emits the same bytes as formatting each value with f"{v:.17g}".
    """
    size = zero_count = 0
    with _replacing(path, "wb") as fh:
        fh.write((",".join(f"x{i + 1}" for i in range(dim)) + "\n").encode("utf-8"))
        for batch in batches:
            for start in range(0, batch.size, _CSV_BLOCK_ROWS):
                fh.write(format_rows(batch.points[:, start:start + _CSV_BLOCK_ROWS].T))
            size += batch.size
            zero_count += batch.zero_count
            del batch  # before the next batch is made
    return size, zero_count


def _text(line: str) -> str:
    """The part of a file line that np.loadtxt parses: up to any '#'."""
    return line.split("#", 1)[0].rstrip("\n")


def _data_lines(path: str, start: int):
    """(line number, text) of each line from file line start on that
    np.loadtxt reads as a row: those not empty up to any '#'."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(itertools.islice(fh, start - 1, None),
                                      start=start):
            text = _text(line)
            if text:
                yield lineno, text


def _point_fault(points: np.ndarray) -> str | None:
    """Why SampleBatch.from_points rejects the (d, m) points, or None."""
    try:
        SampleBatch.from_points(points)
    except DegeneratePoint:
        return "the zero vector"
    except RegvarError as e:
        return str(e)
    return None


def _rows(texts: list[str], d: int) -> np.ndarray | None:
    """The (len(texts), d) rows np.loadtxt reads from non-empty data-line
    texts, or None when numpy rejects them or reads another shape."""
    try:
        rows = np.loadtxt(texts, delimiter=",", ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape == (len(texts), d) else None


def _sound(rows: np.ndarray) -> np.ndarray | None:
    """rows, or None when SampleBatch.from_points rejects their points."""
    return rows if _point_fault(rows.T) is None else None


def _first_rejected(items, judge) -> tuple[list, int]:
    """judge's results on the runs of items before the first item it
    rejects, in items it rejects, and that item's index. judge (_rows or
    _sound) returns None for a run it rejects and judges each item on its
    own, so halving the items left finds it in about one more judgement."""
    parts, lo, hi = [], 0, len(items)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        part = judge(items[lo:mid])
        if part is None:
            hi = mid
        else:
            parts.append(part)
            lo = mid
    return parts, lo


def _line_fault(text: str, d: int) -> str:
    """Why numpy rejects one data line: it is ragged, or the first cell
    numpy rejects on its own is not a number. A blank cell is judged
    without numpy, which warns on an empty input."""
    cells = text.split(",")
    if len(cells) != d:
        return f"expected {d} values, found {len(cells)}"
    bad = next(c for c in cells if not c.strip() or _rows([c], 1) is None)
    return f"{bad.strip()!r} is not a number"


def _bad_line(path: str, d: int, start: int, cause: str,
              first: int = 0) -> RegvarError:
    """Error naming the first data line, from data row first on, that the
    reader rejects: it is ragged, a cell is not a number, or
    SampleBatch.from_points rejects its point.

    Data rows count from file line start, the first line read_csv handed
    to numpy. np.loadtxt parses them _BLOCK_ROWS at a time, as it parses
    the whole file, up to the first line it rejects, and from_points
    judges those points at once. Only a rejected set is searched again, by
    halving (_first_rejected), so a rejected point before a syntax fault is
    named first. cause is the fallback should no line be rejected.
    """
    lines = itertools.islice(_data_lines(path, start), first, None)
    while block := list(itertools.islice(lines, _BLOCK_ROWS)):
        texts = [text for _, text in block]
        rows, end = _rows(texts, d), len(block)
        if rows is None:
            parts, end = _first_rejected(texts, functools.partial(_rows, d=d))
            rows = np.concatenate([np.empty((0, d)), *parts])
        if _sound(rows) is None:
            end = _first_rejected(rows, _sound)[1]
            fault = _point_fault(rows[end:end + 1].T)
        elif end < len(block):
            fault = _line_fault(texts[end], d)
        else:
            continue
        return RegvarError(f"{path}, line {block[end][0]}: {fault}")
    return RegvarError(f"{path}: {cause}")


def blocks(path: str, rows: np.ndarray, start: int):
    """What read_csv(path) returned, as SampleBatch blocks of _BLOCK_ROWS
    rows in file order, each built from a view of rows: no whole batch is
    made. A zero or non-finite point raises RegvarError naming its file
    line, judging no line of an earlier block again; an empty file gives
    one empty block, so a transform still checks the file's dimension."""
    for first in range(0, max(len(rows), 1), _BLOCK_ROWS):
        try:
            yield SampleBatch.from_points(rows[first:first + _BLOCK_ROWS].T)
        except (DegeneratePoint, NonFiniteInput) as e:
            raise _bad_line(path, rows.shape[1], start, str(e), first) from e


def read_csv(path: str) -> tuple[np.ndarray, int]:
    """Parse a CSV written by write_csv into numpy's (n, d) rows and the
    file line of the first data row; numpy reads the rows from the file.

    A body of blank and comment lines gives no rows. A file numpy cannot
    parse, or whose rows do not match the header, raises RegvarError here
    naming the first rejected data line (_bad_line, which parses the lines
    again with np.loadtxt), a rejected point before it included; blocks
    names other rejected points. Bytes that are not UTF-8 stop numpy's
    strict decoding; the rescan reads them as U+FFFD, so their cell is
    named as not a number.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        cols = header.split(",") if header else []
        if not cols or not all(c.startswith("x") for c in cols):
            raise RegvarError(f"{path}: expected a x1,...,xd header")
        d = len(cols)
        for start, first in enumerate(fh, start=2):
            if _text(first).strip():
                break
        else:
            return np.empty((0, d)), 2
    try:
        # UnicodeDecodeError is a ValueError
        rows = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=start - 1,
                          encoding="utf-8")
    except ValueError as e:
        raise _bad_line(path, d, start, str(e)) from e
    if rows.shape[1] != d:
        raise _bad_line(path, d, start, "rows do not match the header")
    return rows, start


def _cmd_sample(args) -> int:
    model = model_from_spec(load_spec(args.model))
    size, _ = write_csv(args.output, model.dim,
                        model.chunks(args.n, args.seed, args.workers))
    print(f"wrote {size} points (d={model.dim}, seed={args.seed}) -> {args.output}")
    return 0


def _cmd_transform(args) -> int:
    rows, start = read_csv(args.input)
    if args.map is not None:
        step = functools.partial(spherical_map_apply,
                                 f=map_from_spec(load_spec(args.map)))
    else:
        spec = load_spec(args.gain)
        if is_random_gain_spec(spec):
            # one generator across the blocks draws what one whole-batch
            # draw would
            step = functools.partial(randomized_scale_apply,
                                     z=random_gain_from_spec(spec),
                                     rng=substream(args.gain_seed, GAIN_STREAM))
        else:
            step = functools.partial(radial_scale_apply, h=gain_from_spec(spec))
    size, zero_count = write_csv(args.output, rows.shape[1],
                                 map(step, blocks(args.input, rows, start)))
    print(f"wrote {size} points (zero_count={zero_count}) -> {args.output}")
    return 0


def _cmd_estimate(args) -> int:
    rows, start = read_csv(args.input)
    n = rows.shape[0]
    norms = np.empty(n)
    end = 0
    for block in blocks(args.input, rows, start):
        norms[end:end + block.size] = block.norms
        end += block.size
        del block
    k = args.top if isinstance(args.top, int) else top_count(n, args.top)
    target = None if args.target is None else measure_from_spec(load_spec(args.target))
    check_top(n, k)
    # directions of the top k alone, the bits from_points gives them
    top = top_indices(norms, k)
    top_dirs = rows[top].T / norms[top]
    del rows  # the parsed rows go before the bootstrap
    report = estimate_from_top(norms, top_dirs, target=target, seed=args.seed)
    text = report_json(report.to_dict())
    with _replacing(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"alpha_hat={report.alpha_hat:.6g} "
          f"ci=[{report.alpha_ci[0]:.6g}, {report.alpha_ci[1]:.6g}] "
          f"k={report.k_used} -> {args.output}")
    return 0


def _cmd_verify(args) -> int:
    scenario = Scenario(args.scenario, n=args.n, seed=args.seed,
                        workers=args.workers)
    report = run_scenario(scenario)
    text = report.to_json()
    if args.output is not None:
        with _replacing(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    for check in report.checks:
        verdict = "pass" if check.passed else "FAIL"
        tol = "" if check.tolerance is None else f" (tolerance {check.tolerance:g})"
        print(f"[{verdict}] {report.scenario}.{check.name} = {check.value:.6g}{tol}")
    print(f"{report.scenario}: {'PASS' if report.passed else 'FAIL'} "
          f"in {report.runtime_s:.2f}s")
    return 0 if report.passed else 1


def _parse_r_grid(raw: str) -> np.ndarray:
    """argparse type of --r-grid start:stop:points: increasing log-spaced radii."""
    try:
        start, stop, points = raw.split(":")
        return check_r_grid(np.geomspace(positive_float(start), positive_float(stop),
                                         at_least(1)(points)))
    except (ValueError, argparse.ArgumentTypeError) as e:  # InvalidParameter is one
        raise argparse.ArgumentTypeError(f"{e}; expected start:stop:points") from e


def _parse_arc(raw: str) -> ArcSet:
    """argparse type of --arc a:b, the arc [a, b)."""
    try:
        a, b = raw.split(":")
        return ArcSet([(float(a), float(b))])
    except ValueError as e:  # InvalidParameter is one
        raise argparse.ArgumentTypeError(f"{e}; expected a:b") from e


def _cmd_scan(args) -> int:
    source = model_from_spec(load_spec(args.model))
    if args.gain is not None:
        source = TransformedModel(source, gain_from_spec(load_spec(args.gain)))
    arcs, grid = args.arc or [ArcSet.full_circle()], args.r_grid
    if source.exact_tail(float(grid[0]), arcs[0]) is None:
        batch = source.sample(args.n, args.seed, args.workers)
        try:
            scan = tail_scan(batch, args.alpha, arcs, grid)
        except InvalidParameter as e:  # --alpha and --r-grid passed: the floor
            raise RegvarError(f"--n {args.n} kept {batch.size} points: {e}") from e
    else:
        scan = tail_scan(source, args.alpha, arcs, grid)
    with _replacing(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r,arc_id,value,mode\n")
        for i, r in enumerate(scan.r_grid):
            for j in range(len(arcs)):
                fh.write(f"{r:.17g},{j},{scan.values[i, j]:.17g},{scan.mode}\n")
    print(f"wrote {scan.values.size} scan values ({scan.mode}) -> {args.output}")
    return 0


def at_least(low: int):
    """argparse type: an integer of at least low."""
    def integer(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {raw!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw}")
    return value


def count_or_fraction(raw: str) -> int | float:
    """argparse type of --top: an integer count, or a fraction in (0, 1)."""
    value = positive_float(raw)
    if value > 1 and not value.is_integer():
        raise argparse.ArgumentTypeError(
            f"must be an integer count or a fraction in (0, 1), got {raw}")
    return value if value < 1 else int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regvar",
        description="simulate, transform and diagnose regularly varying vectors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a seeded sample from a model spec")
    p.add_argument("--model", required=True, help="model JSON (file or inline)")
    p.add_argument("-n", type=at_least(0), required=True, help="sample size")
    p.add_argument("--seed", type=at_least(0), default=42)
    p.add_argument("--workers", type=at_least(1), default=1)
    p.add_argument("-o", "--output", required=True, help="output CSV")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("transform", help="apply a sphere map or radial gain")
    p.add_argument("--input", required=True, help="input CSV")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--map", help="sphere-map JSON (file or inline)")
    kind.add_argument("--gain", help="gain JSON (file or inline)")
    p.add_argument("--gain-seed", type=at_least(0), default=0,
                   help="seed for randomized gains")
    p.add_argument("-o", "--output", required=True, help="output CSV")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("estimate", help="tail index and spectral estimates")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--top", type=count_or_fraction, required=True,
                   help="exceedance count k, or a fraction in (0, 1)")
    p.add_argument("--target", help="declared target measure JSON")
    p.add_argument("--seed", type=at_least(0), default=0, help="bootstrap seed")
    p.add_argument("-o", "--output", required=True, help="report JSON")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("verify", help="run a named scenario")
    p.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p.add_argument("--n", type=at_least(1), default=DEFAULT_N)
    p.add_argument("--seed", type=at_least(0), default=DEFAULT_SEED)
    p.add_argument("--workers", type=at_least(1), default=1)
    p.add_argument("-o", "--output", help="report JSON")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scan", help="scan normalized tails over an r grid")
    p.add_argument("--model", required=True, help="model JSON (file or inline)")
    p.add_argument("--gain", help="optional gain JSON applied to the model")
    p.add_argument("--alpha", type=positive_float, required=True,
                   help="normalization exponent")
    p.add_argument("--r-grid", type=_parse_r_grid, required=True,
                   help="start:stop:points (log)")
    p.add_argument("--arc", type=_parse_arc, action="append",
                   help="evaluation arc a:b (repeatable; default full circle)")
    p.add_argument("--n", type=at_least(0), default=200_000,
                   help="sample size for the empirical fallback")
    p.add_argument("--seed", type=at_least(0), default=42)
    p.add_argument("--workers", type=at_least(1), default=1)
    p.add_argument("-o", "--output", required=True, help="output CSV")
    p.set_defaults(fn=_cmd_scan)
    return parser


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (RegvarError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
