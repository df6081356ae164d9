"""Command-line harness: sample, transform, estimate, verify, scan.

Exit codes: 0 success (all checks pass), 1 a scenario or estimation check
failed, 2 usage or configuration error. Sample CSVs carry a x1,...,xd
header and 17-significant-digit floats (%.17g), which round-trip doubles
exactly, so piping stages through files reproduces in-memory results bit
for bit. Rows are written a block at a time and read back as a stream. A
malformed CSV, or a report holding a NaN or infinite value, exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from .batch import SampleBatch
from .errors import DegeneratePoint, NonFiniteInput, RegvarError
from .estimation import estimate
from .rng import GAIN_STREAM, substream
from .scenarios import SCENARIO_NAMES, Scenario, run_scenario
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

# rows formatted per write: bounds the block's text (~2.6 MB at d = 2)
_CSV_BLOCK_ROWS = 65_536


def write_csv(path: str, batch: SampleBatch) -> None:
    """Write a x1,...,xd header and one %.17g row per point.

    Rows are formatted a block at a time by one %-operation, which emits the
    same bytes as formatting each value with f"{v:.17g}".
    """
    d = batch.dim
    row = ",".join(["%.17g"] * d) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(d)) + "\n")
        for start in range(0, batch.size, _CSV_BLOCK_ROWS):
            block = batch.points[:, start:start + _CSV_BLOCK_ROWS].T
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _text(line: str) -> str:
    """The part of a file line that np.loadtxt parses: up to any '#'."""
    return line.split("#", 1)[0].rstrip("\n")


def _is_number(cell: str) -> bool:
    """Whether np.loadtxt reads cell as a float.

    numpy accepts Python's float syntax on the stripped text, but only in
    ASCII and without digit-grouping underscores.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _bad_line(path: str, d: int, start: int, cause: str) -> RegvarError:
    """Error naming the first line that numpy rejects.

    Read again only after numpy rejected the file. The scan starts at file
    line start, the first line read_csv handed to numpy, and splits, skips
    and judges lines cell by cell as np.loadtxt does, so it finds the line
    numpy failed on. cause, numpy's own message, is the fallback should the
    file hold no such line.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = _text(line)
            if lineno < start or not text:
                continue
            cells = text.split(",")
            if len(cells) != d:
                return RegvarError(f"{path}, line {lineno}: expected {d} "
                                   f"values, found {len(cells)}")
            for cell in cells:
                if not _is_number(cell):
                    return RegvarError(f"{path}, line {lineno}: "
                                       f"{cell.strip()!r} is not a number")
    return RegvarError(f"{path}: {cause}")


def _rejected_row(path: str, start: int, data: np.ndarray) -> RegvarError:
    """Error naming the first row of data that SampleBatch.from_points rejects.

    Bisects on prefixes for the first rejected row and takes the cause from
    that row alone, then counts data rows from file line start, skipping
    the lines np.loadtxt skipped: those empty up to any '#'.
    """
    ok, bad = 0, data.shape[0]  # data[:ok] is accepted, data[:bad] rejected
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            SampleBatch.from_points(data[:mid].T)
        except RegvarError:
            bad = mid
        else:
            ok = mid
    try:
        SampleBatch.from_points(data[ok:bad].T)
    except DegeneratePoint:
        cause = "the zero vector"
    except RegvarError as e:
        cause = str(e)
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = itertools.islice(fh, start - 1, None)
        rows = (n for n, line in enumerate(lines, start=start) if _text(line))
        lineno = next(itertools.islice(rows, ok, None))
    return RegvarError(f"{path}, line {lineno}: {cause}")


def read_csv(path: str) -> SampleBatch:
    """Parse a CSV written by write_csv; rows stream from the file to numpy.

    A body of blank and comment lines gives an empty batch. Ragged rows,
    cells that are not numbers, rows that do not match the header, and zero
    or non-finite points raise RegvarError naming the file line. Bytes that
    are not UTF-8 decode to U+FFFD, so a cell holding them is not a number.
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
            return SampleBatch.from_points(np.empty((d, 0)))
        try:
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                              ndmin=2)
        except ValueError as e:
            raise _bad_line(path, d, start, str(e)) from e
    if data.shape[1] != d:
        raise _bad_line(path, d, start, "rows do not match the header")
    try:
        return SampleBatch.from_points(data.T)
    except (DegeneratePoint, NonFiniteInput) as e:
        raise _rejected_row(path, start, data) from e


def _cmd_sample(args) -> int:
    model = model_from_spec(load_spec(args.model))
    batch = model.sample(args.n, args.seed, args.workers)
    write_csv(args.output, batch)
    print(f"wrote {batch.size} points (d={batch.dim}, seed={args.seed}) "
          f"-> {args.output}")
    return 0


def _cmd_transform(args) -> int:
    batch = read_csv(args.input)
    if args.map is not None:
        out = spherical_map_apply(batch, map_from_spec(load_spec(args.map)))
    else:
        spec = load_spec(args.gain)
        if is_random_gain_spec(spec):
            rng = substream(args.gain_seed, GAIN_STREAM)
            out = randomized_scale_apply(batch, random_gain_from_spec(spec), rng)
        else:
            out = radial_scale_apply(batch, gain_from_spec(spec))
    write_csv(args.output, out)
    print(f"wrote {out.size} points (zero_count={out.zero_count}) "
          f"-> {args.output}")
    return 0


def _parse_top(raw: str, n: int) -> int:
    value = float(raw)
    if 0 < value < 1:
        return max(1, int(round(value * n)))
    k = int(value)
    if k != value:
        raise RegvarError("--top must be an integer count or a fraction in (0,1)")
    return k


def _cmd_estimate(args) -> int:
    batch = read_csv(args.input)
    k = _parse_top(args.top, batch.size)
    target = None
    if args.target is not None:
        target = measure_from_spec(load_spec(args.target))
    report = estimate(batch, k, target=target, seed=args.seed)
    text = report_json(report.to_dict())
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
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
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    for check in report.checks:
        verdict = "pass" if check.passed else "FAIL"
        tol = "" if check.tolerance is None else f" (tolerance {check.tolerance:g})"
        print(f"[{verdict}] {report.scenario}.{check.name} = "
              f"{check.value:.6g}{tol}")
    print(f"{report.scenario}: {'PASS' if report.passed else 'FAIL'} "
          f"in {report.runtime_s:.2f}s")
    return 0 if report.passed else 1


def _parse_r_grid(raw: str) -> np.ndarray:
    try:
        start, stop, points = raw.split(":")
        grid = np.geomspace(float(start), float(stop), int(points))
    except ValueError as e:
        raise RegvarError(f"bad --r-grid {raw!r}, expected start:stop:points") from e
    if grid.size < 1 or grid[0] <= 0:
        raise RegvarError("--r-grid must be positive")
    return grid


def _parse_arc(raw: str) -> tuple[float, float]:
    try:
        a, b = raw.split(":")
        return float(a), float(b)
    except ValueError as e:
        raise RegvarError(f"bad --arc {raw!r}, expected a:b") from e


def _cmd_scan(args) -> int:
    from .estimation import tail_scan

    model = model_from_spec(load_spec(args.model))
    source = model
    if args.gain is not None:
        source = TransformedModel(model, gain_from_spec(load_spec(args.gain)))
    arcs = [ArcSet([_parse_arc(raw)]) for raw in args.arc] if args.arc \
        else [ArcSet.full_circle()]
    grid = _parse_r_grid(args.r_grid)
    probe = source.exact_tail(float(grid[0]), arcs[0])
    if probe is None:
        source = source.sample(args.n, args.seed, args.workers)
    scan = tail_scan(source, args.alpha, arcs, grid)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r,arc_id,value,mode\n")
        for i, r in enumerate(scan.r_grid):
            for j in range(len(arcs)):
                fh.write(f"{r:.17g},{j},{scan.values[i, j]:.17g},{scan.mode}\n")
    print(f"wrote {scan.values.size} scan values ({scan.mode}) -> {args.output}")
    return 0


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regvar",
        description="simulate, transform and diagnose regularly varying vectors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a seeded sample from a model spec")
    p.add_argument("--model", required=True, help="model JSON (file or inline)")
    p.add_argument("-n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("-o", "--output", required=True, help="output CSV")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("transform", help="apply a sphere map or radial gain")
    p.add_argument("--input", required=True, help="input CSV")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--map", help="sphere-map JSON (file or inline)")
    kind.add_argument("--gain", help="gain JSON (file or inline)")
    p.add_argument("--gain-seed", type=int, default=0,
                   help="seed for randomized gains")
    p.add_argument("-o", "--output", required=True, help="output CSV")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("estimate", help="tail index and spectral estimates")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--top", required=True,
                   help="exceedance count k, or a fraction in (0, 1)")
    p.add_argument("--target", help="declared target measure JSON")
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p.add_argument("-o", "--output", required=True, help="report JSON")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("verify", help="run a named scenario")
    p.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p.add_argument("--n", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("-o", "--output", help="report JSON")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scan", help="scan normalized tails over an r grid")
    p.add_argument("--model", required=True, help="model JSON (file or inline)")
    p.add_argument("--gain", help="optional gain JSON applied to the model")
    p.add_argument("--alpha", type=float, required=True,
                   help="normalization exponent")
    p.add_argument("--r-grid", required=True, help="start:stop:points (log)")
    p.add_argument("--arc", action="append",
                   help="evaluation arc a:b (repeatable; default full circle)")
    p.add_argument("--n", type=int, default=200_000,
                   help="sample size for the empirical fallback")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("-o", "--output", required=True, help="output CSV")
    p.set_defaults(fn=_cmd_scan)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except RegvarError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, KeyError, TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
