"""Command-line interface and the dispersion-fitting routine.

Subcommands: generate, distance, distance-matrix, recover, compass,
mallows-table, ingest, embed, fit-mallows.  Every run is deterministic
for a fixed --seed.  Exit codes: 0 on success, 1 for usage or input
errors, 2 for internal failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import compass as compass_mod
from . import cultures, embed, ingest, matrixio
from .core import Election, FrequencyMatrix, PositionMatrix, frequency_from_position, frequency_matrix
from .metric import cross_distances, distance_matrix, normalized, positionwise
from .recovery import election_from_frequency_matrix, election_from_position_matrix


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _fmt_decimal(value: Fraction) -> str:
    return f"{float(value):.12g}"


@dataclass(frozen=True)
class FitResult:
    relphi: float
    mean_distance: float
    std_distance: float


def fit_mallows(
    dataset: Sequence[Election],
    grid: Sequence[float],
    samples_per_value: int,
    seed: int,
    votes_per_sample: int = 100,
) -> FitResult:
    """Fit a normalized-Mallows dispersion to a dataset of elections.

    For every grid value, sample ``samples_per_value`` normalized-Mallows
    elections with the dataset's m, then score the value by the mean
    normalized positionwise distance to the dataset.  Returns the best
    grid value (ties to the smaller), its mean, and the standard
    deviation over per-dataset-election mean distances at that value.
    Grid points use independent derived seeds, so they can be evaluated
    in any order (or concurrently) with identical results.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    sizes = {e.m for e in dataset}
    if len(sizes) != 1:
        raise ValueError(f"dataset mixes candidate counts: {sorted(sizes)}")
    if not grid:
        raise ValueError("grid must be nonempty")
    for g in grid:
        if not 0 <= g <= 1:
            raise ValueError("grid values must lie in [0, 1]")
    if samples_per_value < 1:
        raise ValueError("samples_per_value must be positive")
    m = sizes.pop()
    data = [frequency_matrix(e) for e in dataset]

    best: tuple[float, float] | None = None  # (mean, relphi)
    best_per_election: list[float] = []
    for gi, relphi in enumerate(grid):
        samples = [
            frequency_matrix(cultures.sample_mallows_norm(
                m, votes_per_sample, relphi, cultures.derive_seed(seed, gi + 1, s + 1)
            ))
            for s in range(samples_per_value)
        ]
        per_election = [
            float(normalized(sum(row, Fraction(0)) / samples_per_value, m))
            for row in cross_distances(data, samples)
        ]
        mean = sum(per_election) / len(per_election)
        if best is None or (mean, relphi) < best:
            best = (mean, relphi)
            best_per_election = per_election
    assert best is not None
    mean, relphi = best
    var = sum((v - mean) ** 2 for v in best_per_election) / len(best_per_election)
    return FitResult(relphi=relphi, mean_distance=mean, std_distance=math.sqrt(var))


# ---------------------------------------------------------------------------
# subcommand helpers


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _cmd_generate(args: argparse.Namespace) -> int:
    tag = args.culture.replace("-", "_").upper()
    if tag == "URN_GAMMA":
        spec = cultures.CultureSpec(
            tag="URN", m=args.m, n=args.n, seed=args.seed, gamma_alpha=True
        )
    else:
        spec = cultures.CultureSpec(
            tag=tag,
            m=args.m,
            n=args.n,
            seed=args.seed,
            alpha=args.alpha,
            phi=args.phi,
            relphi=args.relphi,
            dimension=args.dim,
        )
    election = cultures.sample(spec)
    comments = [f"culture={args.culture}", f"m={args.m}", f"n={args.n}", f"seed={args.seed}"]
    for key in ("alpha", "phi", "relphi"):
        value = election.meta.get(key)
        if value is not None:
            comments.append(f"{key}={value!r}")
    if args.dim is not None:
        comments.append(f"dim={args.dim}")
    ingest.serialize_election(election, args.out, comments=comments)
    _say(args, f"wrote {election.n} votes over {election.m} candidates to {args.out}")
    return 0


def _load_item(path: str) -> FrequencyMatrix:
    if path.endswith(ingest.PREFLIB_SUFFIXES):
        return frequency_matrix(ingest.load_election(path))
    matrix = matrixio.read_matrix_csv(path)
    if isinstance(matrix, PositionMatrix):
        return frequency_from_position(matrix)
    return matrix


def _cmd_distance(args: argparse.Namespace) -> int:
    x = _load_item(args.a)
    y = _load_item(args.b)
    record = positionwise(x, y)
    value = record.value
    if args.normalized:
        value = normalized(value, x.m)
    print(f"{_fmt_decimal(value)} (exact {value.numerator}/{value.denominator})")
    return 0


def _cmd_distance_matrix(args: argparse.Namespace) -> int:
    items = [_load_item(p) for p in args.inputs]
    labels = [os.path.splitext(os.path.basename(p))[0] for p in args.inputs]
    table = distance_matrix(items)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(["id"] + labels) + "\n")
        for label, row in zip(labels, table):
            fh.write(",".join([label] + [_fmt_decimal(v) for v in row]) + "\n")
    if args.sidecar:
        with open(args.sidecar, "w", encoding="utf-8") as fh:
            fh.write(",".join(["id"] + labels) + "\n")
            for label, row in zip(labels, table):
                fh.write(",".join([label] + [str(v) for v in row]) + "\n")
    _say(args, f"wrote {len(items)}x{len(items)} distance matrix to {args.out}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    matrix = matrixio.read_matrix_csv(args.matrix)
    if isinstance(matrix, PositionMatrix):
        election = election_from_position_matrix(matrix)
    else:
        n = args.n
        if n is None and matrix.denominator == 1:
            n = 1  # a 0/1 permutation matrix is exactly one vote
        if n is None:
            raise UsageError("recover: a frequency matrix needs --n voters")
        election = election_from_frequency_matrix(matrix, n)
    ingest.serialize_election(
        election, args.out, comments=[f"recovered from {os.path.basename(args.matrix)}"]
    )
    _say(args, f"wrote {election.n} votes to {args.out}")
    return 0


def _cmd_compass(args: argparse.Namespace) -> int:
    labeled = compass_mod.full_compass(args.m, scale=args.scale)
    os.makedirs(args.out, exist_ok=True)
    manifest_path = os.path.join(args.out, "manifest.csv")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("label,pair,alpha,file\n")
        for label, matrix in labeled:
            fname = label.replace(":", "_").replace("/", "_") + ".csv"
            matrixio.write_matrix_csv(matrix, os.path.join(args.out, fname))
            if ":" in label:
                pair, alpha = label.split(":", 1)
            else:
                pair, alpha = label, "1"
            fh.write(f"{label},{pair},{alpha},{fname}\n")
    _say(args, f"wrote {len(labeled)} matrices and manifest to {args.out}")
    return 0


def _cmd_mallows_table(args: argparse.Namespace) -> int:
    ms = [int(tok) for tok in args.m_list.split(",") if tok.strip()]
    if not ms or any(m < 2 for m in ms):
        raise UsageError("mallows-table: --m-list needs integers >= 2")
    rels = [k / 20 for k in range(11)]  # 0.00, 0.05, ..., 0.50
    header = ["rel-phi"] + [f"m={m}" for m in ms]
    print("\t".join(header))
    for rel in rels:
        row = [f"{rel:.2f}"]
        for m in ms:
            row.append(f"{cultures.relphi_to_phi(m, rel):.3f}")
        print("\t".join(row))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.preset not in ingest.PRESETS:
        raise UsageError(
            f"ingest: unknown preset {args.preset!r}; choose from "
            f"{', '.join(sorted(ingest.PRESETS))}"
        )
    config = ingest.PRESETS[args.preset]
    paths = sorted(
        os.path.join(args.indir, name)
        for name in os.listdir(args.indir)
        if name.endswith(ingest.PREFLIB_SUFFIXES)
    )
    if not paths:
        raise ValueError(f"no {'/'.join(ingest.PREFLIB_SUFFIXES)} files in {args.indir}")
    profiles = [ingest.parse_preflib(p) for p in paths]
    elections, manifest = ingest.run_pipeline(profiles, config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    manifest["preset"] = args.preset
    files = []
    for idx, election in enumerate(elections):
        fname = f"sample_{idx:03d}.soc"
        ingest.serialize_election(
            election,
            os.path.join(args.out, fname),
            comments=[
                f"preset={args.preset}",
                f"seed={args.seed}",
                f"source={election.meta.get('source', '')}",
            ],
        )
        files.append(fname)
    manifest["files"] = files
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _say(args, f"wrote {len(elections)} sampled elections to {args.out}")
    return 0


def _distance_cells(path: str, cells: list[str]) -> list[float]:
    out = []
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}: bad distance {cell!r}: expected a finite number")
        out.append(value)
    return out


def _read_distance_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty distance file")
    header = lines[0].split(",")
    if header and header[0] == "id":
        labels = header[1:]
        index = {label: k for k, label in enumerate(labels)}
        by_index: dict[int, list[float]] = {}
        for ln in lines[1:]:
            label, *cells = ln.split(",")
            if label not in index:
                raise ValueError(f"{path}: row label {label!r} is not in the header")
            if index[label] in by_index:
                raise ValueError(f"{path}: row label {label!r} is repeated")
            by_index[index[label]] = _distance_cells(path, cells)
        rows = [by_index[k] for k in sorted(by_index)]
    else:
        labels = [str(i) for i in range(len(lines))]
        rows = [_distance_cells(path, ln.split(",")) for ln in lines]
    if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
        raise ValueError(f"{path}: distance matrix must be square")
    return labels, rows


def _cmd_embed(args: argparse.Namespace) -> int:
    labels, rows = _read_distance_csv(args.distances)
    styling = embed.default_styling(labels)
    layout = embed.embed_distances(
        rows, seed=args.seed, iterations=args.iters, ids=labels, styling=styling
    )
    if args.svg:
        embed.render_svg(layout, args.svg)
        _say(args, f"wrote {args.svg}")
    if args.coords:
        embed.write_coordinates(layout, args.coords)
        _say(args, f"wrote {args.coords}")
    if not args.svg and not args.coords:
        raise UsageError("embed: nothing to do, pass --svg and/or --coords")
    return 0


def _cmd_fit_mallows(args: argparse.Namespace) -> int:
    if args.coarse:
        step, samples = 0.01, 20
    else:
        step, samples = args.grid_step, args.samples
        if not (math.isfinite(step) and 0 < step <= 0.5):
            raise UsageError(
                f"fit-mallows: --grid-step (config key grid_step) must be a "
                f"finite number in (0, 0.5], got {step!r}"
            )
    paths = sorted(
        os.path.join(args.dataset, name)
        for name in os.listdir(args.dataset)
        if name.endswith(".soc")
    )
    if not paths:
        raise ValueError(f"no .soc files in {args.dataset}")
    dataset = [ingest.load_election(p) for p in paths]
    count = int(round(0.5 / step)) + 1
    grid = [min(k * step, 0.5) for k in range(count)]
    result = fit_mallows(dataset, grid, samples, args.seed)
    print(
        f"relphi={result.relphi:.4f} mean={result.mean_distance:.6f} "
        f"std={result.std_distance:.6f}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="prefmap",
        description="Sample, compare, reconstruct, and map ranked elections.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--quiet", action="store_true", help="suppress progress notes")
    common.add_argument(
        "--config",
        default=None,
        help="key=value file supplying defaults; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", parents=[common], help="sample an election")
    p.add_argument(
        "--culture",
        required=True,
        choices=[
            "ic", "urn", "urn-gamma", "mallows", "mallows-norm",
            "conitzer", "walsh", "hypercube",
        ],
    )
    p.add_argument("--m", type=int, required=True, help="number of candidates")
    p.add_argument("--n", type=int, required=True, help="number of votes")
    p.add_argument("--alpha", type=float, default=None, help="urn contagion")
    p.add_argument("--phi", type=float, default=None, help="mallows dispersion")
    p.add_argument("--relphi", type=float, default=None, help="normalized dispersion")
    p.add_argument("--dim", type=int, default=None, help="hypercube dimension")
    p.add_argument("--out", required=True, help="output election file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("distance", parents=[common], help="positionwise distance")
    p.add_argument("--a", required=True, help="first matrix CSV or election file")
    p.add_argument("--b", required=True, help="second matrix CSV or election file")
    p.add_argument("--normalized", action="store_true", help="divide by (m*m-1)/3")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser(
        "distance-matrix", parents=[common], help="pairwise distances of many inputs"
    )
    p.add_argument("--inputs", nargs="+", required=True,
                   help="matrix CSVs or election files")
    p.add_argument("--out", required=True, help="output CSV (12 significant digits)")
    p.add_argument("--sidecar", default=None, help="optional exact p/q CSV")
    p.set_defaults(func=_cmd_distance_matrix)

    p = sub.add_parser("recover", parents=[common], help="election from a matrix")
    p.add_argument("--matrix", required=True, help="position or frequency CSV")
    p.add_argument("--n", type=int, default=None, help="voters (frequency input)")
    p.add_argument("--out", required=True, help="output election file")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("compass", parents=[common], help="anchor matrices and paths")
    p.add_argument("--m", type=int, required=True, help="candidates (even)")
    p.add_argument("--scale", type=int, default=50, help="points per unit distance")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_compass)

    p = sub.add_parser(
        "mallows-table", parents=[common], help="relphi -> phi calibration table"
    )
    p.add_argument("--m-list", default="5,10,20,50,100", help="comma-separated m values")
    p.set_defaults(func=_cmd_mallows_table)

    p = sub.add_parser("ingest", parents=[common], help="preset dataset pipeline")
    p.add_argument("--in", dest="indir", required=True, help="directory of profiles")
    p.add_argument("--preset", default="default", help="pipeline preset name")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("embed", parents=[common], help="2-D map of a distance matrix")
    p.add_argument("--distances", required=True, help="distance CSV")
    p.add_argument("--iters", type=int, default=1000, help="cap on stress-majorization iterations")
    p.add_argument("--svg", default=None, help="output SVG path")
    p.add_argument("--coords", default=None, help="output coordinates CSV")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser(
        "fit-mallows", parents=[common], help="fit normalized dispersion to a dataset"
    )
    p.add_argument("--dataset", required=True, help="directory of .soc elections")
    p.add_argument("--grid-step", type=float, default=0.001, help="grid resolution, in (0, 0.5]")
    p.add_argument("--samples", type=int, default=100, help="samples per grid value")
    p.add_argument("--coarse", action="store_true",
                   help="coarse preset: step 0.01, 20 samples")
    p.set_defaults(func=_cmd_fit_mallows)

    return parser


_CONFIG_KEYS = {
    "seed": int,
    "quiet": lambda v: v.lower() in ("1", "true", "yes"),
    "iters": int,
    "scale": int,
    "samples": int,
    "grid_step": float,
    "m": int,
    "n": int,
    "alpha": float,
    "phi": float,
    "relphi": float,
    "dim": int,
    "preset": str,
}


def _apply_config(args: argparse.Namespace, argv: Sequence[str]) -> None:
    if not getattr(args, "config", None):
        return
    explicit = {tok.split("=", 1)[0].lstrip("-").replace("-", "_")
                for tok in argv if tok.startswith("--")}
    with open(args.config, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise ValueError(f"{args.config} line {lineno}: expected key=value")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{args.config} line {lineno}: unknown key {key!r}")
            if key in explicit:
                continue  # explicit flags win
            if hasattr(args, key):
                setattr(args, key, _CONFIG_KEYS[key](value))


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        if not argv:
            raise UsageError(parser.format_usage())
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(parser.format_usage())
        _apply_config(args, argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"prefmap: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"prefmap: internal error: {exc!r}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
