"""Command-line interface.

Subcommands: generate, distance, distance-matrix, recover, compass,
mallows-table, ingest, embed, fit-mallows.  Every run is deterministic
for a fixed --seed.  Exit codes: 0 on success, 1 for usage or input
errors, 2 for internal failures.

Options are settled by argparse alone: a --config file and the --coarse
preset only become defaults, so an explicit flag wins, then --coarse,
then the config file, then the built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from fractions import Fraction
from typing import Sequence

from . import compass as compass_mod
from . import cultures, embed, ingest, matrixio
from .core import FrequencyMatrix, PositionMatrix, frequency_from_position, frequency_matrix
from .core import _in_file
from .metric import cross_distances, distance_matrix, normalized
from .recovery import election_from_frequency_matrix, election_from_position_matrix


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # set by build_parser

    # argparse exits with 2 on bad flags; the contract here is exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _fmt_decimal(value: Fraction) -> str:
    return f"{float(value):.12g}"


# ---------------------------------------------------------------------------
# subcommand helpers


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _bad_flag(args: argparse.Namespace, key: str, want: str) -> UsageError:
    """A bad flag value, given or from a config file: named by flag, never by input."""
    flag, value = "--" + key.replace("_", "-"), getattr(args, key)
    return UsageError(f"{args.command}: {flag} (config key {key}) must be {want}, got {value!r}")


def _cmd_generate(args: argparse.Namespace) -> int:
    gamma = args.culture == "urn-gamma"
    spec = cultures.CultureSpec(
        tag="URN" if gamma else args.culture.replace("-", "_").upper(),
        m=args.m,
        n=args.n,
        seed=args.seed,
        alpha=args.alpha,
        gamma_alpha=gamma,
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
    value = cross_distances([x], [y])[0][0]
    if args.normalized:
        value = normalized(value, x.m)
    print(f"{_fmt_decimal(value)} (exact {value.numerator}/{value.denominator})")
    return 0


def _cmd_distance_matrix(args: argparse.Namespace) -> int:
    labels = [os.path.splitext(os.path.basename(p))[0] for p in args.inputs]
    first: dict[str, str] = {}
    for label, path in zip(labels, args.inputs):
        if label in first:
            raise ValueError(f"inputs {first[label]} and {path} share the label {label!r}")
        if label != label.strip() or any(c in label for c in ",\r\n"):
            raise ValueError(
                f"input {path} has the label {label!r}, which a distance table cannot hold: "
                "a comma, a line break or surrounding whitespace"
            )
        first[label] = path
    items = [_load_item(p) for p in args.inputs]
    table = distance_matrix(items)
    for path, fmt in ((args.out, _fmt_decimal), (args.sidecar, str)):
        if path:
            # the table is symmetric: format the upper triangle, mirror the text
            cells = [[fmt(v) for v in row[i:]] for i, row in enumerate(table)]
            lines = [",".join(["id"] + labels)]
            for i, label in enumerate(labels):
                lines.append(",".join([label] + [cells[k][i - k] for k in range(i)] + cells[i]))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
    _say(args, f"wrote {len(items)}x{len(items)} distance matrix to {args.out}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 1:
        raise _bad_flag(args, "n", "a positive integer")
    matrix = matrixio.read_matrix_csv(args.matrix)
    if isinstance(matrix, PositionMatrix):
        if args.n is not None and args.n != matrix.n:
            raise UsageError(
                f"recover: --n {args.n} conflicts with the {matrix.n} voters of the position matrix"
            )
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
            pair, colon, alpha = label.partition(":")  # a corner's alpha is 1
            fh.write(f"{label},{pair},{alpha if colon else '1'},{fname}\n")
    _say(args, f"wrote {len(labeled)} matrices and manifest to {args.out}")
    return 0


def _m_list(text: str) -> list[int]:
    try:
        ms = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        ms = []
    if not ms or any(m < 2 for m in ms):
        raise argparse.ArgumentTypeError(f"needs comma-separated integers >= 2, got {text!r}")
    return ms


def _cmd_mallows_table(args: argparse.Namespace) -> int:
    print("\t".join(["rel-phi"] + [f"m={m}" for m in args.m_list]))
    for rel in (k / 20 for k in range(11)):  # 0.00, 0.05, ..., 0.50
        phis = [f"{cultures.relphi_to_phi(m, rel):.3f}" for m in args.m_list]
        print("\t".join([f"{rel:.2f}"] + phis))
    return 0


def _listing(directory: str, suffixes: tuple[str, ...]) -> list[str]:
    paths = sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(suffixes)
    )
    if not paths:
        with _in_file(directory):
            raise ValueError(f"no {'/'.join(suffixes)} files")
    return paths


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.preset not in ingest.PRESETS:
        raise UsageError(
            f"ingest: unknown preset {args.preset!r}; choose from "
            f"{', '.join(sorted(ingest.PRESETS))}"
        )
    config = ingest.PRESETS[args.preset]
    paths = _listing(args.indir, ingest.PREFLIB_SUFFIXES)
    profiles = [ingest.parse_preflib(p) for p in paths]
    with _in_file(args.indir):
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


def _distance(cell: str) -> float:
    with suppress(ValueError):
        if math.isfinite(value := float(cell)):
            return value
    raise ValueError(f"bad distance {cell!r}: expected a finite number")


def _read_distance_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty distance file")
    header = lines[0].split(",")
    if header and header[0] == "id":
        labels = header[1:]
        index: dict[str, int] = {}
        for k, label in enumerate(labels):
            if index.setdefault(label, k) != k:
                raise ValueError(f"header label {label!r} is repeated")
        by_index: dict[int, list[float]] = {}
        for ln in lines[1:]:
            label, *cells = ln.split(",")
            if label not in index:
                raise ValueError(f"row label {label!r} is not in the header")
            if index[label] in by_index:
                raise ValueError(f"row label {label!r} is repeated")
            by_index[index[label]] = list(map(_distance, cells))
        rows = [by_index[k] for k in sorted(by_index)]
    else:
        labels = [str(i) for i in range(len(lines))]
        rows = [list(map(_distance, ln.split(","))) for ln in lines]
    if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
        raise ValueError("distance matrix must be square")
    return labels, rows


def _cmd_embed(args: argparse.Namespace) -> int:
    if not args.svg and not args.coords:
        raise UsageError("embed: nothing to do, pass --svg and/or --coords")
    if args.iters < 1:
        raise _bad_flag(args, "iters", "a positive integer")
    with _in_file(args.distances):
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
    return 0


def _cmd_fit_mallows(args: argparse.Namespace) -> int:
    step = args.grid_step
    if not sys.float_info.min <= step <= 0.5:  # below the least normal float, 0.5 / step can overflow
        raise _bad_flag(args, "grid_step", f"a number in [{sys.float_info.min!r}, 0.5]")
    if args.samples < 1:
        raise _bad_flag(args, "samples", "a positive integer")
    dataset = [ingest.load_election(p) for p in _listing(args.dataset, (".soc",))]
    # the multiples of the step below 1/2, one just short of it by rounding aside, then 1/2
    grid = [k * step for k in range(math.ceil(0.5 / step - 1e-9))] + [0.5]
    with _in_file(args.dataset):  # the flags are checked: what is left is the dataset's fault
        result = cultures.fit_mallows(dataset, grid, args.samples, args.seed)
    print(
        f"relphi={result.relphi:.4f} mean={result.mean_distance:.6f} "
        f"std={result.std_distance:.6f}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _generate_options(p: _Parser) -> None:
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


def _distance_options(p: _Parser) -> None:
    p.add_argument("--a", required=True, help="first matrix CSV or election file")
    p.add_argument("--b", required=True, help="second matrix CSV or election file")
    p.add_argument("--normalized", action="store_true", help="divide by (m*m-1)/3")


def _distance_matrix_options(p: _Parser) -> None:
    p.add_argument("--inputs", nargs="+", required=True,
                   help="matrix CSVs or election files")
    p.add_argument("--out", required=True, help="output CSV (12 significant digits)")
    p.add_argument("--sidecar", default=None, help="optional exact p/q CSV")


def _recover_options(p: _Parser) -> None:
    p.add_argument("--matrix", required=True, help="position or frequency CSV")
    p.add_argument("--n", type=int, default=None, help="voters (frequency input)")
    p.add_argument("--out", required=True, help="output election file")


def _compass_options(p: _Parser) -> None:
    p.add_argument("--m", type=int, required=True, help="candidates (even)")
    p.add_argument("--scale", type=int, default=50, help="points per unit distance")
    p.add_argument("--out", required=True, help="output directory")


def _mallows_table_options(p: _Parser) -> None:
    p.add_argument("--m-list", type=_m_list, default="5,10,20,50,100",
                   help="comma-separated m values, each >= 2")


def _ingest_options(p: _Parser) -> None:
    p.add_argument("--in", dest="indir", required=True, help="directory of profiles")
    p.add_argument("--preset", default="default", help="pipeline preset name")
    p.add_argument("--out", required=True, help="output directory")


def _embed_options(p: _Parser) -> None:
    p.add_argument("--distances", required=True, help="distance CSV")
    p.add_argument("--iters", type=int, default=1000, help="cap on stress-majorization iterations")
    p.add_argument("--svg", default=None, help="output SVG path")
    p.add_argument("--coords", default=None, help="output coordinates CSV")


def _fit_mallows_options(p: _Parser) -> None:
    p.add_argument("--dataset", required=True, help="directory of .soc elections")
    p.add_argument("--grid-step", type=float, default=0.001, help="grid resolution, in (0, 0.5]")
    p.add_argument("--samples", type=int, default=100, help="samples per grid value")
    p.add_argument("--coarse", action="store_true",
                   help="coarse preset: step 0.01, 20 samples; "
                        "explicit --grid-step/--samples win")


# name: (help, handler, options), in the order of the full help
_COMMANDS = {
    "generate": ("sample an election", _cmd_generate, _generate_options),
    "distance": ("positionwise distance", _cmd_distance, _distance_options),
    "distance-matrix": ("pairwise distances of many inputs", _cmd_distance_matrix,
                        _distance_matrix_options),
    "recover": ("election from a matrix", _cmd_recover, _recover_options),
    "compass": ("anchor matrices and paths", _cmd_compass, _compass_options),
    "mallows-table": ("relphi -> phi calibration table", _cmd_mallows_table,
                      _mallows_table_options),
    "ingest": ("preset dataset pipeline", _cmd_ingest, _ingest_options),
    "embed": ("2-D map of a distance matrix", _cmd_embed, _embed_options),
    "fit-mallows": ("fit normalized dispersion to a dataset", _cmd_fit_mallows,
                    _fit_mallows_options),
}


def build_parser(command: str | None = None) -> _Parser:
    """The command-line parser.  Given the name of a subcommand, only that
    subparser is built, which parses its arguments and prints its help and
    errors as the full parser does; any other value builds them all."""
    parser = _Parser(
        prog="prefmap",
        description="Sample, compare, reconstruct, and map ranked elections.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--quiet", action="store_true", help="suppress progress notes")
    common.add_argument("--config", default=None,
                        help="key=value file of defaults; explicit flags and --coarse win")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # a one-command build still names every command in its usage line
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", metavar=metavar)
    for name in names:
        help_text, handler, add_options = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        add_options(p)
        p.set_defaults(func=handler)
    parser.commands = sub.choices
    return parser


_CONFIG_KEYS = "seed quiet iters scale samples grid_step m n alpha phi relphi dim preset".split()


def _defaults(args: argparse.Namespace) -> dict[str, object]:
    """The subcommand's --config values, with the --coarse preset over them.
    Config values stay strings for argparse to convert; quiet reads 1/true/yes."""
    values: dict[str, object] = {}
    if args.config:
        with _in_file(args.config), open(args.config, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                key, sep, value = map(str.strip, line.partition("="))
                if key.startswith("#") or not (key or sep):
                    continue
                if not sep:
                    raise ValueError(f"line {lineno}: expected key=value")
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"line {lineno}: unknown key {key!r}")
                values[key] = value.lower() in ("1", "true", "yes") if key == "quiet" else value
    if getattr(args, "coarse", False):
        values.update(grid_step=0.01, samples=20)
    return {key: value for key, value in values.items() if hasattr(args, key)}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(parser.format_usage())
        defaults = _defaults(args)
        if defaults:  # explicit flags win over defaults by construction
            parser.commands[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        message = exc
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"{exc.filename}: {exc.strerror}"
        print(f"prefmap: error: {message}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"prefmap: internal error: {exc!r}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
