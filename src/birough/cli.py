"""Command-line interface.

Exit codes: 0 when the command succeeds and every check passes, 1 when a
verification check finds a violation or a witness request exhausts its
bounds, 2 for malformed input, usage errors, or any other failure.
"""

from __future__ import annotations

import argparse
import errno
import importlib
import io
import os
import sys
from pathlib import Path
from typing import Iterable

from .approx import RoughType, approximate, upper_approximation
from .relation import BinaryRelation, BiroughError, Subset

# The names this module takes from the other birough modules, but approx.
# Each is read off this module (``_cli.<name>``), so its module is imported on
# first use (``__getattr__`` below) and a command loads only the modules it
# calls into.  approx is imported above: every command loads it through
# formats anyway, and its names here must stay approx's own functions even
# after a caller, such as the benchmark's tracer, has replaced them in approx.
_IMPORTS = {
    "classify": (
        "TheoremReport",
        "approximate_family",
        "family_law_report",
        "measure_law_report",
        "validate_classification",
    ),
    "formats": (
        "build_approx_report",
        "build_classify_report",
        "build_neighbors_report",
        "build_tables_report",
        "build_verify_report",
        "build_witness_report",
        # Not called here, but kept bound for callers that wrap it by name.
        "emit_report",
        "iter_report",
        "parse_classification_file",
        "parse_relation_file",
        "parse_tables_json",
        "render_relation_file",
    ),
    "lab": (
        "check_relation_against_tables",
        "find_type_witness",
        "generate_relations",
        "merge_property_reports",
        "random_campaign",
        "random_relation",
        "reconstruct_relation",
        "verify_algebraic_properties",
        "verify_serial_iff",
        "witness_inventory",
    ),
}
_MODULE_OF = {name: module for module, names in _IMPORTS.items() for name in names}


def __getattr__(name: str):
    """Bind every name taken from ``name``'s module, as ``from .module import ...`` would.

    A name already bound here, by a caller that replaced it, is kept; and what
    a caller replaces in the source module afterwards stays out of here.
    """
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = importlib.import_module(f".{module}", __package__)
    bound = globals()
    for other in _IMPORTS[module]:
        bound.setdefault(other, getattr(source, other))
    return bound[name]


_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    """The file as text, without the byte-order mark some editors write.

    This is the text that decoding with ``utf-8-sig`` gives.  Decoding as
    UTF-8 and dropping the mark afterwards keeps a bad byte's offset that of
    the file, where ``utf-8-sig`` would count from after the mark.
    """
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise BiroughError(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from None


def _load_relation(path: str) -> BinaryRelation:
    return _cli.parse_relation_file(_read_text(path), source=path)


def _parse_set_arg(rel: BinaryRelation, arg: str) -> Subset:
    labels = [token.strip() for token in arg.split(",") if token.strip()]
    return rel.universes.v_subset(labels)


def _ranged(convert: type, low: float, high: float | None = None):
    """An argparse type: ``convert(text)`` in [low, high], or at least ``low``."""

    def parse(text: str):
        value = convert(text)
        if not (low <= value and (high is None or value <= high)):
            bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse says "invalid int value: ..."
    return parse


def _rough_type_arg(text: str) -> RoughType:
    try:
        return RoughType.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _refuse_unused(args: argparse.Namespace, why: str, *flags: str) -> None:
    """Exit 2 (before any work) when a flag that this run would ignore was given."""
    given = [f"--{flag.replace('_', '-')}" for flag in flags if getattr(args, flag) is not None]
    if given:
        verb = "does" if len(given) == 1 else "do"
        raise BiroughError(f"{why}; {', '.join(given)} {verb} not apply")


def _write(pieces: Iterable[str]) -> None:
    """Write text to stdout piece by piece, every byte of every piece.

    Under unbuffered stdout (``python -u``, ``PYTHONUNBUFFERED``) the text
    layer sits on the raw file and ignores the count of a short write, so a
    reader that closes mid-piece would cut the output short with no error.
    There each piece is encoded and written until the raw file has taken it
    all, so a closed reader shows as ``BrokenPipeError``.
    """
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.writelines(pieces)
        return
    sys.stdout.flush()
    encoding, errors = sys.stdout.encoding, sys.stdout.errors
    for piece in pieces:
        data = memoryview(piece.encode(encoding, errors))
        while data:
            written = raw.write(data)
            if written is None:
                raise BlockingIOError(errno.EAGAIN, "stdout is non-blocking and full")
            data = data[written:]


def _print(report, fmt: str) -> None:
    """Write the report as it is rendered, a batch of about 64K characters at a time."""
    _write(_cli.iter_report(report, fmt))


def _cmd_approx(args: argparse.Namespace) -> int:
    rel = _load_relation(args.relation)
    query = _parse_set_arg(rel, args.set)
    result = approximate(rel, query)
    _print(_cli.build_approx_report(rel, args.relation, query, result), args.format)
    return EXIT_OK


def _neighbors_report(args: argparse.Namespace):
    """The ``neighbors`` report; the relation, with its caches, goes on return."""
    return _cli.build_neighbors_report(_load_relation(args.relation), args.relation)


def _cmd_neighbors(args: argparse.Namespace) -> int:
    report = _neighbors_report(args)
    _print(report, args.format)
    return EXIT_OK if report.body["saturation_identity"] else EXIT_VIOLATION


def _classify_report(args: argparse.Namespace):
    """The ``classify`` report and its exit code.  The family, its
    classification and the law instances go on return, so only the report
    is alive while it is written."""
    rel = _load_relation(args.relation)
    named = _cli.parse_classification_file(
        _read_text(args.classes), rel.universes, source=args.classes
    )
    classification = _cli.validate_classification(named)
    fa = _cli.approximate_family(rel, classification)
    laws = _cli.TheoremReport(
        _cli.family_law_report(fa).entries + _cli.measure_law_report(fa).entries
    )
    report = _cli.build_classify_report(rel, args.relation, fa, laws)
    return report, EXIT_OK if laws.ok else EXIT_VIOLATION


def _cmd_classify(args: argparse.Namespace) -> int:
    report, code = _classify_report(args)
    _print(report, args.format)
    return code


def _verify_one(rel: BinaryRelation, pairs: int | None, seed: int):
    properties = _cli.verify_algebraic_properties(rel, pairs=pairs, seed=seed)
    serial_ok = _cli.verify_serial_iff(rel)
    saturation_ok = rel.saturation_identity_holds()
    rebuilt = _cli.reconstruct_relation(lambda s: upper_approximation(rel, s), rel.universes)
    return properties, serial_ok, saturation_ok, rebuilt == rel


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.relation is not None:
        _refuse_unused(args, "a relation file is checked as given", "max_u", "max_v", "density")
        if not args.pairs:
            _refuse_unused(args, "without --pairs a relation file gets every subset pair", "seed")
        seed = args.seed or 0
        rel = _load_relation(args.relation)
        subsets = (
            f"{args.pairs} sampled subset pairs (seed {seed})"
            if args.pairs
            else "exhaustive subsets"
        )
        campaign = [(rel, args.pairs, seed)]
        scope = {"description": f"relation {args.relation} with {subsets}", "source": args.relation}
    elif args.exhaustive:
        _refuse_unused(
            args,
            "--exhaustive checks every relation with every subset pair",
            "pairs", "seed", "max_u", "max_v", "density",
        )
        u, v = args.exhaustive
        campaign = ((rel, None, 0) for rel in _cli.generate_relations(u, v))
        description = f"all {u}x{v} relations with exhaustive subsets"
        scope = {"description": description, "u": u, "v": v}
    elif args.samples:
        pairs = args.pairs or 50
        seed = args.seed or 0
        max_u, max_v = args.max_u or 8, args.max_v or 8
        density = 0.5 if args.density is None else args.density
        relations = _cli.random_campaign(
            args.samples, max_u=max_u, max_v=max_v, density=density, seed=seed
        )
        campaign = ((rel, pairs, seed + i) for i, rel in enumerate(relations))
        description = (
            f"{args.samples} random relations up to {max_u}x{max_v} "
            f"(density {density}, seed {seed}), {pairs} subset pairs each"
        )
        scope = {
            "description": description,
            "samples": args.samples,
            "max_u": max_u,
            "max_v": max_v,
            "seed": seed,
        }
    else:
        raise BiroughError("nothing to verify: give a relation file, --exhaustive U V or --samples N")

    # [checked, failed] per whole-relation check, in _verify_one's order.
    tallies = {
        "seriality_biconditional": [0, 0],
        "saturation_identity": [0, 0],
        "reconstruction_roundtrip": [0, 0],
    }

    def checked_properties():
        for rel, pairs, seed in campaign:
            properties, *oks = _verify_one(rel, pairs, seed)
            for tally, ok in zip(tallies.values(), oks):
                tally[0] += 1
                tally[1] += not ok
            yield properties

    merged = _cli.merge_property_reports(checked_properties())
    checks = {name: tuple(tally) for name, tally in tallies.items()}
    report = _cli.build_verify_report(scope, merged, checks)
    _print(report, args.format)
    return EXIT_OK if report.body["pass"] else EXIT_VIOLATION


def _cmd_tables(args: argparse.Namespace) -> int:
    table = None
    if args.tables_file:
        transcriptions = _cli.parse_tables_json(
            _read_text(args.tables_file), source=args.tables_file
        )
        if args.op not in transcriptions:
            raise BiroughError(
                f"tables file {args.tables_file} has no {args.op!r} grid"
            )
        table = transcriptions[args.op]

    if args.relation is not None:
        _refuse_unused(args, "--relation checks one relation, not a sweep", "max_u", "max_v")
        rel = _load_relation(args.relation)
        findings = _cli.check_relation_against_tables(rel, args.op, tables=table)
        scope = {
            "description": f"relation {args.relation}, exhaustive subset pairs",
            "source": args.relation,
        }
    else:
        max_u, max_v = args.max_u or 3, args.max_v or 3
        findings = _cli.witness_inventory(args.op, max_u, max_v, tables=table)
        scope = {
            "description": f"exhaustive sweep up to u<={max_u}, v<={max_v}",
            "max_u": max_u,
            "max_v": max_v,
        }
    report = _cli.build_tables_report(args.op, scope, findings)
    _print(report, args.format)
    return EXIT_OK if report.body["conformant"] else EXIT_VIOLATION


def _cmd_witness(args: argparse.Namespace) -> int:
    witness = _cli.find_type_witness(
        args.op,
        args.left,
        args.right,
        args.result,
        max_u=args.max_u,
        max_v=args.max_v,
    )
    report = _cli.build_witness_report(
        args.op, args.left, args.right, args.result, args.max_u, args.max_v, witness
    )
    _print(report, args.format)
    return EXIT_OK if witness is not None else EXIT_VIOLATION


# Characters per write of a generated file.
_PIECE = 1 << 16


def _cmd_gen(args: argparse.Namespace) -> int:
    rel = _cli.random_relation(args.u, args.v, args.density, args.seed, args.index)
    text = _cli.render_relation_file(rel)
    # In pieces, as reports are written, so the file is not encoded whole.
    _write(text[i : i + _PIECE] for i in range(0, len(text), _PIECE))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birough",
        description=(
            "Rough-set approximation over two universes linked by a binary "
            "relation: neighborhoods, lower/upper approximations, rough types, "
            "classification measures, and verification campaigns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("approx", help="lower/upper/boundary/type of a V-subset")
    p.add_argument("relation", help="relation file")
    p.add_argument(
        "--set",
        required=True,
        help="comma-separated V labels; an empty string selects the empty set",
    )
    add_format(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser(
        "neighbors", help="neighborhoods, solitary set, quotients, seriality"
    )
    p.add_argument("relation", help="relation file")
    add_format(p)
    p.set_defaults(func=_cmd_neighbors)

    p = sub.add_parser(
        "classify", help="family approximation, measures, and family laws"
    )
    p.add_argument("relation", help="relation file")
    p.add_argument("--classes", required=True, help="classification file")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="algebraic law campaign")
    scope = p.add_mutually_exclusive_group()
    scope.add_argument("relation", nargs="?", help="relation file to check")
    scope.add_argument(
        "--exhaustive",
        nargs=2,
        type=_ranged(int, 1),
        metavar=("U", "V"),
        help="check every UxV relation with every subset pair",
    )
    scope.add_argument(
        "--samples", type=_ranged(int, 1), metavar="N", help="check N seeded random relations"
    )
    p.add_argument(
        "--seed", type=int, help="seed of the sampled pairs and of --samples relations (default 0)"
    )
    p.add_argument(
        "--pairs",
        type=_ranged(int, 1),
        metavar="N",
        help="sampled subset pairs per relation (default: every pair for a "
        "relation file, 50 for --samples)",
    )
    p.add_argument(
        "--max-u", type=_ranged(int, 1), help="largest |U| of a --samples relation (default 8)"
    )
    p.add_argument(
        "--max-v", type=_ranged(int, 1), help="largest |V| of a --samples relation (default 8)"
    )
    p.add_argument(
        "--density", type=_ranged(float, 0, 1), help="cell density of --samples relations (default 0.5)"
    )
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "tables", help="type-table conformance sweep and witness inventory"
    )
    p.add_argument("--op", required=True, choices=("union", "intersection"))
    p.add_argument("--relation", help="check one relation instead of a sweep")
    p.add_argument("--max-u", type=_ranged(int, 1), help="largest |U| of the sweep (default 3)")
    p.add_argument("--max-v", type=_ranged(int, 1), help="largest |V| of the sweep (default 3)")
    p.add_argument(
        "--tables-file",
        help="JSON transcription to check against instead of the built-in tables",
    )
    add_format(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("witness", help="search for a (relation, X, Y) table witness")
    p.add_argument("--op", required=True, choices=("union", "intersection"))
    p.add_argument("--left", required=True, type=_rough_type_arg)
    p.add_argument("--right", required=True, type=_rough_type_arg)
    p.add_argument("--result", required=True, type=_rough_type_arg)
    p.add_argument("--max-u", type=_ranged(int, 1), default=3)
    p.add_argument("--max-v", type=_ranged(int, 1), default=3)
    add_format(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("gen", help="emit a seeded random relation file")
    p.add_argument("--u", required=True, type=_ranged(int, 1))
    p.add_argument("--v", required=True, type=_ranged(int, 1))
    p.add_argument("--density", type=_ranged(float, 0, 1), default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index", type=int, default=0, help="position in the seeded stream")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # A reader that closed stdout early shows here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # The reader closed stdout.  What is still buffered goes to the null
        # device, so the flush at exit neither fails nor reports again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BiroughError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Exit 1 means a check found a violation; a crash must never read so.
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
