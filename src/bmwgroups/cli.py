"""Command-line front end.

Subcommands::

    sample    draw involution tuples                  -> tuple JSON
    analyze   evaluate every certificate for a tuple  -> report JSON
    census    count structure sets at tiny degree     -> text or JSON
    s0        build/verify the seeded extension family-> structure-set JSON
    mc        Monte-Carlo / exact estimation          -> estimate JSON

Exit codes: 0 success (or certified), 1 ran but not certified, 2 usage
error, 3 resource guard refused the computation.

Every randomized command takes ``--seed`` and prints the effective seed on
stderr; given identical flags, output bytes are identical.  Guards can be
overridden with the environment variables ``BMWGROUPS_CENSUS_GUARD``,
``BMWGROUPS_ORDER_GUARD`` and ``BMWGROUPS_ENUM_LIMIT``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

from . import formats, radu, randmodel, structure
from .errors import BmwError, ResourceError, UsageError
from .permgroup import DEFAULT_ORDER_GUARD, PermutationGroup
from .rng import RngState

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name} must be an integer") from None


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_sample(cfg: argparse.Namespace) -> int:
    if cfg.n < 2 or cfg.n % 2:
        _note("error: --n must be even and at least 2")
        return EXIT_USAGE
    if cfg.m < 1 or cfg.count < 1:
        _note("error: --m and --count must be positive")
        return EXIT_USAGE
    _note(f"seed: {cfg.seed}")
    rng = RngState(cfg.seed)
    docs = []
    for _ in range(cfg.count):
        t = randmodel.sample_tuple(cfg.m, cfg.n, rng)
        docs.append(formats.tuple_document(t, seed=cfg.seed))
    if cfg.count == 1:
        _emit(formats.dumps(docs[0]), cfg.output_path)
    else:
        lines = "".join(
            json.dumps(d, sort_keys=True, default=formats.json_default) + "\n" for d in docs
        )
        _emit(lines, cfg.output_path)
    return EXIT_OK


def cmd_analyze(cfg: argparse.Namespace) -> int:
    try:
        with open(cfg.input_path) as fh:
            doc = json.load(fh)
        t = formats.tuple_from_document(doc)
    except (OSError, ValueError, BmwError) as exc:
        _note(f"error: cannot read tuple file: {exc}")
        return EXIT_USAGE
    report = randmodel.irr_certificate(t, radius=cfg.radius, order_guard=cfg.order_guard)
    _emit(formats.dumps(formats.report_document(report)), cfg.output_path)
    return EXIT_OK if report.hji_certified else EXIT_NOT_CERTIFIED


def cmd_census(cfg: argparse.Namespace) -> int:
    if cfg.m < 1 or cfg.n < 1:
        _note("error: --m and --n must be positive")
        return EXIT_USAGE
    if cfg.up_to_relabeling:
        total, classes = structure.census_counts(cfg.m, cfg.n, guard=cfg.census_guard)
    else:
        total = structure.enumerate_structure_sets(cfg.m, cfg.n, guard=cfg.census_guard)
        classes = None
    if cfg.fmt == "json":
        doc = {"m": cfg.m, "n": cfg.n, "structure_sets": total}
        if classes is not None:
            doc["relabeling_classes"] = classes
        _emit(formats.dumps(doc), cfg.output_path)
    else:
        lines = [f"structure_sets: {total}"]
        if classes is not None:
            lines.append(f"relabeling_classes: {classes}")
        _emit("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_s0(cfg: argparse.Namespace) -> int:
    if cfg.m < radu.MIN_M or cfg.n < radu.MIN_N:
        _note(f"error: requires --m >= {radu.MIN_M} and --n >= {radu.MIN_N}")
        return EXIT_USAGE
    filler = None
    if cfg.filler_seed is not None:
        _note(f"filler seed: {cfg.filler_seed}")
        filler = radu.random_filler(cfg.m, cfg.n, RngState(cfg.filler_seed))
    bp = radu.blueprint(cfg.m, cfg.n)
    s = bp.extension(filler)
    doc = formats.structure_set_document(s, families=bp.families(), seed=cfg.filler_seed)
    _emit(formats.dumps(doc), cfg.output_path)
    if not cfg.verify:
        return EXIT_OK
    # the local involutions are the rows of the b-parts and the columns of the a-parts
    b_group = PermutationGroup._from_images0(cfg.n, s._partners[..., 1] - 1)
    a_group = PermutationGroup._from_images0(cfg.m, s._partners[..., 0].T - 1)
    checks = {
        "b_local_full_symmetric": b_group.order(cfg.order_guard) == math.factorial(cfg.n),
        "a_local_full_symmetric": a_group.order(cfg.order_guard) == math.factorial(cfg.m),
    }
    claim = radu.schreier_claim_check(cfg.n)
    checks["schreier_connected"] = claim.connected
    checks["schreier_not_bipartite"] = claim.not_bipartite
    for name, ok in checks.items():
        _note(f"verify {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if all(checks.values()) else EXIT_NOT_CERTIFIED


def cmd_mc(cfg: argparse.Namespace) -> int:
    if cfg.kind not in randmodel.MC_KINDS:
        _note(f"error: --kind must be one of {', '.join(randmodel.MC_KINDS)}")
        return EXIT_USAGE
    _note(f"seed: {cfg.seed}")
    result = randmodel.monte_carlo(
        cfg.kind,
        cfg.m,
        cfg.n,
        cfg.trials,
        RngState(cfg.seed),
        radius=cfg.radius,
        enumeration_limit=cfg.enumeration_limit,
        order_guard=cfg.order_guard,
    )
    _emit(formats.dumps(formats.estimate_document(result)), cfg.output_path)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="bmwgroups",
        description="Structure sets of involutive BMW groups: sampling, certificates, censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw involution tuples")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", dest="output_path")

    p = sub.add_parser("analyze", help="evaluate certificates for a tuple file")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--radius", type=int, default=randmodel.DEFAULT_BALL_RADIUS)
    p.add_argument("--out", dest="output_path")

    p = sub.add_parser("census", help="count structure sets at tiny degree")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--up-to-relabeling", action="store_true")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--out", dest="output_path")

    p = sub.add_parser("s0", help="build (and verify) a seeded extension")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filler-seed", dest="filler_seed", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", dest="output_path")

    p = sub.add_parser("mc", help="Monte-Carlo or exact estimation")
    p.add_argument("--kind", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int, default=randmodel.DEFAULT_BALL_RADIUS)
    p.add_argument("--out", dest="output_path")
    return parser


_HANDLERS = {
    "sample": cmd_sample,
    "analyze": cmd_analyze,
    "census": cmd_census,
    "s0": cmd_s0,
    "mc": cmd_mc,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # the namespace is the run's config; the guards come from the environment
        args.census_guard = _env_int("BMWGROUPS_CENSUS_GUARD", structure.DEFAULT_CENSUS_GUARD)
        args.order_guard = _env_int("BMWGROUPS_ORDER_GUARD", DEFAULT_ORDER_GUARD)
        args.enumeration_limit = _env_int(
            "BMWGROUPS_ENUM_LIMIT", randmodel.DEFAULT_ENUMERATION_LIMIT
        )
        return _HANDLERS[args.command](args)
    except ResourceError as exc:
        _note(f"resource guard: {exc}")
        return EXIT_GUARD
    except BmwError as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
