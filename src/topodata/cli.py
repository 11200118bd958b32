"""Command line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed input, an
operation error, or an id that stdout cannot encode.  Every subcommand
is a thin wrapper over one library call; no logic lives only here.

``main`` pauses the cyclic collector for one command, restores it and
freezes nothing, and makes a surrogateescape stdout strict for it, so no
id prints as a raw byte; ``entry``, the ``topo`` process, also freezes
the heap so that the interpreter's exit-time collections skip it.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import constraints, io, maps, oracle, script
from .errors import TopologyError
from .space import ENUMERATION_LIMIT


def cmd_validate(args) -> int:
    dataset = io.load_dataset(args.manifest)
    report = constraints.validate(dataset)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_run(args) -> int:
    path = Path(args.script)
    parsed = script.parse_script(io.read_text(path), source=str(path))
    result = script.run_script(parsed, base_dir=path.parent)
    for line in result.output:
        print(line)
    return 0 if result.ok else 1


def cmd_dim(args) -> int:
    space = io.load_space(args.space)
    if args.element is None:
        print(space.space_dimension())
    else:
        print(space.dimension(args.element))
    return 0


def cmd_closure_star(args) -> int:
    space = io.load_space(args.space)
    query = space.closure if args.command == "closure" else space.star
    print(",".join(sorted(query(args.ids.split(",")))))
    return 0


def cmd_homeo(args) -> int:
    x = io.load_space(args.left)
    y = io.load_space(args.right)
    found = maps.find_homeomorphism(x, y, max_elements=args.max_elements)
    if found is None:
        print("no homeomorphism")
        return 1
    for a, b in found.pairs():
        print(f"{a} -> {b}")
    return 0


def cmd_oracle_topology(args) -> int:
    space = io.load_space(args.space)
    family = oracle.enumerate_topology(space, args.max_elements)
    for open_set in family:
        print("{" + ",".join(sorted(open_set)) + "}")
    return 0


def cmd_oracle_continuous(args) -> int:
    domain = io.load_space(args.domain)
    codomain = io.load_space(args.codomain)
    spaces = {domain.name: domain, codomain.name: codomain}
    space_map = io.load_map(args.map, spaces)
    ok = oracle.oracle_is_continuous(space_map, args.max_elements)
    print("continuous" if ok else "not continuous")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topo",
        description="Finite topological spaces: query algebra, continuity checks, oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="validate the constraints and chains of a dataset manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a query script")
    p.add_argument("script")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("dim", help="dimension of a space or one of its elements")
    p.add_argument("space")
    p.add_argument("element", nargs="?")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("closure", help="closure of a comma-separated element set")
    p.add_argument("space")
    p.add_argument("ids")
    p.set_defaults(func=cmd_closure_star)

    p = sub.add_parser("star", help="star of a comma-separated element set")
    p.add_argument("space")
    p.add_argument("ids")
    p.set_defaults(func=cmd_closure_star)

    p = sub.add_parser("homeo", help="search for a homeomorphism between two spaces")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-elements", type=int, default=10)
    p.set_defaults(func=cmd_homeo)

    oracle_parser = sub.add_parser("oracle", help="brute-force reference computations")
    oracle_sub = oracle_parser.add_subparsers(dest="oracle_command", required=True)

    p = oracle_sub.add_parser("topology", help="enumerate all open sets")
    p.add_argument("space")
    p.add_argument("--max-elements", type=int, default=ENUMERATION_LIMIT)
    p.set_defaults(func=cmd_oracle_topology)

    p = oracle_sub.add_parser("continuous", help="open-preimage continuity check")
    p.add_argument("map")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--max-elements", type=int, default=ENUMERATION_LIMIT)
    p.set_defaults(func=cmd_oracle_continuous)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # one command frees few cycles, so the cyclic collector waits for its end
    collecting = gc.isenabled()
    gc.disable()
    escaping = getattr(sys.stdout, "errors", None) == "surrogateescape"
    if escaping:  # it would print a lone surrogate U+DC80-U+DCFF as a raw byte
        sys.stdout.reconfigure(errors="strict")
    try:
        return args.func(args)
    except (TopologyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as err:  # a lone surrogate in an id: the lines before it stay
        print(f"error: cannot print output: {err}", file=sys.stderr)
        return 2
    finally:
        if escaping:
            sys.stdout.reconfigure(errors="surrogateescape")
        if collecting:
            gc.enable()


def entry() -> None:
    """The ``topo`` process: ``main``, then a heap freeze, then exit with its code."""
    code = main()
    gc.freeze()  # the collections at interpreter exit skip the permanent generation
    sys.exit(code)


if __name__ == "__main__":
    entry()
