"""Command line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed input, an
operation error, an id that stdout cannot encode, or a stdout that
cannot take the output (a closed pipe, a full disk).  Every subcommand
is a thin wrapper over one library call; no logic lives only here.

Each command, with its words, positionals and option defaults, is
declared once, in ``COMMANDS``.  A plain argv, a command's words and as
many positionals as it takes with no word starting with ``-``, is
dispatched from that table; argparse is imported, and its parser built,
only for help, options and errors.  So a plain ``topo run`` runs
``errors``, ``space``, ``io``, ``maps``, ``script`` and ``algebra``, and a
plain ``topo validate`` runs ``errors``, ``space``, ``io``, ``maps`` and
``constraints``, each module when first used.

``main`` pauses the cyclic collector for one command, restores it and
freezes nothing, and makes a surrogateescape stdout strict for it, so no
id prints as a raw byte; ``entry``, the ``topo`` process, also flushes
stdout, so that a block-buffered stdout fails where it reports, and
freezes the heap so that the interpreter's exit-time collections skip it.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

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
    dataset = constraints.Dataset()
    for path in (args.domain, args.codomain):
        dataset.add_space(io.load_space(path))
    space_map = io.load_map(args.map, dataset.spaces)
    ok = oracle.oracle_is_continuous(space_map, args.max_elements)
    print("continuous" if ok else "not continuous")
    return 0 if ok else 1


# One row per command: its words, its function, its positional names, the
# names of its optional positionals, its options' defaults and its help.
Command = namedtuple("Command", "path func positionals optional options help")
COMMANDS = (
    Command(("validate",), cmd_validate, ("manifest",), (), {},
            "validate the constraints and chains of a dataset manifest"),
    Command(("run",), cmd_run, ("script",), (), {}, "run a query script"),
    Command(("dim",), cmd_dim, ("space",), ("element",), {},
            "dimension of a space or one of its elements"),
    Command(("closure",), cmd_closure_star, ("space", "ids"), (), {},
            "closure of a comma-separated element set"),
    Command(("star",), cmd_closure_star, ("space", "ids"), (), {},
            "star of a comma-separated element set"),
    Command(("homeo",), cmd_homeo, ("left", "right"), (), {"max_elements": 10},
            "search for a homeomorphism between two spaces"),
    Command(("oracle", "topology"), cmd_oracle_topology, ("space",), (),
            {"max_elements": ENUMERATION_LIMIT}, "enumerate all open sets"),
    Command(("oracle", "continuous"), cmd_oracle_continuous, ("map", "domain", "codomain"), (),
            {"max_elements": ENUMERATION_LIMIT}, "open-preimage continuity check"),
)
GROUPS = {"oracle": "brute-force reference computations"}  # the help of a command's first word


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="topo",
        description="Finite topological spaces: query algebra, continuity checks, oracles.")
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command in COMMANDS:
        *group, name = command.path
        sub = commands
        for word in group:
            if word not in groups:
                groups[word] = commands.add_parser(word, help=GROUPS[word]).add_subparsers(
                    dest=f"{word}_command", required=True)
            sub = groups[word]
        p = sub.add_parser(name, help=command.help)
        for positional in command.positionals:
            p.add_argument(positional)
        for positional in command.optional:
            p.add_argument(positional, nargs="?")
        for option, default in command.options.items():
            p.add_argument(f"--{option.replace('_', '-')}", type=int, default=default)
        p.set_defaults(func=command.func)
    return parser


def plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, for an argv list
    of a command's words and as many positionals as it takes, none starting
    with ``-``; None for any other argv, which argparse handles: help, an
    option, ``--`` or an error."""
    if any(word.startswith("-") for word in argv):
        return None
    for command in COMMANDS:
        path, given = argv[:len(command.path)], argv[len(command.path):]
        names = command.positionals + command.optional
        if tuple(path) == command.path and len(command.positionals) <= len(given) <= len(names):
            return SimpleNamespace(
                **dict(zip(("command", f"{path[0]}_command"), path)),
                **dict(zip(names, given + [None] * len(command.optional))),
                **command.options, func=command.func)
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = plain_args(argv) or build_parser().parse_args(argv)
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
            try:
                sys.stdout.reconfigure(errors="surrogateescape")
            except OSError:  # its flush failed: the output stays buffered, and entry reports it
                pass
        if collecting:
            gc.enable()


def entry() -> None:
    """The ``topo`` process: ``main``, a flush of stdout, a heap freeze, then exit."""
    code = main()
    try:  # a block-buffered stdout is written here, not at exit; None if fd 1 was closed
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as err:  # a closed pipe or a full disk: the rest goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if code != 2:  # main has not reported an error yet
            print(f"error: {err}", file=sys.stderr)
        code = 2
    gc.freeze()  # the collections at interpreter exit skip the permanent generation
    sys.exit(code)


if __name__ == "__main__":
    entry()
