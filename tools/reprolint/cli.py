"""Command-line front end: ``python -m reprolint [paths...]``."""

from __future__ import annotations

import argparse
import sys
import textwrap
from typing import List, Optional, Sequence

from .engine import lint_paths
from .rules import ALL_RULES


def _list_rules() -> str:
    blocks: List[str] = []
    for rule in ALL_RULES:
        wrapped = textwrap.fill(
            rule.rationale, width=76, initial_indent="    ",
            subsequent_indent="    ",
        )
        blocks.append(f"{rule.code} [{rule.name}]\n{wrapped}")
    return "\n\n".join(blocks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Project-specific invariant linter for the repro package "
            "(REP001-REP007)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its rationale and exit",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    rules = ALL_RULES
    if args.select:
        wanted = {code.strip().upper() for code in args.select.split(",")}
        unknown = wanted - {rule.code for rule in ALL_RULES}
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in ALL_RULES if rule.code in wanted]

    violations = lint_paths(args.paths, rules)
    for violation in violations:
        print(violation.render())
    if violations:
        print(
            f"reprolint: {len(violations)} violation"
            f"{'s' if len(violations) != 1 else ''} found",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
