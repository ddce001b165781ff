"""Command-line entry point: ``python -m repro.eval [experiment]``."""

from __future__ import annotations

import sys

from repro.eval import (
    aurochs_comparison,
    fig12_optimization_impact,
    fig13_hierarchy_removal,
    fig14_load_balancing,
    format_rows,
    table3_applications,
    table4_resources,
    table5_performance,
    table5_summary,
)


def _table5(rows) -> str:
    """Table V and its geomean summary, from one run of the rows."""
    return format_rows(rows) + "\n\n" + str(table5_summary(rows))


EXPERIMENTS = {
    "table3": lambda: format_rows(table3_applications()),
    "table4": lambda: format_rows(table4_resources()),
    "table5": lambda: _table5(table5_performance()),
    "fig12": lambda: format_rows(fig12_optimization_impact()),
    "fig13": lambda: format_rows(fig13_hierarchy_removal()),
    "fig14": lambda: format_rows(fig14_load_balancing()),
    "aurochs": lambda: str(aurochs_comparison()),
}


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    targets = argv or list(EXPERIMENTS)
    for target in targets:
        if target not in EXPERIMENTS:
            print(f"unknown experiment '{target}'; choose from {list(EXPERIMENTS)}")
            return 1
        print(f"== {target} ==")
        print(EXPERIMENTS[target]())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
