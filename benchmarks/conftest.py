"""Shared helpers for the benchmark suite.

Each ``bench_eN_*`` module regenerates one experiment of EXPERIMENTS.md
(the paper is a tutorial without tables/figures; experiments are indexed by
the proposition/theorem they exercise — see DESIGN.md §4).  Timing comes
from pytest-benchmark; the qualitative claims (agreement, who-wins, scaling
shape) are asserted inside the benchmarks themselves.
"""


def fmt_row(*cells) -> str:
    return " | ".join(str(c).ljust(12) for c in cells)
