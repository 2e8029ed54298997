"""Verdicts for a change against its parent, per workload and end-to-end metric.

Run from the repository root::

    python3 benchmarks/e2e/compare.py --parent P1.json ... --change C1.json ...

Each file is the ``--out`` result of one run.py run.  Pair ``i`` is
(parent file ``i``, change file ``i``): make at least ten pairs with the
same seed and settings, alternating which side runs first.  For every
workload and every end-to-end metric of BENCHMARK.json the script prints
one verdict, decided in this order:

``improved``
    the change reads better in at least nine tenths of the pairs (ties
    count for neither side) and the medians differ by more than the
    parent's interquartile range;
``unresolved``
    the parent's own spread (interquartile range over median) is wider
    than the metric's bound, so a difference of that size cannot be seen;
``regressed``
    the change's median is worse than the parent's by more than the bound;
``no change``
    otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import measure  # noqa: E402 - needs the library source on the path
from repro.bench.stats import iqr, median, quantile  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def wins(parent, change, better: str) -> int:
    """Pairs in which the change reads better than the parent (ties count for neither)."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)


def verdict(parent, change, bound: float, better: str) -> str:
    """Verdict for one metric from paired samples (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (median(parent) - median(change))
    if wins(parent, change, better) >= WIN_SHARE * min(len(parent), len(change)) \
            and gain > iqr(parent):
        return "improved"
    if iqr(parent) > bound * median(parent):
        return "unresolved"
    if -gain > bound * median(parent):
        return "regressed"
    return "no change"


def _load(paths):
    return [json.loads(Path(p).read_text())["workloads"] for p in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        parser.error(f"give the same number of parent and change files, at least {MIN_PAIRS}")
    parents, changes = _load(args.parent), _load(args.change)
    common = set.intersection(*(set(run) for run in parents + changes))
    if not common:
        parser.error("the files share no workload")
    declared = measure.load_declared()["end_to_end"]
    print(f"{'workload':<16} {'metric':<14} {'parent median [q25, q75]':<34} "
          f"{'change median [q25, q75]':<34} {'wins':>6}  verdict")
    for workload in sorted(common):
        for name, spec in declared.items():
            p = [run[workload]["metrics"][name]["value"] for run in parents]
            c = [run[workload]["metrics"][name]["value"] for run in changes]
            cells = [f"{median(v):.5g} [{quantile(v, 0.25):.5g}, {quantile(v, 0.75):.5g}]"
                     for v in (p, c)]
            print(f"{workload:<16} {name:<14} {cells[0]:<34} {cells[1]:<34} "
                  f"{wins(p, c, spec['better']):>3}/{len(p):<2}  "
                  f"{verdict(p, c, spec['bound'], spec['better'])}")
        failed = [sum(run[workload]["failed"] for run in side) for side in (parents, changes)]
        if failed[1] > failed[0]:
            print(f"{workload:<16} the change failed {failed[1]} calls, the parent {failed[0]}: "
                  "no gain on this workload counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
