"""Pure helpers shared by run.py, child.py and compare.py.

Percentiles, error and leak accounting, and the declarations of
BENCHMARK.json.  No clocks and no processes here, so the unit tests
exercise all of it.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bench.stats import quantile

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q`` quantile of ``samples`` and how many samples lie beyond it."""
    value = quantile(samples, q)
    return value, sum(1 for s in samples if s > value)


def share(total: int, rounds: int, r: int) -> int:
    """Calls due in round ``r`` when ``total`` calls are spread evenly over ``rounds``."""
    return total * (r + 1) // rounds - total * r // rounds


def count_failed(digests: Sequence[Optional[str]], expected: str) -> int:
    """Calls that raised (``None``) or whose output digest differs from ``expected``."""
    return sum(1 for d in digests if d != expected)


def error_rate(attempted: int, failed: int) -> float:
    """Failed calls over attempted calls."""
    if attempted < 1:
        raise ValueError("no calls attempted")
    return failed / attempted


def leftover_names(shm_names: Iterable[str], tmp_names: Iterable[str],
                   shm_prefixes: Tuple[str, ...], spill_prefix: str) -> Set[str]:
    """The entries of a ``/dev/shm`` and a temp-dir listing that a run may leave behind."""
    return ({f"shm/{n}" for n in shm_names if n.startswith(shm_prefixes)}
            | {f"tmp/{n}" for n in tmp_names if n.startswith(spill_prefix)})


class LeakCounter:
    """Counts the leftovers that appear while a watched body runs and outlive it.

    ``listing()`` returns the leftovers present at the moment.  Only what
    appears inside :meth:`watch` counts, so entries made by other
    processes between watches, or left before the first one, do not.
    """

    def __init__(self, listing: Callable[[], Set[str]]) -> None:
        self.listing = listing
        self.count = 0

    @contextlib.contextmanager
    def watch(self) -> Iterator[None]:
        before = self.listing()
        try:
            yield
        finally:
            self.count += len(self.listing() - before)


def load_run_seconds(path: Path = BENCHMARK_JSON) -> int:
    """``run_seconds`` of BENCHMARK.json: the length the timed call counts are sized to."""
    return json.loads(Path(path).read_text())["run_seconds"]


def load_declared(path: Path = BENCHMARK_JSON) -> Dict[str, dict]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}`` from BENCHMARK.json."""
    spec = json.loads(Path(path).read_text())
    return {section: {m["name"]: m for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def declaration_problems(emitted: Dict[str, dict], declared: Dict[str, dict]) -> List[str]:
    """Differences between the metrics a run emitted and those declared for it."""
    problems = [f"metric {name!r} is emitted but not declared"
                for name in sorted(set(emitted) - set(declared))]
    problems += [f"metric {name!r} is declared but not emitted"
                 for name in sorted(set(declared) - set(emitted))]
    problems += [f"metric {name!r} has unit {emitted[name]['unit']!r}, "
                 f"declared {declared[name]['unit']!r}"
                 for name in sorted(set(emitted) & set(declared))
                 if emitted[name]["unit"] != declared[name]["unit"]]
    return problems
