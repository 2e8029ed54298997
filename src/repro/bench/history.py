"""Append-mode benchmark history: the cross-PR perf trajectory.

One JSON record per line (``BENCH_history.jsonl`` at the repo root):
append-only, so every PR's distributions remain visible and a slow
30%-per-quarter drift shows up as a trend even when each individual
step hides inside the gate's noise band.  Each record carries the full
raw-sample distributions (via
:meth:`repro.bench.stats.Distribution.to_dict`), the suite/kernel/
workload identity, a wall-clock timestamp and the commit SHA (CI's
``GITHUB_SHA``, else ``git rev-parse HEAD`` of the repository) — enough
to re-run any statistical question later without re-running the
benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from .stats import Distribution

__all__ = ["BenchHistory", "HISTORY_FILENAME"]

#: canonical history file name at the repo root
HISTORY_FILENAME = "BENCH_history.jsonl"

#: the repository root of a source checkout, three levels above ``src/repro/bench``
_REPO_ROOT = Path(__file__).resolve().parents[3]


def _commit_sha() -> Optional[str]:
    """Return CI's ``GITHUB_SHA``, else the checkout's HEAD; ``None`` if git fails."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=_REPO_ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


class BenchHistory:
    """Append-mode JSONL store of benchmark distribution records.

    Parameters
    ----------
    path : str or Path
        The ``.jsonl`` file; created on first append.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    # -------------------------------------------------------------- #
    def append(self, suite: str, kernel: str, workload: str,
               distributions: Dict[str, Distribution],
               stats: Optional[dict] = None,
               meta: Optional[dict] = None) -> dict:
        """Append one record and return it.

        Parameters
        ----------
        suite : str
            Benchmark suite name (e.g. ``"kernels"``, ``"spill"``).
        kernel : str
            Workload identity within the suite; baselines are looked
            up by ``(suite, kernel)``.
        workload : str
            Human-readable workload description.
        distributions : dict of str to Distribution
            Named roles (e.g. ``"reference"``/``"vectorized"``, or
            ``"candidate"``) mapped to their measured distributions.
        stats : dict, optional
            Derived statistics (speedup summaries, gate verdicts).
        meta : dict, optional
            Free-form provenance merged into the record.

        Returns
        -------
        dict
            The record as written (one JSON line).
        """
        record = {
            "suite": suite,
            "kernel": kernel,
            "workload": workload,
            "timestamp": time.time(),
            "sha": _commit_sha(),
            "distributions": {name: dist.to_dict()
                              for name, dist in distributions.items()},
        }
        if stats:
            record["stats"] = stats
        if meta:
            record["meta"] = meta
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        return record

    # -------------------------------------------------------------- #
    def load(self) -> List[dict]:
        """All records in append order (empty list when no file yet).

        Malformed lines (e.g. a truncated final line from a killed CI
        job) are skipped rather than poisoning every future read of
        the history.
        """
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return records

    def records(self, suite: Optional[str] = None,
                kernel: Optional[str] = None) -> List[dict]:
        """Records filtered by suite and/or kernel, append order.

        Parameters
        ----------
        suite : str, optional
            Keep only this suite.
        kernel : str, optional
            Keep only this kernel.

        Returns
        -------
        list of dict
        """
        out = self.load()
        if suite is not None:
            out = [r for r in out if r.get("suite") == suite]
        if kernel is not None:
            out = [r for r in out if r.get("kernel") == kernel]
        return out

    def baseline(self, suite: str, kernel: str,
                 role: str = "candidate") -> Optional[Distribution]:
        """Latest stored distribution for ``(suite, kernel, role)``.

        The regression gate compares a fresh candidate distribution
        against this; ``None`` (no history yet) makes the gate pass
        trivially.

        Parameters
        ----------
        suite : str
            Suite name.
        kernel : str
            Kernel/workload identity.
        role : str, optional
            Which named distribution of the record to return
            (default ``"candidate"``).

        Returns
        -------
        Distribution or None
        """
        for record in reversed(self.records(suite, kernel)):
            dists = record.get("distributions", {})
            if role in dists:
                try:
                    return Distribution.from_dict(dists[role])
                except (KeyError, ValueError, TypeError):
                    continue
        return None
