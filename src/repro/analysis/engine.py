"""Kernel engine: selects between reference and vectorized kernel variants.

Several analysis kernels exist in two equivalent implementations:

* ``"reference"`` — the literal per-element Python formulation (the
  executable specification: union-find loops, per-query tree recursion,
  the Taha & Hanbury scan written as a double loop).  Slow, obviously
  correct, and what every vectorized variant is verified against.
* ``"vectorized"`` — the array-native formulation (a compiled tree
  query per batch, min-label propagation, blockwise early-break) that
  does the same work through NumPy and SciPy and is the default
  everywhere.

Kernels that offer both take a ``method`` keyword; passing ``None``
(the default) defers to the engine-wide default, which experiments and
benchmarks flip with :func:`use_kernel_method` to report the
reference-vs-vectorized ablation without threading a flag through every
call site:

>>> from repro.analysis.engine import use_kernel_method
>>> with use_kernel_method("reference"):
...     pass  # every method=None kernel call in here runs the reference
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "KERNEL_METHODS",
    "get_kernel_method",
    "set_kernel_method",
    "resolve_kernel_method",
    "use_kernel_method",
]

#: The two kernel engine variants every dual-implementation kernel offers.
KERNEL_METHODS = ("reference", "vectorized")

# process-wide (not thread-local) on purpose: the task frameworks run map
# tasks on worker threads, and an ablation that flips the engine must
# reach the kernels *inside* those tasks, not just the driver thread
_current_method = "vectorized"


def _check(method: str) -> str:
    if method not in KERNEL_METHODS:
        raise ValueError(
            f"unknown kernel method {method!r}; choose from {KERNEL_METHODS}"
        )
    return method


def get_kernel_method() -> str:
    """Current engine-wide default method (``"vectorized"`` unless overridden)."""
    return _current_method


def set_kernel_method(method: str) -> None:
    """Set the engine-wide default method (affects every thread)."""
    global _current_method
    _current_method = _check(method)


def resolve_kernel_method(method: str | None) -> str:
    """Resolve an explicit ``method`` argument (``None`` -> engine default)."""
    if method is None:
        return get_kernel_method()
    return _check(method)


@contextmanager
def use_kernel_method(method: str) -> Iterator[str]:
    """Temporarily switch the engine default (restores the prior value)."""
    previous = get_kernel_method()
    set_kernel_method(method)
    try:
        yield method
    finally:
        set_kernel_method(previous)
