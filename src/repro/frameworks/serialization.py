"""Serialization accounting.

Communication volume drives most of the performance differences the paper
reports (broadcast of the full system in Leaflet Finder approach 1, edge
list vs partial-component shuffles in approaches 2 vs 3).  Every framework
substrate therefore measures the serialized size of whatever it broadcasts
or shuffles using the helpers here, so that the reproduction can report
the same "shuffle data reduced by >50% (100 MB -> 12 MB)" style numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle
import sys
from typing import Any, Optional, Tuple

import numpy as np

__all__ = ["serialized_size", "nbytes_of", "estimate_transfer_time"]


def serialized_size(obj: Any, protocol: int = pickle.HIGHEST_PROTOCOL) -> int:
    """Size in bytes of ``obj`` when pickled.

    This is what actually crosses process boundaries for Python-level
    frameworks (Dask, PySpark via py4j, RADICAL-Pilot file staging), so it
    is the honest measure of broadcast/shuffle volume.
    """
    return len(pickle.dumps(obj, protocol=protocol))


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """Field names of dataclass ``cls``, or ``None`` for any other class.

    Cached per class: the payload walkers ask once per object, and
    :func:`dataclasses.fields` rebuilds its tuple on every call.
    """
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def nbytes_of(obj: Any) -> int:
    """Cheap in-memory size estimate.

    Uses ``.nbytes`` for NumPy arrays, recurses into lists, tuples,
    dicts and dataclass instances (the shape of every task payload), and
    falls back to :func:`sys.getsizeof` otherwise.  Used where computing
    a full pickle would itself be expensive (for example the 4M-atom
    broadcast ablation).
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return int(sys.getsizeof(obj)) + sum(nbytes_of(item) for item in obj)
    if isinstance(obj, dict):
        return int(sys.getsizeof(obj)) + sum(
            nbytes_of(k) + nbytes_of(v) for k, v in obj.items()
        )
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    names = _field_names(type(obj))
    if names is not None:
        return int(sys.getsizeof(obj)) + sum(nbytes_of(getattr(obj, name))
                                             for name in names)
    return int(sys.getsizeof(obj))


def estimate_transfer_time(nbytes: int, bandwidth_gbps: float = 10.0,
                           latency_s: float = 1e-4) -> float:
    """Time to move ``nbytes`` over a link of ``bandwidth_gbps`` gigabits/s.

    Simple latency + size/bandwidth model; used by the perfmodel when
    charging for broadcasts and shuffles at paper scale.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if bandwidth_gbps <= 0:
        raise ValueError("bandwidth must be positive")
    bytes_per_second = bandwidth_gbps * 1e9 / 8.0
    return latency_s + nbytes / bytes_per_second
