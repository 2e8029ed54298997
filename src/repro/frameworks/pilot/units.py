"""Compute Units: the task abstraction of the pilot framework.

RADICAL-Pilot users describe work as Compute Units (CUs): a description of
what to run plus its data dependencies.  The unit then travels through a
state model (NEW → staged → scheduled → executing → DONE/FAILED), with
every transition written to the backing database — which is precisely the
source of the per-task overhead the paper measures for RADICAL-Pilot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, List, Optional

__all__ = ["UnitState", "ComputeUnitDescription", "ComputeUnit"]

_unit_counter = itertools.count()


class UnitState(str, Enum):
    """Lifecycle states of a Compute Unit (a condensed RP state model)."""

    NEW = "NEW"
    PENDING_INPUT_STAGING = "PENDING_INPUT_STAGING"
    AGENT_SCHEDULING = "AGENT_SCHEDULING"
    EXECUTING = "EXECUTING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"

    @classmethod
    def terminal_states(cls) -> set:
        """States from which a unit never transitions again."""
        return {cls.DONE, cls.FAILED, cls.CANCELED}


#: The canonical forward path through the state model; used to validate
#: transitions recorded by the agent and unit manager.
_STATE_ORDER = [
    UnitState.NEW,
    UnitState.PENDING_INPUT_STAGING,
    UnitState.AGENT_SCHEDULING,
    UnitState.EXECUTING,
    UnitState.DONE,
]


@dataclass
class ComputeUnitDescription:
    """What a unit should run.

    Either ``callable_`` (a Python callable plus ``args``/``kwargs``) or
    ``executable`` (a command name, executed as a zero-workload no-op in
    this reproduction — used by the task-throughput experiment which
    submits ``/bin/hostname`` tasks) must be provided.

    ``input_staging``/``output_staging`` list the files the unit needs /
    produces; the pilot framework has no shuffle, so all inter-task data
    exchange happens through these staging directives (the limitation
    Table 1 lists for RADICAL-Pilot).
    """

    callable_: Optional[Callable[..., Any]] = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    executable: Optional[str] = None
    cores: int = 1
    input_staging: List[str] = field(default_factory=list)
    output_staging: List[str] = field(default_factory=list)
    name: str = ""

    def validate(self) -> None:
        """Raise :class:`ValueError` if the description is not runnable."""
        if self.callable_ is None and self.executable is None:
            raise ValueError("a ComputeUnitDescription needs a callable or an executable")
        if self.callable_ is not None and not callable(self.callable_):
            raise ValueError("callable_ must be callable")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")


class ComputeUnit:
    """A submitted unit: description + state + result."""

    def __init__(self, description: ComputeUnitDescription) -> None:
        description.validate()
        self.uid = f"unit.{next(_unit_counter):06d}"
        self.description = description
        self.state = UnitState.NEW
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.state_history: List[UnitState] = [UnitState.NEW]

    # ------------------------------------------------------------------ #
    def advance(self, new_state: UnitState) -> None:
        """Move the unit to ``new_state`` (validating the transition)."""
        if self.state in UnitState.terminal_states():
            raise RuntimeError(f"unit {self.uid} is already in terminal state {self.state}")
        if new_state == UnitState.FAILED or new_state == UnitState.CANCELED:
            self.state = new_state
            self.state_history.append(new_state)
            return
        current_idx = _STATE_ORDER.index(self.state) if self.state in _STATE_ORDER else -1
        new_idx = _STATE_ORDER.index(new_state) if new_state in _STATE_ORDER else -1
        if new_idx <= current_idx:
            raise RuntimeError(
                f"invalid state transition {self.state} -> {new_state} for {self.uid}"
            )
        self.state = new_state
        self.state_history.append(new_state)

    @property
    def is_done(self) -> bool:
        """True when the unit finished successfully."""
        return self.state == UnitState.DONE

    @property
    def is_terminal(self) -> bool:
        """True when the unit reached any terminal state."""
        return self.state in UnitState.terminal_states()

    def execute_payload(self) -> Any:
        """Run the unit's payload (callable or no-op executable)."""
        desc = self.description
        if desc.callable_ is not None:
            return desc.callable_(*desc.args, **desc.kwargs)
        # executable mode: zero-workload task (e.g. /bin/hostname); we do not
        # spawn a real process — the throughput experiments measure the
        # framework's scheduling path, not the OS fork cost.
        return desc.executable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ComputeUnit {self.uid} state={self.state.value}>"
