"""Unit tests for the pilot substrate (units, database, agent, managers, facade)."""

import glob
import os
import tempfile

import pytest

from repro.frameworks import make_framework
from repro.frameworks.pilot import (
    ComputeUnit,
    ComputeUnitDescription,
    PilotDescription,
    PilotFramework,
    PilotManager,
    Session,
    StateDatabase,
    UnitManager,
    UnitState,
)


class TestComputeUnitDescription:
    def test_requires_payload(self):
        with pytest.raises(ValueError):
            ComputeUnitDescription().validate()

    def test_callable_payload(self):
        desc = ComputeUnitDescription(callable_=lambda x: x, args=(1,))
        desc.validate()

    def test_executable_payload(self):
        ComputeUnitDescription(executable="/bin/hostname").validate()

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            ComputeUnitDescription(executable="x", cores=0).validate()

    def test_non_callable_rejected(self):
        with pytest.raises(ValueError):
            ComputeUnitDescription(callable_=42).validate()


class TestComputeUnitStateModel:
    def test_forward_transitions(self):
        unit = ComputeUnit(ComputeUnitDescription(executable="x"))
        assert unit.state == UnitState.NEW
        unit.advance(UnitState.PENDING_INPUT_STAGING)
        unit.advance(UnitState.AGENT_SCHEDULING)
        unit.advance(UnitState.EXECUTING)
        unit.advance(UnitState.DONE)
        assert unit.is_done and unit.is_terminal
        assert unit.state_history[0] == UnitState.NEW
        assert unit.state_history[-1] == UnitState.DONE

    def test_backward_transition_rejected(self):
        unit = ComputeUnit(ComputeUnitDescription(executable="x"))
        unit.advance(UnitState.EXECUTING)
        with pytest.raises(RuntimeError):
            unit.advance(UnitState.AGENT_SCHEDULING)

    def test_terminal_state_is_final(self):
        unit = ComputeUnit(ComputeUnitDescription(executable="x"))
        unit.advance(UnitState.FAILED)
        with pytest.raises(RuntimeError):
            unit.advance(UnitState.DONE)

    def test_execute_payload_callable(self):
        unit = ComputeUnit(ComputeUnitDescription(callable_=lambda a, b: a + b, args=(2, 3)))
        assert unit.execute_payload() == 5

    def test_execute_payload_executable_is_noop(self):
        unit = ComputeUnit(ComputeUnitDescription(executable="/bin/hostname"))
        assert unit.execute_payload() == "/bin/hostname"

    def test_unique_uids(self):
        a = ComputeUnit(ComputeUnitDescription(executable="x"))
        b = ComputeUnit(ComputeUnitDescription(executable="x"))
        assert a.uid != b.uid


class TestStateDatabase:
    def test_insert_get_update(self):
        db = StateDatabase()
        db.insert("u1", {"state": "NEW"})
        assert db.get("u1")["state"] == "NEW"
        db.update("u1", {"state": "DONE"})
        assert db.get("u1")["state"] == "DONE"
        assert db.stats.inserts == 1
        assert db.stats.updates == 1
        assert db.stats.round_trips >= 3

    def test_duplicate_insert_raises(self):
        db = StateDatabase()
        db.insert("u1", {})
        with pytest.raises(KeyError):
            db.insert("u1", {})

    def test_unknown_document_raises(self):
        db = StateDatabase()
        with pytest.raises(KeyError):
            db.get("missing")
        with pytest.raises(KeyError):
            db.update("missing", {})

    def test_bulk_operations_single_round_trip(self):
        db = StateDatabase()
        db.insert_many({f"u{i}": {"state": "NEW"} for i in range(10)})
        assert db.stats.round_trips == 1
        db.update_many({f"u{i}": {"state": "DONE"} for i in range(10)})
        assert db.stats.round_trips == 2

    def test_pull_respects_batch_size(self):
        db = StateDatabase(batch_size=3)
        db.insert_many({f"u{i}": {"state": "PENDING"} for i in range(10)})
        batch = db.pull("state", "PENDING")
        assert len(batch) == 3

    def test_count_and_drop(self):
        db = StateDatabase()
        db.insert_many({"a": {"state": "X"}, "b": {"state": "Y"}})
        assert db.count() == 2
        assert db.count("state", "X") == 1
        db.drop()
        assert db.count() == 0

    def test_latency_accumulates(self):
        db = StateDatabase(latency_s=0.001)
        db.insert("u1", {})
        db.get("u1")
        assert db.stats.simulated_latency_s >= 0.002

    def test_validation(self):
        with pytest.raises(ValueError):
            StateDatabase(latency_s=-1)
        with pytest.raises(ValueError):
            StateDatabase(batch_size=0)


class TestPilotAndManagers:
    def test_pilot_description_validation(self):
        with pytest.raises(ValueError):
            PilotDescription(cores=0).validate()
        with pytest.raises(ValueError):
            PilotDescription(runtime_minutes=0).validate()

    def test_full_unit_lifecycle(self):
        session = Session()
        pmgr = PilotManager(session)
        pilot = pmgr.submit_pilots(PilotDescription(cores=2))[0]
        umgr = UnitManager(session)
        umgr.add_pilots(pilot)
        descriptions = [ComputeUnitDescription(callable_=lambda x=i: x * 10, name=f"t{i}")
                        for i in range(5)]
        units = umgr.submit_units(descriptions)
        finished = umgr.wait_units(units)
        assert all(u.is_done for u in finished)
        assert sorted(u.result for u in finished) == [0, 10, 20, 30, 40]
        assert pilot.agent.stats.units_executed == 5
        session.close()
        assert session.closed

    def test_wait_without_pilots_raises(self):
        session = Session()
        umgr = UnitManager(session)
        umgr.submit_units(ComputeUnitDescription(executable="x"))
        with pytest.raises(RuntimeError):
            umgr.wait_units()

    def test_failed_unit_recorded(self):
        session = Session()
        pilot = PilotManager(session).submit_pilots(PilotDescription(cores=1))[0]
        umgr = UnitManager(session)
        umgr.add_pilots(pilot)

        def boom():
            raise ValueError("unit exploded")

        units = umgr.submit_units(ComputeUnitDescription(callable_=boom))
        umgr.wait_units(units)
        assert units[0].state == UnitState.FAILED
        assert isinstance(units[0].exception, ValueError)


class TestPilotFramework:
    def test_map_tasks(self):
        fw = PilotFramework(executor="threads", workers=2)
        assert fw.map_tasks(lambda x: x + 1, list(range(10))) == list(range(1, 11))
        assert fw.metrics.tasks_completed == 10
        events = dict(fw.metrics.events)
        assert events["database"]["round_trips"] > 0
        fw.close()

    def test_map_tasks_failure_propagates(self):
        fw = PilotFramework(executor="serial")

        def maybe_fail(x):
            if x == 2:
                raise RuntimeError("bad unit")
            return x

        with pytest.raises(RuntimeError, match="bad unit"):
            fw.map_tasks(maybe_fail, [1, 2, 3])
        fw.close()

    def test_stage_data_roundtrip(self, tmp_path):
        fw = PilotFramework(executor="serial", staging_dir=str(tmp_path))
        payload = {"positions": [1, 2, 3]}
        path = fw.stage_data(payload, label="system")
        assert fw.load_staged(path) == payload
        assert fw.metrics.bytes_staged > 0
        fw.close()

    def test_close_removes_its_own_staging_dir(self):
        def staging_dirs():
            return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro_pilot_*")))

        before = staging_dirs()
        fw = make_framework("pilot")
        path = fw.stage_data({"positions": [1, 2, 3]})
        assert os.path.exists(path)
        fw.close()
        assert staging_dirs() <= before

    def test_close_leaves_a_given_staging_dir(self, tmp_path):
        fw = PilotFramework(executor="serial", staging_dir=str(tmp_path))
        path = fw.stage_data([1.0])
        fw.close()
        assert os.path.exists(path)

    def test_broadcast_counts_as_staging(self, tmp_path):
        fw = PilotFramework(executor="serial", staging_dir=str(tmp_path))
        handle = fw.broadcast([1.0] * 100)
        assert handle.value == [1.0] * 100
        assert fw.metrics.bytes_staged > 0
        fw.close()

    def test_database_latency_slows_execution(self):
        fast = PilotFramework(executor="serial", database_latency_s=0.0)
        slow = PilotFramework(executor="serial", database_latency_s=0.002)
        items = list(range(20))
        fast.map_tasks(lambda x: x, items)
        slow.map_tasks(lambda x: x, items)
        assert slow.metrics.wall_time_s > fast.metrics.wall_time_s
        fast.close()
        slow.close()
