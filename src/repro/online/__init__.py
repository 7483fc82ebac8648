"""Online monitoring: event-driven incremental checking and continuous SCOUT.

The batch pipeline (:class:`~repro.core.system.ScoutSystem`) answers one
question at one point in time by sweeping the whole network.  This package
turns it into a continuous monitor running against a live controller:

* :mod:`~repro.online.events` / :mod:`~repro.online.bus` — typed events and
  a deterministic publish/subscribe bus;
* :mod:`~repro.online.instrument` — listener wiring that republishes change
  log, fault log and TCAM writes as events;
* :mod:`~repro.online.delta` — the incremental L-T equivalence checker
  (identity proofs, blast-radius re-checks);
* :mod:`~repro.online.monitor` — the debouncing daemon driving scoped SCOUT
  runs and the incident lifecycle (partitionable, snapshot/restorable);
* :mod:`~repro.online.partition` — deterministic switch-ownership maps for
  the partitioned monitor;
* :mod:`~repro.online.incidents` — the incident store (persisted inside the
  monitor snapshot).
"""

from .bus import EventBus
from .delta import IncrementalChecker, merge_checker_states
from .events import (
    DeviceFault,
    Event,
    PolicyChanged,
    TcamChanged,
    event_from_dict,
)
from .incidents import Incident, IncidentStatus, IncidentStore
from .instrument import Instrumentation, instrument
from .monitor import SNAPSHOT_VERSION, MonitorPass, NetworkMonitor
from .partition import PartitionMap

__all__ = [
    "DeviceFault",
    "Event",
    "EventBus",
    "Incident",
    "IncidentStatus",
    "IncidentStore",
    "IncrementalChecker",
    "Instrumentation",
    "MonitorPass",
    "NetworkMonitor",
    "PartitionMap",
    "PolicyChanged",
    "SNAPSHOT_VERSION",
    "TcamChanged",
    "event_from_dict",
    "instrument",
    "merge_checker_states",
]
