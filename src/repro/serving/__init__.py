"""Fleet-as-a-service: a serving layer over sharded crossbar fleets.

The crossbar stack below this package answers *"how fast/cheap is one
``(n, B)`` dispatch?"*; this package answers *"what does the fleet look
like as a shared service?"* — many independent clients submitting
single vectors, coalesced into full readout windows under a latency
budget, with admission control at the door and per-tenant metering of the
fleet's counters.  Drift maintenance under serving is the fleet's own
attached :class:`~repro.crossbar.FleetMaintenance` policy; its
probes and pulses land in ``policy.stats``, never in a tenant's bill.

Layering:

* :mod:`~repro.serving.clock` — the deterministic time protocol
  (:class:`VirtualClock`); the whole core is simulation-testable.
* :mod:`~repro.serving.queue` — :class:`Request`/:class:`RequestResult`,
  the deadline-bounded coalescing :class:`RequestQueue`, and
  :class:`AdmissionController` overload behaviour.
* :mod:`~repro.serving.server` — :class:`FleetServer`, the synchronous
  core: dispatch, demux, latency/SLO tracking, largest-remainder
  per-tenant counter attribution.
"""

from repro.serving.clock import VirtualClock
from repro.serving.queue import (
    ADMISSION_POLICIES,
    REQUEST_KINDS,
    AdmissionController,
    Request,
    RequestQueue,
    RequestResult,
)
from repro.serving.server import BlockDispatch, FleetServer

__all__ = [
    "ADMISSION_POLICIES",
    "REQUEST_KINDS",
    "AdmissionController",
    "BlockDispatch",
    "FleetServer",
    "Request",
    "RequestQueue",
    "RequestResult",
    "VirtualClock",
]
