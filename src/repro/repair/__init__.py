"""Survivor-driven repair: restore redundancy without the owner's uplink.

After churn kills peers, the remaining coded messages for a file may
dip below the redundancy the owner provisioned.  This package rebuilds
it from survivors alone:

- :mod:`~repro.repair.recombine` — the deterministic repair codec:
  reserved repair id-space, replayable :class:`RepairRecord`, keyed
  public recombination matrices, and the owner's digest-only
  registration path (~16 bytes of uplink per fresh message, zero
  payload bytes).
- :mod:`~repro.repair.monitor` — the control loop: redundancy
  thresholds, the coordinator that owns epochs and the record registry,
  helper retry/backoff, graceful partial repair, and the mid-download
  repair trigger.
"""

from .monitor import (
    DownloadRepairTrigger,
    RedundancyMonitor,
    RepairCoordinator,
    RepairOutcome,
    RepairReport,
)
from .recombine import (
    REPAIR_ID_BASE,
    RepairableCoefficients,
    RepairAwareSource,
    RepairError,
    RepairRecord,
    effective_rows,
    is_repair_id,
    recombination_matrix,
    recombine,
    records_from_dict,
    records_to_dict,
    register_repair_digests,
    repair_message_id,
    split_repair_id,
)

__all__ = [
    "REPAIR_ID_BASE",
    "RepairError",
    "RepairRecord",
    "RepairableCoefficients",
    "RepairAwareSource",
    "repair_message_id",
    "split_repair_id",
    "is_repair_id",
    "recombination_matrix",
    "recombine",
    "effective_rows",
    "register_repair_digests",
    "records_to_dict",
    "records_from_dict",
    "RedundancyMonitor",
    "RepairCoordinator",
    "RepairOutcome",
    "RepairReport",
    "DownloadRepairTrigger",
]
