"""Crash-tolerant simulation job service (``repro serve`` / ``submit``).

The layer above the self-healing executor: a durable write-ahead
journal of job transitions, bounded admission with backpressure and
per-tenant fair share, a supervising watchdog with staged degradation,
a localhost HTTP front end, and ``ServiceClient``, its one client.
See ``docs/resilience.md`` ("The job service") for the journal format,
state machine, degradation ladder, and error taxonomy.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import (PRIORITY_BULK, PRIORITY_DEFAULT,
                                PRIORITY_INTERACTIVE, JobSpec, build_cell)
from repro.service.journal import (JOURNAL_FORMAT_VERSION, Journal,
                                   reduce_records)
from repro.service.queue import DEFAULT_TENANT, AdmissionQueue
from repro.service.server import ServiceServer, serve
from repro.service.supervisor import DEGRADATION_LADDER, Supervisor

__all__ = [
    "AdmissionQueue", "DEFAULT_TENANT", "DEGRADATION_LADDER",
    "JOURNAL_FORMAT_VERSION", "JobSpec", "Journal", "PRIORITY_BULK",
    "PRIORITY_DEFAULT", "PRIORITY_INTERACTIVE", "ServiceClient",
    "ServiceServer", "Supervisor", "build_cell", "reduce_records",
    "serve",
]
