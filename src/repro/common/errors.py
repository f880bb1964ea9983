"""Exception types used across the simulator."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The simulator reached an internally inconsistent state."""


class VerificationError(ReproError):
    """A verification pass (``repro verify``) could not run to completion
    — e.g. the model checker's state budget was exhausted."""


class InvariantViolation(SimulationError):
    """The runtime sanitizer observed a broken simulator invariant.

    Carries the name of the violated invariant, a human-readable detail
    string, and the suffix of the sanitizer's event trace leading up to the
    violation (most recent last) for debugging.
    """

    def __init__(self, invariant, detail, cycle=0, trace=()):
        self.invariant = invariant
        self.detail = detail
        self.cycle = cycle
        self.trace = tuple(trace)
        message = f"[{invariant}] {detail} (cycle {cycle})"
        if self.trace:
            suffix = "\n  ".join(str(event) for event in self.trace[-12:])
            message = f"{message}\n  recent events:\n  {suffix}"
        super().__init__(message)


class CheckpointError(ReproError):
    """A simulation checkpoint could not be written, read, or applied —
    unsupported system state (e.g. an attached sanitizer), a format
    mismatch, or a corrupt/truncated checkpoint file."""


class JournalError(ReproError):
    """The job service's write-ahead journal is unusable: a corrupt
    record *before* the final line (a torn final line is expected after
    ``kill -9`` and is tolerated), a bad checksum, or an unreadable
    file.  Replay refuses to guess — better to fail loudly than resume
    from reordered or partially-applied state."""


class ServiceError(ReproError):
    """Base class of the job service's structured error taxonomy.

    Every error that crosses the HTTP boundary is one of these; the
    server serializes ``to_doc()`` as the response body and the client
    re-raises the matching subclass from the wire form, so both sides
    agree on the taxonomy (documented in ``docs/resilience.md``):

    =====================  ======  ========================================
    ``code``               status  meaning
    =====================  ======  ========================================
    ``invalid-request``      400   malformed job spec / unknown field value
    ``not-found``            404   no such job id
    ``queue-full``           429   admission queue at capacity; retry later
    ``quota-exceeded``       429   this tenant's fair-share quota is full
    ``rejecting``            503   service degraded to reject-only
    ``draining``             503   service is draining; submissions refused
    ``job-failed``           500   the simulation itself failed (see detail)
    ``internal``             500   unexpected server-side error
    =====================  ======  ========================================

    ``retry_after_s`` is the server's backpressure hint (also sent as a
    ``Retry-After`` header); ``None`` means retrying is pointless.
    """

    code = "internal"
    http_status = 500

    def __init__(self, message, retry_after_s=None):
        self.retry_after_s = retry_after_s
        super().__init__(message)

    def to_doc(self):
        doc = {"code": self.code, "message": str(self)}
        if self.retry_after_s is not None:
            doc["retry_after_s"] = round(float(self.retry_after_s), 3)
        return doc

    @staticmethod
    def from_doc(doc):
        """Rebuild the matching subclass from a wire-form error doc."""
        code = doc.get("code", "internal")
        cls = _SERVICE_ERRORS.get(code, ServiceError)
        return cls(doc.get("message", code),
                   retry_after_s=doc.get("retry_after_s"))


class BadRequestError(ServiceError, ValueError):
    """The job spec is malformed (unknown workload/scheme, bad types).

    Also a ``ValueError`` so pre-service call sites that validated cell
    names with ``except ValueError`` keep working unchanged."""

    code = "invalid-request"
    http_status = 400


class JobNotFoundError(ServiceError):
    """No job with the requested id has ever been submitted here."""

    code = "not-found"
    http_status = 404


class QueueFullError(ServiceError):
    """The bounded admission queue is at capacity (backpressure): the
    submission was refused, not queued.  ``retry_after_s`` estimates
    when a slot should open."""

    code = "queue-full"
    http_status = 429


class QuotaExceededError(ServiceError):
    """This tenant's slice of the admission queue is full (per-tenant
    fair-share quota): the submission was refused even though the queue
    as a whole may have room, so one tenant's burst cannot crowd out
    everyone else.  ``retry_after_s`` estimates when the tenant's own
    backlog should drain a slot."""

    code = "quota-exceeded"
    http_status = 429


class RejectingError(ServiceError):
    """The service degraded to reject-only (the bottom rung of the
    degradation ladder) and is probing for recovery."""

    code = "rejecting"
    http_status = 503


class DrainingError(ServiceError):
    """The service is draining (SIGTERM/SIGINT): in-flight jobs are
    checkpointing and re-entering the queue; new work is refused."""

    code = "draining"
    http_status = 503


class JobFailedError(ServiceError):
    """The job ran and failed (simulation error, timeout after all
    retries, invariant violation).  Carries the failure kind/message."""

    code = "job-failed"
    http_status = 500


_SERVICE_ERRORS = {cls.code: cls for cls in (
    BadRequestError, JobNotFoundError, QueueFullError,
    QuotaExceededError, RejectingError, DrainingError,
    JobFailedError, ServiceError)}


class DeadlockError(SimulationError):
    """Forward progress stopped: no core retired an instruction for too long.

    ``dump`` optionally carries the structured diagnostic state of the
    stuck system (``System.diagnostic_dump``): per-core ROB head, oldest
    load, pending events, and pin/CPT occupancy.
    """

    def __init__(self, cycle, detail="", dump=None):
        self.cycle = cycle
        self.detail = detail
        self.dump = dump
        message = f"no forward progress by cycle {cycle}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
