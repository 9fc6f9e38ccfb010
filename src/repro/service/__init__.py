"""Solver service: crossbar fleet pool, programming cache, job queue.

The serving layer on top of the one-shot solvers (ROADMAP: production
serving).  See :mod:`repro.service.service` for the scheduler,
:mod:`repro.service.pool` for the fleet lifecycle,
:mod:`repro.service.fingerprint` for the cache contract,
:mod:`repro.service.jobs` for the deterministic job derivation, and
:mod:`repro.service.resilience` for deadlines, retry backoff, circuit
breakers, brownout degradation, and chaos campaigns,
:mod:`repro.service.telemetry` for the live metrics / SLO / flight-
recorder surface behind ``--stats-every``,
:mod:`repro.service.dispatch` for the concurrent worker-thread /
worker-process dispatcher behind ``--workers``, and
:mod:`repro.service.frontdoor` for the JSONL-over-HTTP network front
door behind ``--listen``.
"""

from repro.service.dispatch import ConcurrentDispatcher
from repro.service.fingerprint import structural_fingerprint
from repro.service.frontdoor import FrontDoor
from repro.service.jobs import (
    DEFAULT_TENANT,
    JobSpec,
    ResolveSpec,
    attempt_seed,
    build_problem,
    build_resolve_problem,
    job_seed,
    read_jobs_jsonl,
    structure_seed,
    synthesize_jobs,
    write_jobs_jsonl,
)
from repro.service.pool import CrossbarPool, MemberState, PoolMember
from repro.service.queue import JobQueue, PendingJob, TenantPolicy
from repro.service.resilience import (
    FAULT_KINDS,
    BackoffPolicy,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    Deadline,
    DegradationController,
    DegradationPolicy,
    DegradationTier,
    FaultCampaign,
    FaultEvent,
)
from repro.service.service import (
    SERVING_SCALE_HEADROOM,
    JobAttempt,
    JobRecord,
    ServiceConfig,
    ServiceSummary,
    SolverService,
    default_serving_settings,
    summarize,
)
from repro.service.telemetry import ServiceTelemetry

__all__ = [
    "DEFAULT_TENANT",
    "FAULT_KINDS",
    "SERVING_SCALE_HEADROOM",
    "BackoffPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ConcurrentDispatcher",
    "CrossbarPool",
    "Deadline",
    "DegradationController",
    "DegradationPolicy",
    "DegradationTier",
    "FaultCampaign",
    "FaultEvent",
    "FrontDoor",
    "JobAttempt",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "MemberState",
    "PendingJob",
    "PoolMember",
    "ResolveSpec",
    "ServiceConfig",
    "ServiceSummary",
    "ServiceTelemetry",
    "SolverService",
    "TenantPolicy",
    "attempt_seed",
    "build_problem",
    "build_resolve_problem",
    "default_serving_settings",
    "job_seed",
    "read_jobs_jsonl",
    "structural_fingerprint",
    "structure_seed",
    "summarize",
    "synthesize_jobs",
    "write_jobs_jsonl",
]
