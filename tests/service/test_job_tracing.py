"""Per-attempt tracing pays only for what the service tracer reads.

An attempt records its full span/event stream only when the service
tracer records; otherwise it keeps counters only.  Neither choice may
change what is served: the same batch — one warm re-solve and a
fault-injected member included — must give byte-identical records
under a no-op and a recording service tracer, and the recorded run
must still reconcile exactly against its records.
"""

import json

import numpy as np

from repro.analysis.spans import replay_counters
from repro.obs import NOOP, CountingTracer, RecordingTracer
from repro.service import (
    FaultCampaign,
    FaultEvent,
    ResolveSpec,
    ServiceConfig,
    ServiceTelemetry,
    SolverService,
    synthesize_jobs,
)
from repro.service.dispatch import _remote_attempt
from repro.service.jobs import build_problem
from repro.service.service import attempt_events, attempt_tracer


def run_batch(tracer, **overrides):
    campaign = FaultCampaign(
        [
            FaultEvent(at_job=4, kind="stuck_cells", member=0,
                       row_fraction=0.5),
        ],
        name="tracing",
        seed=3,
    )
    settings = {"pool_size": 2, **overrides}
    config = ServiceConfig(
        base_seed=11,
        digital_fallback="reference",
        campaign=campaign,
        **settings,
    )
    telemetry = ServiceTelemetry()
    service = SolverService(config, tracer=tracer, telemetry=telemetry)
    specs = synthesize_jobs(19, groups=3, constraints=8)
    specs.append(
        ResolveSpec(
            job_id="resolve-00", base_job_id=specs[0].job_id, perturb=0.02
        )
    )
    records, _ = service.batch(specs)
    return records, telemetry


def attempt_fields(records):
    return [
        (attempt.energy_j, attempt.cells_written, attempt.program_cells)
        for record in records
        for attempt in record.attempts
    ]


def serialized(records):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in records]


class TestAttemptTracer:
    def test_recording_only_when_asked(self):
        counting = attempt_tracer(False)
        assert isinstance(counting, CountingTracer)
        assert not isinstance(counting, RecordingTracer)
        assert attempt_events(counting) is None
        recording = attempt_tracer(True)
        assert isinstance(recording, RecordingTracer)
        recording.count("crossbar.writes")
        assert attempt_events(recording) == recording.event_dicts()


def assert_reconciles(tracer, records):
    """Records == live counters == trace replay, exactly."""
    record_energy = sum(record.energy_j for record in records)
    assert tracer.counters["service.energy_j"] == record_energy
    assert replay_counters(tracer.events)["service.energy_j"] == record_energy
    job_spans = [
        event for event in tracer.events
        if getattr(event, "name", None) == "service.job"
    ]
    analog_attempts = [
        attempt
        for record in records
        for attempt in record.attempts
        if attempt.member is not None
    ]
    assert len(job_spans) == len(analog_attempts)
    assert [span.attrs["member"] for span in job_spans].count(None) == 0


class TestTracingNeverChangesRecords:
    def test_noop_and_recording_services_agree(self):
        plain, plain_telemetry = run_batch(NOOP)
        tracer = RecordingTracer()
        traced, traced_telemetry = run_batch(tracer)

        assert len(plain) == 20
        assert serialized(plain) == serialized(traced)
        assert attempt_fields(plain) == attempt_fields(traced)
        assert [r.energy_j for r in plain] == [r.energy_j for r in traced]
        assert (
            plain_telemetry.energy_j_total == traced_telemetry.energy_j_total
        )
        # The batch exercised the paths it claims to: a warm re-solve
        # and an attempt the faulted member failed, then a requeue.
        resolve = [r for r in plain if r.spec.job_id == "resolve-00"]
        assert resolve and resolve[0].success
        assert any(
            attempt.failure_reason == "probe_unhealthy"
            for record in plain
            for attempt in record.attempts
        )
        assert any(record.requeues for record in plain)

        assert_reconciles(tracer, traced)


class TestProcessExecutor:
    """The worker-process attempt chooses its tracer the same way.

    A concurrent run's placement is timing-dependent, so two batches
    are not comparable record by record; the attempt itself is.
    """

    def attempt(self, record_events, blob=None):
        config = ServiceConfig()
        spec = synthesize_jobs(1, constraints=8)[0]
        return _remote_attempt(
            build_problem(spec, 11),
            config.settings,
            config.probe,
            1234,
            spec.job_id,
            spec.group,
            spec.kind,
            0,
            "fingerprint",
            0,
            blob,
            False,
            None,
            record_events,
        )

    def test_attempt_outcome_is_tracer_independent(self):
        cold_plain = self.attempt(False)
        cold_traced = self.attempt(True)
        blob = cold_plain[2]
        warm_plain = self.attempt(False, blob)
        warm_traced = self.attempt(True, blob)
        for plain, traced in ((cold_plain, cold_traced),
                              (warm_plain, warm_traced)):
            result, events, operator_blob, cells, program, energy = plain
            assert events is None
            assert traced[1] and traced[1][-1]["name"] == "service.job"
            assert result.status == traced[0].status
            assert result.iterations == traced[0].iterations
            assert np.array_equal(result.x, traced[0].x)
            assert operator_blob == traced[2]
            assert (cells, program, energy) == traced[3:]
        assert cold_plain[4] > 0 and warm_plain[4] == 0

    def test_process_batch_reconciles(self):
        overrides = {"workers": 2, "executor": "process"}
        plain, _ = run_batch(NOOP, **overrides)
        tracer = RecordingTracer()
        traced, _ = run_batch(tracer, **overrides)
        ids = sorted(record.spec.job_id for record in plain)
        assert ids == sorted(record.spec.job_id for record in traced)
        assert len(ids) == 20
        assert all(record.success for record in plain + traced)
        assert_reconciles(tracer, traced)
