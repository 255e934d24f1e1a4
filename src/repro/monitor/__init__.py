"""Performance-monitoring substrate.

This package stands in for the measurement stack used in the paper:

* :mod:`repro.monitor.timers` -- :func:`perf_stat`, the one wall+CPU
  stopwatch (``duration_time`` / ``cpu-cycles`` events via software
  clocks).
* :mod:`repro.monitor.counters` -- PAPI-style hardware event counters,
  implemented as software counters incremented by the instrumented
  kernels and communicator.
* :mod:`repro.monitor.profiler` -- ``Profiler.region()``, the one
  span source of the run path; its TAU-style tree renders ParaProf-like
  flat and tree profiles, and it forwards each region to the tracer it
  carries.
* :mod:`repro.monitor.sampler` -- Arm-MAP-style statistical sampler
  over the profiler's active-region stacks.
* :mod:`repro.monitor.trace` -- the timeline view of those regions
  (Chrome trace-event JSON, ``Tracer.summary()``) plus timeline-only
  instants, counter tracks and async windows, and a process-wide
  metrics registry.

The paper measured V2D with ``perf stat -e duration_time -e
cpu-cycles``, PAPI timers inside the linear-algebra routines, TAU's
ParaProf to attribute time to routines, and Arm MAP.  None of those can
observe a pure-Python reproduction, so the substitution is software
instrumentation that exposes the *same quantities*: wall/CPU seconds per
region, event counts per routine, and percent-of-total attributions.
"""

from repro.monitor.counters import Counters, EventSet, PAPI_EVENTS
from repro.monitor.flight import FlightRecorder, dump_bundle, read_bundle
from repro.monitor.log import bind_context, configure_logging, get_logger
from repro.monitor.profiler import Profiler, ProfileNode
from repro.monitor.sampler import SampleReport, SamplingProfiler
from repro.monitor.timers import PerfStatResult, perf_stat
from repro.monitor.telemetry import (
    Histogram,
    Telemetry,
    parse_openmetrics,
    render_openmetrics,
)
from repro.monitor.trace import (
    MetricsRegistry,
    TRACE_SCHEMA,
    Tracer,
    get_metrics,
    merge_summaries,
    merged_payload,
    validate_trace,
    write_trace,
)

__all__ = [
    "FlightRecorder",
    "dump_bundle",
    "read_bundle",
    "bind_context",
    "configure_logging",
    "get_logger",
    "Histogram",
    "Telemetry",
    "parse_openmetrics",
    "render_openmetrics",
    "Counters",
    "EventSet",
    "PAPI_EVENTS",
    "Profiler",
    "ProfileNode",
    "PerfStatResult",
    "perf_stat",
    "SamplingProfiler",
    "SampleReport",
    "Tracer",
    "MetricsRegistry",
    "TRACE_SCHEMA",
    "get_metrics",
    "merge_summaries",
    "merged_payload",
    "validate_trace",
    "write_trace",
]
