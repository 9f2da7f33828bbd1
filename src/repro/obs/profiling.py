"""Opt-in wall-clock profiling for the *harness* — the sole RL002 exemption.

Everything else in ``src/repro/`` measures time in simulated units; lint
rule RL002 enforces that.  This module is the one clearly-marked place
allowed to read the host clock, and it exists exclusively so the
experiment harness can answer questions about *itself* — "how long does
``repro experiment all`` spend per experiment?", "what is the overhead of
enabled metrics?" — which are questions about the Python process, not the
simulated POWER7+ server.

Rules of use (also documented in OBSERVABILITY.md):

* no module under ``src/repro/`` may read the host clock except through
  this module;
* nothing returned from here may flow into simulation state, event
  payloads destined for deterministic JSONL streams, or run manifests —
  wall-clock readings are for operator-facing summaries only.

The inline ``repro-lint: disable=RL002`` suppressions below are the
exemption; ``repro lint`` keeps flagging host-clock reads anywhere else.
"""

from __future__ import annotations

import time


def wall_clock_s() -> float:
    """Monotonic wall-clock seconds (harness profiling only)."""
    return time.perf_counter()  # repro-lint: disable=RL002


def wall_clock_tick_source() -> float:
    """Tick source for :class:`repro.obs.trace.Tracer` profiling mode.

    Alias of :func:`wall_clock_s` under the name the tracer documents, so
    call sites read ``Tracer(wall_source=wall_clock_tick_source)``.
    """
    return wall_clock_s()
