"""Watch the ATM control loop fight a di/dt droop, nanosecond by nanosecond.

Runs the transient simulator on one aggressively fine-tuned core under
x264's voltage-noise environment, then prints a time-domain strip chart of
supply voltage, DPLL frequency, CPM margin reading, and clock gating
around the first big droop event — the race the paper's Sec. II loop
design exists to win.

Run with::

    python examples/voltage_noise_transient.py
"""

from __future__ import annotations

import numpy as np

from repro import power7plus_testbed
from repro.atm.transient import TransientSimulator
from repro.dpll.control_loop import LoopConfig
from repro.power.didt import DidtEventGenerator
from repro.silicon.chipspec import TESTBED_UBENCH_LIMITS
from repro.workloads import X264


#: Integration step and loop evaluation interval: four steps per interval.
DT_NS = 0.25
INTERVAL_NS = 1.0


def main() -> None:
    server = power7plus_testbed()
    chip = server.chips[0]
    core = chip.cores[0]
    simulator = TransientSimulator(
        chip, core, LoopConfig(evaluation_interval_ns=INTERVAL_NS), dt_ns=DT_NS
    )
    result = simulator.run(
        X264,
        TESTBED_UBENCH_LIMITS[0],
        np.random.default_rng(3),
        duration_ns=4000.0,
        dc_chip_power_w=80.0,
        didt_generator=DidtEventGenerator(base_rate_per_us=1.5, mean_step_a=10.0),
    )

    print(f"Core {core.label} at its uBench-limit configuration under x264 noise")
    print(
        f"{len(result.events)} di/dt events in {result.duration_ns:.0f} ns; "
        f"min Vdd {result.min_voltage_v:.4f} V; "
        f"{result.gated_intervals} gated intervals; "
        f"{result.violations} timing violations"
    )
    if not result.events:
        print("(no events this seed — rerun with another seed)")
        return

    # Strip chart around the biggest event.
    biggest = max(result.events, key=lambda e: e.current_step_a)
    steps = np.arange(result.voltage_v.size)
    times = steps * DT_NS
    window = (times >= biggest.start_ns - 4.0) & (times <= biggest.start_ns + 28.0)
    # The loop holds its frequency, reading and gate for a whole interval.
    interval = steps[window] // round(INTERVAL_NS / DT_NS)
    vdd = result.voltage_v[window]
    freq = result.frequency_mhz[interval]
    margin = result.margin_units[interval]
    gated = result.gated[interval]
    ts = times[window]

    print()
    print(
        f"Biggest event: {biggest.current_step_a:.1f} A step at "
        f"{biggest.start_ns:.1f} ns"
    )
    print(f"{'t ns':>8} {'Vdd':>8} {'f MHz':>8} {'margin':>7} {'gated':>6}")
    for i in range(0, len(ts), 4):  # one row per ns
        flag = "GATE" if gated[i] else ""
        print(
            f"{ts[i]:>8.2f} {vdd[i]:>8.4f} {freq[i]:>8.0f} "
            f"{margin[i]:>7.0f} {flag:>6}"
        )

    print()
    print(
        "The CPM reading collapses as the droop develops; the loop gates the "
        "clock through the first swing (no data latched, no corruption) and "
        "slews frequency down until the supply recovers."
    )


if __name__ == "__main__":
    main()
