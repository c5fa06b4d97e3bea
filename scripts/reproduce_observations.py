#!/usr/bin/env python3
"""Walk through the headline numbers of the bundled scenarios.

Prints the loss budgets, the squeezing level at a few marker frequencies of
the table-top spectrum, and the observed-vs-efficiency curve at the
efficiencies the budgets produce.  Everything here goes through the public
API, so this doubles as a usage example.
"""

import pathlib

import numpy as np

from sqzbudget import (
    Scenario,
    SourceParams,
    apply_loss,
    build_budget,
    db_to_variance,
    efficiency_sweep,
    homodyne_readout,
    load_scenario,
    propagate,
    snr_spectrum,
    variance_to_db,
)
from sqzbudget.cli import format_budget

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "src" / "sqzbudget" / "scenarios"


def main():
    tabletop = load_scenario(SCENARIOS / "tabletop.scn")
    geo = load_scenario(SCENARIOS / "geo600.scn")

    for sc in (tabletop, geo):
        print(format_budget(build_budget(sc)))

    print("table-top noise spectrum (amplitude quadrature, dB below shot):")
    markers_mhz = np.array([5.0, 10.0, 14.0, 15.0])
    v = homodyne_readout(propagate(tabletop, markers_mhz * 1e6), tabletop.homodyne_angle)
    for f_mhz, v_f in zip(markers_mhz.tolist(), v.tolist()):
        print(f"  {f_mhz:5.1f} MHz  {variance_to_db(v_f):5.2f} dB")
    print()

    ns = snr_spectrum(tabletop, tabletop.grid.frequencies())
    peak = int(np.argmax(ns.signal_db))
    print(f"signal peak at {ns.frequency_hz[peak] / 1e6:.2f} MHz (recycling-cavity detuning)")

    # the reflection alone, without the OPA roll-off masking it, shows the
    # intra-cavity loss biting hardest on resonance: a lossless 10 dB source
    # whose bandwidth is so wide that its squeezing is flat across the band
    flat = SourceParams(mode="direct", gen_db_at_dc=10.0, bandwidth_hz=1e15, escape_eta=1.0)
    src_only = Scenario("src only", flat, (tabletop.cavity_stage("src"),))
    out = propagate(src_only, ns.frequency_hz)
    # the smaller eigenvalue of the covariance is its squeezed variance
    squeezed = 0.5 * (out.s11 + out.s22) - np.hypot(0.5 * (out.s11 - out.s22), abs(out.s12))
    depth = -10.0 * np.log10(squeezed)  # variance_to_db takes one variance at a time
    dip = int(np.argmin(depth))
    print(f"reflection off the lossy recycling cavity degrades a 10 dB input most "
          f"at {ns.frequency_hz[dip] / 1e6:.2f} MHz ({depth[dip]:.2f} dB left)")
    print()

    print("observed squeezing versus detection efficiency:")
    for input_db in (5.7, 10.0, 13.0):
        points = efficiency_sweep(input_db, 0.5, 1.0, 51)
        marks = ", ".join(
            f"eta={eta:.2f}: {db:.2f} dB"
            for eta, db in points if any(abs(eta - m) < 1e-9 for m in (0.65, 0.83, 1.0))
        )
        print(f"  input {input_db:4.1f} dB  ->  {marks}")
    print()

    total = build_budget(tabletop).total
    observed = variance_to_db(apply_loss(db_to_variance(5.7), total))
    print(f"table-top chain efficiency {total:.4f} turns 5.7 dB into {observed:.2f} dB at DC")


if __name__ == "__main__":
    main()
