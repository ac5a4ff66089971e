#!/usr/bin/env python3
"""Model-predictive flow planning on the reduced-order transient tier.

The runtime policies in ``examples/transient_policies.py`` are reactive:
they look at the current peak temperature and adjust the pump after the
fact.  The MPC policy instead rolls the Krylov reduced-order model
forward over a short horizon at every control interval and picks the
*cheapest* flow scale whose predicted peak stays under the threshold —
milliseconds of planning instead of a full transient solve per
candidate.

This example runs one campaign over four policies (constant, bang-bang,
proportional, MPC) on the trace-driven ``test-a-burst`` scenario with the
reduced-order tier enabled, then compares the pumping energy each policy
spent against the time it left the die above threshold.

Run it with ``python examples/transient_mpc.py`` (or the ROM scenario
alone with ``repro run test-a-burst-rom --json``).
"""

from __future__ import annotations

from dataclasses import replace

from repro import Session, get_scenario, run_many
from repro.analysis import format_table
from repro.sweeps import SweepSpec
from repro.transient import PolicySpec, RomSpec


def main() -> None:
    # One shared policy spec: each kind reads the fields it needs.  The
    # MPC planner previews a 0.1 s horizon over 4 flow candidates at
    # every 0.1 s control interval; rom.mode="rom" gives it (and every
    # other policy in the sweep) the order-48 reduced model.
    base = get_scenario("test-a-burst")
    controlled = base.with_overrides(
        name="burst-mpc",
        transient=replace(
            base.transient,
            rom=RomSpec(mode="rom", order=48),
            threshold_K=343.15,       # report time above 70 C
            policy=PolicySpec(
                kind="constant",
                control_interval_s=0.1,
                threshold_K=343.15,   # plan/trigger threshold: 70 C
                high_scale=2.0,
                setpoint_K=313.15,    # proportional setpoint: 40 C
                gain_per_K=0.05,
                min_scale=0.5,
                max_scale=2.0,
                horizon_s=0.1,        # MPC lookahead per control step
                n_candidates=4,
            ),
        ),
    )
    sweep = SweepSpec(
        name="mpc-vs-reactive",
        base=controlled,
        axes=(
            {
                "field": "transient.policy.kind",
                "values": ["constant", "bang-bang", "proportional", "mpc"],
            },
        ),
    )
    session = Session()
    campaign = run_many(sweep, session=session)

    rows = []
    for record in campaign.records:
        metrics = record["result"]["transient"]
        rows.append(
            {
                "policy": metrics["policy"],
                "peak [C]": round(
                    metrics["peak_transient_temperature_K"] - 273.15, 2
                ),
                "t>thr [s]": round(metrics["time_above_threshold_s"], 3),
                "pump [mJ]": round(metrics["pumping_energy_J"] * 1e3, 3),
                "flow changes": metrics["n_flow_changes"],
                "rom err [K]": (
                    f"{metrics['rom_peak_abs_err_K']:.1e}"
                    if "rom_peak_abs_err_K" in metrics
                    else "-"
                ),
            }
        )
    print(f"scenario {base.name} through the reduced-order tier:")
    print()
    print(format_table(rows))

    stats = session.stats()
    counters = {
        key: sum(engine.get(key, 0) for engine in stats.values())
        for key in ("n_rom_builds", "n_rom_steps")
    }
    print(
        f"\nROM work across the campaign: {counters['n_rom_builds']} model "
        f"build(s), {counters['n_rom_steps']} reduced steps (each run "
        "builds one basis and serves every flow scale it steps or plans at "
        "from it)."
    )
    # One basis per run, whatever the policy does to the flow: a run that
    # rebuilt its model per flow scale would show up here.
    assert counters["n_rom_builds"] == len(campaign.records), (
        f"{counters['n_rom_builds']} ROM builds for "
        f"{len(campaign.records)} runs; expected one per run"
    )
    print(
        "The planner spends pump energy only on the intervals where the "
        "preview says the burst would cross the threshold."
    )


if __name__ == "__main__":
    main()
