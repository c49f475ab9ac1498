//! Fault-recovery experiment — robustness beyond the paper.
//!
//! The paper evaluates ASAP on a cooperative network; this experiment
//! measures how the protocol machine holds up when it isn't. It sweeps
//! the per-tick surrogate/host crash rate (with a light sprinkling of
//! message-drop windows, congestion bursts, and forced-stale epochs at
//! every point) through the event-driven simulation and reports, per
//! rate:
//!
//! * how many calls completed, were dropped mid-call, or failed over;
//! * the survival ratio: completed calls not dropped mid-call, over all
//!   completed calls, direct ones included (the headline robustness
//!   number: at 1%/tick crash rate it must stay ≥ 99%);
//! * what recovery cost: warm handoffs vs cold re-elections, retries,
//!   cache invalidations, recovery messages, and backoff wait
//!   (stabilization) time.
//!
//! One JSON line per sweep point goes to stdout after the human table,
//! so runs can be diffed; the whole run is deterministic in `--seed`
//! (see `tests/determinism.rs`, which pins that down).

use asap_bench::experiments::{fault_recovery_sweep_with, json_lines};
use asap_bench::{row, section, Args, Scale};
use asap_telemetry::Telemetry;

fn main() {
    let args = Args::parse(Scale::Tiny);
    let scenario = args.scenario();
    // Bound the call count: each call can be failed over many times under
    // heavy churn, and 5 sweep points share one process.
    let calls = args.sessions.min(1_000);

    let telemetry = Telemetry::new();
    let rows = fault_recovery_sweep_with(&scenario, args.seed, calls, &telemetry);

    section("fault recovery: crash-rate sweep");
    row(&[
        &"crash/tick",
        &"completed",
        &"dropped",
        &"failovers",
        &"survival",
        &"warm",
        &"re-elect",
        &"retries",
        &"rec-msgs",
    ]);
    for r in &rows {
        row(&[
            &format!("{:.3}", r.crash_rate_per_tick),
            &r.calls_completed,
            &r.calls_dropped,
            &r.midcall_failovers,
            &format!("{:.4}", r.survival),
            &r.warm_handoffs,
            &r.re_elections,
            &r.retries,
            &r.recovery_messages,
        ]);
    }

    section("json");
    print!("{}", json_lines(&rows));

    args.write_metrics(&telemetry);
}
