//! Reproducing the four Skype limits of §5 with the AS-unaware prober,
//! then showing how ASAP avoids each one.
//!
//! ```sh
//! cargo run --release -p asap-core --example skype_limits
//! ```

use asap_baselines::skype::{simulate_call, SkypeConfig};
use asap_core::{AsapConfig, AsapSystem};
use asap_workload::sessions::Session;
use asap_workload::{Scenario, ScenarioConfig};

fn main() {
    let scenario = Scenario::build(ScenarioConfig::tiny(), 11);
    let hosts = scenario.population.hosts();
    let calls: Vec<Session> = (0..10)
        .map(|i| Session {
            caller: hosts[i * 13].id,
            callee: hosts[hosts.len() - 1 - i * 17].id,
        })
        .collect();

    println!("Skype-like AS-unaware prober over {} calls:\n", calls.len());
    let mut worst_stab = 0.0f64;
    let mut total_probed = 0usize;
    let mut total_same_as = 0usize;
    let mut suboptimal = 0usize;
    for (i, &session) in calls.iter().enumerate() {
        let r = simulate_call(&scenario, session, &SkypeConfig::default());
        let direct = scenario
            .host_rtt_ms(session.caller, session.callee)
            .unwrap_or(f64::NAN);
        println!(
            "call {:>2}: direct {direct:>6.0} ms, major {:>6.0} ms, stabilized after {:>5.1} s, \
             probed {:>2} relays ({} same-AS pairs)",
            i + 1,
            r.major_rtt_ms,
            r.stabilization_s,
            r.probed_total,
            r.same_as_pairs
        );
        worst_stab = worst_stab.max(r.stabilization_s);
        total_probed += r.probed_total;
        total_same_as += r.same_as_pairs;
        if r.major_rtt_ms > 350.0 {
            suboptimal += 1;
        }
    }

    println!("\nLimit 1 (suboptimal majors): {suboptimal} calls settled above 350 ms");
    println!("Limit 2 (same-AS probing):   {total_same_as} probed relay pairs shared an AS");
    println!("Limit 3 (slow stabilization): worst case {worst_stab:.1} s");
    println!("Limit 4 (probing overhead):  {total_probed} relays probed in total");

    // ASAP on the same calls: deterministic selection, AS-level dedup,
    // 2-message one-hop selection.
    println!("\nASAP on the same calls:");
    let system = AsapSystem::bootstrap(&scenario, AsapConfig::default());
    for (i, &session) in calls.iter().enumerate() {
        let out = system.call(session.caller, session.callee);
        match &out.chosen {
            Some(p) if p.relays.is_empty() => {
                println!(
                    "call {:>2}: direct path is fine ({:.0} ms), {} messages",
                    i + 1,
                    p.rtt_ms,
                    out.messages
                )
            }
            Some(p) => println!(
                "call {:>2}: relay {:?} at {:.0} ms, {} messages, no probing phase at all",
                i + 1,
                p.relays,
                p.rtt_ms,
                out.messages
            ),
            None => println!("call {:>2}: no quality relay exists", i + 1),
        }
    }
    println!(
        "\n(ASAP total session messages: {}; selection is immediate — zero stabilization time)",
        system.ledger_scope().total()
    );
}
