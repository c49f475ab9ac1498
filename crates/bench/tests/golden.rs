//! Golden pins for the experiment binaries.
//!
//! Every experiment bin runs at `--scale tiny --seed 1`. Its stdout must
//! equal `golden/<bin>.stdout` byte for byte, and its exit code (plus, for
//! the bins that write `--metrics-out`, a 64-bit FNV-1a of the snapshot)
//! must equal its line in `golden/pins.txt`. A change that must not move
//! any simulated output leaves every pin as it is; one that moves an
//! output on purpose regenerates the pin with the command a mismatch
//! prints, and says why in its description.

use std::path::{Path, PathBuf};
use std::process::Command;

const ARGS: [&str; 4] = ["--scale", "tiny", "--seed", "1"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bin's line in `pins.txt`, if any.
fn pinned_line(bin: &str) -> Option<String> {
    let pins =
        std::fs::read_to_string(golden_dir().join("pins.txt")).expect("read golden/pins.txt");
    pins.lines()
        .find(|l| l.split_whitespace().next() == Some(bin))
        .map(str::to_owned)
}

/// Runs `bin` (at `exe`) and checks it against its pins; `metrics` says
/// whether the bin writes `--metrics-out`.
fn check(bin: &str, exe: &str, metrics: bool) {
    let metrics_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden_{bin}.json"));
    let mut cmd = Command::new(exe);
    cmd.args(ARGS);
    if metrics {
        // A snapshot left by an earlier run must not stand in for this one.
        let _ = std::fs::remove_file(&metrics_path);
        cmd.arg("--metrics-out").arg(&metrics_path);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let args = ARGS.join(" ");

    let stdout_path = golden_dir().join(format!("{bin}.stdout"));
    let expected = std::fs::read(&stdout_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", stdout_path.display()));
    assert!(
        out.stdout == expected,
        "{bin} stdout differs from its pin; if the change means to move it, regenerate with\n  \
         cargo run -q -p asap-bench --bin {bin} -- {args} > crates/bench/tests/golden/{bin}.stdout\n\
         --- got ---\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let code = out
        .status
        .code()
        .map_or_else(|| "signal".to_owned(), |c| c.to_string());
    let digest = if metrics {
        let json = std::fs::read(&metrics_path)
            .unwrap_or_else(|e| panic!("{bin} wrote no --metrics-out: {e}"));
        format!("{:#018x}", fnv1a(&json))
    } else {
        "-".to_owned()
    };
    let actual = format!("{bin} exit={code} metrics={digest}");
    assert!(
        pinned_line(bin).as_deref() == Some(actual.as_str()),
        "{bin}'s exit code or metrics digest differs from its pin {:?}; if the change means \
         to move it, regenerate the pin with\n  \
         sed -i 's/^{bin} .*/{actual}/' crates/bench/tests/golden/pins.txt",
        pinned_line(bin)
    );
}

macro_rules! golden {
    ($($bin:ident: $metrics:expr,)*) => {$(
        #[test]
        fn $bin() {
            check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), $metrics);
        }
    )*};
}

golden! {
    ablation_asap: false,
    chaos_soak: true,
    fault_recovery: true,
    fig11_18_compare: true,
    fig17_scalability: true,
    fig1_measurement: false,
    fig2_rtt_distribution: false,
    fig3_reduction: false,
    fig6_7_skype: false,
    fig_ashops_rtt: false,
    overload_soak: true,
    table_load_analysis: false,
}

#[test]
fn fnv1a_matches_its_published_test_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
