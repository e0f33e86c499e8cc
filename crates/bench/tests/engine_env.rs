//! Every paper binary resolves `ARK_BACKEND` and `ARK_LANES` before its
//! first output: a bad value fails the run with nothing on stdout, so a
//! script that pipes a binary's output never gets a banner- or
//! header-only file.

use std::process::Command;

/// Every `ark-bench` binary, with arguments that keep a run that wrongly
/// got past the check short.
const BINARIES: [(&str, &[&str]); 8] = [
    (env!("CARGO_BIN_EXE_fig2_validation"), &[]),
    (env!("CARGO_BIN_EXE_fig4_tline"), &["1"]),
    (env!("CARGO_BIN_EXE_fig11_cnn"), &["2"]),
    (env!("CARGO_BIN_EXE_fig11_yield"), &["1", "1"]),
    (env!("CARGO_BIN_EXE_fig_intercon_cost"), &[]),
    (env!("CARGO_BIN_EXE_fig_stiff"), &["1"]),
    (env!("CARGO_BIN_EXE_spice_validation"), &["1", "1"]),
    (env!("CARGO_BIN_EXE_table1_maxcut"), &["1"]),
];

#[test]
fn bad_engine_settings_fail_before_any_output() {
    for (var, value) in [("ARK_BACKEND", "nativ"), ("ARK_LANES", "3")] {
        for (bin, args) in BINARIES {
            let out = Command::new(bin)
                .args(args)
                .env_remove("ARK_BACKEND")
                .env_remove("ARK_LANES")
                .env(var, value)
                .output()
                .expect("binary starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{bin} with {var}={value} succeeded");
            assert!(
                out.stdout.is_empty(),
                "{bin} with {var}={value} printed:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
            assert!(stderr.contains(var), "{bin} with {var}={value}: {stderr}");
        }
    }
}
