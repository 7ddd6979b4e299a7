//! Records how the benchmark binary is built, for the provenance line.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    let var = |k: &str| std::env::var(k).unwrap_or_default();
    let profile = format!(
        "{} (opt-level {}, debug-assertions {})",
        var("PROFILE"),
        var("OPT_LEVEL"),
        if var("CARGO_CFG_DEBUG_ASSERTIONS").is_empty() {
            "off"
        } else {
            "on"
        },
    );
    let rustflags = var("CARGO_ENCODED_RUSTFLAGS").replace('\u{1f}', " ");
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    println!("cargo:rustc-env=E2EBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=E2EBENCH_RUSTFLAGS={rustflags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
