//! `sqpeerd`'s host config, through the real binary: a millisecond
//! setting that µs cannot hold is refused by name, not wrapped into a
//! tiny value or panicked on.

use std::process::Command;

/// Runs `sqpeerd serve` on a config holding `line` alone; every case
/// below must fail at that line, before the host would bind anything.
fn serve_with(name: &str, line: &str) -> (Option<i32>, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, format!("{line}\n")).expect("write config");
    let out = Command::new(env!("CARGO_BIN_EXE_sqpeerd"))
        .arg("serve")
        .arg(&path)
        .output()
        .expect("run sqpeerd");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn millisecond_settings_that_overflow_are_refused_by_name() {
    let max = u64::MAX;
    for key in ["settle_ms", "telemetry_window_ms", "obs_slow_query_ms"] {
        let (code, stderr) = serve_with(&format!("{key}.conf"), &format!("{key} {max}"));
        assert_eq!(
            code,
            Some(1),
            "{key}: a clean failure, not a panic: {stderr}"
        );
        assert!(
            stderr.contains(&format!("bad {key} '{max}'")),
            "{key}: the error names the setting: {stderr}"
        );
    }
}
