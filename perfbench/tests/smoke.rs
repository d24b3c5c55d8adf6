//! The benchmark's own test: every workload at toy size, in both modes,
//! must pass its output checks and emit every metric `BENCHMARK.json`
//! names, with its unit.

#[test]
fn every_workload_emits_every_metric() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .output()
        .expect("run perfbench --smoke");
    assert!(
        out.status.success(),
        "perfbench --smoke failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
