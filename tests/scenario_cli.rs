//! `lass-sim` rejects scenario keys it does not know: a misplaced or
//! misspelled key is a clean `error:` line and exit status 1, never a
//! silently ignored option (which would, say, run a topology meant to be
//! parallel sequentially) and never a panic.

use std::process::Command;

/// The hedge-tail scenario with `edit` applied to its JSON object.
fn scenario_with(name: &str, edit: impl FnOnce(&mut serde_json::Map)) -> std::path::PathBuf {
    let text = std::fs::read_to_string("scenarios/hedge-tail.json").expect("read scenario");
    let mut v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let serde_json::Value::Object(m) = &mut v else {
        panic!("scenario is an object");
    };
    edit(m);
    let path = std::env::temp_dir().join(format!("lass-unknown-key-{name}.json"));
    std::fs::write(&path, serde_json::to_string(&v).expect("serialize")).expect("write scenario");
    path
}

/// Run `lass-sim` on `path`; returns (exit code, stderr).
fn run(path: &std::path::Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lass-sim"))
        .arg(path)
        .output()
        .expect("lass-sim runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn two() -> serde_json::Value {
    serde_json::from_str("2").expect("number")
}

fn assert_rejected(path: &std::path::Path, key: &str) {
    let (code, stderr) = run(path);
    assert_eq!(code, Some(1), "expected exit 1, stderr: {stderr}");
    assert!(stderr.starts_with("error:"), "no error line: {stderr}");
    assert!(
        stderr.contains(&format!("unknown field `{key}`")),
        "error does not name the key: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
}

#[test]
fn misplaced_top_level_key_is_an_error() {
    let path = scenario_with("top", |m| {
        m.insert("parallel_sites".into(), two());
    });
    assert_rejected(&path, "parallel_sites");
}

#[test]
fn unknown_topology_key_is_an_error() {
    let path = scenario_with("topology", |m| {
        let Some(serde_json::Value::Object(t)) = m.get_mut("topology") else {
            panic!("hedge-tail has a topology");
        };
        t.insert("paralel_sites".into(), two());
    });
    assert_rejected(&path, "paralel_sites");
    // So is an unknown `router_config` knob.
    let path = block_with("router-config-key", "topology", |t| {
        t.insert("router_config".into(), json(r#"{ "hysteresis_ms": 2 }"#));
    });
    assert_rejected(&path, "hysteresis_ms");
}

/// The demo scenario with `edit` applied to its first function entry.
fn function_with(name: &str, edit: impl FnOnce(&mut serde_json::Map)) -> std::path::PathBuf {
    let text = std::fs::read_to_string("scenarios/demo.json").expect("read scenario");
    let mut v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let serde_json::Value::Object(m) = &mut v else {
        panic!("scenario is an object");
    };
    let Some(serde_json::Value::Array(fns)) = m.get_mut("functions") else {
        panic!("demo has functions");
    };
    let Some(serde_json::Value::Object(f)) = fns.first_mut() else {
        panic!("demo's first function is an object");
    };
    edit(f);
    let path = std::env::temp_dir().join(format!("lass-bad-function-{name}.json"));
    std::fs::write(&path, serde_json::to_string(&v).expect("serialize")).expect("write scenario");
    path
}

fn number(text: &str) -> serde_json::Value {
    serde_json::from_str(text).expect("number")
}

/// A malformed function entry is an `error: function "…": …` line and
/// exit 1, not a panic deep in the registry or the service model.
fn assert_bad_function(path: &std::path::Path, field: &str) {
    let (code, stderr) = run(path);
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert_eq!(code, Some(1), "expected exit 1, stderr: {stderr}");
    assert!(
        stderr.starts_with("error: function \""),
        "no function error line: {stderr}"
    );
    assert!(
        stderr.contains(field),
        "error does not name {field}: {stderr}"
    );
}

#[test]
fn zero_function_weight_is_an_error() {
    let path = function_with("weight", |f| {
        f.insert("weight".into(), number("0.0"));
    });
    assert_bad_function(&path, "weight");
}

#[test]
fn negative_user_weight_is_an_error() {
    let path = function_with("user-weight", |f| {
        f.insert("user_weight".into(), number("-1.0"));
    });
    assert_bad_function(&path, "user_weight");
}

#[test]
fn zero_slo_is_an_error() {
    let path = function_with("slo", |f| {
        f.insert("slo_ms".into(), number("0.0"));
    });
    assert_bad_function(&path, "slo_ms");
}

#[test]
fn zero_micro_benchmark_time_is_an_error() {
    let path = function_with("base-time", |f| {
        f.insert(
            "function".into(),
            serde_json::Value::String("micro_benchmark:0".into()),
        );
    });
    assert_bad_function(&path, "service time");
}

#[test]
fn custom_spec_with_zero_base_time_is_an_error() {
    let path = function_with("custom-base-time", |f| {
        let spec = r#"{ "name": "custom", "languages": "Python", "standard_cpu": 400,
            "standard_mem": 256, "cold_start": 400000000, "service": {
            "base_time": 0.0, "demand_fraction": 0.7, "distribution": "Exponential" } }"#;
        f.insert(
            "function".into(),
            serde_json::from_str(spec).expect("spec JSON"),
        );
    });
    assert_bad_function(&path, "base time");
}

/// The hedge-tail scenario with `edit` applied to the object at `key`
/// (`"topology"` or `"chaos"`).
fn block_with(
    name: &str,
    key: &str,
    edit: impl FnOnce(&mut serde_json::Map),
) -> std::path::PathBuf {
    scenario_with(name, |m| {
        let Some(serde_json::Value::Object(block)) = m.get_mut(key) else {
            panic!("hedge-tail has a {key} block");
        };
        edit(block);
    })
}

fn json(text: &str) -> serde_json::Value {
    serde_json::from_str(text).expect("JSON")
}

/// A malformed federation config is an `error:` line that names the
/// field and exit 1, never a panic inside the front end.
fn assert_bad_federation(path: &std::path::Path, field: &str) {
    let (code, stderr) = run(path);
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert_eq!(code, Some(1), "expected exit 1, stderr: {stderr}");
    assert!(stderr.starts_with("error:"), "no error line: {stderr}");
    assert!(
        stderr.contains(field),
        "error does not name {field}: {stderr}"
    );
}

#[test]
fn zero_hedge_clones_is_an_error() {
    let path = block_with("hedge-clones", "topology", |t| {
        t.insert(
            "hedge".into(),
            json(r#"{ "trigger": "immediate", "max_clones": 0 }"#),
        );
    });
    assert_bad_federation(&path, "max_clones");
}

#[test]
fn telemetry_jitter_beyond_the_interval_is_an_error() {
    let path = block_with("telemetry-jitter", "topology", |t| {
        t.insert(
            "telemetry".into(),
            json(r#"{ "report_interval_ms": 100, "jitter_ms": 200 }"#),
        );
    });
    assert_bad_federation(&path, "jitter");
}

#[test]
fn negative_migration_penalty_is_an_error() {
    let path = block_with("migration-penalty", "chaos", |c| {
        c.insert("migration_penalty_ms".into(), number("-1"));
    });
    assert_bad_federation(&path, "migration_penalty_ms");
}

#[test]
fn out_of_range_router_config_is_an_error() {
    let path = block_with("router-percentile", "topology", |t| {
        t.insert("router_config".into(), json(r#"{ "percentile": 1.5 }"#));
    });
    assert_bad_federation(&path, "percentile");
}

/// A router name that no longer exists is an error, not silently
/// mapped to another router.
#[test]
fn removed_router_is_an_error() {
    let path = block_with("router-removed", "topology", |t| {
        t.insert(
            "router".into(),
            serde_json::Value::String("slo-aware".into()),
        );
    });
    assert_bad_federation(&path, "unknown router \"slo-aware\"");
}

/// A zero-latency site leaves the windowed driver no lookahead: the run
/// falls back to the sequential driver and says so once.
#[test]
fn zero_latency_parallel_topology_warns_once() {
    let path = block_with("parallel-fallback", "topology", |t| {
        t.insert("parallel_sites".into(), number("4"));
        let Some(serde_json::Value::Array(sites)) = t.get_mut("sites") else {
            panic!("hedge-tail has sites");
        };
        let Some(serde_json::Value::Object(edge)) = sites.first_mut() else {
            panic!("hedge-tail's first site is an object");
        };
        edge.insert("latency_ms".into(), number("0"));
    });
    let (code, stderr) = run(&path);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let warnings = stderr.lines().filter(|l| l.starts_with("warning:")).count();
    assert_eq!(warnings, 1, "expected one warning line: {stderr}");
}
