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
