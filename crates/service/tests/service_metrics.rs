//! The metrics surface after a scripted workload: `stats`, `health`,
//! `debug.dump` and the Prometheus exposition against checked-in
//! captures (`tests/golden/`), the exposition's grouping rule, and the
//! README metrics table.
//!
//! Before comparing, values that depend on wall-clock time are zeroed
//! (uptime, histogram sums/maxima/buckets, the `window` block, wait
//! totals, kernel CPU, watchdog scans and busy ages) and the temp data
//! dir becomes a placeholder. The JSON must then match byte for byte;
//! the exposition is compared per family (HELP, TYPE, sorted samples),
//! so only family order may differ.

use serde_json::Value;
use srank_service::{Engine, EngineConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// A persistent engine over a fresh temp dir, with a fixed pool width
/// and faults disarmed, so its output depends on neither host nor
/// environment. The dir is removed when the returned guard drops.
fn engine(tag: &str) -> (Engine, TempDir) {
    let dir = std::env::temp_dir().join(format!("srank-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let engine = Engine::new(EngineConfig {
        data_dir: Some(dir.clone()),
        pool_workers: 2,
        faults: Some(String::new()),
        ..EngineConfig::default()
    });
    (engine, TempDir(dir))
}

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sends one request and returns the whole response envelope.
fn send(engine: &Engine, request: &str) -> Value {
    engine.handle(&serde_json::from_str(request).expect("test request is valid JSON"))
}

/// Sends one request, asserting success, and returns the `result`.
fn call(engine: &Engine, request: &str) -> Value {
    let response = send(engine, request);
    match response.get("result") {
        Some(result) if response.get("ok").and_then(Value::as_bool) == Some(true) => result.clone(),
        _ => panic!("{request} -> {}", serde_json::to_string(&response).unwrap()),
    }
}

fn prometheus(engine: &Engine) -> String {
    let result = call(engine, r#"{"op": "stats", "format": "prometheus"}"#);
    result
        .get("text")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

/// Two loads, a cold and a cached Monte-Carlo verify, an md session with
/// two `get_next`, a snapshot, and one deadline expiry in the kernel.
fn run_workload(engine: &Engine) {
    for load in [
        r#"{"op": "registry.load", "dataset": "dot", "builtin": "dot", "n": 120, "d": 4, "seed": 9}"#,
        r#"{"op": "registry.load", "dataset": "bn", "builtin": "bluenile", "n": 120, "d": 5, "seed": 7}"#,
    ] {
        call(engine, load);
    }
    let verify = r#"{"op": "verify", "dataset": "bn", "weights": [1, 1, 1, 1, 1], "samples": 4000, "seed": 5}"#;
    for cached in [false, true] {
        let response = send(engine, verify);
        assert_eq!(
            response.get("cached").and_then(Value::as_bool),
            Some(cached)
        );
    }
    let open =
        r#"{"op": "session.open", "dataset": "dot", "kind": "md", "samples": 400, "seed": 6}"#;
    let id = call(engine, open)
        .get("session")
        .and_then(Value::as_u64)
        .unwrap();
    for _ in 0..2 {
        call(
            engine,
            &format!(r#"{{"op": "session.get_next", "session": {id}}}"#),
        );
    }
    call(engine, r#"{"op": "snapshot"}"#);
    let expired = send(
        engine,
        r#"{"op": "verify", "dataset": "bn", "weights": [1, 2, 1, 1, 1], "samples": 400000, "deadline_ms": 1}"#,
    );
    let code = expired.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(Value::as_str), Some("deadline_exceeded"));
}

/// Zeroes the wall-clock-dependent values of a JSON payload in place
/// (every number below a zeroed key).
fn normalize_json(v: &mut Value, zero: bool) {
    match v {
        Value::Number(n) if zero => *n = 0.0,
        Value::Array(items) => items.iter_mut().for_each(|v| normalize_json(v, zero)),
        Value::Object(fields) => {
            for (key, value) in fields.iter_mut() {
                match key.as_str() {
                    "buckets" => *value = Value::Array(Vec::new()),
                    "data_dir" => *value = Value::String("<data_dir>".into()),
                    "window" | "uptime_seconds" | "total_micros" | "max_micros" | "scans"
                    | "busy_ms" | "kernel_cpu_micros" => normalize_json(value, true),
                    k => normalize_json(value, zero || k.ends_with("wait_micros")),
                }
            }
        }
        _ => {}
    }
}

/// Every exposition line with the family it belongs to, in order. A
/// `_bucket`/`_sum`/`_count` series belongs to its base family when
/// that base was declared a histogram.
fn family_lines(text: &str) -> Vec<(String, &str)> {
    let mut histograms = BTreeSet::new();
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let rest = line
            .strip_prefix("# HELP ")
            .or(line.strip_prefix("# TYPE "));
        let name = rest
            .unwrap_or(line)
            .split(['{', ' '])
            .next()
            .unwrap_or(line);
        if line.starts_with("# TYPE ") && line.ends_with(" histogram") {
            histograms.insert(name.to_string());
        }
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| rest.is_none() && histograms.contains(*base));
        out.push((base.unwrap_or(name).to_string(), line));
    }
    out
}

/// Zeroes a wall-clock-dependent sample, or drops it: finite histogram
/// buckets appear only when non-empty, so their label set varies too.
fn normalize_sample(line: &str) -> Option<String> {
    let (head, _) = line.rsplit_once(' ')?;
    let series = head.split('{').next().unwrap_or(head);
    if series.ends_with("_bucket") && !head.contains("le=\"+Inf\"") {
        return None;
    }
    let zero = ["srank_uptime_seconds", "srank_watchdog_scans_total"].contains(&series)
        || series.starts_with("srank_window_")
        || series.ends_with("_sum")
        || series.contains("wait_micros");
    Some(if zero {
        format!("{head} 0")
    } else {
        line.to_string()
    })
}

/// The exposition grouped by family name, each family's HELP and TYPE
/// lines first and then its normalized samples, sorted.
fn canonical_exposition(text: &str) -> String {
    let mut families: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (family, line) in family_lines(text) {
        let line = if line.starts_with('#') {
            Some(line.to_string())
        } else {
            normalize_sample(line)
        };
        families.entry(family).or_default().extend(line);
    }
    let mut out = String::new();
    for (name, mut lines) in families {
        lines.sort();
        out.push_str(&format!("{name}\n  {}\n", lines.join("\n  ")));
    }
    out
}

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path).expect("read golden file");
    assert!(
        expected == actual,
        "{} differs; actual:\n{actual}",
        path.display()
    );
}

/// `stats`, `health` and `debug.dump` are byte-identical to the golden
/// captures after zeroing, and the exposition carries the same
/// families with the same HELP, TYPE and samples.
#[test]
fn metric_payloads_match_the_golden_captures() {
    let (engine, _dir) = engine("golden");
    run_workload(&engine);
    let exposition = prometheus(&engine);
    for (name, op) in [
        ("stats", "stats"),
        ("health", "health"),
        ("debug_dump", "debug.dump"),
    ] {
        let mut value = call(&engine, &format!(r#"{{"op": "{op}"}}"#));
        normalize_json(&mut value, false);
        let text = serde_json::to_string_pretty(&value).unwrap() + "\n";
        assert_golden(&format!("{name}.json"), &text);
    }
    assert_golden("prometheus.txt", &canonical_exposition(&exposition));
}

/// Every family in a live exposition is one group: it opens with its
/// only HELP line, then its only TYPE line, then its samples, and no
/// other family's line falls inside it.
#[test]
fn prometheus_families_are_contiguous() {
    let (engine, _dir) = engine("contiguous");
    run_workload(&engine);
    let text = prometheus(&engine);
    let lines = family_lines(&text);
    let mut opened = BTreeSet::new();
    let mut split = BTreeSet::new();
    for (i, (family, line)) in lines.iter().enumerate() {
        let continues = i > 0 && lines[i - 1].0 == *family;
        if !continues && !opened.insert(family) {
            split.insert(family);
            continue;
        }
        let expected = match continues {
            false => "# HELP ",
            true if lines[i - 1].1.starts_with("# HELP ") => "# TYPE ",
            true => "",
        };
        assert!(
            line.starts_with(expected) && (!expected.is_empty() || !line.starts_with('#')),
            "family {family}: expected {expected:?} at line {i}: {line}"
        );
    }
    assert!(
        split.is_empty(),
        "{} families are split: {split:?}\n{text}",
        split.len()
    );
}

/// The metrics table in `crates/service/README.md`, between the
/// `metrics-table` marker comments, is the describe walk's rendering
/// for a persistent engine. To refresh it, paste the block this test
/// prints between the markers.
#[test]
fn readme_metrics_table_is_the_describe_rendering() {
    let (engine, _dir) = engine("readme");
    let mut expected = String::from("| stats path | Prometheus series | kind |\n|---|---|---|\n");
    for row in engine.describe_metrics() {
        let kind = row.kind.label();
        expected.push_str(&format!("| `{}` | `{}` | {kind} |\n", row.path, row.series));
    }
    let readme = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(readme).expect("read the crate README");
    let (begin, end) = (
        "<!-- metrics-table:begin -->\n",
        "<!-- metrics-table:end -->",
    );
    let start = readme.find(begin).expect("README has the begin marker") + begin.len();
    let stop = readme[start..]
        .find(end)
        .expect("README has the end marker")
        + start;
    assert!(
        readme[start..stop] == expected,
        "the README metrics table is stale; put this between the markers:\n{expected}"
    );
}
