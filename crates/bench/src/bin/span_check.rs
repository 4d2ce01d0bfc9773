//! `span_check` — validate a Chrome trace-event JSON file
//! (`squashrun --spans` / `squashc --spans`) the way `trace_check` validates
//! JSONL traces.
//!
//! ```text
//! span_check <spans.json>
//! ```
//!
//! The document must be a JSON object whose `traceEvents` array holds only
//! well-formed events: `"X"` complete events with `name`/`cat`/`ts`/`dur`/
//! `pid`/`tid`, or `"i"` instants with `name`/`cat`/`ts`. `otherData.clock`
//! must name the time domain. Zero events is a failure — an empty span file
//! in the smoke job means the emitter silently stopped observing. This is
//! the CI gate for the span format (`DESIGN.md` §16).

use squash_obs::json::{self, Json};
use std::process::ExitCode;

/// Checks one trace event, returning its phase on success.
fn check_event(e: &Json) -> Result<&str, String> {
    for key in ["name", "cat"] {
        if e.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("missing or bad \"{key}\""));
        }
    }
    if e.get("ts").and_then(Json::as_u64).is_none() {
        return Err("missing or bad \"ts\"".to_string());
    }
    let ph = e
        .get("ph")
        .and_then(Json::as_str)
        .ok_or("missing or bad \"ph\"")?;
    match ph {
        "X" => {
            for key in ["dur", "pid", "tid"] {
                if e.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("complete event: missing or bad \"{key}\""));
                }
            }
        }
        "i" => {
            if e.get("s").and_then(Json::as_str).is_none() {
                return Err("instant event: missing or bad \"s\"".to_string());
            }
        }
        other => return Err(format!("unknown phase {other:?}")),
    }
    Ok(if ph == "X" { "complete" } else { "instant" })
}

/// Validates the whole document, returning `(complete, instant, clock)`.
fn check_document(text: &str) -> Result<(u64, u64, String), String> {
    let doc = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing or bad \"traceEvents\" array")?;
    let clock = doc
        .get("otherData")
        .and_then(|o| o.get("clock"))
        .and_then(Json::as_str)
        .ok_or("missing otherData.clock")?
        .to_string();
    let (mut complete, mut instant) = (0u64, 0u64);
    for (i, e) in events.iter().enumerate() {
        match check_event(e)? {
            "complete" => complete += 1,
            _ => instant += 1,
        }
        let _ = i;
    }
    if complete + instant == 0 {
        return Err("no events (emitter observed nothing)".to_string());
    }
    Ok((complete, instant, clock))
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: span_check <spans.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("span_check: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_document(&text) {
        Ok((complete, instant, clock)) => {
            println!("{path}: {complete} spans + {instant} instants ok, clock {clock}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("span_check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_document_passes() {
        let text = r#"{"traceEvents":[
            {"name":"service/entry","cat":"service","ph":"X","ts":10,"dur":5,"pid":1,"tid":1},
            {"name":"icache_flush","cat":"runtime","ph":"i","ts":12,"s":"t","pid":1,"tid":1}
        ],"displayTimeUnit":"ms","otherData":{"clock":"cycles"}}"#;
        assert_eq!(check_document(text).unwrap(), (1, 1, "cycles".to_string()));
    }

    #[test]
    fn obs_spanlog_output_passes() {
        let mut log = squash_obs::SpanLog::new("ns");
        let id = log.begin("stage/plan", "stage", 0);
        log.end(id, 100);
        assert_eq!(check_document(&log.to_chrome_json()).unwrap().2, "ns");
    }

    #[test]
    fn violations_are_rejected() {
        for (text, why) in [
            ("not json", "bad JSON"),
            (r#"{"otherData":{"clock":"ns"}}"#, "no traceEvents"),
            (r#"{"traceEvents":[],"otherData":{"clock":"ns"}}"#, "zero events"),
            (
                r#"{"traceEvents":[{"cat":"c","ph":"X","ts":1,"dur":1,"pid":1,"tid":1}],
                    "otherData":{"clock":"ns"}}"#,
                "no name",
            ),
            (
                r#"{"traceEvents":[{"name":"n","cat":"c","ph":"X","ts":1,"pid":1,"tid":1}],
                    "otherData":{"clock":"ns"}}"#,
                "complete without dur",
            ),
            (
                r#"{"traceEvents":[{"name":"n","cat":"c","ph":"B","ts":1}],
                    "otherData":{"clock":"ns"}}"#,
                "unknown phase",
            ),
            (
                r#"{"traceEvents":[{"name":"n","cat":"c","ph":"i","ts":1,"s":"t"}]}"#,
                "no clock",
            ),
        ] {
            assert!(check_document(text).is_err(), "{why}: should fail");
        }
    }
}
