//! `trace_check` — validate a JSONL runtime trace (`squashrun --trace`)
//! against the stable event schema (`DESIGN.md` §12).
//!
//! ```text
//! trace_check <trace.jsonl>
//! ```
//!
//! Every line must parse as a JSON object with a non-decreasing `cycle`
//! stamp, a known `kind`, and that kind's required fields. The exit status
//! is nonzero on the first violation, which makes this the CI gate for the
//! trace format: any schema drift in the emitter fails the smoke job rather
//! than silently breaking downstream consumers.

use squash_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Per-kind required numeric fields (beyond `cycle` and `kind`).
fn required_fields(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "service_trap" => &["pc", "ra"],
        "decompress_start" => &["region"],
        "decompress_end" => &["region", "bits", "insts", "slot"],
        "cache_hit" => &["region", "slot"],
        "stub_create" | "stub_hit" | "stub_free" => &["site", "live"],
        "icache_flush" => &[],
        "verify_start" => &["region"],
        "verify_end" => &["region", "bytes"],
        _ => return None,
    })
}

fn check_line(line: &str, last_cycle: &mut u64) -> Result<String, String> {
    let v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let cycle = v
        .get("cycle")
        .and_then(Json::as_u64)
        .ok_or("missing or bad \"cycle\"")?;
    if cycle < *last_cycle {
        return Err(format!(
            "cycle stamp went backwards ({cycle} after {last_cycle})"
        ));
    }
    *last_cycle = cycle;
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing or bad \"kind\"")?;
    let fields = required_fields(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?;
    for field in fields {
        if v.get(field).and_then(Json::as_u64).is_none() {
            return Err(format!("{kind}: missing or bad \"{field}\""));
        }
    }
    match kind {
        "service_trap" => {
            let trap = v
                .get("trap")
                .and_then(Json::as_str)
                .ok_or("service_trap: missing \"trap\"")?;
            if !matches!(trap, "create_stub" | "entry" | "restore") {
                return Err(format!("service_trap: unknown trap kind {trap:?}"));
            }
        }
        "decompress_end" => {
            // `evicted` must be present: a region index or null.
            match v.get("evicted") {
                Some(e) if e.is_null() || e.as_u64().is_some() => {}
                _ => return Err("decompress_end: missing or bad \"evicted\"".into()),
            }
        }
        _ => {}
    }
    Ok(kind.to_string())
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut last_cycle = 0u64;
    let mut total = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        match check_line(line, &mut last_cycle) {
            Ok(kind) => {
                *counts.entry(kind).or_default() += 1;
                total += 1;
            }
            Err(e) => {
                eprintln!("trace_check: {path}:{}: {e}", i + 1);
                eprintln!("trace_check:   {line}");
                return ExitCode::FAILURE;
            }
        }
    }
    if total == 0 {
        eprintln!("trace_check: {path}: no events");
        return ExitCode::FAILURE;
    }
    println!("{path}: {total} events ok, final cycle {last_cycle}");
    for (kind, n) in &counts {
        println!("  {kind:<18} {n}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_lines_pass_and_count() {
        let mut last = 0;
        for (line, kind) in [
            (
                r#"{"cycle":1,"kind":"service_trap","trap":"entry","pc":32772,"ra":8192}"#,
                "service_trap",
            ),
            (r#"{"cycle":1,"kind":"decompress_start","region":0}"#, "decompress_start"),
            (r#"{"cycle":2,"kind":"icache_flush"}"#, "icache_flush"),
            (r#"{"cycle":3,"kind":"verify_start","region":0}"#, "verify_start"),
            (r#"{"cycle":7,"kind":"verify_end","region":0,"bytes":12}"#, "verify_end"),
            (
                r#"{"cycle":9,"kind":"decompress_end","region":0,"bits":8,"insts":2,"slot":0,"evicted":null}"#,
                "decompress_end",
            ),
            (r#"{"cycle":9,"kind":"cache_hit","region":0,"slot":1}"#, "cache_hit"),
            (r#"{"cycle":10,"kind":"stub_create","site":65540,"live":1}"#, "stub_create"),
        ] {
            assert_eq!(check_line(line, &mut last).as_deref(), Ok(kind), "{line}");
        }
    }

    #[test]
    fn violations_are_rejected() {
        let mut last = 0;
        for bad in [
            "not json",
            r#"{"kind":"icache_flush"}"#,                          // no cycle
            r#"{"cycle":3,"kind":"warp_drive"}"#,                  // unknown kind
            r#"{"cycle":3,"kind":"cache_hit","region":1}"#,        // missing slot
            r#"{"cycle":3,"kind":"service_trap","trap":"x","pc":0,"ra":0}"#, // bad trap
            r#"{"cycle":3,"kind":"decompress_end","region":0,"bits":1,"insts":1,"slot":0}"#, // no evicted
        ] {
            assert!(check_line(bad, &mut last).is_err(), "{bad} should fail");
        }
        // Regression of the stamp: 5 then 4.
        let mut last = 0;
        check_line(r#"{"cycle":5,"kind":"icache_flush"}"#, &mut last).unwrap();
        assert!(check_line(r#"{"cycle":4,"kind":"icache_flush"}"#, &mut last).is_err());
    }
}
