//! # squash-obs — the observability backbone
//!
//! A std-only, dependency-free toolkit the rest of the workspace builds its
//! telemetry surfaces on. Three pillars, each a plain data structure with a
//! stable text encoding:
//!
//! * [`span::SpanLog`] — hierarchical begin/end spans with integer
//!   timestamps (wall-clock nanoseconds for the compile pipeline, simulated
//!   cycles for runtime services), rendered as Chrome trace-event JSON that
//!   opens directly in Perfetto or `chrome://tracing`;
//! * [`metrics::Registry`] — counters, gauges and fixed-bucket histograms
//!   keyed by sorted label sets, with a Prometheus text-exposition encoder;
//! * [`stacks::Stacks`] — aggregated call-stack samples in the collapsed
//!   (folded) format every flamegraph renderer consumes.
//!
//! Under them sits [`json`], the workspace's one JSON codec (value type,
//! emitter and depth-capped parser): the span encoder writes through it, and
//! so do the telemetry document (`squash::telemetry`) and the bench
//! reports. [`json_escape`] is its string escaper.
//!
//! Nothing in this crate observes anything by itself: producers (the VM's
//! cycle sampler, the runtime decompressor's trace events, the staged
//! compile pipeline) push data in, and the encoders here render it. That
//! keeps the zero-perturbation contract where it belongs — in the emitters —
//! and makes every encoder unit-testable with synthetic data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod json;
pub mod metrics;
pub mod span;
pub mod stacks;

pub use metrics::{Histogram, MetricKind, Registry};
pub use span::{SpanId, SpanLog};
pub use stacks::Stacks;

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
