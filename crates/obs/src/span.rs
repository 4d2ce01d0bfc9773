//! Hierarchical span tracing with a Chrome trace-event JSON encoder.
//!
//! A [`SpanLog`] records typed begin/end spans plus instant markers, all
//! stamped in one integer time unit (the log records which). The encoder
//! emits the Chrome trace-event format — `"X"` complete events and `"i"`
//! instants in a `traceEvents` array — which Perfetto and
//! `chrome://tracing` nest by time containment, so a decompress span that
//! opens and closes inside a service span renders as its child without any
//! explicit parent links.
//!
//! Timestamps are emitted verbatim: a simulated-cycle log uses one trace
//! "microsecond" per cycle, a wall-clock log one per nanosecond. The scale
//! is recorded in `otherData.clock` so a human reading the file knows which
//! domain they are looking at.

use crate::json::{int, obj, Json};

/// Handle to a span opened with [`SpanLog::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    cat: &'static str,
    ts: u64,
    /// `None` while the span is open.
    dur: Option<u64>,
    args: Vec<(&'static str, u64)>,
}

#[derive(Debug, Clone)]
enum Entry {
    Span(Span),
    Instant { name: String, cat: &'static str, ts: u64 },
}

/// An append-only log of spans and instants in one time domain.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    clock: &'static str,
    entries: Vec<Entry>,
    /// Largest timestamp seen; closes still-open spans at render time.
    high: u64,
}

impl SpanLog {
    /// An empty log whose timestamps are in `clock` units
    /// (`"cycles"`, `"ns"`, ...).
    pub fn new(clock: &'static str) -> SpanLog {
        SpanLog { clock, ..SpanLog::default() }
    }

    /// The time unit this log's stamps are in.
    pub fn clock(&self) -> &'static str {
        self.clock
    }

    /// Opens a span at `ts`. Returns the handle [`SpanLog::end`] closes.
    pub fn begin(&mut self, name: impl Into<String>, cat: &'static str, ts: u64) -> SpanId {
        self.high = self.high.max(ts);
        self.entries.push(Entry::Span(Span {
            name: name.into(),
            cat,
            ts,
            dur: None,
            args: Vec::new(),
        }));
        SpanId(self.entries.len() - 1)
    }

    /// Closes `id` at `ts`. Closing an already-closed span or a stamp before
    /// the span opened is clamped, never a panic: observability must not
    /// take down the run it observes.
    pub fn end(&mut self, id: SpanId, ts: u64) {
        self.high = self.high.max(ts);
        if let Some(Entry::Span(s)) = self.entries.get_mut(id.0) {
            if s.dur.is_none() {
                s.dur = Some(ts.saturating_sub(s.ts));
            }
        }
    }

    /// Attaches a numeric argument to `id` (rendered in the event's `args`
    /// object). No-op on an unknown id.
    pub fn arg(&mut self, id: SpanId, key: &'static str, value: u64) {
        if let Some(Entry::Span(s)) = self.entries.get_mut(id.0) {
            s.args.push((key, value));
        }
    }

    /// Records an instant marker at `ts`.
    pub fn instant(&mut self, name: impl Into<String>, cat: &'static str, ts: u64) {
        self.high = self.high.max(ts);
        self.entries.push(Entry::Instant { name: name.into(), cat, ts });
    }

    /// Total entries (spans + instants) recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Spans still open (begun, never ended).
    pub fn open(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Entry::Span(s) if s.dur.is_none()))
            .count()
    }

    /// `(name, ts, dur)` of every span, in begin order. Open spans report
    /// the duration they would be rendered with.
    pub fn spans(&self) -> Vec<(&str, u64, u64)> {
        self.entries
            .iter()
            .filter_map(|e| match e {
                Entry::Span(s) => {
                    Some((s.name.as_str(), s.ts, s.dur.unwrap_or(self.high - s.ts)))
                }
                Entry::Instant { .. } => None,
            })
            .collect()
    }

    /// Renders the log as a Chrome trace-event JSON document. Spans left
    /// open (a faulted run) are closed at the highest stamp seen, so the
    /// file is always loadable. Events are encoded one at a time, so a long
    /// run's log is never copied into one value tree.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let text = |s: &str| Json::Str(s.to_string());
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let event = match e {
                Entry::Span(s) => {
                    let dur = s.dur.unwrap_or(self.high.saturating_sub(s.ts));
                    let mut fields = vec![
                        ("name", text(&s.name)),
                        ("cat", text(s.cat)),
                        ("ph", text("X")),
                        ("ts", int(s.ts)),
                        ("dur", int(dur)),
                        ("pid", Json::Int(1)),
                        ("tid", Json::Int(1)),
                    ];
                    if !s.args.is_empty() {
                        let args = s.args.iter().map(|&(k, v)| (k, int(v))).collect();
                        fields.push(("args", obj(args)));
                    }
                    obj(fields)
                }
                Entry::Instant { name, cat, ts } => obj(vec![
                    ("name", text(name)),
                    ("cat", text(cat)),
                    ("ph", text("i")),
                    ("ts", int(*ts)),
                    ("s", text("t")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                ]),
            };
            let _ = write!(out, "{event}");
        }
        let other = obj(vec![("clock", text(self.clock))]);
        let _ = write!(out, "],\"displayTimeUnit\":\"ms\",\"otherData\":{other}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_render_complete_events() {
        let mut log = SpanLog::new("cycles");
        let outer = log.begin("service/entry", "service", 100);
        let inner = log.begin("decompress/r3", "decompress", 100);
        log.arg(inner, "bits", 999);
        log.arg(inner, "insts", 12);
        log.end(inner, 150);
        log.end(outer, 150);
        log.instant("odd \"flush\"\\", "runtime", 150);
        assert_eq!(log.len(), 3);
        assert_eq!(log.open(), 0);
        assert_eq!(
            log.to_chrome_json(),
            "{\"traceEvents\":[\
             {\"name\":\"service/entry\",\"cat\":\"service\",\"ph\":\"X\",\"ts\":100,\"dur\":50,\
             \"pid\":1,\"tid\":1},\
             {\"name\":\"decompress/r3\",\"cat\":\"decompress\",\"ph\":\"X\",\"ts\":100,\"dur\":50,\
             \"pid\":1,\"tid\":1,\"args\":{\"bits\":999,\"insts\":12}},\
             {\"name\":\"odd \\\"flush\\\"\\\\\",\"cat\":\"runtime\",\"ph\":\"i\",\"ts\":150,\
             \"s\":\"t\",\"pid\":1,\"tid\":1}],\
             \"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"cycles\"}}"
        );
    }

    #[test]
    fn open_spans_close_at_high_water() {
        let mut log = SpanLog::new("ns");
        log.begin("stage/plan", "stage", 10);
        log.instant("fault", "runtime", 90);
        assert_eq!(log.open(), 1);
        assert!(log.to_chrome_json().contains("\"ts\":10,\"dur\":80"));
        assert_eq!(log.spans(), vec![("stage/plan", 10, 80)]);
    }

    #[test]
    fn double_end_and_backwards_end_are_clamped() {
        let mut log = SpanLog::new("cycles");
        let id = log.begin("s", "c", 50);
        log.end(id, 40); // before the open stamp: clamps to 0
        log.end(id, 999); // second close: ignored
        assert_eq!(log.spans(), vec![("s", 50, 0)]);
    }

    #[test]
    fn names_are_escaped() {
        let mut log = SpanLog::new("ns");
        log.begin("odd\"name\\", "stage", 0);
        let json = log.to_chrome_json();
        assert!(json.contains("odd\\\"name\\\\"), "{json}");
    }

    #[test]
    fn empty_log_is_valid_json() {
        let log = SpanLog::new("cycles");
        assert_eq!(
            log.to_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\",\
             \"otherData\":{\"clock\":\"cycles\"}}"
        );
    }
}
