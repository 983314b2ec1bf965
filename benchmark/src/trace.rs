//! In-memory spans around the benchmark's calls into each layer.
//!
//! The crates carry no instrumentation of their own yet, so a span here is
//! what the benchmark sees from outside: one per call it makes into a layer's
//! public functions, kept in memory and written out once at exit. Timing goes
//! through [`Tracer::time`] whether or not spans are kept, so the traced and
//! the untraced run execute the same code.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (an operation's span, for layer calls).
    pub parent: Option<u32>,
    pub name: &'static str,
    pub layer: &'static str,
    /// Operations share an identifier across ranks and calls.
    pub op: Option<u64>,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span sink; disabled it only measures.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

/// Where a call sits: which operation and which parent span.
#[derive(Clone, Copy, Default)]
pub struct At {
    pub op: Option<u64>,
    pub parent: Option<u32>,
    pub rank: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &self,
        name: &'static str,
        layer: &'static str,
        at: At,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        let mut spans = self
            .spans
            .as_ref()?
            .lock()
            .expect("a span recorder never panics while locked");
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            id,
            parent: at.parent,
            name,
            layer,
            op: at.op,
            rank: at.rank,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }

    /// Open a span that will contain others (an operation); close it with
    /// [`Tracer::close`]. Returns `None` when disabled.
    pub fn open(&self, name: &'static str, layer: &'static str, at: At) -> Option<u32> {
        let now = Instant::now();
        self.push(name, layer, at, now, now)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, id: Option<u32>) {
        if let (Some(spans), Some(id)) = (&self.spans, id) {
            let now = self.ns(Instant::now());
            spans
                .lock()
                .expect("a span recorder never panics while locked")[id as usize]
                .end_ns = now;
        }
    }

    /// Record a span whose ends the caller measured.
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        at: At,
        start: Instant,
        end: Instant,
    ) {
        self.push(name, layer, at, start, end);
    }

    /// Time `f`, recording a span around it when enabled.
    pub fn time<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        at: At,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.record(name, layer, at, t0, t1);
        (r, t1 - t0)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| {
                s.lock()
                    .expect("a span recorder never panics while locked")
                    .clone()
            })
            .unwrap_or_default()
    }
}

/// Per-layer totals of a span set: calls, busy time, and self time (busy time
/// minus the part covered by child spans).
pub struct LayerTotals {
    pub layer: &'static str,
    pub calls: usize,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub fn layer_totals(spans: &[Span]) -> Vec<LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<LayerTotals> = Vec::new();
    for s in spans {
        let busy = s.end_ns - s.start_ns;
        let own = busy.saturating_sub(child_ns[s.id as usize]);
        match out.iter_mut().find(|t| t.layer == s.layer) {
            Some(t) => {
                t.calls += 1;
                t.busy_ns += busy;
                t.self_ns += own;
            }
            None => out.push(LayerTotals {
                layer: s.layer,
                calls: 1,
                busy_ns: busy,
                self_ns: own,
            }),
        }
    }
    out
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with all its digits; a non-finite value (never expected)
/// becomes `null` so the reader fails loudly instead of parsing garbage.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The span file of one workload.
pub fn spans_json(workload: &str, spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = format!("{{\"workload\": {}, \"spans\": [\n", json_str(workload));
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"layer\": {}, \"op\": {}, \"rank\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.id,
            opt(s.parent.map(u64::from)),
            json_str(s.name),
            json_str(s.layer),
            opt(s.op),
            s.rank,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let op = t.open("op", "benchmark", At::default());
        let at = At {
            parent: op,
            ..At::default()
        };
        t.time("call", "poisson", at, || {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(5) {
                std::hint::spin_loop();
            }
        });
        t.close(op);
        let spans = t.spans();
        let totals = layer_totals(&spans);
        let bench = totals.iter().find(|l| l.layer == "benchmark").unwrap();
        let poisson = totals.iter().find(|l| l.layer == "poisson").unwrap();
        assert!(poisson.busy_ns >= 5_000_000);
        assert_eq!(bench.self_ns, bench.busy_ns - poisson.busy_ns);
        assert!(spans_json("w", &spans).contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_only_measures() {
        let t = Tracer::new(false);
        let (v, d) = t.time("x", "y", At::default(), || 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
        assert!(t.spans().is_empty() && t.open("a", "b", At::default()).is_none());
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
