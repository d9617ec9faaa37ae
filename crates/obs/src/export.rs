//! Event and registry exporters: JSONL, Chrome trace-event JSON, and a
//! compact registry rendering.
//!
//! JSON is emitted by hand — this crate is dependency-free on purpose —
//! with full string escaping, so the output is valid JSON for any
//! category/name/argument content. All formats are deterministic
//! functions of their input (keys in fixed order, no clocks), which is
//! what makes the Chrome-trace golden test possible.

use crate::metrics::MetricRegistry;
use crate::span::{Event, EventKind};
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes). `"`,
/// `\` and control characters are escaped, everything else is copied,
/// each run of bytes that needs no escape with one `push_str`. Every
/// escaped byte is ASCII, so each run ends on a character boundary.
pub fn push_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !(b == b'"' || b == b'\\' || b < 0x20) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Renders events as JSON Lines: one self-contained JSON object per
/// event, oldest first. Keys: `cat`, `name`, `ph` (`"span"` or
/// `"instant"`), `ts_ns`, `dur_ns`, `tid`, and `args` (an object,
/// present only when the event carries an argument).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str("{\"cat\":");
        push_json_string(&mut out, e.cat);
        out.push_str(",\"name\":");
        push_json_string(&mut out, e.name);
        out.push_str(",\"ph\":");
        push_json_string(&mut out, e.kind.tag());
        let _ = write!(
            out,
            ",\"ts_ns\":{},\"dur_ns\":{},\"tid\":{}",
            e.start_ns, e.dur_ns, e.tid
        );
        if let Some((k, v)) = e.arg {
            out.push_str(",\"args\":{");
            push_json_string(&mut out, k);
            let _ = write!(out, ":{v}");
            out.push('}');
        }
        out.push_str("}\n");
    }
    out
}

/// Microseconds with nanosecond precision, rendered deterministically
/// (`123.456`), as the Chrome trace-event format expects for `ts`/`dur`.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Renders events in the Chrome trace-event format (the JSON object
/// form), loadable in Perfetto or `chrome://tracing`.
///
/// Spans become complete events (`"ph":"X"`), instants become
/// thread-scoped instant events (`"ph":"i"`, `"s":"t"`). Timestamps are
/// microseconds with three decimals; `pid` is always 1 (one process),
/// `tid` is the recorder's thread index.
pub fn events_to_chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("{\"name\":");
        push_json_string(&mut out, e.name);
        out.push_str(",\"cat\":");
        push_json_string(&mut out, e.cat);
        match e.kind {
            EventKind::Span => {
                out.push_str(",\"ph\":\"X\",\"ts\":");
                push_us(&mut out, e.start_ns);
                out.push_str(",\"dur\":");
                push_us(&mut out, e.dur_ns);
            }
            EventKind::Instant => {
                out.push_str(",\"ph\":\"i\",\"ts\":");
                push_us(&mut out, e.start_ns);
                out.push_str(",\"s\":\"t\"");
            }
        }
        let _ = write!(out, ",\"pid\":1,\"tid\":{}", e.tid);
        if let Some((k, v)) = e.arg {
            out.push_str(",\"args\":{");
            push_json_string(&mut out, k);
            let _ = write!(out, ":{v}");
            out.push('}');
        }
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Renders a registry as one compact JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,p50,p99}}}`.
///
/// Histogram `min`/`max`/quantiles are 0 for empty histograms; keys are
/// sorted (BTreeMap order), so equal registries render identically.
pub fn registry_to_json(reg: &MetricRegistry) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (k, v)) in reg.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in reg.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in reg.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
            h.count(),
            h.sum(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0),
            h.approx_quantile(0.50),
            h.approx_quantile(0.99),
        );
    }
    out.push_str("}}");
    out
}

/// Appends a metric name in Prometheus form: every character outside
/// `[a-zA-Z0-9_:]` (dots, dashes, …) becomes `_`, and a leading digit
/// gains a `_` prefix. Deterministic and idempotent.
fn push_prom_name(out: &mut String, name: &str) {
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('_');
    }
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
}

/// Renders a registry in the Prometheus / OpenMetrics text exposition
/// format.
///
/// Counters and gauges become one `# TYPE` line plus one sample each.
/// Histograms are exposed as summaries: `<name>_count`, `<name>_sum`,
/// and `{quantile="0.5"}` / `{quantile="0.99"}` samples (the log2
/// bucket upper bounds from [`Histogram::approx_quantile`]), plus
/// `<name>_min` / `<name>_max` gauges since the registry tracks them
/// exactly. Metric names are sanitized (`serve.latency_ns` →
/// `serve_latency_ns`); keys iterate in BTreeMap order, so equal
/// registries render identically — same determinism contract as
/// [`registry_to_json`].
///
/// [`Histogram::approx_quantile`]: crate::Histogram::approx_quantile
pub fn registry_to_prom(reg: &MetricRegistry) -> String {
    let mut out = String::new();
    for (k, v) in reg.counters() {
        out.push_str("# TYPE ");
        push_prom_name(&mut out, k);
        out.push_str(" counter\n");
        push_prom_name(&mut out, k);
        let _ = writeln!(out, " {v}");
    }
    for (k, v) in reg.gauges() {
        out.push_str("# TYPE ");
        push_prom_name(&mut out, k);
        out.push_str(" gauge\n");
        push_prom_name(&mut out, k);
        let _ = writeln!(out, " {v}");
    }
    for (k, h) in reg.histograms() {
        out.push_str("# TYPE ");
        push_prom_name(&mut out, k);
        out.push_str(" summary\n");
        for (q, v) in [
            (0.5, h.approx_quantile(0.50)),
            (0.99, h.approx_quantile(0.99)),
        ] {
            push_prom_name(&mut out, k);
            let _ = writeln!(out, "{{quantile=\"{q}\"}} {v}");
        }
        push_prom_name(&mut out, k);
        let _ = writeln!(out, "_sum {}", h.sum());
        push_prom_name(&mut out, k);
        let _ = writeln!(out, "_count {}", h.count());
        push_prom_name(&mut out, k);
        let _ = writeln!(out, "_min {}", h.min().unwrap_or(0));
        push_prom_name(&mut out, k);
        let _ = writeln!(out, "_max {}", h.max().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cat: "reduction",
                name: "genset",
                kind: EventKind::Span,
                start_ns: 1500,
                dur_ns: 2500,
                tid: 0,
                arg: Some(("pairs", 42)),
            },
            Event {
                cat: "sched",
                name: "attempt",
                kind: EventKind::Span,
                start_ns: 5000,
                dur_ns: 100,
                tid: 1,
                arg: None,
            },
            Event {
                cat: "analyze",
                name: "violation",
                kind: EventKind::Instant,
                start_ns: 6001,
                dur_ns: 0,
                tid: 0,
                arg: Some(("event", 3)),
            },
        ]
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let s = events_to_jsonl(&sample_events());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"cat\":\"reduction\",\"name\":\"genset\",\"ph\":\"span\",\
             \"ts_ns\":1500,\"dur_ns\":2500,\"tid\":0,\"args\":{\"pairs\":42}}"
        );
        assert!(lines[1].contains("\"ph\":\"span\""));
        assert!(!lines[1].contains("args"));
        assert!(lines[2].contains("\"ph\":\"instant\""));
    }

    #[test]
    fn chrome_trace_golden() {
        // Pinned byte-for-byte: Perfetto compatibility depends on the
        // exact field set, and the profile-smoke CI job parses this.
        let expected = "\
{\"traceEvents\":[
{\"name\":\"genset\",\"cat\":\"reduction\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.500,\"pid\":1,\"tid\":0,\"args\":{\"pairs\":42}},
{\"name\":\"attempt\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":5.000,\"dur\":0.100,\"pid\":1,\"tid\":1},
{\"name\":\"violation\",\"cat\":\"analyze\",\"ph\":\"i\",\"ts\":6.001,\"s\":\"t\",\"pid\":1,\"tid\":0,\"args\":{\"event\":3}}
],\"displayTimeUnit\":\"ns\"}
";
        assert_eq!(events_to_chrome_trace(&sample_events()), expected);
    }

    #[test]
    fn empty_event_list_is_still_valid() {
        assert_eq!(events_to_jsonl(&[]), "");
        assert_eq!(
            events_to_chrome_trace(&[]),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ns\"}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn prom_exposition_golden() {
        // Pinned byte-for-byte like the Chrome trace: scrapers parse
        // this text, so the exact line set is the contract.
        let mut reg = MetricRegistry::new();
        reg.inc("serve.ok", 3);
        reg.inc("serve.errors.timeout", 1);
        reg.set_gauge("serve.machines_cached", 2);
        reg.observe("serve.latency_ns", 10);
        reg.observe("serve.latency_ns", 1000);
        let expected = "\
# TYPE serve_errors_timeout counter
serve_errors_timeout 1
# TYPE serve_ok counter
serve_ok 3
# TYPE serve_machines_cached gauge
serve_machines_cached 2
# TYPE serve_latency_ns summary
serve_latency_ns{quantile=\"0.5\"} 15
serve_latency_ns{quantile=\"0.99\"} 1000
serve_latency_ns_sum 1010
serve_latency_ns_count 2
serve_latency_ns_min 10
serve_latency_ns_max 1000
";
        assert_eq!(registry_to_prom(&reg), expected);
    }

    #[test]
    fn prom_names_are_sanitized() {
        let mut reg = MetricRegistry::new();
        reg.inc("bench.cydra5-subset.loops", 4);
        reg.set_gauge("1weird name", 9);
        let s = registry_to_prom(&reg);
        assert!(s.contains("bench_cydra5_subset_loops 4"), "{s}");
        assert!(s.contains("_1weird_name 9"), "{s}");
        assert_eq!(registry_to_prom(&MetricRegistry::new()), "");
    }

    #[test]
    fn registry_renders_sorted_and_compact() {
        let mut reg = MetricRegistry::new();
        reg.inc("b.calls", 2);
        reg.inc("a.calls", 1);
        reg.set_gauge("cache.entries", 7);
        reg.observe("lat", 10);
        reg.observe("lat", 1000);
        let s = registry_to_json(&reg);
        assert_eq!(
            s,
            "{\"counters\":{\"a.calls\":1,\"b.calls\":2},\
             \"gauges\":{\"cache.entries\":7},\
             \"histograms\":{\"lat\":{\"count\":2,\"sum\":1010,\"min\":10,\
             \"max\":1000,\"p50\":15,\"p99\":1000}}}"
        );
    }
}
