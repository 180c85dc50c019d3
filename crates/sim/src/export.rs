//! Structured trace export: JSONL and Chrome trace-event format.
//!
//! Serializes any [`Trace`] + [`SimMetrics`] pair — the two observability
//! artifacts of a [`crate::SimReport`] — into machine-readable form, with
//! no dependencies (the JSON is hand-rolled, like `bench_explore.rs`):
//!
//! * [`to_jsonl`] — one JSON object per line: a `meta` header (process
//!   table), one `event` line per trace event, and a final `metrics` line.
//!   Greppable, streamable, diffable.
//! * [`to_chrome_trace`] — the Chrome trace-event format (a single JSON
//!   document loadable in `chrome://tracing` or Perfetto): one track per
//!   pid, each dispatch as a one-tick complete ("X") slice, each
//!   park…wake episode as an async ("b"/"e") span named after the wait
//!   reason, and user/fault events as instants. Timestamps are virtual
//!   time, 1 tick = 1 µs of trace time.
//!
//! Exporters are pure functions of their inputs, so exported bytes are as
//! deterministic as the run itself — byte-identical across explorer
//! thread counts (`tests/parallel_explore.rs`) and stable enough to pin
//! with golden files (`tests/trace_export.rs`).
//!
//! [`parse_json`] is the matching minimal reader, here so round-trip
//! tests need no JSON dependency either.

use crate::metrics::SimMetrics;
use crate::trace::{EventKind, Trace};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Escapes `s` for inclusion inside a JSON string literal (no quotes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a string-keyed counter map as a JSON object (keys already
/// sorted — `BTreeMap` iteration order).
fn counter_map(map: &BTreeMap<String, u64>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Renders [`SimMetrics`] as one JSON object (shared by both exporters).
fn metrics_json(metrics: &SimMetrics) -> String {
    let per_pid: Vec<String> = metrics
        .per_pid
        .iter()
        .enumerate()
        .map(|(pid, p)| {
            format!(
                "{{\"pid\":{pid},\"dispatches\":{},\"run_ticks\":{},\"blocked_ticks\":{}}}",
                p.dispatches, p.run_ticks, p.blocked_ticks
            )
        })
        .collect();
    format!(
        "{{\"dispatches\":{},\"context_switches\":{},\"parks\":{},\"wakes\":{},\
         \"timeout_wakes\":{},\"queue_high_water\":{},\"sync_ops\":{},\"per_pid\":[{}],\
         \"replay\":{{\"clamped\":{},\"underruns\":{}}}}}",
        metrics.dispatches,
        metrics.context_switches,
        counter_map(&metrics.parks),
        counter_map(&metrics.wakes),
        counter_map(&metrics.timeout_wakes),
        counter_map(&metrics.queue_high_water),
        counter_map(&metrics.sync_ops),
        per_pid.join(","),
        metrics.replay.clamped,
        metrics.replay.underruns,
    )
}

/// The process table derivable from a trace: `(pid, name, daemon)` from
/// its `Spawned` events, in pid order.
fn processes(trace: &Trace) -> Vec<(u32, String, bool)> {
    let mut procs: Vec<(u32, String, bool)> = trace
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Spawned { name, daemon } => Some((e.pid.0, name.clone(), *daemon)),
            _ => None,
        })
        .collect();
    procs.sort_by_key(|&(pid, _, _)| pid);
    procs
}

/// Kind-specific JSONL fields, appended after the common ones.
fn kind_fields(kind: &EventKind) -> String {
    match kind {
        EventKind::Spawned { name, daemon } => {
            format!(
                "\"kind\":\"spawned\",\"name\":\"{}\",\"daemon\":{daemon}",
                esc(name)
            )
        }
        EventKind::Scheduled => "\"kind\":\"scheduled\"".to_string(),
        EventKind::Yielded => "\"kind\":\"yielded\"".to_string(),
        EventKind::Blocked { reason } => {
            format!("\"kind\":\"blocked\",\"reason\":\"{}\"", esc(reason))
        }
        EventKind::Unparked { by } => format!("\"kind\":\"unparked\",\"by\":{}", by.0),
        EventKind::Slept { until } => format!("\"kind\":\"slept\",\"until\":{}", until.0),
        EventKind::TimerFired => "\"kind\":\"timer_fired\"".to_string(),
        EventKind::Finished => "\"kind\":\"finished\"".to_string(),
        EventKind::Killed => "\"kind\":\"killed\"".to_string(),
        EventKind::Aborted => "\"kind\":\"aborted\"".to_string(),
        EventKind::StarvationFlagged { age } => {
            format!("\"kind\":\"starvation_flagged\",\"age\":{age}")
        }
        EventKind::ChoseValue { label, value } => {
            format!(
                "\"kind\":\"chose_value\",\"label\":\"{}\",\"value\":{value}",
                esc(label)
            )
        }
        EventKind::User { label, params } => {
            let params: Vec<String> = params.iter().map(|p| p.to_string()).collect();
            format!(
                "\"kind\":\"user\",\"label\":\"{}\",\"params\":[{}]",
                esc(label),
                params.join(",")
            )
        }
    }
}

/// Serializes a trace and its metrics to JSONL: a `meta` line, one
/// `event` line per trace event (each a complete JSON object), and a
/// final `metrics` line.
pub fn to_jsonl(trace: &Trace, metrics: &SimMetrics) -> String {
    let mut out = String::new();
    let procs: Vec<String> = processes(trace)
        .into_iter()
        .map(|(pid, name, daemon)| {
            format!(
                "{{\"pid\":{pid},\"name\":\"{}\",\"daemon\":{daemon}}}",
                esc(&name)
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"format\":\"bloom-trace\",\"version\":1,\"events\":{},\
         \"processes\":[{}]}}",
        trace.len(),
        procs.join(",")
    );
    for e in trace.events() {
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"time\":{},\"pid\":{},{}}}",
            e.seq,
            e.time.0,
            e.pid.0,
            kind_fields(&e.kind)
        );
    }
    let _ = writeln!(
        out,
        "{{\"type\":\"metrics\",\"metrics\":{}}}",
        metrics_json(metrics)
    );
    out
}

/// Serializes a trace and its metrics to the Chrome trace-event format
/// (load the output in `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// Layout: everything lives in trace-process 0; each simulated process is
/// a thread (track) whose tid is its pid. A dispatch is a one-tick "X"
/// slice on the running process's track; a park…wake episode is an async
/// "b"/"e" span (id = pid) named after the wait reason — spans still open
/// when the trace ends (a deadlock's parked processes) are closed at the
/// final timestamp so they render with their true extent. User events and
/// faults are instants; the full [`SimMetrics`] rides in a final global
/// instant's `args`.
pub fn to_chrome_trace(trace: &Trace, metrics: &SimMetrics) -> String {
    let mut ev: Vec<String> = Vec::new();
    ev.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\
         \"args\":{\"name\":\"bloom-sim\"}}"
            .to_string(),
    );
    for (pid, name, daemon) in processes(trace) {
        let suffix = if daemon { " (daemon)" } else { "" };
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pid},\"ts\":0,\
             \"args\":{{\"name\":\"P{pid} {}{suffix}\"}}}}",
            esc(&name)
        ));
        ev.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{pid},\"ts\":0,\
             \"args\":{{\"sort_index\":{pid}}}}}"
        ));
    }
    // Open park span per pid: the reason the pending "b" was emitted with,
    // so the matching "e" carries the same name (required for the span to
    // join). Indexed by pid; pids are dense.
    let mut open_park: Vec<Option<String>> = Vec::new();
    let mut final_ts = 0u64;
    for e in trace.events() {
        let (ts, pid) = (e.time.0, e.pid.0);
        final_ts = final_ts.max(ts);
        let slot = pid as usize;
        if open_park.len() <= slot {
            open_park.resize(slot + 1, None);
        }
        let close_open_span = |open_park: &mut Vec<Option<String>>, ev: &mut Vec<String>| {
            if let Some(reason) = open_park[slot].take() {
                ev.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"park\",\"ph\":\"e\",\"id\":{pid},\"ts\":{ts},\
                     \"pid\":0,\"tid\":{pid}}}",
                    esc(&reason)
                ));
            }
        };
        match &e.kind {
            EventKind::Scheduled => ev.push(format!(
                "{{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\
                 \"pid\":0,\"tid\":{pid}}}"
            )),
            EventKind::Blocked { reason } => {
                // A timed park's span is still open here when its timeout
                // went unrecorded (`record_sched_events: false`).
                close_open_span(&mut open_park, &mut ev);
                ev.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"park\",\"ph\":\"b\",\"id\":{pid},\"ts\":{ts},\
                     \"pid\":0,\"tid\":{pid}}}",
                    esc(reason)
                ));
                open_park[slot] = Some(reason.clone());
            }
            EventKind::Unparked { .. }
            | EventKind::TimerFired
            | EventKind::Killed
            | EventKind::Aborted => {
                close_open_span(&mut open_park, &mut ev);
                let instant = match &e.kind {
                    EventKind::Killed => Some(("killed", "fault")),
                    EventKind::Aborted => Some(("aborted", "recovery")),
                    _ => None,
                };
                if let Some((name, cat)) = instant {
                    ev.push(format!(
                        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{ts},\"pid\":0,\"tid\":{pid}}}"
                    ));
                }
            }
            EventKind::StarvationFlagged { age } => ev.push(format!(
                "{{\"name\":\"starvation_flagged\",\"cat\":\"watchdog\",\"ph\":\"i\",\
                 \"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{pid},\"args\":{{\"age\":{age}}}}}"
            )),
            EventKind::ChoseValue { label, value } => ev.push(format!(
                "{{\"name\":\"choose {}\",\"cat\":\"data\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":0,\"tid\":{pid},\"args\":{{\"value\":{value}}}}}",
                esc(label)
            )),
            EventKind::User { label, params } => {
                let params: Vec<String> = params.iter().map(|p| p.to_string()).collect();
                ev.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"user\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{pid},\"args\":{{\"params\":[{}]}}}}",
                    esc(label),
                    params.join(",")
                ));
            }
            // Spawned (already in the thread metadata), Yielded, Slept and
            // Finished carry no timeline geometry of their own.
            _ => {}
        }
    }
    // Close the spans of processes that never woke (deadlock victims) so
    // their wait renders with its true extent.
    for (slot, open) in open_park.iter_mut().enumerate() {
        if let Some(reason) = open.take() {
            ev.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"park\",\"ph\":\"e\",\"id\":{slot},\"ts\":{final_ts},\
                 \"pid\":0,\"tid\":{slot}}}",
                esc(&reason)
            ));
        }
    }
    ev.push(format!(
        "{{\"name\":\"sim_metrics\",\"cat\":\"metrics\",\"ph\":\"i\",\"s\":\"g\",\
         \"ts\":{final_ts},\"pid\":0,\"tid\":0,\"args\":{}}}",
        metrics_json(metrics)
    ));
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"format\":\"bloom-sim\",\"version\":1}}}}\n",
        ev.join(",\n")
    )
}

/// A parsed JSON value (see [`parse_json`]). Object members keep their
/// textual order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; every value the exporters emit is an
    /// integer well within `f64`'s exact range).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (`None` on other variants or missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (for validating and round-tripping exporter
/// output without a JSON dependency). Rejects trailing garbage.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected '{lit}' at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(
                            char::from_u32(code)
                                .ok_or(format!("bad \\u escape {hex} (surrogates unsupported)"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::waitq::WaitQueue;
    use std::sync::Arc;

    fn sample_run() -> crate::SimReport {
        let mut sim = Sim::new();
        let q = Arc::new(WaitQueue::new("gate"));
        let q2 = Arc::clone(&q);
        sim.spawn("waiter", move |ctx| {
            q2.wait(ctx);
            ctx.emit("woke \"up\"", &[1, -2]);
        });
        let q3 = Arc::clone(&q);
        sim.spawn("waker", move |ctx| {
            ctx.yield_now();
            q3.wake_one(ctx);
        });
        sim.run().expect("clean run")
    }

    #[test]
    fn jsonl_lines_all_parse_and_cover_every_event() {
        let report = sample_run();
        let jsonl = to_jsonl(&report.trace, &report.metrics);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines.len(),
            report.trace.len() + 2,
            "meta + events + metrics"
        );
        for line in &lines {
            parse_json(line).expect("every JSONL line is valid JSON");
        }
        let meta = parse_json(lines[0]).unwrap();
        assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(
            meta.get("events").unwrap().as_u64(),
            Some(report.trace.len() as u64)
        );
        let metrics = parse_json(lines[lines.len() - 1]).unwrap();
        assert_eq!(
            metrics
                .get("metrics")
                .unwrap()
                .get("dispatches")
                .unwrap()
                .as_u64(),
            Some(report.metrics.dispatches)
        );
    }

    #[test]
    fn chrome_trace_parses_and_balances_park_spans() {
        let report = sample_run();
        let doc = parse_json(&to_chrome_trace(&report.trace, &report.metrics))
            .expect("chrome trace is one valid JSON document");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(phase("b"), phase("e"), "park spans must balance");
        assert!(phase("X") >= 1, "dispatch slices present");
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("sim_metrics")),
            "metrics instant present"
        );
    }

    #[test]
    fn escaping_round_trips() {
        let raw = "a\"b\\c\nd\te\u{1}ü";
        let parsed = parse_json(&format!("\"{}\"", esc(raw))).unwrap();
        assert_eq!(parsed.as_str(), Some(raw));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("\"open").is_err());
    }
}
