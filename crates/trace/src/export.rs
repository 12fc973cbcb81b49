//! Line-oriented trace export and re-import.
//!
//! Format: `ts component kind a b`, one event per line, `kind` as a
//! stable token (`send_end`, `obs_served`, …).

use crate::{EventKind, TraceEvent};

fn kind_token(k: EventKind) -> &'static str {
    match k {
        EventKind::BehaviorStart => "behavior_start",
        EventKind::BehaviorEnd => "behavior_end",
        EventKind::SendStart => "send_start",
        EventKind::SendEnd => "send_end",
        EventKind::Recv => "recv",
        EventKind::Compute => "compute",
        EventKind::ObsServed => "obs_served",
        EventKind::BehaviorPanic => "behavior_panic",
        EventKind::Restart => "restart",
        EventKind::FaultInjected => "fault_injected",
        EventKind::Shed => "shed",
    }
}

fn parse_kind(tok: &str) -> Result<EventKind, String> {
    Ok(match tok {
        "behavior_start" => EventKind::BehaviorStart,
        "behavior_end" => EventKind::BehaviorEnd,
        "send_start" => EventKind::SendStart,
        "send_end" => EventKind::SendEnd,
        "recv" => EventKind::Recv,
        "compute" => EventKind::Compute,
        "obs_served" => EventKind::ObsServed,
        "behavior_panic" => EventKind::BehaviorPanic,
        "restart" => EventKind::Restart,
        "fault_injected" => EventKind::FaultInjected,
        "shed" => EventKind::Shed,
        other => return Err(format!("unknown event kind '{other}'")),
    })
}

/// `s` as the body of a JSON string: `"`, `\` and control characters
/// escaped.
fn json_escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize events to the text format.
pub fn to_text(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            e.ts_ns,
            e.component,
            kind_token(e.kind),
            e.a,
            e.b
        ));
    }
    out
}

/// Parse the text format back into events.
pub fn from_text(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 5 {
            return Err(format!("line {}: expected 5 fields", lineno + 1));
        }
        let num = |s: &str| -> Result<u64, String> {
            s.parse().map_err(|e| format!("line {}: {e}", lineno + 1))
        };
        out.push(TraceEvent {
            ts_ns: num(parts[0])?,
            component: num(parts[1])? as u32,
            kind: parse_kind(parts[2]).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            a: num(parts[3])?,
            b: num(parts[4])?,
        });
    }
    Ok(out)
}

/// Serialize events into the Chrome trace-event JSON format
/// (`chrome://tracing` / Perfetto "JSON Array Format"): send/recv/
/// compute become complete events (`ph: "X"`) on one row per component,
/// lifecycle markers become instants. Timestamps are microseconds.
pub fn to_chrome_json(events: &[TraceEvent], names: &[String]) -> String {
    let name_of = |id: u32| -> String {
        names
            .get(id as usize)
            .map_or_else(|| format!("component-{id}"), |name| json_escaped(name))
    };
    let mut out = String::from("[\n");
    let mut first = true;
    for e in events {
        let (label, dur_ns, instant) = match e.kind {
            EventKind::SendEnd => (format!("send {}B", e.a), e.b, false),
            EventKind::Recv => (format!("recv {}B", e.a), e.b, false),
            EventKind::Compute => (format!("compute {} ops", e.a), e.b, false),
            EventKind::BehaviorStart => ("behavior_start".to_string(), 0, true),
            EventKind::BehaviorEnd => ("behavior_end".to_string(), 0, true),
            EventKind::ObsServed => ("obs_served".to_string(), 0, true),
            EventKind::BehaviorPanic => ("behavior_panic".to_string(), 0, true),
            EventKind::Restart => (format!("restart #{}", e.a), 0, true),
            EventKind::FaultInjected => ("fault_injected".to_string(), 0, true),
            EventKind::Shed => ("shed".to_string(), 0, true),
            EventKind::SendStart => continue, // folded into SendEnd
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts_us = e.ts_ns as f64 / 1e3;
        if instant {
            out.push_str(&format!(
                "  {{\"name\": \"{label}\", \"ph\": \"i\", \"ts\": {ts_us:.3},                  \"pid\": 1, \"tid\": {}, \"s\": \"t\", \"cat\": \"{}\"}}",
                e.component,
                name_of(e.component)
            ));
        } else {
            // Complete events carry their start timestamp.
            let start_us = (e.ts_ns.saturating_sub(dur_ns)) as f64 / 1e3;
            out.push_str(&format!(
                "  {{\"name\": \"{label}\", \"ph\": \"X\", \"ts\": {start_us:.3},                  \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"cat\": \"{}\"}}",
                dur_ns as f64 / 1e3,
                e.component,
                name_of(e.component)
            ));
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_kind() {
        let events = vec![
            TraceEvent::new(1, 0, EventKind::BehaviorStart, 0, 0),
            TraceEvent::new(2, 0, EventKind::SendStart, 10, 0),
            TraceEvent::new(3, 0, EventKind::SendEnd, 10, 1),
            TraceEvent::new(4, 1, EventKind::Recv, 10, 2),
            TraceEvent::new(5, 1, EventKind::Compute, 99, 3),
            TraceEvent::new(6, 1, EventKind::ObsServed, 0, 0),
            TraceEvent::new(8, 1, EventKind::BehaviorPanic, 0, 0),
            TraceEvent::new(9, 1, EventKind::Restart, 1, 1_000),
            TraceEvent::new(10, 0, EventKind::FaultInjected, 0, 64),
            TraceEvent::new(11, 0, EventKind::Shed, 1, 512),
            TraceEvent::new(12, 0, EventKind::BehaviorEnd, 0, 0),
        ];
        let text = to_text(&events);
        assert_eq!(from_text(&text).unwrap(), events);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# a comment\n\n1 0 recv 2 3\n";
        let events = from_text(text).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Recv);
    }

    #[test]
    fn chrome_export_emits_valid_shapes() {
        let events = vec![
            TraceEvent::new(1_000, 0, EventKind::BehaviorStart, 0, 0),
            TraceEvent::new(5_000, 0, EventKind::SendEnd, 256, 3_000),
            TraceEvent::new(6_000, 1, EventKind::Recv, 256, 500),
            TraceEvent::new(7_000, 0, EventKind::BehaviorEnd, 0, 0),
        ];
        let json = to_chrome_json(&events, &["src".into(), "dst".into()]);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\": \"X\""), "complete events present");
        assert!(json.contains("\"ph\": \"i\""), "instants present");
        assert!(json.contains("send 256B"));
        assert!(json.contains("\"cat\": \"src\""));
        // SendStart events are folded away.
        assert!(!json.contains("send_start"));
        // Balanced braces (crude JSON sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn malformed_lines_reported_with_number() {
        let err = from_text("1 0 recv 2\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        for unknown in ["1 0 nope 2 3\n", "1 0 user:7 2 3\n"] {
            let err = from_text(unknown).unwrap_err();
            assert!(err.contains("unknown event kind"), "{err}");
        }
    }

    #[test]
    fn chrome_export_escapes_component_names() {
        let events = vec![
            TraceEvent::new(1_000, 0, EventKind::BehaviorStart, 0, 0),
            TraceEvent::new(5_000, 1, EventKind::SendEnd, 8, 1_000),
            TraceEvent::new(6_000, 2, EventKind::Shed, 0, 8),
        ];
        let names = ["a\"b", "a\\b", "tab\there\n"].map(String::from);
        let json = to_chrome_json(&events, &names);
        assert!(json.contains(r#""cat": "a\"b""#), "{json}");
        assert!(json.contains(r#""cat": "a\\b""#), "{json}");
        assert!(json.contains(r#""cat": "tab\u0009here\u000a""#), "{json}");
        // With the escapes taken out, the quotes of every object pair up.
        for line in json.lines().filter(|l| l.contains('{')) {
            let unescaped = line.replace("\\\\", "").replace("\\\"", "");
            assert_eq!(unescaped.matches('"').count() % 2, 0, "{line}");
        }
        assert!(!json.chars().any(|c| c.is_control() && c != '\n'));
    }
}
