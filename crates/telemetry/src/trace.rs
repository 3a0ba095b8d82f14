//! Per-warp event tracing with a chrome://tracing exporter.
//!
//! When `DeviceConfig::trace` is enabled, warp contexts append one
//! [`TraceEvent`] per notable synchronization event. The collected events
//! serialize to the Trace Event Format (the JSON consumed by
//! `chrome://tracing` and Perfetto) as instant events: one track (tid)
//! per warp, timestamped in simulated cycles.

use crate::json::JsonValue;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Latch acquisition failed (lock baseline).
    LockConflict,
    /// Transaction validation failed and rolled back (STM).
    StmAbort,
    /// Optimistic read observed a torn or bumped version.
    VersionConflict,
    /// A node split (structure modification).
    NodeSplit,
    /// An underflowing node merged into its left sibling (structure
    /// modification; arg = the absorbed node's address).
    NodeMerge,
    /// A combined run collapsed duplicate keys (arg = run length).
    CombineHit,
}

impl TraceEventKind {
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::LockConflict => "lock_conflict",
            TraceEventKind::StmAbort => "stm_abort",
            TraceEventKind::VersionConflict => "version_conflict",
            TraceEventKind::NodeSplit => "node_split",
            TraceEventKind::NodeMerge => "node_merge",
            TraceEventKind::CombineHit => "combine_hit",
        }
    }
}

/// One instant event on a warp's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: TraceEventKind,
    /// Warp that observed the event.
    pub warp: u32,
    /// Simulated cycle timestamp (warp-local clock).
    pub cycle: u64,
    /// Event-specific payload (e.g. combined-run length).
    pub arg: u64,
}

/// Renders events in Trace Event Format.
pub fn chrome_trace(events: &[TraceEvent]) -> JsonValue {
    let entries = events
        .iter()
        .map(|e| {
            JsonValue::obj(vec![
                ("name", JsonValue::from(e.kind.name())),
                ("ph", JsonValue::from("i")),
                ("s", JsonValue::from("t")),
                ("ts", JsonValue::from(e.cycle)),
                ("pid", JsonValue::from(0u64)),
                ("tid", JsonValue::from(e.warp as u64)),
                (
                    "args",
                    JsonValue::obj(vec![("arg", JsonValue::from(e.arg))]),
                ),
            ])
        })
        .collect();
    JsonValue::obj(vec![
        ("traceEvents", JsonValue::Arr(entries)),
        ("displayTimeUnit", JsonValue::from("ns")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_shape() {
        let events = [
            TraceEvent {
                kind: TraceEventKind::LockConflict,
                warp: 3,
                cycle: 120,
                arg: 0,
            },
            TraceEvent {
                kind: TraceEventKind::CombineHit,
                warp: 7,
                cycle: 480,
                arg: 5,
            },
        ];
        let doc = chrome_trace(&events);
        let parsed = JsonValue::parse(&doc.to_json()).unwrap();
        let entries = parsed.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0].get("name").and_then(|v| v.as_str()),
            Some("lock_conflict")
        );
        assert_eq!(entries[1].get("tid").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(
            entries[1]
                .get("args")
                .and_then(|a| a.get("arg"))
                .and_then(|v| v.as_u64()),
            Some(5)
        );
    }
}
