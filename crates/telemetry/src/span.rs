//! Per-ticket lifecycle spans and the bounded ring that holds them.
//!
//! A [`LifecycleSpan`] records the three virtual-clock instants a served
//! request has — it arrived at its shard, its epoch started, its epoch
//! ended — together with the epoch it executed in and the track (shard) it
//! ran on. `start - arrival` is the request's queue wait, `end - start` its
//! epoch's service time, and `end - arrival` its reported end-to-end
//! latency.
//!
//! Spans are recorded into a bounded per-shard [`SpanRing`]: O(capacity)
//! memory however long the service runs, with a drop counter so exports
//! can state what was truncated. Export format: JSON-lines
//! ([`spans_to_jsonl`], one span per line, streaming-friendly).

use crate::json::JsonValue;
use std::collections::VecDeque;

/// One request's recorded lifecycle, in virtual-clock cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LifecycleSpan {
    /// The request's globally unique admission timestamp.
    pub id: u64,
    /// Track the span belongs to (the shard that executed it).
    pub track: u32,
    /// Epoch the request executed in (per-track, starting at 1).
    pub epoch: u64,
    /// The request arrived at its shard: admission, or its `submit_at` time.
    pub arrival: u64,
    /// Its epoch began executing on the shard's device.
    pub start: u64,
    /// Its epoch finished; the ticket resolved.
    pub end: u64,
}

impl LifecycleSpan {
    /// Whether `arrival <= start <= end`.
    pub fn is_monotone(&self) -> bool {
        self.arrival <= self.start && self.start <= self.end
    }

    /// End-to-end cycles, arrival to end.
    pub fn total_cycles(&self) -> u64 {
        self.end.saturating_sub(self.arrival)
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("ticket", JsonValue::from(self.id)),
            ("shard", JsonValue::from(self.track)),
            ("epoch", JsonValue::from(self.epoch)),
            ("arrival", JsonValue::from(self.arrival)),
            ("start", JsonValue::from(self.start)),
            ("end", JsonValue::from(self.end)),
        ])
    }

    pub fn from_json(doc: &JsonValue) -> Option<LifecycleSpan> {
        let field = |name| doc.get(name)?.as_u64();
        Some(LifecycleSpan {
            id: field("ticket")?,
            track: u32::try_from(field("shard")?).ok()?,
            epoch: field("epoch")?,
            arrival: field("arrival")?,
            start: field("start")?,
            end: field("end")?,
        })
    }
}

/// Bounded FIFO of spans: pushing past capacity drops the oldest span and
/// counts it, so memory stays O(capacity) over an unbounded service
/// lifetime.
#[derive(Clone, Debug)]
pub struct SpanRing {
    buf: VecDeque<LifecycleSpan>,
    capacity: usize,
    dropped: u64,
}

impl SpanRing {
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            buf: VecDeque::with_capacity(capacity.min(1 << 12)),
            capacity,
            dropped: 0,
        }
    }

    pub fn push(&mut self, span: LifecycleSpan) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(span);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn iter(&self) -> impl Iterator<Item = &LifecycleSpan> {
        self.buf.iter()
    }

    /// Consumes the ring, oldest retained span first.
    pub fn into_vec(self) -> Vec<LifecycleSpan> {
        self.buf.into_iter().collect()
    }
}

/// Serializes spans as JSON-lines: one compact JSON object per line.
pub fn spans_to_jsonl(spans: &[LifecycleSpan]) -> String {
    let mut out = String::new();
    for span in spans {
        out.push_str(&span.to_json().to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSON-lines span stream (blank lines ignored).
pub fn spans_from_jsonl(text: &str) -> Result<Vec<LifecycleSpan>, String> {
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        spans.push(
            LifecycleSpan::from_json(&doc)
                .ok_or_else(|| format!("line {}: not a span object", lineno + 1))?,
        );
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, base: u64) -> LifecycleSpan {
        LifecycleSpan {
            id,
            track: 2,
            epoch: 5,
            arrival: base,
            start: base + 10,
            end: base + 40,
        }
    }

    #[test]
    fn total_runs_from_arrival_to_end() {
        let s = span(9, 100);
        assert!(s.is_monotone());
        assert_eq!(s.total_cycles(), 40);
    }

    #[test]
    fn non_monotone_spans_are_detected() {
        let early_start = LifecycleSpan {
            start: 40,
            ..span(1, 50)
        };
        let early_end = LifecycleSpan {
            end: 55,
            ..span(1, 50)
        };
        assert!(!early_start.is_monotone());
        assert!(!early_end.is_monotone());
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut ring = SpanRing::new(3);
        for i in 0..5 {
            ring.push(span(i, i * 100));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ids: Vec<u64> = ring.into_vec().iter().map(|s| s.id).collect();
        assert_eq!(ids, [2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut ring = SpanRing::new(0);
        ring.push(span(0, 0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_round_trips_the_three_stamps() {
        let spans = vec![span(1, 0), span(2, 1000)];
        let text = spans_to_jsonl(&spans);
        assert_eq!(
            text.lines().next(),
            Some(r#"{"ticket":1,"shard":2,"epoch":5,"arrival":0,"start":10,"end":40}"#)
        );
        assert_eq!(text.lines().count(), 2);
        let back = spans_from_jsonl(&text).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        assert!(spans_from_jsonl("{\"ticket\": 1}\n").is_err());
        assert!(spans_from_jsonl("not json\n").is_err());
    }
}
