//! A bounded ring-buffer event journal with JSONL export.
//!
//! The journal is the trace side of the telemetry layer: an ordered
//! sequence of [`Record`]s stamped with *simulated* time and a
//! monotonically increasing sequence number. The buffer is bounded so a
//! long experiment cannot grow memory without limit — when full, the
//! oldest events are evicted first (FIFO). Sequence numbers survive
//! eviction, so a reader can always tell whether the journal's head was
//! truncated.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::record::Record;

/// One journaled event: a record stamped with sim time and sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// Simulated time of the event (seconds).
    pub time: f64,
    /// Monotone sequence number (0-based, never reused).
    pub seq: u64,
    /// The payload.
    pub record: Record,
}

/// A bounded FIFO journal of [`JournalEvent`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<JournalEvent>,
}

impl Journal {
    /// Default capacity: generous for any repro run (a full evaluation
    /// matrix journals well under a thousand records).
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A journal holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Journal {
            capacity,
            next_seq: 0,
            events: VecDeque::new(),
        }
    }

    /// Appends a record at simulated time `time`, evicting the oldest
    /// event if the buffer is full. Returns the assigned sequence number.
    pub fn push(&mut self, time: f64, record: Record) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(JournalEvent { time, seq, record });
        seq
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialises the retained events as JSONL, one event per line,
    /// oldest first, with a trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&serde_json::to_string(ev).expect("journal events serialise"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL string produced by [`Journal::to_jsonl`] back into
    /// events (the schema-stability check CI runs on emitted traces).
    ///
    /// # Errors
    ///
    /// Returns the first line that fails to parse, with its 1-based line
    /// number.
    pub fn parse_jsonl(text: &str) -> Result<Vec<JournalEvent>, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev: JournalEvent =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
            events.push(ev);
        }
        Ok(events)
    }
}

impl Default for Journal {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_drops_oldest_first_and_keeps_sequence() {
        let mut j = Journal::with_capacity(3);
        for i in 0..5 {
            j.push(i as f64, Record::Note(format!("n{i}")));
        }
        assert_eq!(j.len(), 3);
        let seqs: Vec<u64> = j.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let notes: Vec<&Record> = j.events.iter().map(|e| &e.record).collect();
        assert_eq!(notes[0], &Record::Note("n2".into()));
        assert_eq!(notes[2], &Record::Note("n4".into()));
    }

    #[test]
    fn dropped_counts_evictions_exactly() {
        let mut j = Journal::with_capacity(4);
        for i in 0..4 {
            j.push(i as f64, Record::Note(format!("n{i}")));
        }
        // Full but nothing evicted yet.
        assert_eq!(j.events.front().unwrap().seq, 0);
        for i in 4..11 {
            j.push(i as f64, Record::Note(format!("n{i}")));
        }
        // 11 pushed into a ring of 4: the first 7 are gone, and the
        // sequence numbers expose the truncation point.
        assert_eq!(j.len(), 4);
        assert_eq!(j.events.front().unwrap().seq, 7);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut j = Journal::default();
        j.push(10.0, Record::Note("hello".into()));
        j.push(20.0, Record::Note("world".into()));
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = Journal::parse_jsonl(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].time, 10.0);
        assert_eq!(back[1].seq, 1);
        assert_eq!(back[1].record, Record::Note("world".into()));
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let err = Journal::parse_jsonl("not json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
