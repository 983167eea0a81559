//! A deterministic, totally ordered queue of timestamped events.
//!
//! No engine in the workspace owns one: `jubench-sched` and
//! `jubench-simmpi` still advance virtual time from event to event —
//! O(instants), never O(idle ticks) — but read the next instant off the
//! state they already keep. The crate remains as a leaf, re-exported at
//! `jubench::events`, because the repo benchmark times its push/pop.
//!
//! A queue like this is only worth having if it is *deterministic*: two
//! consumers (or one at different pool widths) must pop the exact same
//! events in the exact same order, or byte-identical artifacts — the
//! suite's reproducibility contract since PR 1 — are lost.
//!
//! # The total-order contract
//!
//! Every event carries an [`EventKey`] and keys compare as the tuple
//!
//! ```text
//! (time, class, rank, seq)
//! ```
//!
//! - `time` — virtual seconds, compared by [`f64::total_cmp`]. Only
//!   finite times are admitted ([`EventQueue::push`] asserts this), so
//!   total_cmp agrees with the usual `<` everywhere it is used.
//! - `class` — a small integer naming the event's kind, owned by the
//!   consumer and numbered in the order same-instant events must be
//!   handled.
//! - `rank` — the entity the event addresses (an MPI rank, a node
//!   index, a job id). Orders same-class collisions.
//! - `seq` — a monotone sequence number breaking whatever remains.
//!   [`EventQueue::push`] stamps one automatically;
//!   [`EventQueue::push_with_seq`] lets a caller impose its own
//!   numbering instead.
//!
//! Because the key is a total order over distinct events, pop order is
//! independent of push order — the property the proptests in
//! `tests/proptests.rs` pin.
//!
//! # Stale events
//!
//! Queues here are *monotone*: there is no `remove`. A consumer whose
//! state invalidates a scheduled event leaves the entry in place and
//! filters it at pop time — the classic lazy-deletion discipline.
//! [`EventQueue::peek`] exists so validity can be judged before
//! consuming.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The total-order key of one timestamped event: compares as
/// `(time, class, rank, seq)` with `time` under [`f64::total_cmp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventKey {
    /// Virtual time of the event, in seconds. Always finite.
    pub time: f64,
    /// Domain-defined kind, numbered in same-instant handling order.
    pub class: u8,
    /// Entity the event addresses: MPI rank, node index, or job id.
    pub rank: u32,
    /// Final tie-break; unique per queue unless the caller reuses one
    /// via [`EventQueue::push_with_seq`].
    pub seq: u64,
}

impl Eq for EventKey {}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.class.cmp(&other.class))
            .then(self.rank.cmp(&other.rank))
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One scheduled event: a key plus whatever the engine needs to act on
/// it (a job index, a fault record, nothing at all).
#[derive(Debug, Clone)]
pub struct Event<P> {
    pub key: EventKey,
    pub payload: P,
}

/// Heap entries order by key alone — payloads never influence pop
/// order, so `P` needs no `Ord`.
struct Entry<P>(Event<P>);

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}
impl<P> Eq for Entry<P> {}
impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-first pops.
        other.0.key.cmp(&self.0.key)
    }
}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-queue of timestamped events, popped in [`EventKey`] order.
///
/// Distinct keys pop in strictly increasing order regardless of push
/// order. Pushing two events with a fully identical key (possible only
/// through [`Self::push_with_seq`]) is a contract violation the queue
/// does not detect; their relative pop order is unspecified.
pub struct EventQueue<P> {
    heap: BinaryHeap<Entry<P>>,
    next_seq: u64,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
        }
    }

    /// Schedule an event, stamping the next queue-local sequence
    /// number. Returns the full key under which it will pop.
    ///
    /// Panics on a non-finite time: an infinite or NaN timestamp is
    /// always an engine bug (the "no more events" condition is an
    /// empty queue, never a sentinel time).
    pub fn push(&mut self, time: f64, class: u8, rank: u32, payload: P) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, class, rank, seq, payload)
    }

    /// Schedule an event under a caller-chosen sequence number, so the
    /// full key — and with it the pop order — is fixed by the caller
    /// rather than by push order.
    pub fn push_with_seq(
        &mut self,
        time: f64,
        class: u8,
        rank: u32,
        seq: u64,
        payload: P,
    ) -> EventKey {
        assert!(
            time.is_finite(),
            "event time must be finite, got {time} (class={class}, rank={rank})"
        );
        self.next_seq = self.next_seq.max(seq + 1);
        let key = EventKey {
            time,
            class,
            rank,
            seq,
        };
        self.heap.push(Entry(Event { key, payload }));
        key
    }

    /// The key and payload that [`Self::pop`] would return, without
    /// consuming them — the hook for stale-event filtering.
    pub fn peek(&self) -> Option<(&EventKey, &P)> {
        self.heap.peek().map(|e| (&e.0.key, &e.0.payload))
    }

    pub fn pop(&mut self) -> Option<Event<P>> {
        self.heap.pop().map(|e| e.0)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<P> std::fmt::Debug for EventQueue<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time: f64, class: u8, rank: u32, seq: u64) -> EventKey {
        EventKey {
            time,
            class,
            rank,
            seq,
        }
    }

    #[test]
    fn keys_compare_lexicographically() {
        let base = key(1.0, 1, 1, 1);
        assert!(key(0.5, 9, 9, 9) < base, "time dominates");
        assert!(key(1.0, 0, 9, 9) < base, "class next");
        assert!(key(1.0, 1, 0, 9) < base, "rank next");
        assert!(key(1.0, 1, 1, 0) < base, "seq last");
        assert_eq!(base.cmp(&key(1.0, 1, 1, 1)), Ordering::Equal);
    }

    #[test]
    fn negative_zero_orders_below_positive_zero() {
        // total_cmp semantics: -0.0 < +0.0. Engines never rely on the
        // distinction, but the order must at least be stable.
        assert!(key(-0.0, 0, 0, 0) < key(0.0, 0, 0, 0));
    }

    #[test]
    fn pop_order_is_key_order_not_push_order() {
        let mut q = EventQueue::new();
        q.push_with_seq(2.0, 0, 0, 3, "late");
        q.push_with_seq(1.0, 1, 0, 2, "mid-class1");
        q.push_with_seq(1.0, 0, 7, 1, "mid-rank7");
        q.push_with_seq(1.0, 0, 2, 0, "mid-rank2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, ["mid-rank2", "mid-rank7", "mid-class1", "late"]);
    }

    #[test]
    fn auto_seq_preserves_insertion_order_at_equal_keys() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.push(5.0, 0, 0, label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn push_with_seq_keeps_auto_seq_monotone() {
        let mut q = EventQueue::new();
        q.push_with_seq(1.0, 0, 0, 10, ());
        let k = q.push(1.0, 0, 0, ());
        assert!(k.seq > 10, "auto seq advanced past the explicit one");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_time_is_rejected() {
        EventQueue::new().push(f64::INFINITY, 0, 0, ());
    }
}
