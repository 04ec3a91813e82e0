//! Exact fan-in ledgers for failure-tolerant aggregation accounting.
//!
//! The seed implementation tracked "how many inputs are still expected"
//! as an integer and patched it with `expected_extra` deltas whenever a
//! box failed or was bypassed. Counter arithmetic is inherently racy
//! under re-pointing: a worker replay that arrives *before* the
//! re-point command can satisfy the old count (one replayed `last`
//! chunk looked like the single expected box input and completed the
//! request with a partial sum). A [`FanInLedger`] instead tracks the
//! *set* of logical contributors still owed. A `Worker(w)` end can
//! never satisfy a `Box(b)` entry, so completion is immune to the
//! ordering of redirects, replays and failure notifications.
//!
//! Invariants (see DESIGN.md §8):
//!
//! * `owed` and `ignored` are disjoint; a key moves from `owed` to
//!   `ignored` exactly once (via [`FanInLedger::repoint`]).
//! * A request is complete iff `owed` is non-empty and every owed key
//!   has ended (`owed ⊆ ended`).
//! * `repoint` is idempotent: repeated detector firings, straggler
//!   redirects racing the failure detector, and replayed duplicates
//!   all collapse to a single ledger transition.
//! * If a box already delivered its combined partial (its key is in
//!   `ended`) and *then* fails, its behind-sources are ignored rather
//!   than owed — their replays are duplicates of data the box already
//!   folded in (duplicate suppression).

use netagg_net::hash::Map;
use std::hash::Hash;

/// What [`FanInLedger::accept_chunk`] decided about an incoming chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkDisposition {
    /// New data from this contributor; `first` is true on the first
    /// chunk ever accepted from it.
    Fresh {
        /// True if this is the first chunk accepted from the source.
        first: bool,
    },
    /// New data, but past a gap: sequence numbers between the last
    /// accepted one and this never arrived — chunks lost on the way.
    /// Accepted like `Fresh`, and reported (DESIGN.md §8).
    Gap,
    /// Sequence number at or below the last accepted one — a replayed
    /// duplicate that must not be aggregated again.
    Duplicate,
    /// The contributor has been moved to the ignored set (its subtree
    /// was re-pointed away, or its parent box already delivered a
    /// combined partial covering it).
    Ignored,
}

/// Result of a [`FanInLedger::repoint`] transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepointOutcome {
    /// The box key was owed; it is now ignored and `added` of its
    /// behind-sources became directly owed.
    Moved {
        /// Number of behind-sources newly inserted into the owed set.
        added: usize,
    },
    /// The box had already delivered its combined partial before the
    /// failure was observed; its behind-sources were ignored so their
    /// replays are suppressed as duplicates.
    DuplicateSuppressed,
    /// This box key was already re-pointed — repeated detector firing
    /// or a straggler redirect racing the failure detector. No-op.
    AlreadyRepointed,
    /// The box key was not in the owed set (for example a subset
    /// request this box does not participate in). Recorded as
    /// re-pointed so later firings stay no-ops.
    NotOwed,
}

/// What the ledger knows about one contributor (unknown = all clear).
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    owed: bool,
    ended: bool,
    seen: bool,
    ignored: bool,
    repointed: bool,
    /// Highest sequence number accepted (0 is a legal one).
    last_seq: Option<u32>,
}

/// Set-based accounting of which logical contributors a fan-in point
/// (master shim or agg box) is still owed for one in-flight request: one
/// table from contributor to its flags, sized once from the owed set, and
/// running counts, so a chunk or an end is one lookup and completion a
/// comparison.
#[derive(Debug, Clone, Default)]
pub struct FanInLedger<K: Eq + Hash + Copy> {
    entries: Map<K, Entry>,
    /// Entries with `owed`.
    owed: usize,
    /// Entries with `owed && !ended`.
    outstanding: usize,
}

impl<K: Eq + Hash + Copy> FanInLedger<K> {
    /// Create a ledger owing exactly the given contributors.
    pub fn new(owed: impl IntoIterator<Item = K>) -> Self {
        let owed = owed.into_iter();
        Self::with_capacity(owed.size_hint().0, owed)
    }

    /// Create a ledger owing exactly the given contributors, its table
    /// sized once for `n` of them.
    pub(crate) fn with_capacity(n: usize, owed: impl IntoIterator<Item = K>) -> Self {
        let mut ledger = FanInLedger {
            entries: Map::with_capacity_and_hasher(n, Default::default()),
            owed: 0,
            outstanding: 0,
        };
        for k in owed {
            ledger.owe(k);
        }
        ledger
    }

    /// Make `key` owed unless ignored or owed already; whether it became so.
    fn owe(&mut self, key: K) -> bool {
        let e = self.entries.entry(key).or_default();
        let newly = !e.ignored && !e.owed;
        if newly {
            e.owed = true;
            self.owed += 1;
            self.outstanding += usize::from(!e.ended);
        }
        newly
    }

    /// Replace the owed set (subset requests deliver the participating
    /// set after the ledger was provisioned from the full route).
    /// Keys already ignored by an earlier re-point stay ignored.
    pub fn set_requirement(&mut self, owed: impl IntoIterator<Item = K>) {
        self.entries.values_mut().for_each(|e| e.owed = false);
        (self.owed, self.outstanding) = (0, 0);
        for k in owed {
            self.owe(k);
        }
    }

    /// Record an incoming chunk from `key` with per-source sequence
    /// number `seq` and classify it. The first chunk from a contributor is
    /// never a gap: a source's retained window can start above 0.
    pub fn accept_chunk(&mut self, key: K, seq: u32) -> ChunkDisposition {
        let e = self.entries.entry(key).or_default();
        if e.ignored {
            return ChunkDisposition::Ignored;
        }
        if e.last_seq.is_some_and(|prev| seq <= prev) {
            return ChunkDisposition::Duplicate;
        }
        let gap = e.last_seq.replace(seq).is_some_and(|prev| seq - prev > 1);
        let first = !std::mem::replace(&mut e.seen, true);
        if gap {
            return ChunkDisposition::Gap;
        }
        ChunkDisposition::Fresh { first }
    }

    /// Record that `key` delivered its final chunk. Returns false if
    /// the key is ignored or had already ended (nothing changed).
    pub fn note_end(&mut self, key: K) -> bool {
        let e = self.entries.entry(key).or_default();
        if e.ignored || e.ended {
            return false;
        }
        e.ended = true;
        self.outstanding -= usize::from(e.owed);
        true
    }

    /// Move a failed (or bypassed) box's obligations to its
    /// behind-sources. Idempotent; see [`RepointOutcome`].
    pub fn repoint(&mut self, box_key: K, behind: &[K]) -> RepointOutcome {
        let e = self.entries.entry(box_key).or_default();
        if std::mem::replace(&mut e.repointed, true) {
            return RepointOutcome::AlreadyRepointed;
        }
        if e.ended {
            // The box's combined partial is already in; replays from
            // its behind-sources would double-count.
            for b in behind {
                let e = self.entries.entry(*b).or_default();
                if !e.ended {
                    e.ignored = true;
                    if std::mem::take(&mut e.owed) {
                        self.owed -= 1;
                        self.outstanding -= 1;
                    }
                }
            }
            return RepointOutcome::DuplicateSuppressed;
        }
        if !std::mem::take(&mut e.owed) {
            return RepointOutcome::NotOwed;
        }
        e.ignored = true;
        self.owed -= 1;
        self.outstanding -= 1;
        let added = behind.iter().filter(|b| self.owe(**b)).count();
        RepointOutcome::Moved { added }
    }

    /// True iff the owed set is non-empty and every owed contributor
    /// has ended.
    pub fn is_complete(&self) -> bool {
        self.owed > 0 && self.outstanding == 0
    }

    /// Owed contributors that have not yet ended.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Number of contributors currently owed.
    pub fn owed_len(&self) -> usize {
        self.owed
    }

    /// Whether `key` is currently owed.
    pub fn is_owed(&self, key: &K) -> bool {
        self.entries.get(key).is_some_and(|e| e.owed)
    }

    /// Whether chunks from `key` are being discarded.
    pub fn is_ignored(&self, key: &K) -> bool {
        self.entries.get(key).is_some_and(|e| e.ignored)
    }

    /// Whether any chunk has been accepted from `key`.
    pub fn has_seen(&self, key: &K) -> bool {
        self.entries.get(key).is_some_and(|e| e.seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_single_box_completes() {
        let mut l = FanInLedger::new([1u32]);
        assert_eq!(
            l.accept_chunk(1, 1),
            ChunkDisposition::Fresh { first: true }
        );
        assert!(!l.is_complete());
        assert!(l.note_end(1));
        assert!(l.is_complete());
    }

    #[test]
    fn replay_before_repoint_does_not_complete() {
        // Master owes one box; a worker replay lands first. The old
        // counter would have completed here; the ledger must not.
        let mut l = FanInLedger::new([100u32]);
        assert_eq!(
            l.accept_chunk(1, 1),
            ChunkDisposition::Fresh { first: true }
        );
        l.note_end(1);
        assert!(!l.is_complete(), "worker end must not satisfy a box entry");
        // All three behind-sources become owed; worker 1 already ended,
        // so its new entry is satisfied immediately.
        assert_eq!(
            l.repoint(100, &[1, 2, 3]),
            RepointOutcome::Moved { added: 3 }
        );
        assert!(!l.is_complete());
        l.note_end(2);
        l.note_end(3);
        assert!(l.is_complete());
    }

    #[test]
    fn repoint_is_idempotent() {
        let mut l = FanInLedger::new([100u32]);
        assert_eq!(l.repoint(100, &[1, 2]), RepointOutcome::Moved { added: 2 });
        assert_eq!(l.repoint(100, &[1, 2]), RepointOutcome::AlreadyRepointed);
        assert_eq!(l.owed_len(), 2);
        l.note_end(1);
        l.note_end(2);
        assert!(l.is_complete());
    }

    #[test]
    fn box_that_ended_then_failed_suppresses_replays() {
        let mut l = FanInLedger::new([100u32]);
        l.accept_chunk(100, 1);
        l.note_end(100);
        assert!(l.is_complete());
        assert_eq!(l.repoint(100, &[1, 2]), RepointOutcome::DuplicateSuppressed);
        assert!(l.is_complete());
        assert_eq!(l.accept_chunk(1, 1), ChunkDisposition::Ignored);
        assert_eq!(l.accept_chunk(2, 1), ChunkDisposition::Ignored);
    }

    #[test]
    fn seq_duplicates_are_dropped() {
        let mut l = FanInLedger::new([1u32]);
        assert_eq!(
            l.accept_chunk(1, 1),
            ChunkDisposition::Fresh { first: true }
        );
        assert_eq!(l.accept_chunk(1, 1), ChunkDisposition::Duplicate);
        assert_eq!(
            l.accept_chunk(1, 2),
            ChunkDisposition::Fresh { first: false }
        );
    }

    #[test]
    fn chained_repoint_moves_grandchildren() {
        // Root box 100 fails -> owes leaf box 200 + worker 1; then
        // leaf box 200 fails -> owes workers 2, 3.
        let mut l = FanInLedger::new([100u32]);
        assert_eq!(
            l.repoint(100, &[200, 1]),
            RepointOutcome::Moved { added: 2 }
        );
        assert_eq!(l.repoint(200, &[2, 3]), RepointOutcome::Moved { added: 2 });
        l.note_end(1);
        l.note_end(2);
        assert!(!l.is_complete());
        l.note_end(3);
        assert!(l.is_complete());
    }

    #[test]
    fn repoint_of_unowed_box_is_recorded_noop() {
        let mut l = FanInLedger::new([1u32]);
        assert_eq!(l.repoint(100, &[2]), RepointOutcome::NotOwed);
        assert_eq!(l.repoint(100, &[2]), RepointOutcome::AlreadyRepointed);
        assert_eq!(l.owed_len(), 1);
    }

    #[test]
    fn set_requirement_respects_ignored() {
        let mut l = FanInLedger::new([100u32]);
        l.repoint(100, &[1, 2]);
        l.set_requirement([100, 1]);
        assert!(!l.is_owed(&100), "ignored keys must not be re-owed");
        assert!(l.is_owed(&1));
        l.note_end(1);
        assert!(l.is_complete());
    }

    #[test]
    fn empty_owed_is_not_complete() {
        let l: FanInLedger<u32> = FanInLedger::new([]);
        assert!(!l.is_complete());
    }
}
