//! `FanInLedger` against the six-set ledger it replaced, kept here as the
//! reference model: random operation sequences must produce the same
//! return values and the same observable state after every step.

use netagg_core::ledger::{ChunkDisposition, FanInLedger, RepointOutcome};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The ledger as it was through PR 18: one collection per property.
#[derive(Default)]
struct SixSets {
    owed: HashSet<u8>,
    ended: HashSet<u8>,
    seen: HashSet<u8>,
    ignored: HashSet<u8>,
    last_seq: HashMap<u8, u32>,
    repointed: HashSet<u8>,
}

impl SixSets {
    fn set_requirement(&mut self, owed: &[u8]) {
        let kept = owed.iter().filter(|k| !self.ignored.contains(k));
        self.owed = kept.copied().collect();
    }

    fn accept_chunk(&mut self, key: u8, seq: u32) -> ChunkDisposition {
        if self.ignored.contains(&key) {
            return ChunkDisposition::Ignored;
        }
        if self.last_seq.get(&key).is_some_and(|&prev| seq <= prev) {
            return ChunkDisposition::Duplicate;
        }
        // A skipped number is a lost chunk; the first chunk never is one.
        let gap = self
            .last_seq
            .insert(key, seq)
            .is_some_and(|prev| seq > prev + 1);
        let first = self.seen.insert(key);
        if gap {
            return ChunkDisposition::Gap;
        }
        ChunkDisposition::Fresh { first }
    }

    fn note_end(&mut self, key: u8) -> bool {
        !self.ignored.contains(&key) && self.ended.insert(key)
    }

    fn repoint(&mut self, box_key: u8, behind: &[u8]) -> RepointOutcome {
        if !self.repointed.insert(box_key) {
            return RepointOutcome::AlreadyRepointed;
        }
        if self.ended.contains(&box_key) {
            for b in behind {
                if !self.ended.contains(b) {
                    self.owed.remove(b);
                    self.ignored.insert(*b);
                }
            }
            return RepointOutcome::DuplicateSuppressed;
        }
        if !self.owed.remove(&box_key) {
            return RepointOutcome::NotOwed;
        }
        self.ignored.insert(box_key);
        let mut added = 0;
        for b in behind {
            if !self.ignored.contains(b) && self.owed.insert(*b) {
                added += 1;
            }
        }
        RepointOutcome::Moved { added }
    }

    fn is_complete(&self) -> bool {
        !self.owed.is_empty() && self.owed.iter().all(|k| self.ended.contains(k))
    }

    fn outstanding(&self) -> usize {
        self.owed.iter().filter(|k| !self.ended.contains(k)).count()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Chunk(u8, u32),
    End(u8),
    Repoint(u8, Vec<u8>),
    Require(Vec<u8>),
}

/// Six keys; the ledgers start owing the first three, so the rest arrive
/// unknown. Four sequence numbers, 0 included, so repeats and reorderings
/// are the common case.
const KEYS: std::ops::Range<u8> = 0..6;

fn op() -> impl Strategy<Value = Op> {
    let keys = || proptest::collection::vec(KEYS, 0..5);
    prop_oneof![
        (KEYS, 0u32..4).prop_map(|(k, seq)| Op::Chunk(k, seq)),
        (KEYS, 0u32..4).prop_map(|(k, seq)| Op::Chunk(k, seq)),
        KEYS.prop_map(Op::End),
        (KEYS, keys()).prop_map(|(k, behind)| Op::Repoint(k, behind)),
        keys().prop_map(Op::Require),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn one_table_ledger_matches_the_six_set_model(ops in proptest::collection::vec(op(), 0..40)) {
        let mut real = FanInLedger::new(0u8..3);
        let mut model = SixSets { owed: (0u8..3).collect(), ..SixSets::default() };
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Chunk(k, seq) => {
                    let (got, want) = (real.accept_chunk(*k, *seq), model.accept_chunk(*k, *seq));
                    prop_assert_eq!(got, want, "step {step} of {ops:?}");
                }
                Op::End(k) => {
                    prop_assert_eq!(real.note_end(*k), model.note_end(*k), "step {step} of {ops:?}");
                }
                Op::Repoint(k, behind) => {
                    let (got, want) = (real.repoint(*k, behind), model.repoint(*k, behind));
                    prop_assert_eq!(got, want, "step {step} of {ops:?}");
                }
                Op::Require(owed) => {
                    real.set_requirement(owed.iter().copied());
                    model.set_requirement(owed);
                }
            }
            let counts = (real.is_complete(), real.outstanding(), real.owed_len());
            let expected = (model.is_complete(), model.outstanding(), model.owed.len());
            prop_assert_eq!(counts, expected, "complete/outstanding/owed, step {step} of {ops:?}");
            for k in KEYS {
                let flags = (real.is_owed(&k), real.is_ignored(&k), real.has_seen(&k));
                let sets = (model.owed.contains(&k), model.ignored.contains(&k), model.seen.contains(&k));
                prop_assert_eq!(flags, sets, "owed/ignored/seen of {k}, step {step} of {ops:?}");
            }
        }
    }
}
