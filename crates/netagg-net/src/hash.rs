//! [`Keyed`]: the hasher of every map a frame or a request touches. It
//! folds each integer into its state with one 64×64→128-bit multiply,
//! from a seed drawn once per process: a peer choosing request or source
//! ids cannot aim them at one bucket without it (DESIGN.md §9).

use std::{collections::hash_map::RandomState, hash::BuildHasher, hash::Hasher, sync::OnceLock};

/// A `HashMap` under [`Keyed`].
pub type Map<K, V> = std::collections::HashMap<K, V, Keyed>;
/// A `HashSet` under [`Keyed`].
pub type Set<K> = std::collections::HashSet<K, Keyed>;

/// The odd multiplier every word is folded with (digits of π).
const FOLD: u64 = 0x243f_6a88_85a3_08d3;

/// The folded state: [`Default`] is the process seed, [`BuildHasher`] copies it.
#[derive(Debug, Clone, Copy)]
pub struct Keyed(u64);

impl Default for Keyed {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Keyed(*SEED.get_or_init(|| RandomState::new().hash_one(FOLD)))
    }
}

impl BuildHasher for Keyed {
    type Hasher = Keyed;
    fn build_hasher(&self) -> Keyed {
        *self
    }
}

macro_rules! widen {
    ($($write:ident: $t:ty),*) => {$(fn $write(&mut self, x: $t) { self.write_u64(x as u64) })*};
}

impl Hasher for Keyed {
    /// Fold: multiply `state ^ x` by `FOLD` and XOR the product's halves.
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(FOLD);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    widen!(write_u8: u8, write_u16: u16, write_u32: u32, write_usize: usize);
    /// Word by word, then the length: a trailing zero is not padding.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_usize(bytes.len());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
