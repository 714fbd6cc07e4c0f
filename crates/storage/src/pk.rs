//! The primary-key index: a short stack of immutable, `Arc`-shared
//! layers over the sealed chunks, plus a mutable map over the unsealed
//! tails.
//!
//! **Newest wins by insertion serial.** Rows distribute strictly
//! round-robin, so the row at partition-local offset `r` of partition
//! `p` (sealed chunks first, then the tail) was globally the
//! `r · P + p`-th insert. That serial totally orders duplicate keys
//! without storing anything extra, and both the layers and the tail
//! map store it in place of a position: `p = serial % P`,
//! `r = serial / P`. A tail row of one partition can be *older* than a
//! just-sealed row of another, and layers are not ordered by serial
//! either (partition 1 seals after partition 0 although their chunks
//! interleave), so a lookup takes the maximum serial over the tail map
//! and every layer rather than the first hit.
//!
//! **Layers.** Each seal adds one layer covering the new chunk. A layer
//! no other table generation holds is merged in place; shared layers
//! merge geometrically, so every layer covers at least twice the chunks
//! of the one above it. With `C` sealed chunks a probe touches at most
//! `⌊log₂ C⌋ + 1` layers, a key is re-inserted O(log n) times
//! amortised, and a table clone shares every layer. A table built
//! without clones (bulk load, recovery, the DML rebuild) keeps exactly
//! one layer.
//!
//! **Tail.** Every insert records `key → serial` of its row, which
//! resolves to a partition-local offset exactly as a sealed entry does:
//! a tail is a chunk still growing, so a lookup gathers only the row it
//! hits from either region. When a partition seals, entries pointing
//! into it are dropped: the layer now holds those rows, and any older
//! duplicate still in another tail loses to them by serial.
//!
//! **Hash.** Keys are `i64`s arriving from clients, so the maps use
//! [`KeyState`], a keyed folded-multiply hash, instead of SipHash: one
//! multiply per key, with a per-process random key so inputs that
//! collide cannot be computed in advance.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

use crate::segment::SEGMENT_ROWS;

/// `HashMap` keyed by primary-key values.
type KeyMap<V> = HashMap<i64, V, KeyState>;

/// Global insertion serial of the row at partition-local offset
/// `offset` of partition `p` in a `pcount`-partition table.
pub(crate) fn serial(p: usize, offset: usize, pcount: usize) -> u64 {
    offset as u64 * pcount as u64 + p as u64
}

/// `(partition, partition-local offset)` of a serial.
pub(crate) fn position(serial: u64, pcount: usize) -> (usize, usize) {
    let pcount = pcount as u64;
    ((serial % pcount) as usize, (serial / pcount) as usize)
}

/// Keyed hash for `i64` keys: each word is folded into the state with a
/// 64 × 64 → 128-bit multiply whose halves are XORed, after a rotate.
/// The initial state is the key, drawn once per process from
/// [`RandomState`]. The multiplier is a fixed odd constant (the first
/// fraction bits of π): some random multipliers make the two halves
/// cancel for runs of consecutive keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyState {
    init: u64,
}

const MUL: u64 = 0x243f_6a88_85a3_08d3;

impl KeyState {
    /// The process-wide key, drawn once.
    fn process() -> Self {
        static KEY: OnceLock<KeyState> = OnceLock::new();
        *KEY.get_or_init(|| KeyState {
            init: RandomState::new().hash_one(0u64),
        })
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { state: self.init }
    }
}

/// The [`Hasher`] of [`KeyState`].
pub(crate) struct KeyHasher {
    state: u64,
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.state.rotate_left(23) ^ x) * u128::from(MUL);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

fn key_map<V>(capacity: usize) -> KeyMap<V> {
    HashMap::with_capacity_and_hasher(capacity, KeyState::process())
}

/// One immutable layer: the newest serial of every non-NULL key in the
/// chunks it covers. Not `Clone`: a shared layer is only ever read.
#[derive(Debug)]
struct PkLayer {
    map: KeyMap<u64>,
    /// Number of sealed chunks covered (the merge rule's size).
    chunks: usize,
}

impl PkLayer {
    /// A layer sized for one chunk.
    fn empty() -> Self {
        PkLayer {
            map: key_map(SEGMENT_ROWS),
            chunks: 0,
        }
    }

    fn insert(&mut self, key: i64, serial: u64) {
        let newest = self.map.entry(key).or_insert(serial);
        *newest = (*newest).max(serial);
    }

    /// Folds `other`'s entries in (newest serial wins).
    fn absorb(&mut self, other: &PkLayer) {
        self.map.reserve(other.map.len());
        for (&key, &serial) in &other.map {
            self.insert(key, serial);
        }
        self.chunks += other.chunks;
    }

    /// One layer holding both; reuses whichever allocation it owns.
    fn merge(older: Arc<PkLayer>, mut newer: PkLayer) -> PkLayer {
        match Arc::try_unwrap(older) {
            Ok(mut older) if older.map.len() >= newer.map.len() => {
                older.absorb(&newer);
                older
            }
            Ok(older) => {
                newer.absorb(&older);
                newer
            }
            Err(shared) => {
                newer.absorb(&shared);
                newer
            }
        }
    }
}

/// Primary-key index of a table whose first column is Int-typed. NULL
/// keys are never indexed.
#[derive(Debug, Clone)]
pub(crate) struct PkIndex {
    /// Index of the key column (always 0 today).
    col: usize,
    /// Sealed layers, oldest (largest) first.
    layers: Vec<Arc<PkLayer>>,
    /// Serial of the newest unsealed row per key, while it is the
    /// newest overall.
    tail: KeyMap<u64>,
}

impl PkIndex {
    pub fn new(col: usize) -> Self {
        PkIndex {
            col,
            layers: Vec::new(),
            tail: key_map(0),
        }
    }

    pub fn col(&self) -> usize {
        self.col
    }

    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Sum of the layers' entry counts.
    pub fn layer_entries(&self) -> usize {
        self.layers.iter().map(|l| l.map.len()).sum()
    }

    /// Records a row just appended to a tail. Inserts arrive in serial
    /// order, so the new row is the newest holder of its key.
    pub fn insert_tail(&mut self, key: i64, serial: u64) {
        self.tail.insert(key, serial);
    }

    /// Indexes a chunk partition `p` just sealed from its tail: `keys`
    /// are the key column of its rows in order, the first at
    /// partition-local offset `base`.
    pub fn seal(
        &mut self,
        p: usize,
        pcount: usize,
        base: usize,
        keys: impl IntoIterator<Item = Option<i64>>,
    ) {
        // The newest layer takes the chunk in place when no other table
        // generation holds it; otherwise the chunk starts a layer.
        let mut layer = match self.layers.pop().map(Arc::try_unwrap) {
            Some(Ok(unshared)) => unshared,
            Some(Err(shared)) => {
                self.layers.push(shared);
                PkLayer::empty()
            }
            None => PkLayer::empty(),
        };
        for (off, key) in keys.into_iter().enumerate() {
            let Some(key) = key else { continue };
            let serial = serial(p, base + off, pcount);
            if let Entry::Occupied(e) = self.tail.entry(key) {
                if position(*e.get(), pcount).0 == p {
                    e.remove();
                }
            }
            layer.insert(key, serial);
        }
        layer.chunks += 1;
        // Merge downwards until the layer below covers at least twice
        // as many chunks and is shared (an unshared one merges in
        // place at no copy).
        while let Some(top) = self.layers.last_mut() {
            let unshared = Arc::get_mut(top).is_some();
            if !unshared && top.chunks >= 2 * layer.chunks {
                break;
            }
            let top = self.layers.pop().expect("just inspected");
            layer = PkLayer::merge(top, layer);
        }
        self.layers.push(Arc::new(layer));
    }

    /// The serial of the newest row holding `key`, if any.
    pub fn get(&self, key: i64) -> Option<u64> {
        let tail = self.tail.get(&key).copied();
        self.layers
            .iter()
            .filter_map(|layer| layer.map.get(&key).copied())
            .chain(tail)
            .max()
    }

    /// Whether `self` and `older` hold the same allocation for layer `i`.
    #[cfg(test)]
    pub fn shares_layer(&self, older: &PkIndex, i: usize) -> bool {
        Arc::ptr_eq(&self.layers[i], &older.layers[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_spreads_sequential_keys() {
        // Consecutive keys must not pile into few buckets: both the low
        // bits (bucket index) and the top seven (control byte) vary. A
        // random function fills about 2,590 of 4,096 low-bit values;
        // degenerate multipliers fill under 1,000.
        let state = KeyState::process();
        for start in [0i64, -2048, 1 << 40] {
            let keys = start..start + 4096;
            let low: std::collections::HashSet<u64> =
                keys.clone().map(|k| state.hash_one(k) & 4095).collect();
            let top: std::collections::HashSet<u64> =
                keys.map(|k| state.hash_one(k) >> 57).collect();
            assert!(low.len() > 2000, "{} distinct low 12-bit values", low.len());
            assert!(top.len() > 120, "{} distinct control bytes", top.len());
        }
    }

    #[test]
    fn layers_stay_logarithmic_and_newest_wins() {
        let pcount = 2;
        let mut pk = PkIndex::new(0);
        let mut generations = Vec::new();
        let mut fresh = PkIndex::new(0);
        for c in 0..40usize {
            // Keep every generation alive so no layer is unshared.
            generations.push(pk.clone());
            let p = c % pcount;
            let base = (c / pcount) * SEGMENT_ROWS;
            // Key -7 is rewritten by every chunk; the rest are unique.
            let keys = || {
                (0..SEGMENT_ROWS).map(move |i| {
                    Some(if i == 0 {
                        -7
                    } else {
                        (c * SEGMENT_ROWS + i) as i64
                    })
                })
            };
            pk.seal(p, pcount, base, keys());
            fresh.seal(p, pcount, base, keys());
            let chunks = c + 1;
            assert!(pk.layer_count() <= chunks.ilog2() as usize + 1);
            assert_eq!(pk.get(-7), Some(serial(p, base, pcount)));
        }
        assert!(pk.layer_count() > 1);
        // Never cloned, the same seals stay one layer.
        assert_eq!(fresh.layer_count(), 1);
        assert_eq!(fresh.layer_entries(), 40 * (SEGMENT_ROWS - 1) + 1);
    }
}
