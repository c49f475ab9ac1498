//! The AS-pair memo behind [`crate::NetModel::as_metrics_idx`].
//!
//! A direct-route answer is a pure function of the AS pair, the seed and
//! the AS conditions, so the model stores each ordered pair's answer the
//! first time its route is walked. Each AS gets a dense slot on first
//! touch, and the answers live in square tiles of slot pairs, each
//! allocated on first use. Memory grows with the pairs actually asked,
//! not with the square of the graph.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Side of a square tile of entries, in slots: 16 gives 4 KiB tiles.
/// Peak RSS (MiB, median of 3 to 5 perfbench runs, glibc malloc on
/// x86-64 Linux) with sides 8 / 16 / 32:
///
/// | run | 8 | 16 | 32 |
/// |---|---|---|---|
/// | `latent_compare --seed 7` | 29.5 | 30.3 | 30.3 |
/// | `latent_compare --seed 3` | 30.0 | 29.7 | 29.9 |
/// | `latent_compare --seed 11` | 30.3 | 29.7 | 29.8 |
/// | `soak --seed 7` | 18.9 | 19.0 | 19.0 |
/// | `soak --seed 3` | 18.8 | 19.1 | 19.1 |
///
/// No side is lowest at every seed, so the gaps follow allocation order
/// rather than tile size, and 16 stays.
const TILE: usize = 16;
/// The slot of an AS no query has touched yet.
const NO_SLOT: u32 = u32::MAX;
/// RTT bits of an entry not filled yet, and of an unroutable pair. Both
/// are NaN patterns no arithmetic produces, so no answer collides.
const EMPTY: u64 = u64::MAX;
const UNROUTABLE: u64 = u64::MAX - 1;

/// One ordered pair's answer: the bits of `(rtt, loss)`, or a marker.
#[derive(Debug)]
pub(crate) struct Entry {
    rtt: AtomicU64,
    loss: AtomicU64,
}

impl Entry {
    fn empty() -> Self {
        Entry {
            rtt: AtomicU64::new(EMPTY),
            loss: AtomicU64::new(0),
        }
    }

    /// The stored answer, or `None` if the pair was never filled.
    pub(crate) fn get(&self) -> Option<Option<(f64, f64)>> {
        match self.rtt.load(Ordering::Acquire) {
            EMPTY => None,
            UNROUTABLE => Some(None),
            rtt => Some(Some((
                f64::from_bits(rtt),
                f64::from_bits(self.loss.load(Ordering::Relaxed)),
            ))),
        }
    }

    /// Stores `answer`. Racing fills store the same bits, so a reader
    /// that pairs one fill's RTT with another's loss still reads one
    /// answer.
    pub(crate) fn set(&self, answer: Option<(f64, f64)>) {
        let rtt = match answer {
            None => UNROUTABLE,
            Some((rtt, loss)) => {
                self.loss.store(loss.to_bits(), Ordering::Relaxed);
                rtt.to_bits()
            }
        };
        debug_assert!(answer.is_none() || rtt < UNROUTABLE, "RTT bits {rtt:#x}");
        self.rtt.store(rtt, Ordering::Release);
    }
}

type Tile = [Entry; TILE * TILE];

/// One row of the tile directory: the tiles of `TILE` source slots.
type TileRow = Box<[OnceLock<Box<Tile>>]>;

/// Answers of ordered AS pairs, by node index.
pub(crate) struct RouteMemo {
    /// Per node index: its slot, or `NO_SLOT`.
    slots: Box<[AtomicU32]>,
    next_slot: AtomicU32,
    /// The tile directory, square in tiles: a row and each of its tiles
    /// are allocated on first use.
    rows: Box<[OnceLock<TileRow>]>,
}

impl RouteMemo {
    /// An empty memo for a graph of `nodes` ASes.
    pub(crate) fn new(nodes: usize) -> Self {
        RouteMemo {
            slots: (0..nodes).map(|_| AtomicU32::new(NO_SLOT)).collect(),
            next_slot: AtomicU32::new(0),
            rows: (0..nodes.div_ceil(TILE)).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The entry of the ordered pair `(src, dest)`, or `None` when a slot
    /// falls outside the directory. That happens only after racing first
    /// touches burned spare slots, and the caller then walks the route.
    pub(crate) fn entry(&self, src: u32, dest: u32) -> Option<&Entry> {
        let (s, d) = (self.slot(src) as usize, self.slot(dest) as usize);
        let side = self.rows.len();
        let row = self.rows.get(s / TILE)?;
        let tile = row
            .get_or_init(|| (0..side).map(|_| OnceLock::new()).collect())
            .get(d / TILE)?
            .get_or_init(|| {
                let entries: Box<[Entry]> = (0..TILE * TILE).map(|_| Entry::empty()).collect();
                entries
                    .try_into()
                    .expect("a tile holds TILE × TILE entries")
            });
        Some(&tile[s % TILE * TILE + d % TILE])
    }

    /// The slot of node `node`, assigning the next free one on first
    /// touch. Threads racing on one node all get the winner's slot; the
    /// losers' numbers stay unused. A slot number publishes no other
    /// data (tiles are published by their `OnceLock`s), so every access
    /// is `Relaxed`.
    fn slot(&self, node: u32) -> u32 {
        let cell = &self.slots[node as usize];
        match cell.load(Ordering::Relaxed) {
            NO_SLOT => {
                let fresh = self.next_slot.fetch_add(1, Ordering::Relaxed);
                match cell.compare_exchange(NO_SLOT, fresh, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => fresh,
                    Err(won) => won,
                }
            }
            slot => slot,
        }
    }

    /// The number of tiles allocated so far.
    fn tiles(&self) -> usize {
        let rows = self.rows.iter().filter_map(OnceLock::get);
        rows.flat_map(|row| row.iter().filter_map(OnceLock::get))
            .count()
    }
}

impl fmt::Debug for RouteMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteMemo")
            .field("slots", &self.next_slot.load(Ordering::Relaxed))
            .field("tiles", &self.tiles())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_store_answers_and_unroutable_pairs() {
        let memo = RouteMemo::new(70);
        let e = memo.entry(3, 69).unwrap();
        assert_eq!(e.get(), None);
        e.set(Some((12.5, 0.25)));
        assert_eq!(memo.entry(3, 69).unwrap().get(), Some(Some((12.5, 0.25))));
        memo.entry(69, 3).unwrap().set(None);
        assert_eq!(memo.entry(69, 3).unwrap().get(), Some(None));
        assert_eq!(memo.entry(3, 3).unwrap().get(), None);
        // Slots follow first touch: 3 → 0, 69 → 1, one tile in use.
        assert_eq!(memo.next_slot.load(Ordering::Relaxed), 2);
        assert_eq!(memo.tiles(), 1);
    }

    #[test]
    fn a_slot_past_the_directory_has_no_entry() {
        let memo = RouteMemo::new(2 * TILE + 1);
        assert_eq!(memo.rows.len(), 3);
        // As if racing first touches had burned every spare slot.
        let last = 3 * TILE as u32 - 1;
        memo.next_slot.store(last, Ordering::Relaxed);
        assert!(memo.entry(0, 0).is_some());
        assert!(memo.entry(0, 1).is_none());
        assert!(memo.entry(1, 0).is_none());
        assert_eq!(memo.slots[0].load(Ordering::Relaxed), last);
        assert_eq!(memo.slots[1].load(Ordering::Relaxed), last + 1);
    }
}
