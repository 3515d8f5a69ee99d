//! Fixed-capacity segmented-LRU block cache with write-back dirty
//! tracking pinned to journal sequence numbers.
//!
//! The cache sits between the block API and the data region of the
//! backing file. It is keyed by LBA (one entry per block) over a
//! preallocated arena — a `capacity × block_size` byte slab, a slot
//! table with intrusive prev/next links, and a `HashMap` reserved to
//! capacity — so steady-state hits, inserts and evictions touch no
//! allocator and no syscall.
//!
//! ## Segmented LRU
//!
//! Two intrusive lists: **probation** (first-touch entries) and **hot**
//! (re-referenced entries, capped at ~80% of capacity). A new block
//! enters probation at MRU; a hit promotes probation→hot; hot overflow
//! demotes its LRU back to probation. Scans therefore wash through
//! probation without displacing the re-referenced working set.
//!
//! ## Dirty tracking and the eviction invariant
//!
//! A dirty entry records the *journal sequence number* of the intent
//! record carrying its payload. The write path appends that record
//! **before** inserting the entry, so by construction every dirty block
//! the cache can ever write back is already present in the log:
//! writing it to the data region early (eviction) or late (checkpoint
//! drain) is indistinguishable from the uncached path's
//! append-then-apply ordering, and recovery's replay heals any torn
//! interleaving. The one order that must never happen — folding the
//! log away (checkpoint) while a journaled payload exists *only* in
//! cache — is excluded by draining every dirty entry before a
//! checkpoint rolls the epoch; [`BlockCache::max_dirty_seq`] lets the
//! disk assert it.
//!
//! Read-miss fills are clean by definition and are **never** allowed to
//! force a dirty write-back: a fill probes a bounded number of LRU
//! candidates for a clean victim and simply skips the fill if every
//! candidate is dirty, keeping the read path free of write syscalls.

use std::collections::HashMap;

use oaf_ssd::ram::BlockError;

/// Write-back callback: `(lba, block bytes) -> Result` — the disk
/// supplies the data-region write, the cache decides when a dirty
/// block must go.
pub type Writeback<'a> = dyn FnMut(u64, &[u8]) -> Result<(), BlockError> + 'a;

/// Slot index sentinel: no slot / end of list.
const NIL: u32 = u32::MAX;

/// Clean-victim probe budget for read-miss fills.
const CLEAN_PROBES: usize = 8;

/// Sequence sentinel for clean entries (real record sequences start
/// at 1 and only grow).
const CLEAN: u64 = 0;

/// Which list a slot is on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Seg {
    Free,
    Probation,
    Hot,
}

struct Slot {
    lba: u64,
    /// Journal sequence of the record carrying this payload, or
    /// [`CLEAN`] if the data region already holds these bytes.
    seq: u64,
    seg: Seg,
    prev: u32,
    next: u32,
}

/// One intrusive doubly-linked list over the slot arena.
#[derive(Default, Clone, Copy)]
struct List {
    head: u32, // MRU
    tail: u32, // LRU
    len: usize,
}

/// The block cache. Capacity 0 is a valid, always-miss configuration —
/// every method degenerates to a no-op.
pub struct BlockCache {
    block_size: usize,
    map: HashMap<u64, u32>,
    slots: Vec<Slot>,
    data: Vec<u8>,
    free_head: u32,
    probation: List,
    hot: List,
    hot_target: usize,
    dirty_len: usize,
}

impl BlockCache {
    /// A cache holding up to `capacity` blocks of `block_size` bytes.
    /// All memory — arena, slot table, hash map — is allocated here.
    pub fn new(block_size: usize, capacity: usize) -> BlockCache {
        let mut slots = Vec::with_capacity(capacity);
        for i in 0..capacity {
            slots.push(Slot {
                lba: 0,
                seq: CLEAN,
                seg: Seg::Free,
                prev: NIL,
                next: if i + 1 < capacity { i as u32 + 1 } else { NIL },
            });
        }
        BlockCache {
            block_size,
            map: HashMap::with_capacity(capacity.max(1)),
            slots,
            data: vec![0u8; block_size * capacity],
            free_head: if capacity > 0 { 0 } else { NIL },
            probation: List {
                head: NIL,
                tail: NIL,
                len: 0,
            },
            hot: List {
                head: NIL,
                tail: NIL,
                len: 0,
            },
            hot_target: capacity * 4 / 5,
            dirty_len: 0,
        }
    }

    /// Capacity in blocks (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True if the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// No resident entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Dirty (not-yet-written-back) entries.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty_len
    }

    /// Highest journal sequence pinned by a dirty entry (`CLEAN`/0 if
    /// none) — the checkpoint-drain invariant's witness.
    pub fn max_dirty_seq(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.seg != Seg::Free)
            .map(|s| s.seq)
            .max()
            .unwrap_or(CLEAN)
    }

    /// Whether `lba` is resident, without touching recency.
    pub fn contains(&self, lba: u64) -> bool {
        self.map.contains_key(&lba)
    }

    fn data_range(&self, i: u32) -> std::ops::Range<usize> {
        let i = i as usize;
        i * self.block_size..(i + 1) * self.block_size
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next, seg) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next, s.seg)
        };
        let list = match seg {
            Seg::Probation => &mut self.probation,
            Seg::Hot => &mut self.hot,
            Seg::Free => unreachable!("unlink of a free slot"),
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            list.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            list.tail = prev;
        }
        list.len -= 1;
        self.slots[i as usize].seg = Seg::Free;
    }

    fn push_mru(&mut self, i: u32, seg: Seg) {
        let list = match seg {
            Seg::Probation => &mut self.probation,
            Seg::Hot => &mut self.hot,
            Seg::Free => unreachable!("push onto the free segment"),
        };
        let old_head = list.head;
        list.head = i;
        if list.tail == NIL {
            list.tail = i;
        }
        list.len += 1;
        let s = &mut self.slots[i as usize];
        s.seg = seg;
        s.prev = NIL;
        s.next = old_head;
        if old_head != NIL {
            self.slots[old_head as usize].prev = i;
        }
    }

    /// A hit: probation promotes to hot (demoting hot's LRU if over
    /// target); hot moves to its MRU position.
    fn touch(&mut self, i: u32) {
        match self.slots[i as usize].seg {
            Seg::Probation => {
                self.unlink(i);
                self.push_mru(i, Seg::Hot);
                while self.hot.len > self.hot_target.max(1) {
                    let demote = self.hot.tail;
                    self.unlink(demote);
                    self.push_mru(demote, Seg::Probation);
                }
            }
            Seg::Hot => {
                if self.hot.head != i {
                    self.unlink(i);
                    self.push_mru(i, Seg::Hot);
                }
            }
            Seg::Free => unreachable!("touch of a free slot"),
        }
    }

    /// Copies the cached block into `out` and refreshes recency.
    /// `out` must be exactly one block.
    pub fn get(&mut self, lba: u64, out: &mut [u8]) -> bool {
        debug_assert_eq!(out.len(), self.block_size);
        let Some(&i) = self.map.get(&lba) else {
            return false;
        };
        out.copy_from_slice(&self.data[self.data_range(i)]);
        self.touch(i);
        true
    }

    /// The global eviction victim: probation LRU first, hot LRU if
    /// probation is empty.
    fn victim(&self) -> u32 {
        if self.probation.tail != NIL {
            self.probation.tail
        } else {
            self.hot.tail
        }
    }

    /// Takes a slot for a new entry, evicting (and writing back through
    /// `wb`) if no free slot remains. Returns the slot and whether an
    /// eviction happened.
    fn take_slot(&mut self, wb: &mut Writeback<'_>) -> Result<(u32, bool), BlockError> {
        if self.free_head != NIL {
            let i = self.free_head;
            self.free_head = self.slots[i as usize].next;
            return Ok((i, false));
        }
        let i = self.victim();
        debug_assert_ne!(i, NIL, "capacity > 0 but no victim");
        let (vlba, vseq) = {
            let s = &self.slots[i as usize];
            (s.lba, s.seq)
        };
        if vseq != CLEAN {
            // The victim's intent record is already in the journal
            // (appended before the entry went dirty), so this write-back
            // is the deferred in-place apply — crash-safe at any time
            // within the current epoch.
            wb(vlba, &self.data[self.data_range(i)])?;
            self.dirty_len -= 1;
        }
        self.unlink(i);
        self.map.remove(&vlba);
        Ok((i, true))
    }

    /// Inserts (or overwrites) `lba` with `data`, dirty under journal
    /// sequence `seq`. A dirty victim is written back through `wb`
    /// before its slot is reused. Returns true if an eviction occurred.
    pub fn put_write(
        &mut self,
        lba: u64,
        data: &[u8],
        seq: u64,
        wb: &mut Writeback<'_>,
    ) -> Result<bool, BlockError> {
        debug_assert_eq!(data.len(), self.block_size);
        debug_assert_ne!(seq, CLEAN, "record sequences start at 1");
        if !self.enabled() {
            return Err(BlockError::Io("put_write on a disabled cache".into()));
        }
        if let Some(&i) = self.map.get(&lba) {
            let r = self.data_range(i);
            self.data[r].copy_from_slice(data);
            let s = &mut self.slots[i as usize];
            if s.seq == CLEAN {
                self.dirty_len += 1;
            }
            s.seq = seq;
            self.touch(i);
            return Ok(false);
        }
        let (i, evicted) = self.take_slot(wb)?;
        let r = self.data_range(i);
        self.data[r].copy_from_slice(data);
        let s = &mut self.slots[i as usize];
        s.lba = lba;
        s.seq = seq;
        self.dirty_len += 1;
        self.map.insert(lba, i);
        self.push_mru(i, Seg::Probation);
        Ok(evicted)
    }

    /// A clean read-miss fill. Probes up to `CLEAN_PROBES` LRU
    /// candidates for a clean victim; if every candidate is dirty the
    /// fill is skipped (returns false) so the read path never issues a
    /// write. Already-resident blocks are left as they are.
    pub fn fill_clean(&mut self, lba: u64, data: &[u8]) -> bool {
        debug_assert_eq!(data.len(), self.block_size);
        if !self.enabled() || self.map.contains_key(&lba) {
            return false;
        }
        let i = if self.free_head != NIL {
            let i = self.free_head;
            self.free_head = self.slots[i as usize].next;
            i
        } else {
            // Walk probation LRU→MRU, then hot LRU→MRU, for a clean
            // victim within the probe budget.
            let mut found = NIL;
            let mut probes = 0;
            'scan: for list in [self.probation, self.hot] {
                let mut cur = list.tail;
                while cur != NIL && probes < CLEAN_PROBES {
                    if self.slots[cur as usize].seq == CLEAN {
                        found = cur;
                        break 'scan;
                    }
                    probes += 1;
                    cur = self.slots[cur as usize].prev;
                }
            }
            if found == NIL {
                return false;
            }
            let vlba = self.slots[found as usize].lba;
            self.unlink(found);
            self.map.remove(&vlba);
            found
        };
        let r = self.data_range(i);
        self.data[r].copy_from_slice(data);
        let s = &mut self.slots[i as usize];
        s.lba = lba;
        s.seq = CLEAN;
        self.map.insert(lba, i);
        self.push_mru(i, Seg::Probation);
        true
    }

    /// Writes every dirty entry back through `wb` and marks it clean.
    /// Returns how many blocks were written back. Entries stay resident
    /// (they now match the data region byte-for-byte).
    pub fn drain_dirty(&mut self, wb: &mut Writeback<'_>) -> Result<u64, BlockError> {
        if self.dirty_len == 0 {
            return Ok(0);
        }
        let mut written = 0u64;
        for i in 0..self.slots.len() {
            if self.slots[i].seg != Seg::Free && self.slots[i].seq != CLEAN {
                let r = i * self.block_size..(i + 1) * self.block_size;
                wb(self.slots[i].lba, &self.data[r])?;
                self.slots[i].seq = CLEAN;
                self.dirty_len -= 1;
                written += 1;
            }
        }
        debug_assert_eq!(self.dirty_len, 0);
        Ok(written)
    }

    /// Resizes the arena to `new_capacity` blocks in place — the
    /// adaptive controller's lever. Growing appends free slots and
    /// extends the data slab; shrinking writes back (through `wb`) and
    /// drops every entry resident in the removed tail slots, then
    /// truncates. Survivor recency and dirty pins are untouched; the
    /// hot-list target is re-derived and any overflow demoted, exactly
    /// as a hit would. This is a control-plane operation: it allocates,
    /// and is meant to run at controller cadence, not per I/O.
    pub fn resize(
        &mut self,
        new_capacity: usize,
        wb: &mut Writeback<'_>,
    ) -> Result<(), BlockError> {
        let old = self.slots.len();
        if new_capacity == old {
            return Ok(());
        }
        if new_capacity > old {
            self.data.resize(new_capacity * self.block_size, 0);
            self.slots.reserve(new_capacity - old);
            for i in old..new_capacity {
                self.slots.push(Slot {
                    lba: 0,
                    seq: CLEAN,
                    seg: Seg::Free,
                    prev: NIL,
                    next: NIL,
                });
                // Chain the fresh slot onto the free list.
                self.slots[i].next = self.free_head;
                self.free_head = i as u32;
            }
            self.map.reserve(new_capacity - old);
        } else {
            // Evict everything living in the doomed tail slots.
            for i in new_capacity..old {
                if self.slots[i].seg == Seg::Free {
                    continue;
                }
                let (vlba, vseq) = (self.slots[i].lba, self.slots[i].seq);
                if vseq != CLEAN {
                    let r = i * self.block_size..(i + 1) * self.block_size;
                    wb(vlba, &self.data[r])?;
                    self.dirty_len -= 1;
                }
                self.unlink(i as u32);
                self.map.remove(&vlba);
            }
            // The free list may thread through dropped indices; rebuild
            // it from the surviving free slots.
            self.free_head = NIL;
            for i in (0..new_capacity).rev() {
                if self.slots[i].seg == Seg::Free {
                    self.slots[i].next = self.free_head;
                    self.free_head = i as u32;
                }
            }
            self.slots.truncate(new_capacity);
            self.data.truncate(new_capacity * self.block_size);
        }
        self.hot_target = new_capacity * 4 / 5;
        while self.hot.len > self.hot_target.max(1) && self.hot.tail != NIL {
            let demote = self.hot.tail;
            self.unlink(demote);
            self.push_mru(demote, Seg::Probation);
        }
        Ok(())
    }

    /// Drops every entry covering `[lba, lba + nlb)` — dirty ones too,
    /// *without* write-back: the caller just journaled a TRIM/Write
    /// Zeroes that supersedes them and is about to punch the range.
    pub fn invalidate_range(&mut self, lba: u64, nlb: u32) {
        if !self.enabled() {
            return;
        }
        for b in lba..lba + u64::from(nlb) {
            if let Some(i) = self.map.remove(&b) {
                if self.slots[i as usize].seq != CLEAN {
                    self.dirty_len -= 1;
                }
                self.unlink(i);
                self.slots[i as usize].next = self.free_head;
                self.free_head = i;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_wb() -> impl FnMut(u64, &[u8]) -> Result<(), BlockError> {
        |lba, _| panic!("unexpected write-back of lba {lba}")
    }

    fn block(v: u8) -> Vec<u8> {
        vec![v; 64]
    }

    #[test]
    fn hit_miss_and_promotion() {
        let mut c = BlockCache::new(64, 4);
        assert!(c.enabled());
        let mut out = vec![0u8; 64];
        assert!(!c.get(7, &mut out));
        c.put_write(7, &block(0xaa), 1, &mut no_wb()).unwrap();
        assert!(c.get(7, &mut out), "just-inserted block must hit");
        assert_eq!(out, block(0xaa));
        assert_eq!(c.len(), 1);
        assert_eq!(c.dirty_blocks(), 1);
        assert_eq!(c.max_dirty_seq(), 1);
    }

    #[test]
    fn capacity_zero_is_inert() {
        let mut c = BlockCache::new(64, 0);
        assert!(!c.enabled());
        assert!(!c.fill_clean(0, &block(1)));
        assert!(!c.get(0, &mut block(0)));
        c.invalidate_range(0, 8);
        assert_eq!(c.drain_dirty(&mut no_wb()).unwrap(), 0);
    }

    #[test]
    fn dirty_eviction_writes_back_lru_first() {
        let mut c = BlockCache::new(64, 2);
        c.put_write(1, &block(1), 1, &mut no_wb()).unwrap();
        c.put_write(2, &block(2), 2, &mut no_wb()).unwrap();
        let mut wrote = Vec::new();
        let evicted = c
            .put_write(3, &block(3), 3, &mut |lba, data| {
                wrote.push((lba, data[0]));
                Ok(())
            })
            .unwrap();
        assert!(evicted);
        assert_eq!(wrote, vec![(1, 1)], "LRU victim, correct payload");
        assert!(c.contains(2) && c.contains(3) && !c.contains(1));
        assert_eq!(c.dirty_blocks(), 2);
    }

    #[test]
    fn hot_entries_survive_a_scan() {
        let mut c = BlockCache::new(64, 8); // hot target 6
        let mut out = vec![0u8; 64];
        // Build a re-referenced working set of 3 hot blocks.
        for lba in 0..3 {
            c.put_write(lba, &block(lba as u8 + 1), lba + 1, &mut no_wb())
                .unwrap();
            assert!(c.get(lba, &mut out)); // promote to hot
        }
        // Scan 32 one-touch blocks through the cache; they must wash
        // through probation without displacing the hot set.
        let mut dropped = Vec::new();
        for lba in 100..132 {
            c.put_write(lba, &block(9), lba, &mut |l, _| {
                dropped.push(l);
                Ok(())
            })
            .unwrap();
        }
        for lba in 0..3u64 {
            assert!(c.contains(lba), "hot lba {lba} displaced by scan");
        }
        assert!(!dropped.contains(&0) && !dropped.contains(&1) && !dropped.contains(&2));
    }

    #[test]
    fn fill_clean_never_writes_back() {
        let mut c = BlockCache::new(64, 2);
        c.put_write(1, &block(1), 1, &mut no_wb()).unwrap();
        c.put_write(2, &block(2), 2, &mut no_wb()).unwrap();
        // All candidates dirty: the fill must skip, not write back.
        assert!(!c.fill_clean(3, &block(3)));
        assert!(c.contains(1) && c.contains(2));
        // After a drain, fills may evict the now-clean entries.
        let mut wrote = 0;
        c.drain_dirty(&mut |_, _| {
            wrote += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(wrote, 2);
        assert!(c.fill_clean(3, &block(3)));
        let mut out = vec![0u8; 64];
        assert!(c.get(3, &mut out));
        assert_eq!(out, block(3));
    }

    #[test]
    fn overwrite_updates_in_place_without_eviction() {
        let mut c = BlockCache::new(64, 1);
        c.put_write(5, &block(1), 1, &mut no_wb()).unwrap();
        let evicted = c.put_write(5, &block(2), 2, &mut no_wb()).unwrap();
        assert!(!evicted, "overwrite reuses the entry");
        let mut out = vec![0u8; 64];
        assert!(c.get(5, &mut out));
        assert_eq!(out, block(2));
        assert_eq!(c.max_dirty_seq(), 2);
    }

    #[test]
    fn single_entry_thrash_is_correct() {
        let mut c = BlockCache::new(64, 1);
        let mut wrote = Vec::new();
        for i in 0..16u64 {
            c.put_write(i, &block(i as u8), i + 1, &mut |lba, d| {
                wrote.push((lba, d[0]));
                Ok(())
            })
            .unwrap();
        }
        // Every insert evicted (and wrote back) the previous dirty block.
        assert_eq!(wrote.len(), 15);
        for (i, &(lba, v)) in wrote.iter().enumerate() {
            assert_eq!((lba, v), (i as u64, i as u8));
        }
        assert!(c.contains(15));
    }

    #[test]
    fn invalidate_drops_dirty_without_writeback() {
        let mut c = BlockCache::new(64, 4);
        for lba in 0..4 {
            c.put_write(lba, &block(lba as u8), lba + 1, &mut no_wb())
                .unwrap();
        }
        c.invalidate_range(1, 2);
        assert!(c.contains(0) && !c.contains(1) && !c.contains(2) && c.contains(3));
        assert_eq!(c.dirty_blocks(), 2);
        // Freed slots are reusable without eviction.
        c.put_write(9, &block(9), 9, &mut no_wb()).unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn drain_marks_clean_and_keeps_residency() {
        let mut c = BlockCache::new(64, 4);
        c.put_write(1, &block(1), 1, &mut no_wb()).unwrap();
        c.put_write(2, &block(2), 2, &mut no_wb()).unwrap();
        assert_eq!(c.drain_dirty(&mut |_, _| Ok(())).unwrap(), 2);
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(c.max_dirty_seq(), CLEAN);
        let mut out = vec![0u8; 64];
        assert!(c.get(1, &mut out), "drained entries stay resident");
        // A redirty after drain pins the new sequence.
        c.put_write(1, &block(3), 7, &mut no_wb()).unwrap();
        assert_eq!(c.max_dirty_seq(), 7);
        assert_eq!(c.dirty_blocks(), 1);
    }

    #[test]
    fn grow_keeps_entries_and_adds_room() {
        let mut c = BlockCache::new(64, 2);
        c.put_write(1, &block(1), 1, &mut no_wb()).unwrap();
        c.put_write(2, &block(2), 2, &mut no_wb()).unwrap();
        c.resize(4, &mut no_wb()).unwrap();
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.dirty_blocks(), 2);
        // Two more inserts fit without eviction now.
        c.put_write(3, &block(3), 3, &mut no_wb()).unwrap();
        c.put_write(4, &block(4), 4, &mut no_wb()).unwrap();
        let mut out = vec![0u8; 64];
        for lba in 1..=4u64 {
            assert!(c.get(lba, &mut out), "lba {lba} lost across grow");
            assert_eq!(out, block(lba as u8));
        }
    }

    #[test]
    fn shrink_writes_back_dropped_dirty_entries() {
        let mut c = BlockCache::new(64, 4);
        for lba in 0..4 {
            c.put_write(lba, &block(lba as u8 + 1), lba + 1, &mut no_wb())
                .unwrap();
        }
        let mut wrote = Vec::new();
        c.resize(2, &mut |lba, d| {
            wrote.push((lba, d[0]));
            Ok(())
        })
        .unwrap();
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.len() + wrote.len(), 4, "every entry kept or written back");
        for &(lba, v) in &wrote {
            assert_eq!(v, lba as u8 + 1, "dropped lba {lba} wrote back its bytes");
        }
        assert_eq!(c.dirty_blocks(), c.len(), "survivors keep their dirty pin");
        // The shrunken cache still behaves: insert evicts, data correct.
        let mut out = vec![0u8; 64];
        c.put_write(9, &block(9), 9, &mut |_, _| Ok(())).unwrap();
        assert!(c.get(9, &mut out));
        assert_eq!(out, block(9));
    }

    #[test]
    fn resize_roundtrip_preserves_correctness_under_thrash() {
        let mut c = BlockCache::new(64, 1);
        let mut sink = |_: u64, _: &[u8]| Ok(());
        for i in 0..8u64 {
            c.put_write(i, &block(i as u8), i + 1, &mut sink).unwrap();
        }
        c.resize(8, &mut sink).unwrap();
        for i in 8..16u64 {
            c.put_write(i, &block(i as u8), i + 1, &mut sink).unwrap();
        }
        c.resize(2, &mut sink).unwrap();
        assert!(c.capacity() == 2 && c.len() <= 2);
        let mut out = vec![0u8; 64];
        for i in 0..16u64 {
            if c.get(i, &mut out) {
                assert_eq!(out, block(i as u8), "resident lba {i} corrupted");
            }
        }
    }
}
