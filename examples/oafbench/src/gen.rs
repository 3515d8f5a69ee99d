//! Seeded input generation: the op stream and the block contents.
//!
//! The runtime under test only ever sees the generated commands. Every
//! block's content is a pure function of `(lba, seed)`, so a read can be
//! verified no matter how the writes that raced it were ordered.

/// Namespace block size every workload uses.
pub const BLOCK: usize = 4096;
const WORDS: usize = BLOCK / 8;

/// SplitMix64 finaliser: a cheap, well-mixed 64→64 hash.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 sequence generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; `n` fits 32 bits).
    #[inline]
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// One generated operation: which I/O-sized slot of the working set, and
/// whether it is a read.
#[derive(Clone, Copy)]
pub struct Op {
    pub slot: u32,
    pub read: bool,
}

/// The op stream: uniform-random slots, reads with probability
/// `read_pct`/100, both drawn from the seeded generator.
pub struct OpGen {
    rng: Rng,
    slots: u32,
    read_pct: u32,
}

impl OpGen {
    pub fn new(seed: u64, slots: u32, read_pct: u32) -> OpGen {
        OpGen {
            rng: Rng::new(mix64(seed ^ 0x6f61_6662_656e_6368)),
            slots,
            read_pct,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        Op {
            slot: (((r >> 32) * u64::from(self.slots)) >> 32) as u32,
            read: ((r & 0xffff_ffff) * 100) >> 32 < u64::from(self.read_pct),
        }
    }
}

/// Block contents: word `i` of block `lba` is `page[i] ^ key(lba)`, with
/// `page` and `key` both derived from the seed. Every word therefore
/// names its block, so a misdirected or stale block fails on any word.
pub struct Pattern {
    page: Box<[u64; WORDS]>,
    seed: u64,
}

impl Pattern {
    pub fn new(seed: u64) -> Pattern {
        let mut rng = Rng::new(mix64(seed ^ 0x7061_7474_6572_6e21));
        let mut page = Box::new([0u64; WORDS]);
        for w in page.iter_mut() {
            *w = rng.next_u64();
        }
        Pattern { page, seed }
    }

    #[inline]
    fn key(&self, lba: u64) -> u64 {
        mix64(lba.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ self.seed)
    }

    /// Fills `buf` (a whole number of blocks) with the content of the
    /// blocks starting at `slba`.
    pub fn fill(&self, slba: u64, buf: &mut [u8]) {
        debug_assert_eq!(buf.len() % BLOCK, 0);
        for (i, block) in buf.chunks_exact_mut(BLOCK).enumerate() {
            let key = self.key(slba + i as u64);
            for (dst, src) in block.chunks_exact_mut(8).zip(self.page.iter()) {
                dst.copy_from_slice(&(src ^ key).to_le_bytes());
            }
        }
    }

    /// Checks every word of `buf` against the blocks starting at `slba`.
    pub fn verify_full(&self, slba: u64, buf: &[u8]) -> bool {
        if buf.is_empty() || !buf.len().is_multiple_of(BLOCK) {
            return false;
        }
        let mut diff = 0u64;
        for (i, block) in buf.chunks_exact(BLOCK).enumerate() {
            let key = self.key(slba + i as u64);
            for (got, src) in block.chunks_exact(8).zip(self.page.iter()) {
                let got = u64::from_le_bytes(got.try_into().expect("8-byte chunk"));
                diff |= got ^ src ^ key;
            }
        }
        diff == 0
    }

    /// Checks two words per block — the first, and one whose position
    /// `salt` moves around — so the end-to-end pass verifies every read
    /// at a cost that does not scale with the I/O size.
    pub fn verify_sampled(&self, slba: u64, buf: &[u8], salt: u64) -> bool {
        if buf.is_empty() || !buf.len().is_multiple_of(BLOCK) {
            return false;
        }
        let mut diff = 0u64;
        for (i, block) in buf.chunks_exact(BLOCK).enumerate() {
            let key = self.key(slba + i as u64);
            let w = (salt.wrapping_add(i as u64) as usize) % WORDS;
            for idx in [0, w] {
                let got = u64::from_le_bytes(
                    block[idx * 8..idx * 8 + 8].try_into().expect("8-byte word"),
                );
                diff |= got ^ self.page[idx] ^ key;
            }
        }
        diff == 0
    }
}
