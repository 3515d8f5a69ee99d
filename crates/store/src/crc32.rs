//! CRC32C (Castagnoli, reflected polynomial `0x82F63B78`): one digest
//! for wire frames and the intent log.
//!
//! The single CRC implementation of the workspace: the NVMe/TCP frame
//! digest in `oaf-nvmeof::pdu` (CRC32C is the polynomial the spec
//! mandates for HDGST/DDGST) and the on-disk log/superblock records of
//! this crate both fold through [`crc32_update`]. It lives here (the
//! lowest crate that needs it above `oaf-ssd`) so the protocol and
//! storage layers cannot drift apart on polynomial or construction.
//!
//! **Dispatch rule.** [`crc32_update`] uses the CPU's CRC32C
//! instruction when the running host has one (`sse4.2` on x86-64, the
//! `crc` extension on aarch64 — detected at run time, cached by `std`)
//! and the compile-time slicing-by-8 tables otherwise. Nothing selects
//! between them but the host: both produce the same word for the same
//! bytes, and the tests pin them to each other.
//!
//! The instruction retires one 8-byte fold per cycle but has a 3-cycle
//! latency, so a single dependent chain runs at a third of the port's
//! rate. Buffers of `3 × BLOCK` (3 KiB) or more are therefore folded as
//! three independent streams, merged with the precomputed "append
//! `BLOCK` zero bytes" operator (`SHIFT`).

/// The reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, built at compile time. Table 0 is the
/// classic byte-at-a-time table; table `j` maps a byte to its CRC
/// contribution `j` positions further along, letting the update loop
/// fold 8 payload bytes per iteration.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

/// The table-driven fold: what [`crc32_update`] runs on hosts without a
/// CRC32C instruction, and the reference the hardware path is tested
/// and benchmarked against.
pub fn crc32_update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// Which implementation [`crc32_update`] runs on this host. The
/// discriminants are the values of the `digest_hw` telemetry gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum DigestImpl {
    /// Slicing-by-8 tables (no CRC32C instruction on this host).
    Table = 0,
    /// x86-64 `crc32` instruction (SSE4.2).
    Sse42 = 1,
    /// AArch64 `crc32c*` instructions (the `crc` extension).
    ArmCrc = 2,
}

/// The implementation [`crc32_update`] dispatches to on this host.
pub fn digest_impl() -> DigestImpl {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if hw::detected() {
        return hw::IMPL;
    }
    DigestImpl::Table
}

/// Folds `bytes` into a running CRC state. Start from `0xFFFF_FFFF`,
/// feed every chunk, and finish with a bitwise NOT ([`crc32`] does the
/// whole dance for a contiguous buffer).
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if hw::detected() {
        // SAFETY: `detected()` just confirmed the running CPU has the
        // target feature `update` is compiled for.
        return unsafe { hw::update(crc, bytes) };
    }
    crc32_update_table(crc, bytes)
}

/// One-shot CRC32C of a contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod hw {
    use super::{DigestImpl, POLY};

    /// Bytes per stream of the three-way interleave: buffers shorter than
    /// `3 * BLOCK` run as a single dependent chain. 1 KiB keeps the two
    /// table merges per round under a tenth of the round's fold work while
    /// still letting a 4 KiB journal record or in-capsule payload take one
    /// interleaved round.
    pub(super) const BLOCK: usize = 1024;

    /// `SHIFT[k][b]` is the CRC state reached from `b << 8k` by folding
    /// [`BLOCK`] zero bytes, so XOR-ing the four lookups of a state's bytes
    /// advances that state past a whole block it never saw — the merge step
    /// of the interleave.
    const SHIFT: [[u32; 256]; 4] = build_shift_table();

    /// `a(x) · b(x) mod P(x)` on reflected 32-bit polynomials (bit 31 is
    /// `x^0`).
    const fn mul_mod(a: u32, mut b: u32) -> u32 {
        let mut p = 0u32;
        let mut m = 1u32 << 31;
        while m != 0 {
            if a & m != 0 {
                p ^= b;
            }
            b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
            m >>= 1;
        }
        p
    }

    const fn build_shift_table() -> [[u32; 256]; 4] {
        // Folding one zero byte multiplies the state by x^8; BLOCK of them
        // by x^(8·BLOCK), reached by square-and-multiply.
        let mut pow = 1u32 << 31; // x^0
        let mut sq = 1u32 << 23; // x^8
        let mut n = BLOCK;
        while n != 0 {
            if n & 1 != 0 {
                pow = mul_mod(sq, pow);
            }
            sq = mul_mod(sq, sq);
            n >>= 1;
        }
        let mut t = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[k][b] = mul_mod(pow, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        t
    }

    #[cfg(target_arch = "x86_64")]
    mod isa {
        use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

        pub const IMPL: super::DigestImpl = super::DigestImpl::Sse42;

        pub fn detected() -> bool {
            std::arch::is_x86_feature_detected!("sse4.2")
        }

        #[inline]
        #[target_feature(enable = "sse4.2")]
        pub fn fold8(crc: u32, word: u64) -> u32 {
            _mm_crc32_u64(u64::from(crc), word) as u32
        }

        #[inline]
        #[target_feature(enable = "sse4.2")]
        pub fn fold1(crc: u32, byte: u8) -> u32 {
            _mm_crc32_u8(crc, byte)
        }
    }

    #[cfg(target_arch = "aarch64")]
    mod isa {
        use core::arch::aarch64::{__crc32cb, __crc32cd};

        pub const IMPL: super::DigestImpl = super::DigestImpl::ArmCrc;

        pub fn detected() -> bool {
            std::arch::is_aarch64_feature_detected!("crc")
        }

        // The intrinsics are `unsafe fn` on older toolchains and safe
        // (inside a matching `target_feature` context) on newer ones.
        #[inline]
        #[target_feature(enable = "crc")]
        #[allow(unused_unsafe)]
        pub fn fold8(crc: u32, word: u64) -> u32 {
            // SAFETY: this function is compiled with the `crc` feature
            // the intrinsic needs.
            unsafe { __crc32cd(crc, word) }
        }

        #[inline]
        #[target_feature(enable = "crc")]
        #[allow(unused_unsafe)]
        pub fn fold1(crc: u32, byte: u8) -> u32 {
            // SAFETY: as in `fold8`.
            unsafe { __crc32cb(crc, byte) }
        }
    }

    pub use isa::{detected, IMPL};

    fn word(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"))
    }

    /// Advances `crc` past [`BLOCK`] bytes it did not fold.
    pub(super) fn shift(crc: u32) -> u32 {
        SHIFT[0][(crc & 0xff) as usize]
            ^ SHIFT[1][((crc >> 8) & 0xff) as usize]
            ^ SHIFT[2][((crc >> 16) & 0xff) as usize]
            ^ SHIFT[3][(crc >> 24) as usize]
    }

    /// The instruction-driven fold. Callers outside a matching
    /// `target_feature` context must have seen [`detected`] return
    /// `true`.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    pub fn update(mut crc: u32, mut bytes: &[u8]) -> u32 {
        // Three independent dependency chains over three adjacent
        // blocks keep the 3-cycle instruction issuing every cycle. The
        // CRC state is linear in (state, data), so the streams that
        // started from 0 merge into the running one by shifting it past
        // their block and XOR-ing.
        while bytes.len() >= 3 * BLOCK {
            let (a, rest) = bytes.split_at(BLOCK);
            let (b, rest) = rest.split_at(BLOCK);
            let (c, rest) = rest.split_at(BLOCK);
            let (mut crc_b, mut crc_c) = (0u32, 0u32);
            for ((wa, wb), wc) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8))
            {
                crc = isa::fold8(crc, word(wa));
                crc_b = isa::fold8(crc_b, word(wb));
                crc_c = isa::fold8(crc_c, word(wc));
            }
            crc = shift(crc) ^ crc_b;
            crc = shift(crc) ^ crc_c;
            bytes = rest;
        }
        let mut words = bytes.chunks_exact(8);
        for w in words.by_ref() {
            crc = isa::fold8(crc, word(w));
        }
        for &b in words.remainder() {
            crc = isa::fold1(crc, b);
        }
        crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // The CRC32C check value, and the iSCSI test patterns of
        // RFC 3720 B.4.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0x00; 32]), 0x8A91_36AA);
        assert_eq!(crc32(&[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        assert_eq!(crc32(&ascending), 0x46DD_794E);
        // The same vectors through the table fold alone, whatever this
        // host dispatches to.
        assert_eq!(!crc32_update_table(!0, b"123456789"), 0xE306_9283);
        assert_eq!(!crc32_update_table(!0, &ascending), 0x46DD_794E);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1021u32).map(|i| (i % 251) as u8).collect();
        let mut c = 0xFFFF_FFFFu32;
        for chunk in data.chunks(13) {
            c = crc32_update(c, chunk);
        }
        assert_eq!(!c, crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0x5au8; 64];
        let base = crc32(&data);
        for i in 0..64 {
            data[i] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 1;
        }
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[test]
    fn shift_table_appends_a_block_of_zeroes() {
        let zeroes = [0u8; hw::BLOCK];
        for state in [1u32, 0x8000_0000, 0xDEAD_BEEF, !0] {
            assert_eq!(hw::shift(state), crc32_update_table(state, &zeroes));
        }
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    proptest! {
        /// The dispatched fold (the instruction path wherever the host
        /// has one) equals the table fold for every length around the
        /// interleave's round boundaries, every start misalignment, any
        /// starting state and any streaming split.
        #[test]
        fn hardware_fold_equals_table_fold(
            len in 0usize..3 * hw::BLOCK + 16,
            seed in any::<u64>(),
            state in any::<u32>(),
            splits in proptest::collection::vec(any::<u16>(), 0..4),
        ) {
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..len + 7)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let mut cuts: Vec<usize> = splits.iter().map(|&s| s as usize % (len + 1)).collect();
            cuts.sort_unstable();
            for misalign in 0..8 {
                let data = &buf[misalign..misalign + len];
                let want = crc32_update_table(state, data);
                prop_assert_eq!(crc32_update(state, data), want);
                let (mut chained, mut from) = (state, 0);
                for &cut in &cuts {
                    chained = crc32_update(chained, &data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(crc32_update(chained, &data[from..]), want);
            }
        }
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[test]
    fn interleaved_rounds_match_the_table_on_large_buffers() {
        // Several rounds plus a tail, at a payload-sized length the
        // proptest's range does not reach.
        let data: Vec<u8> = (0..128 * 1024 + 24)
            .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for misalign in 0..8 {
            let d = &data[misalign..];
            assert_eq!(crc32_update(!0, d), crc32_update_table(!0, d));
        }
    }
}
