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
//! **Dispatch rule.** [`crc32_update`] picks by host and length, and
//! nothing else selects between the kernels: all of them produce the
//! same word for the same bytes, and the tests pin them to each other.
//!
//! * Buffers of [`WIDE_MIN`] (512 B) or more, on an x86-64 host with
//!   `avx512f` and `vpclmulqdq`, take the carry-less-multiply fold: four
//!   512-bit lanes 256 bytes apart, each folded forward with
//!   `vpclmulqdq` and merged with the next 64 bytes in one three-way XOR
//!   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ", 2009). The lanes collapse to 128 bits at 512-, 384-,
//!   256- and 128-bit distances, and two `crc32` instructions reduce
//!   that remainder exactly.
//! * Everything else on a host with a CRC32C instruction (`sse4.2` on
//!   x86-64, the `crc` extension on aarch64, detected at run time,
//!   cached by `std`) runs the instruction.
//! * Hosts with neither run the compile-time slicing-by-8 tables.
//!
//! The instruction retires one 8-byte fold per cycle but has a 3-cycle
//! latency, so a single dependent chain runs at a third of the port's
//! rate. Buffers of `3 × BLOCK` (3 KiB) or more are therefore folded as
//! three independent streams, merged with the precomputed "append
//! `BLOCK` zero bytes" operator (`SHIFT`). That is the port's limit; the
//! wide fold multiplies 256 bytes per round and is not bound by it.

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
    /// x86-64 `crc32` instruction (SSE4.2), three streams per round.
    Sse42 = 1,
    /// AArch64 `crc32c*` instructions (the `crc` extension).
    ArmCrc = 2,
    /// x86-64 512-bit carry-less-multiply fold (AVX-512F + VPCLMULQDQ)
    /// for buffers of [`WIDE_MIN`] bytes or more; shorter ones run the
    /// [`Sse42`](DigestImpl::Sse42) path.
    Vpclmul = 3,
}

/// Shortest buffer [`crc32_update`] hands to the wide
/// ([`DigestImpl::Vpclmul`]) fold: one 256-byte round to load its four
/// lanes and at least one more to fold them. Control frames stay below
/// it.
pub const WIDE_MIN: usize = 512;

/// The implementation [`crc32_update`] dispatches to on this host.
pub fn digest_impl() -> DigestImpl {
    #[cfg(target_arch = "x86_64")]
    if hw::wide::detected() {
        return DigestImpl::Vpclmul;
    }
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
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= WIDE_MIN && hw::wide::detected() {
        // SAFETY: `detected()` just confirmed the running CPU has every
        // target feature `update` is compiled for.
        return unsafe { hw::wide::update(crc, bytes) };
    }
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if hw::detected() {
        // SAFETY: as above, for the CRC32C instruction.
        return unsafe { hw::update(crc, bytes) };
    }
    crc32_update_table(crc, bytes)
}

/// Folds `bytes` with one named kernel instead of the host's choice, or
/// `None` when this host cannot run it. [`DigestImpl::Vpclmul`] applies
/// the dispatch rule's length threshold (shorter buffers run the
/// instruction path). For benches and tests that compare kernels; the
/// data path calls [`crc32_update`].
pub fn crc32_update_with(kernel: DigestImpl, crc: u32, bytes: &[u8]) -> Option<u32> {
    match kernel {
        DigestImpl::Table => Some(crc32_update_table(crc, bytes)),
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        k if k == hw::IMPL && hw::detected() => {
            // SAFETY: `detected()` confirmed the instruction.
            Some(unsafe { hw::update(crc, bytes) })
        }
        #[cfg(target_arch = "x86_64")]
        DigestImpl::Vpclmul if hw::wide::detected() => {
            if bytes.len() < WIDE_MIN {
                // SAFETY: the wide features include `sse4.2`.
                return Some(unsafe { hw::update(crc, bytes) });
            }
            // SAFETY: `detected()` confirmed every feature.
            Some(unsafe { hw::wide::update(crc, bytes) })
        }
        _ => None,
    }
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

    /// `x^e mod P(x)`, reflected, by square-and-multiply.
    const fn xpow(mut e: u32) -> u32 {
        let mut pow = 1u32 << 31; // x^0
        let mut sq = 1u32 << 30; // x^1
        while e != 0 {
            if e & 1 != 0 {
                pow = mul_mod(sq, pow);
            }
            sq = mul_mod(sq, sq);
            e >>= 1;
        }
        pow
    }

    const fn build_shift_table() -> [[u32; 256]; 4] {
        // Folding one zero byte multiplies the state by x^8; BLOCK of them
        // by x^(8·BLOCK).
        let pow = xpow(8 * BLOCK as u32);
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

    /// The 512-bit carry-less-multiply fold (x86-64, AVX-512F +
    /// VPCLMULQDQ).
    #[cfg(target_arch = "x86_64")]
    pub(super) mod wide {
        use core::arch::x86_64::{
            __m128i, __m512i, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32,
            _mm512_loadu_si512, _mm512_set_epi64, _mm512_ternarylogic_epi64, _mm512_xor_si512,
            _mm512_zextsi128_si512, _mm_clmulepi64_si128, _mm_crc32_u64, _mm_cvtsi128_si64,
            _mm_cvtsi32_si128, _mm_extract_epi64, _mm_set_epi64x, _mm_xor_si128,
        };

        use super::xpow;

        /// Bytes per round: four 64-byte lanes.
        const ROUND: usize = 256;

        /// The constant pair that folds a 128-bit remainder `R` forward
        /// by `d` bits: `R.lo` is multiplied by the low word, `x^(d+32)`,
        /// and `R.hi` by the high word, `x^(d-32)`, each as
        /// `reflect32(x^e mod P) << 1`. The extra 32 and the shift place
        /// the 96-bit products so they XOR straight onto the data `d`
        /// bits further on.
        pub(in super::super) const fn fold_pair(d: u32) -> [u64; 2] {
            [(xpow(d + 32) as u64) << 1, (xpow(d - 32) as u64) << 1]
        }

        /// Lane to the same lane of the next round, 256 bytes on.
        const K2048: [u64; 2] = fold_pair(2048);
        /// One 64-byte register to the next.
        const K512: [u64; 2] = fold_pair(512);
        /// The first, second and third 16 bytes of a 64-byte register to
        /// its last 16.
        const K384: [u64; 2] = fold_pair(384);
        const K256: [u64; 2] = fold_pair(256);
        const K128: [u64; 2] = fold_pair(128);

        pub fn detected() -> bool {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("vpclmulqdq")
                && std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.2")
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn splat(k: [u64; 2]) -> __m512i {
            let (lo, hi) = (k[0] as i64, k[1] as i64);
            _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn load(chunk: &[u8]) -> __m512i {
            assert!(chunk.len() >= 64);
            // SAFETY: the assert keeps the unaligned 64-byte load inside
            // `chunk`.
            unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) }
        }

        /// `acc` carried `k`'s distance forward, XOR-ed onto `next`: the
        /// two 64×64 products of every 128-bit lane and the data merge in
        /// one three-way XOR.
        #[inline]
        #[target_feature(enable = "avx512f,vpclmulqdq")]
        fn fold(acc: __m512i, k: __m512i, next: __m512i) -> __m512i {
            let lo = _mm512_clmulepi64_epi128::<0x00>(acc, k);
            let hi = _mm512_clmulepi64_epi128::<0x11>(acc, k);
            _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
        }

        #[inline]
        #[target_feature(enable = "pclmulqdq")]
        fn fold128(acc: __m128i, k: [u64; 2], next: __m128i) -> __m128i {
            let k = _mm_set_epi64x(k[1] as i64, k[0] as i64);
            let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
            let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
            _mm_xor_si128(_mm_xor_si128(lo, hi), next)
        }

        /// Folds `bytes` (at least [`super::super::WIDE_MIN`] long) into
        /// `crc`. Callers outside a matching `target_feature` context
        /// must have seen [`detected`] return `true`.
        #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.2")]
        pub fn update(crc: u32, bytes: &[u8]) -> u32 {
            debug_assert!(bytes.len() >= super::super::WIDE_MIN);
            let (first, mut rest) = bytes.split_at(ROUND);
            // The running state enters as an XOR on the first four
            // bytes: CRC-ing that message from a zero state is the same
            // as CRC-ing the original from `crc`, so splits compose.
            let seed = _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32));
            let mut x = [
                _mm512_xor_si512(load(first), seed),
                load(&first[64..]),
                load(&first[128..]),
                load(&first[192..]),
            ];
            let k = splat(K2048);
            while rest.len() >= ROUND {
                for (i, lane) in x.iter_mut().enumerate() {
                    *lane = fold(*lane, k, load(&rest[64 * i..]));
                }
                rest = &rest[ROUND..];
            }
            let k = splat(K512);
            let mut acc = fold(fold(fold(x[0], k, x[1]), k, x[2]), k, x[3]);
            while rest.len() >= 64 {
                acc = fold(acc, k, load(rest));
                rest = &rest[64..];
            }
            let r = fold128(
                _mm512_extracti32x4_epi32::<0>(acc),
                K384,
                fold128(
                    _mm512_extracti32x4_epi32::<1>(acc),
                    K256,
                    fold128(
                        _mm512_extracti32x4_epi32::<2>(acc),
                        K128,
                        _mm512_extracti32x4_epi32::<3>(acc),
                    ),
                ),
            );
            // The 128-bit remainder is congruent to everything folded so
            // far, so its CRC from a zero state is the state after the
            // prefix: two instructions reduce it exactly.
            let lo = _mm_cvtsi128_si64(r) as u64;
            let hi = _mm_extract_epi64::<1>(r) as u64;
            let crc = _mm_crc32_u64(_mm_crc32_u64(0, lo), hi) as u32;
            super::update(crc, rest)
        }
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

    /// Every kernel this host can run, each forced by name.
    fn kernels() -> Vec<DigestImpl> {
        [
            DigestImpl::Table,
            DigestImpl::Sse42,
            DigestImpl::ArmCrc,
            DigestImpl::Vpclmul,
        ]
        .into_iter()
        .filter(|&k| crc32_update_with(k, 0, &[]).is_some())
        .collect()
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    proptest! {
        /// The dispatched fold (the wide or instruction path wherever the
        /// host has one) and every kernel this host runs equal the table
        /// fold for every length around the wide threshold and the
        /// interleave's round boundaries (several 256-byte wide rounds
        /// plus every tail), every start misalignment against a 64-byte
        /// register, any starting state and any streaming split.
        #[test]
        fn hardware_fold_equals_table_fold(
            len in 0usize..3 * hw::BLOCK + 16,
            seed in any::<u64>(),
            state in any::<u32>(),
            splits in proptest::collection::vec(any::<u16>(), 0..4),
        ) {
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..len + 63)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let mut cuts: Vec<usize> = splits.iter().map(|&s| s as usize % (len + 1)).collect();
            cuts.sort_unstable();
            let kernels = kernels();
            for misalign in 0..64 {
                let data = &buf[misalign..misalign + len];
                let want = crc32_update_table(state, data);
                prop_assert_eq!(crc32_update(state, data), want);
                for &k in &kernels {
                    prop_assert_eq!(crc32_update_with(k, state, data), Some(want));
                }
                let (mut chained, mut from) = (state, 0);
                for &cut in &cuts {
                    chained = crc32_update(chained, &data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(crc32_update(chained, &data[from..]), want);
            }
        }
    }

    /// Each wide fold constant equals `reflect32(x^e mod P) << 1` with
    /// `x^e mod P` computed one bit at a time.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_match_bit_serial_powers() {
        fn bit_serial(e: u32) -> u64 {
            let mut v = 1u32 << 31; // x^0, reflected
            for _ in 0..e {
                v = if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 };
            }
            u64::from(v) << 1
        }
        for d in [128, 256, 384, 512, 2048] {
            assert_eq!(
                hw::wide::fold_pair(d),
                [bit_serial(d + 32), bit_serial(d - 32)],
                "fold constants for distance {d}"
            );
        }
    }

    /// The RFC 3720 check values through the wide kernel. The vectors
    /// are shorter than its threshold, so each is followed by zeroes up
    /// to it: the wide fold over `vector ‖ zeroes` must equal the
    /// vector's known CRC state carried past the zeroes.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn known_vectors_through_the_wide_kernel() {
        if crc32_update_with(DigestImpl::Vpclmul, 0, &[]).is_none() {
            return; // pinned by `digest_impl_reports_what_the_host_runs`
        }
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (b"", 0),
        ];
        for (v, check) in vectors {
            for len in [WIDE_MIN, WIDE_MIN + 256 + 7, 4096] {
                let mut buf = v.to_vec();
                buf.resize(len, 0);
                let want = crc32_update_table(!check, &vec![0u8; len - v.len()]);
                assert_eq!(
                    crc32_update_with(DigestImpl::Vpclmul, !0, &buf),
                    Some(want),
                    "vector {v:02x?} padded to {len}"
                );
            }
        }
    }

    /// The gauge value is the kernel large buffers really take: on a host
    /// with the features `digest_impl` says `Vpclmul`, and on one
    /// without it reports the fallback and the wide kernel refuses.
    #[test]
    fn digest_impl_reports_what_the_host_runs() {
        #[cfg(target_arch = "x86_64")]
        let wide = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.2");
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        let forced = crc32_update_with(DigestImpl::Vpclmul, !0, &[0u8; WIDE_MIN]);
        if wide {
            assert_eq!(digest_impl(), DigestImpl::Vpclmul);
            assert_eq!(forced, Some(crc32_update_table(!0, &[0u8; WIDE_MIN])));
        } else {
            assert_ne!(digest_impl(), DigestImpl::Vpclmul);
            assert_eq!(forced, None);
        }
        assert!(kernels().contains(&digest_impl()));
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
            let want = crc32_update_table(!0, d);
            assert_eq!(crc32_update(!0, d), want);
            for k in kernels() {
                assert_eq!(crc32_update_with(k, !0, d), Some(want), "{k:?}");
            }
        }
    }
}
