//! Size and rate units used throughout the models.

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// A data rate in bytes per second.
///
/// Network links are conventionally quoted in decimal gigabits per second
/// (`10 Gbps == 1.25e9 B/s`), memory systems in binary gigabytes per second;
/// both constructors are provided so call sites stay honest about which
/// convention they mean.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Rate(f64);

impl Rate {
    /// Constructs a rate from bytes per second.
    #[inline]
    pub fn bytes_per_sec(bps: f64) -> Rate {
        assert!(
            bps > 0.0 && bps.is_finite(),
            "rate must be positive, got {bps}"
        );
        Rate(bps)
    }

    /// Constructs a rate from decimal gigabits per second (networking
    /// convention: 1 Gbps = 1e9 bits/s).
    #[inline]
    pub fn gbps(g: f64) -> Rate {
        Rate::bytes_per_sec(g * 1e9 / 8.0)
    }

    /// Constructs a rate from binary gibibytes per second (memory
    /// convention).
    #[inline]
    pub fn gib_per_sec(g: f64) -> Rate {
        Rate::bytes_per_sec(g * GIB as f64)
    }

    /// The rate in bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time to move `bytes` at this rate, in seconds.
    #[inline]
    pub fn transfer_secs(self, bytes: u64) -> f64 {
        bytes as f64 / self.0
    }

    /// Scales the rate by a dimensionless efficiency factor in `(0, 1]`.
    #[inline]
    pub fn scaled(self, factor: f64) -> Rate {
        Rate::bytes_per_sec(self.0 * factor)
    }
}

/// Ceiling division for chunk counting: the number of `chunk`-sized pieces
/// needed to cover `len` bytes. Zero-length transfers still occupy one
/// protocol message, so `chunks_for(0, c) == 1`.
#[inline]
pub fn chunks_for(len: u64, chunk: u64) -> u64 {
    assert!(chunk > 0, "chunk size must be nonzero");
    if len == 0 {
        1
    } else {
        len.div_ceil(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_matches_networking_convention() {
        // 10 Gbps = 1.25 GB/s decimal.
        let r = Rate::gbps(10.0);
        assert!((r.as_bytes_per_sec() - 1.25e9).abs() < 1.0);
    }

    #[test]
    fn gib_per_sec_is_binary() {
        let r = Rate::gib_per_sec(1.0);
        assert_eq!(r.as_bytes_per_sec(), GIB as f64);
    }

    #[test]
    fn transfer_time() {
        let r = Rate::bytes_per_sec(1e9);
        assert!((r.transfer_secs(500_000_000) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = Rate::bytes_per_sec(0.0);
    }

    #[test]
    fn chunk_counting() {
        assert_eq!(chunks_for(0, 128 * KIB), 1);
        assert_eq!(chunks_for(1, 128 * KIB), 1);
        assert_eq!(chunks_for(128 * KIB, 128 * KIB), 1);
        assert_eq!(chunks_for(128 * KIB + 1, 128 * KIB), 2);
        assert_eq!(chunks_for(2 * MIB, 512 * KIB), 4);
    }

    #[test]
    fn scaled_rate() {
        let r = Rate::gbps(100.0).scaled(0.5);
        assert!((r.as_bytes_per_sec() - 6.25e9).abs() < 1.0);
    }
}
