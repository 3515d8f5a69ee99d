//! On-disk format: superblock and intent-log records.
//!
//! ```text
//! byte 0                512              1024     4096
//! ┌──────────────────────┬────────────────┬─┄┄─┬──────────────┬──────────────┄┄
//! │ superblock slot A    │ superblock B   │rsvd│  intent log  │  data region
//! └──────────────────────┴────────────────┴─┄┄─┴──────────────┴──────────────┄┄
//!                                               ◄─ log_bytes ─► ◄─ blocks·bs ─►
//! ```
//!
//! The two superblock slots alternate by epoch parity so a torn
//! superblock write can never destroy the last good one: a checkpoint
//! writes epoch `e+1` into slot `(e+1) % 2` while slot `e % 2` still
//! holds epoch `e`. On open, the valid slot with the larger epoch wins.
//!
//! Log records are appended with strictly consecutive sequence numbers
//! and carry the full payload (data journaling), so replay is
//! idempotent: applying a record twice writes the same bytes twice. A
//! record is only trusted if its magic, epoch, *expected* sequence
//! number, geometry-bounded payload length and CRC all check out —
//! anything else is the end of the durable prefix (a torn tail or
//! residue of a previous epoch).

use crate::crc32::{crc32, crc32_update};

/// Superblock magic: "OAFSTORE".
pub const SB_MAGIC: u64 = 0x4F41_4653_544F_5245;
/// On-disk format version.
pub const SB_VERSION: u32 = 2;
/// Byte size of one superblock slot.
pub const SB_SLOT_LEN: usize = 512;
/// Offset of the fixed-position log region.
pub const LOG_OFFSET: u64 = 4096;
/// Serialized superblock length (the rest of the slot is zero).
pub const SB_WIRE_LEN: usize = 52;

/// Log-record magic: "LGRC".
pub const REC_MAGIC: u32 = 0x4C47_5243;
/// Serialized record header length (payload follows, then a CRC32 word).
pub const REC_HDR_LEN: usize = 40;
/// Full serialized length of a record with `payload_len` payload bytes.
pub const fn rec_len(payload_len: usize) -> usize {
    REC_HDR_LEN + payload_len + 4
}

/// The store's durable root: geometry plus the log epoch/sequence
/// watermark as of the last checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Block size in bytes.
    pub block_size: u32,
    /// Capacity in blocks.
    pub capacity_blocks: u64,
    /// Byte size of the intent-log region.
    pub log_bytes: u64,
    /// Checkpoint epoch; only log records stamped with this epoch are
    /// live. Bumped by every checkpoint.
    pub epoch: u64,
    /// Sequence number the first live log record must carry.
    pub next_seq: u64,
}

impl Superblock {
    /// Offset of the slot this superblock (by epoch parity) lands in.
    pub fn slot_offset(epoch: u64) -> u64 {
        (epoch % 2) * SB_SLOT_LEN as u64
    }

    /// Offset of the data region for this geometry.
    pub fn data_offset(&self) -> u64 {
        LOG_OFFSET + self.log_bytes
    }

    /// Total file length for this geometry.
    pub fn file_len(&self) -> u64 {
        self.data_offset() + self.capacity_blocks * u64::from(self.block_size)
    }

    /// Serializes into a zero-padded superblock slot.
    pub fn encode(&self) -> [u8; SB_SLOT_LEN] {
        let mut out = [0u8; SB_SLOT_LEN];
        out[0..8].copy_from_slice(&SB_MAGIC.to_le_bytes());
        out[8..12].copy_from_slice(&SB_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.block_size.to_le_bytes());
        out[16..24].copy_from_slice(&self.capacity_blocks.to_le_bytes());
        out[24..32].copy_from_slice(&self.log_bytes.to_le_bytes());
        out[32..40].copy_from_slice(&self.epoch.to_le_bytes());
        // next_seq is folded into the CRC'd prefix length below.
        out[40..48].copy_from_slice(&self.next_seq.to_le_bytes());
        let crc = crc32(&out[0..48]);
        out[48..52].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes one slot; `None` if magic, version or CRC disagree.
    pub fn decode(raw: &[u8]) -> Option<Superblock> {
        if raw.len() < 52 {
            return None;
        }
        let word = |r: std::ops::Range<usize>| u64::from_le_bytes(raw[r].try_into().unwrap());
        if word(0..8) != SB_MAGIC {
            return None;
        }
        if u32::from_le_bytes(raw[8..12].try_into().unwrap()) != SB_VERSION {
            return None;
        }
        let crc = u32::from_le_bytes(raw[48..52].try_into().unwrap());
        if crc32(&raw[0..48]) != crc {
            return None;
        }
        Some(Superblock {
            block_size: u32::from_le_bytes(raw[12..16].try_into().unwrap()),
            capacity_blocks: word(16..24),
            log_bytes: word(24..32),
            epoch: word(32..40),
            next_seq: word(40..48),
        })
    }
}

/// What a log record instructs replay to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// Write the carried payload at `lba`.
    Write = 1,
    /// Deallocate (zero) the range.
    Trim = 2,
    /// Durability barrier (no data effect; recorded so the log mirrors
    /// the command stream).
    Flush = 3,
    /// Zero the range (Write Zeroes — distinct from Trim only in
    /// intent/telemetry).
    Zeroes = 4,
}

impl RecordKind {
    fn from_u8(v: u8) -> Option<RecordKind> {
        Some(match v {
            1 => RecordKind::Write,
            2 => RecordKind::Trim,
            3 => RecordKind::Flush,
            4 => RecordKind::Zeroes,
            _ => return None,
        })
    }
}

/// Record flag: the originating write carried FUA.
pub const REC_FLAG_FUA: u8 = 0x01;

/// A decoded intent-log record (header view; the payload stays in the
/// caller's buffer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordHeader {
    /// Monotonic sequence number (consecutive within an epoch).
    pub seq: u64,
    /// Epoch the record belongs to.
    pub epoch: u64,
    /// Operation.
    pub kind: RecordKind,
    /// [`REC_FLAG_FUA`] et al.
    pub flags: u8,
    /// First LBA of the affected range.
    pub lba: u64,
    /// Block count of the affected range.
    pub nlb: u32,
    /// Payload bytes following the header ([`RecordKind::Write`] only).
    pub payload_len: u32,
}

impl RecordHeader {
    /// Serializes the header into a stack buffer. The caller writes
    /// `hdr ‖ payload ‖ crc_trailer` — see [`record_crc`].
    pub fn encode(&self) -> [u8; REC_HDR_LEN] {
        let mut out = [0u8; REC_HDR_LEN];
        out[0..4].copy_from_slice(&REC_MAGIC.to_le_bytes());
        out[4..12].copy_from_slice(&self.seq.to_le_bytes());
        out[12..20].copy_from_slice(&self.epoch.to_le_bytes());
        out[20] = self.kind as u8;
        out[21] = self.flags;
        // out[22..24] reserved
        out[24..32].copy_from_slice(&self.lba.to_le_bytes());
        out[32..36].copy_from_slice(&self.nlb.to_le_bytes());
        out[36..40].copy_from_slice(&self.payload_len.to_le_bytes());
        out
    }

    /// Deserializes a header; `None` on bad magic or unknown kind (the
    /// caller still has to validate epoch, sequence and CRC).
    pub fn decode(raw: &[u8]) -> Option<RecordHeader> {
        if raw.len() < REC_HDR_LEN {
            return None;
        }
        if u32::from_le_bytes(raw[0..4].try_into().unwrap()) != REC_MAGIC {
            return None;
        }
        Some(RecordHeader {
            seq: u64::from_le_bytes(raw[4..12].try_into().unwrap()),
            epoch: u64::from_le_bytes(raw[12..20].try_into().unwrap()),
            kind: RecordKind::from_u8(raw[20])?,
            flags: raw[21],
            lba: u64::from_le_bytes(raw[24..32].try_into().unwrap()),
            nlb: u32::from_le_bytes(raw[32..36].try_into().unwrap()),
            payload_len: u32::from_le_bytes(raw[36..40].try_into().unwrap()),
        })
    }
}

/// CRC32 over `hdr ‖ payload` — the record trailer.
pub fn record_crc(hdr: &[u8; REC_HDR_LEN], payload: &[u8]) -> u32 {
    let mut c = crc32_update(0xFFFF_FFFF, hdr);
    c = crc32_update(c, payload);
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_roundtrip_and_corruption() {
        let sb = Superblock {
            block_size: 4096,
            capacity_blocks: 1024,
            log_bytes: 1 << 20,
            epoch: 7,
            next_seq: 991,
        };
        let mut raw = sb.encode();
        assert_eq!(Superblock::decode(&raw), Some(sb));
        raw[17] ^= 1;
        assert_eq!(Superblock::decode(&raw), None, "CRC must catch bit flips");
        assert_eq!(Superblock::decode(&[0u8; SB_SLOT_LEN]), None);
        assert_eq!(Superblock::slot_offset(7), 512);
        assert_eq!(Superblock::slot_offset(8), 0);
        assert_eq!(sb.data_offset(), 4096 + (1 << 20));
        assert_eq!(sb.file_len(), 4096 + (1 << 20) + 1024 * 4096);
    }

    #[test]
    fn record_header_roundtrip() {
        let h = RecordHeader {
            seq: 42,
            epoch: 3,
            kind: RecordKind::Write,
            flags: REC_FLAG_FUA,
            lba: 17,
            nlb: 4,
            payload_len: 16384,
        };
        let raw = h.encode();
        assert_eq!(RecordHeader::decode(&raw), Some(h));
        let payload = vec![0x5au8; 64];
        let crc = record_crc(&raw, &payload);
        assert_ne!(crc, record_crc(&raw, &payload[..63]));
        // Unknown kind byte rejected.
        let mut bad = raw;
        bad[20] = 9;
        assert_eq!(RecordHeader::decode(&bad), None);
    }
}
