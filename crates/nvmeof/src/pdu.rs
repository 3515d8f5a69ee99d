//! NVMe/TCP PDU vocabulary and binary codec.
//!
//! The connection establishment and I/O flows of the paper (Figs. 5–7) are
//! expressed in these PDUs: `ICReq`/`ICResp` for the handshake (extended
//! with adaptive-fabric capability bits, §4.1), command/response capsules,
//! `R2T` ready-to-transfer grants, and `H2CData`/`C2HData` data PDUs.
//!
//! The adaptive-fabric extension is the [`DataRef`] in every data-bearing
//! PDU: payload bytes either travel *inline* (stock NVMe/TCP) or as a
//! *shared-memory slot reference* `(slot, len)` — the out-of-band
//! notification of §4.3, where "the large sized I/O payloads are
//! transported over the shared memory" while only the control message
//! crosses TCP.
//!
//! Frames are length-prefixed and self-contained: the in-process transports
//! are frame-oriented, so no cross-frame reassembly state is needed. The
//! header mirrors the spec's common header: `type, flags, hlen, rsvd,
//! plen` where `plen` covers the whole PDU, followed by a CRC32C over the
//! entire frame (the spec's header digest + data digest, same polynomial,
//! collapsed into one word, computed with the CRC field itself zeroed). A
//! frame whose CRC does not match decodes to
//! [`NvmeofError::CorruptFrame`] instead of parsing garbage, so bit-flips
//! on the fabric surface as a typed, droppable error rather than a
//! protocol wedge.
//!
//! There is one decoder, the crate-internal `PduView::decode`, and it
//! never copies a payload: inline bytes stay borrowed from the frame, so
//! the reactors land them straight from a transport's receive window.
//! The owned [`Pdu::decode`] family is that decode plus a to-owned step.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::NvmeofError;
use crate::nvme::command::{NvmeCommand, COMMAND_WIRE_LEN};
use crate::nvme::completion::{NvmeCompletion, COMPLETION_WIRE_LEN};
use crate::transport::Frame;

/// Common header length: `type, flags, hlen, rsvd, plen(u32), crc(u32)`.
pub const HEADER_LEN: usize = 12;

/// Byte offset of the CRC32 word within the common header.
const CRC_OFFSET: usize = 8;

// The CRC32C implementation (the CPU's instruction where the host has
// one, tables otherwise) is shared with the on-disk intent-log format —
// one codec for fabric and storage, so the two can never drift on
// polynomial or construction.
use oaf_store::crc32::crc32_update;

/// CRC32C of the logical frame `head ++ tail` with the header's CRC
/// field treated as zero. `head` must cover at least the common header;
/// `tail` is the borrowed payload of a split encode (empty otherwise).
fn frame_crc(head: &[u8], tail: &[u8]) -> u32 {
    let mut c = crc32_update(0xFFFF_FFFF, &head[..CRC_OFFSET]);
    c = crc32_update(c, &[0u8; 4]);
    c = crc32_update(c, &head[HEADER_LEN..]);
    !crc32_update(c, tail)
}

/// Flag: payload is a shared-memory slot reference, not inline bytes.
pub const FLAG_SHM: u8 = 0x01;
/// Flag: last data PDU of a multi-chunk transfer.
pub const FLAG_LAST: u8 = 0x02;

/// Adaptive-fabric capability bit: endpoint can map a shared-memory
/// channel (advertised in ICReq/ICResp, §4.1). Granting it switches the
/// connection to the shared-memory flow: every write rides in-capsule as
/// a slot reference (§4.4.2) and every read lands in a leased slot
/// (§4.4.3). The other bits of `af_caps` are reserved.
pub const AF_CAP_SHM: u32 = 0x1;

mod ptype {
    pub const ICREQ: u8 = 0x00;
    pub const ICRESP: u8 = 0x01;
    pub const TERM_REQ: u8 = 0x02;
    pub const CAPSULE_CMD: u8 = 0x04;
    pub const CAPSULE_RESP: u8 = 0x05;
    pub const H2C_DATA: u8 = 0x06;
    pub const C2H_DATA: u8 = 0x07;
    pub const R2T: u8 = 0x09;
    pub const ABORT: u8 = 0x0c;
    pub const ABORT_ACK: u8 = 0x0d;
    pub const DEGRADE: u8 = 0x0e;
    pub const KEEP_ALIVE: u8 = 0x18;
    pub const KEEP_ALIVE_ACK: u8 = 0x19;
}

/// Where a data PDU's payload lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataRef {
    /// Payload bytes carried inline in the PDU (stock NVMe/TCP).
    Inline(Bytes),
    /// Payload published in a shared-memory slot; only the reference
    /// crosses the control path (NVMe-oSHM, §4.3).
    ShmSlot {
        /// Slot index within the double buffer.
        slot: u32,
        /// Payload length in bytes.
        len: u32,
    },
}

impl DataRef {
    /// Logical payload length.
    pub fn len(&self) -> usize {
        match self {
            DataRef::Inline(b) => b.len(),
            DataRef::ShmSlot { len, .. } => *len as usize,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a shared-memory reference.
    pub fn is_shm(&self) -> bool {
        matches!(self, DataRef::ShmSlot { .. })
    }
}

/// [`DataRef`] with inline bytes still borrowed from the frame.
#[derive(Clone, Copy)]
pub(crate) enum DataView<'a> {
    Inline(&'a [u8]),
    ShmSlot { slot: u32, len: u32 },
}

/// Protocol errors quote the offending PDU; a payload shows as its size.
impl std::fmt::Debug for DataView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataView::Inline(b) => write!(f, "Inline({} bytes)", b.len()),
            DataView::ShmSlot { slot, len } => write!(f, "ShmSlot {{ slot: {slot}, len: {len} }}"),
        }
    }
}

impl DataView<'_> {
    fn into_owned(self, own: impl Fn(&[u8]) -> Bytes) -> DataRef {
        match self {
            DataView::Inline(b) => DataRef::Inline(own(b)),
            DataView::ShmSlot { slot, len } => DataRef::ShmSlot { slot, len },
        }
    }
}

/// [`DataPdu`] with its payload still borrowed from the frame.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DataPduView<'a> {
    pub cid: u16,
    pub ttag: u16,
    pub offset: u32,
    pub last: bool,
    pub data: DataView<'a>,
}

impl DataPduView<'_> {
    fn into_owned(self, own: impl Fn(&[u8]) -> Bytes) -> DataPdu {
        DataPdu {
            cid: self.cid,
            ttag: self.ttag,
            offset: self.offset,
            last: self.last,
            data: self.data.into_owned(own),
        }
    }
}

/// A decoded frame whose inline payload, if it has one, is still
/// borrowed from the frame: what the reactors match on, so payload
/// bytes go from the receive window to their destination in one copy.
#[derive(Debug)]
pub(crate) enum PduView<'a> {
    /// Command capsule, in-capsule data borrowed.
    CapsuleCmd {
        cmd: NvmeCommand,
        data: Option<DataView<'a>>,
    },
    /// Host-to-controller data, payload borrowed.
    H2CData(DataPduView<'a>),
    /// Controller-to-host data, payload borrowed.
    C2HData(DataPduView<'a>),
    /// Every kind that cannot carry payload bytes, already owned.
    Control(Pdu),
}

/// Lands one data-PDU chunk at byte `off` of a reassembly buffer that is
/// never pre-zeroed: `buf.len()` is the high-water mark of landed bytes,
/// in-order chunks append past it, and only the gap an out-of-order
/// chunk leaves behind is zero-filled. `total` is the whole transfer,
/// reserved on the first chunk so appends never reallocate.
pub(crate) fn land_chunk(buf: &mut Vec<u8>, total: usize, off: usize, chunk: &[u8]) {
    buf.reserve_exact(total.saturating_sub(buf.len()));
    if buf.len() < off {
        buf.resize(off, 0);
    }
    let overlap = (buf.len() - off).min(chunk.len());
    buf[off..off + overlap].copy_from_slice(&chunk[..overlap]);
    buf.extend_from_slice(&chunk[overlap..]);
}

/// Connection initialization request (client → target).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ICReq {
    /// PDU format version.
    pub pfv: u16,
    /// Maximum outstanding R2Ts the client supports.
    pub maxr2t: u32,
    /// Adaptive-fabric capability bits ([`AF_CAP_SHM`]; the rest are
    /// reserved).
    pub af_caps: u32,
    /// Client host identity (used for locality matching, §4.2).
    pub host_id: u64,
}

/// Connection initialization response (target → client).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ICResp {
    /// PDU format version.
    pub pfv: u16,
    /// In-capsule data size limit in bytes (§4.4.2: 8 KiB for stock
    /// NVMe/TCP).
    pub ioccsz: u32,
    /// Adaptive-fabric capability bits granted.
    pub af_caps: u32,
    /// Target host identity.
    pub target_id: u64,
}

/// Ready-to-transfer grant (target → client, conservative write flow).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct R2T {
    /// Command this grant belongs to.
    pub cid: u16,
    /// Transfer tag echoed in the H2CData PDU.
    pub ttag: u16,
    /// Byte offset within the command's data.
    pub offset: u32,
    /// Bytes granted.
    pub len: u32,
}

/// Command capsule (client → target), optionally with in-capsule data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapsuleCmd {
    /// The NVMe command.
    pub cmd: NvmeCommand,
    /// In-capsule data, if the flow control mode allows it.
    pub data: Option<DataRef>,
}

/// Response capsule (target → client).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapsuleResp {
    /// The NVMe completion.
    pub completion: NvmeCompletion,
}

/// A data PDU (either direction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataPdu {
    /// Command the data belongs to.
    pub cid: u16,
    /// Transfer tag (echoes the R2T for H2C data; 0 otherwise).
    pub ttag: u16,
    /// Byte offset within the command's data.
    pub offset: u32,
    /// Whether this is the final data PDU of the transfer.
    pub last: bool,
    /// The payload.
    pub data: DataRef,
}

/// Connection termination request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TermReq {
    /// Reason code.
    pub reason: u16,
}

/// Keep-alive heartbeat. Sent by the initiator after a quiet interval;
/// the target echoes the sequence number back in a `KeepAliveAck`. Any
/// received frame counts as liveness, so the ack matters only on an
/// otherwise idle connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeepAlive {
    /// Monotonic heartbeat sequence number (echoed in the ack).
    pub seq: u64,
}

/// Abort request (client → target): cancel `cid` if it has not already
/// completed. First half of the retry handshake that keeps write
/// resubmission single-apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    /// Command identifier to abort.
    pub cid: u16,
    /// Generation tag of the attempt being aborted — the target matches
    /// `(cid, gseq)` so an abort can never resolve against a different
    /// incarnation of a reused wire cid.
    pub gseq: u32,
}

/// Abort response (target → client). `applied == true` means the
/// command had already executed — its original outcome travels in
/// `completion` so the client can complete locally even though the
/// original response capsule was lost. `applied == false` guarantees
/// the target has not executed the command and never will (the cid is
/// remembered and late duplicates are dropped), so resubmission under a
/// fresh cid cannot double-apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbortAck {
    /// Command identifier the abort targeted.
    pub cid: u16,
    /// Whether the command had already executed at the target.
    pub applied: bool,
    /// The command's original completion when `applied`; a placeholder
    /// success completion otherwise.
    pub completion: NvmeCompletion,
}

/// Payload-path degradation notice (client → target): the shared-memory
/// channel is being abandoned mid-flight; serve everything over the TCP
/// control path from here on (§4's fallback made dynamic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Degrade {
    /// Reason code (diagnostic only).
    pub reason: u16,
}

/// Any NVMe/TCP (or adaptive-fabric) PDU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pdu {
    /// Connection initialization request.
    ICReq(ICReq),
    /// Connection initialization response.
    ICResp(ICResp),
    /// Command capsule.
    CapsuleCmd(CapsuleCmd),
    /// Response capsule.
    CapsuleResp(CapsuleResp),
    /// Ready-to-transfer grant.
    R2T(R2T),
    /// Host-to-controller data.
    H2CData(DataPdu),
    /// Controller-to-host data.
    C2HData(DataPdu),
    /// Termination request.
    TermReq(TermReq),
    /// Keep-alive heartbeat.
    KeepAlive(KeepAlive),
    /// Keep-alive echo.
    KeepAliveAck(KeepAlive),
    /// Abort request.
    Abort(Abort),
    /// Abort response.
    AbortAck(AbortAck),
    /// Shared-memory payload-path degradation notice.
    Degrade(Degrade),
}

fn put_header(dst: &mut BytesMut, ptype: u8, flags: u8, body_len: usize) {
    dst.put_u8(ptype);
    dst.put_u8(flags);
    dst.put_u8(HEADER_LEN as u8);
    dst.put_u8(0);
    dst.put_u32_le((HEADER_LEN + body_len) as u32);
    dst.put_u32_le(0); // CRC field, patched once the body is encoded
}

fn encode_dataref(dst: &mut BytesMut, data: &DataRef) {
    match data {
        DataRef::Inline(b) => {
            dst.put_u32_le(b.len() as u32);
            dst.put_slice(b);
        }
        DataRef::ShmSlot { slot, len } => {
            dst.put_u32_le(*len);
            dst.put_u32_le(*slot);
        }
    }
}

fn decode_dataview<'a>(src: &mut &'a [u8], flags: u8) -> Result<DataView<'a>, NvmeofError> {
    if src.remaining() < 4 {
        return Err(NvmeofError::Codec("dataref truncated".into()));
    }
    let len = src.get_u32_le();
    if flags & FLAG_SHM != 0 {
        if src.remaining() < 4 {
            return Err(NvmeofError::Codec("shm slot truncated".into()));
        }
        let slot = src.get_u32_le();
        Ok(DataView::ShmSlot { slot, len })
    } else {
        if src.remaining() < len as usize {
            return Err(NvmeofError::Codec(format!(
                "inline payload truncated: {} < {len}",
                src.remaining()
            )));
        }
        let (payload, rest) = src.split_at(len as usize);
        *src = rest;
        Ok(DataView::Inline(payload))
    }
}

impl<'a> PduView<'a> {
    /// The one PDU decoder: structural checks, then the frame CRC, then
    /// the body — with any inline payload left in place in `frame`.
    pub(crate) fn decode(frame: &'a [u8]) -> Result<PduView<'a>, NvmeofError> {
        if frame.len() < HEADER_LEN {
            return Err(NvmeofError::Codec("header truncated".into()));
        }
        let mut src = frame;
        let ptype = src.get_u8();
        let flags = src.get_u8();
        let hlen = src.get_u8();
        let _rsvd = src.get_u8();
        let plen = src.get_u32_le() as usize;
        let stored_crc = src.get_u32_le();
        if hlen as usize != HEADER_LEN {
            return Err(NvmeofError::Codec(format!("bad hlen {hlen}")));
        }
        if plen != frame.len() {
            return Err(NvmeofError::Codec(format!(
                "plen {plen} does not match frame length {}",
                frame.len()
            )));
        }
        if frame_crc(frame, &[]) != stored_crc {
            return Err(NvmeofError::CorruptFrame);
        }
        let control = match ptype {
            ptype::ICREQ => {
                if src.remaining() < 18 {
                    return Err(NvmeofError::Codec("icreq truncated".into()));
                }
                Pdu::ICReq(ICReq {
                    pfv: src.get_u16_le(),
                    maxr2t: src.get_u32_le(),
                    af_caps: src.get_u32_le(),
                    host_id: src.get_u64_le(),
                })
            }
            ptype::ICRESP => {
                if src.remaining() < 18 {
                    return Err(NvmeofError::Codec("icresp truncated".into()));
                }
                Pdu::ICResp(ICResp {
                    pfv: src.get_u16_le(),
                    ioccsz: src.get_u32_le(),
                    af_caps: src.get_u32_le(),
                    target_id: src.get_u64_le(),
                })
            }
            ptype::CAPSULE_CMD => {
                let cmd = NvmeCommand::decode(&mut src)?;
                if src.remaining() < 1 {
                    return Err(NvmeofError::Codec("capsule data marker missing".into()));
                }
                let has_data = src.get_u8() != 0;
                let data = if has_data {
                    Some(decode_dataview(&mut src, flags)?)
                } else {
                    None
                };
                return Ok(PduView::CapsuleCmd { cmd, data });
            }
            ptype::CAPSULE_RESP => Pdu::CapsuleResp(CapsuleResp {
                completion: NvmeCompletion::decode(&mut src)?,
            }),
            ptype::R2T => {
                if src.remaining() < 12 {
                    return Err(NvmeofError::Codec("r2t truncated".into()));
                }
                Pdu::R2T(R2T {
                    cid: src.get_u16_le(),
                    ttag: src.get_u16_le(),
                    offset: src.get_u32_le(),
                    len: src.get_u32_le(),
                })
            }
            ptype::H2C_DATA | ptype::C2H_DATA => {
                if src.remaining() < 8 {
                    return Err(NvmeofError::Codec("data pdu truncated".into()));
                }
                let view = DataPduView {
                    cid: src.get_u16_le(),
                    ttag: src.get_u16_le(),
                    offset: src.get_u32_le(),
                    last: flags & FLAG_LAST != 0,
                    data: decode_dataview(&mut src, flags)?,
                };
                return Ok(if ptype == ptype::H2C_DATA {
                    PduView::H2CData(view)
                } else {
                    PduView::C2HData(view)
                });
            }
            ptype::TERM_REQ => {
                if src.remaining() < 2 {
                    return Err(NvmeofError::Codec("termreq truncated".into()));
                }
                Pdu::TermReq(TermReq {
                    reason: src.get_u16_le(),
                })
            }
            ptype::KEEP_ALIVE | ptype::KEEP_ALIVE_ACK => {
                if src.remaining() < 8 {
                    return Err(NvmeofError::Codec("keep-alive truncated".into()));
                }
                let ka = KeepAlive {
                    seq: src.get_u64_le(),
                };
                if ptype == ptype::KEEP_ALIVE {
                    Pdu::KeepAlive(ka)
                } else {
                    Pdu::KeepAliveAck(ka)
                }
            }
            ptype::ABORT => {
                if src.remaining() < 6 {
                    return Err(NvmeofError::Codec("abort truncated".into()));
                }
                Pdu::Abort(Abort {
                    cid: src.get_u16_le(),
                    gseq: src.get_u32_le(),
                })
            }
            ptype::ABORT_ACK => {
                if src.remaining() < 3 + COMPLETION_WIRE_LEN {
                    return Err(NvmeofError::Codec("abort ack truncated".into()));
                }
                let cid = src.get_u16_le();
                let applied = src.get_u8() != 0;
                let completion = NvmeCompletion::decode(&mut src)?;
                Pdu::AbortAck(AbortAck {
                    cid,
                    applied,
                    completion,
                })
            }
            ptype::DEGRADE => {
                if src.remaining() < 2 {
                    return Err(NvmeofError::Codec("degrade truncated".into()));
                }
                Pdu::Degrade(Degrade {
                    reason: src.get_u16_le(),
                })
            }
            other => return Err(NvmeofError::Codec(format!("unknown pdu type {other:#x}"))),
        };
        Ok(PduView::Control(control))
    }

    /// The to-owned step: `own` turns a borrowed inline payload into
    /// `Bytes` (a copy for a borrowed frame, a shared slice of an owned
    /// one).
    fn into_owned(self, own: impl Fn(&[u8]) -> Bytes) -> Pdu {
        match self {
            PduView::CapsuleCmd { cmd, data } => Pdu::CapsuleCmd(CapsuleCmd {
                cmd,
                data: data.map(|d| d.into_owned(own)),
            }),
            PduView::H2CData(d) => Pdu::H2CData(d.into_owned(own)),
            PduView::C2HData(d) => Pdu::C2HData(d.into_owned(own)),
            PduView::Control(pdu) => pdu,
        }
    }
}

impl Pdu {
    /// Encodes the PDU into a self-contained frame.
    ///
    /// Allocates a fresh buffer per call; hot paths should encode into
    /// a per-connection scratch with [`Pdu::encode_into`] instead.
    pub fn encode(&self) -> Bytes {
        let mut dst = BytesMut::with_capacity(HEADER_LEN + 64 + self.payload_hint());
        self.encode_into(&mut dst);
        dst.freeze()
    }

    /// Appends the encoded PDU to `dst`, reusing its capacity — the
    /// zero-allocation encode path. Callers keep a reusable scratch
    /// `BytesMut`, `clear()` it, encode, and hand the filled slice to
    /// `Transport::send_frame`.
    pub fn encode_into(&self, dst: &mut BytesMut) {
        let start = dst.len();
        self.encode_body(dst);
        // Patch the CRC over the finished frame. The CRC field itself is
        // still zero at this point, so hashing the frame as-is matches
        // the zeroed-field convention the decoder verifies against.
        let crc = frame_crc(&dst[start..], &[]);
        dst[start + CRC_OFFSET..start + CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Encodes a data PDU's *prefix* — header, cid/ttag/offset, inline
    /// length word — into `dst` and returns the payload slice to be
    /// transmitted immediately after it, for transports that can send
    /// `[prefix, payload]` with one vectored write instead of coalescing
    /// the payload into the scratch buffer first.
    ///
    /// The header's `plen` and CRC account for the payload, so
    /// `prefix ++ payload` on the wire is byte-identical to
    /// [`Pdu::encode_into`] output and decodes with the unchanged
    /// decoder. Returns `None` for PDUs with no borrowable inline
    /// payload (callers fall back to `encode_into` + `send_frame`).
    pub fn encode_split_into<'a>(&'a self, dst: &mut BytesMut) -> Option<&'a [u8]> {
        let (t, p) = match self {
            Pdu::H2CData(p) => (ptype::H2C_DATA, p),
            Pdu::C2HData(p) => (ptype::C2H_DATA, p),
            _ => return None,
        };
        let DataRef::Inline(b) = &p.data else {
            return None;
        };
        let start = dst.len();
        let mut flags = 0u8;
        if p.last {
            flags |= FLAG_LAST;
        }
        put_header(dst, t, flags, 8 + 4 + b.len());
        dst.put_u16_le(p.cid);
        dst.put_u16_le(p.ttag);
        dst.put_u32_le(p.offset);
        dst.put_u32_le(b.len() as u32);
        // CRC over the logical frame (prefix ++ payload) with the CRC
        // field zeroed, continued incrementally over the borrowed
        // payload so the bytes never pass through `dst`.
        let crc = frame_crc(&dst[start..], b);
        dst[start + CRC_OFFSET..start + CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        Some(b)
    }

    fn encode_body(&self, dst: &mut BytesMut) {
        match self {
            Pdu::ICReq(p) => {
                put_header(dst, ptype::ICREQ, 0, 18);
                dst.put_u16_le(p.pfv);
                dst.put_u32_le(p.maxr2t);
                dst.put_u32_le(p.af_caps);
                dst.put_u64_le(p.host_id);
            }
            Pdu::ICResp(p) => {
                put_header(dst, ptype::ICRESP, 0, 18);
                dst.put_u16_le(p.pfv);
                dst.put_u32_le(p.ioccsz);
                dst.put_u32_le(p.af_caps);
                dst.put_u64_le(p.target_id);
            }
            Pdu::CapsuleCmd(p) => {
                let (flags, body_len) = match &p.data {
                    None => (0u8, COMMAND_WIRE_LEN + 1),
                    Some(DataRef::Inline(b)) => (0u8, COMMAND_WIRE_LEN + 1 + 4 + b.len()),
                    Some(DataRef::ShmSlot { .. }) => (FLAG_SHM, COMMAND_WIRE_LEN + 1 + 8),
                };
                put_header(dst, ptype::CAPSULE_CMD, flags, body_len);
                p.cmd.encode(dst);
                match &p.data {
                    None => dst.put_u8(0),
                    Some(d) => {
                        dst.put_u8(1);
                        encode_dataref(dst, d);
                    }
                }
            }
            Pdu::CapsuleResp(p) => {
                put_header(dst, ptype::CAPSULE_RESP, 0, COMPLETION_WIRE_LEN);
                p.completion.encode(dst);
            }
            Pdu::R2T(p) => {
                put_header(dst, ptype::R2T, 0, 12);
                dst.put_u16_le(p.cid);
                dst.put_u16_le(p.ttag);
                dst.put_u32_le(p.offset);
                dst.put_u32_le(p.len);
            }
            Pdu::H2CData(p) | Pdu::C2HData(p) => {
                let t = if matches!(self, Pdu::H2CData(_)) {
                    ptype::H2C_DATA
                } else {
                    ptype::C2H_DATA
                };
                let mut flags = 0u8;
                if p.data.is_shm() {
                    flags |= FLAG_SHM;
                }
                if p.last {
                    flags |= FLAG_LAST;
                }
                let data_len = match &p.data {
                    DataRef::Inline(b) => 4 + b.len(),
                    DataRef::ShmSlot { .. } => 8,
                };
                put_header(dst, t, flags, 8 + data_len);
                dst.put_u16_le(p.cid);
                dst.put_u16_le(p.ttag);
                dst.put_u32_le(p.offset);
                encode_dataref(dst, &p.data);
            }
            Pdu::TermReq(p) => {
                put_header(dst, ptype::TERM_REQ, 0, 2);
                dst.put_u16_le(p.reason);
            }
            Pdu::KeepAlive(p) | Pdu::KeepAliveAck(p) => {
                let t = if matches!(self, Pdu::KeepAlive(_)) {
                    ptype::KEEP_ALIVE
                } else {
                    ptype::KEEP_ALIVE_ACK
                };
                put_header(dst, t, 0, 8);
                dst.put_u64_le(p.seq);
            }
            Pdu::Abort(p) => {
                put_header(dst, ptype::ABORT, 0, 6);
                dst.put_u16_le(p.cid);
                dst.put_u32_le(p.gseq);
            }
            Pdu::AbortAck(p) => {
                put_header(dst, ptype::ABORT_ACK, 0, 3 + COMPLETION_WIRE_LEN);
                dst.put_u16_le(p.cid);
                dst.put_u8(p.applied as u8);
                p.completion.encode(dst);
            }
            Pdu::Degrade(p) => {
                put_header(dst, ptype::DEGRADE, 0, 2);
                dst.put_u16_le(p.reason);
            }
        }
    }

    fn payload_hint(&self) -> usize {
        match self {
            Pdu::CapsuleCmd(CapsuleCmd {
                data: Some(DataRef::Inline(b)),
                ..
            }) => b.len(),
            Pdu::H2CData(DataPdu {
                data: DataRef::Inline(b),
                ..
            })
            | Pdu::C2HData(DataPdu {
                data: DataRef::Inline(b),
                ..
            }) => b.len(),
            _ => 0,
        }
    }

    /// Decodes one frame produced by [`Pdu::encode`]. An inline payload
    /// comes back as a view into `frame`'s storage, not a copy.
    pub fn decode(frame: Bytes) -> Result<Pdu, NvmeofError> {
        let base = frame.as_ptr() as usize;
        Ok(PduView::decode(&frame)?.into_owned(|payload| {
            let off = payload.as_ptr() as usize - base;
            frame.slice(off..off + payload.len())
        }))
    }

    /// Decodes a borrowed frame.
    ///
    /// Slot-reference PDUs (the steady-state shm control traffic) decode
    /// without touching the heap; inline payloads are copied out, since
    /// the caller's slice does not outlive the call.
    pub fn decode_slice(frame: &[u8]) -> Result<Pdu, NvmeofError> {
        Ok(PduView::decode(frame)?.into_owned(Bytes::copy_from_slice))
    }

    /// Decodes a [`Frame`] from [`Transport::recv_batch`], picking the
    /// zero-copy owned path or the borrowed slice path automatically.
    ///
    /// [`Transport::recv_batch`]: crate::transport::Transport::recv_batch
    pub fn decode_frame(frame: Frame<'_>) -> Result<Pdu, NvmeofError> {
        match frame {
            Frame::Owned(b) => Self::decode(b),
            Frame::Borrowed(s) => Self::decode_slice(s),
        }
    }

    /// Exact encoded size in bytes, computed without encoding.
    ///
    /// Mirrors the `body_len` arithmetic in [`Pdu::encode_into`]; the
    /// codec tests assert the two stay in lock-step.
    pub fn encoded_len(&self) -> usize {
        let body = match self {
            Pdu::ICReq(_) | Pdu::ICResp(_) => 18,
            Pdu::CapsuleCmd(p) => match &p.data {
                None => COMMAND_WIRE_LEN + 1,
                Some(DataRef::Inline(b)) => COMMAND_WIRE_LEN + 1 + 4 + b.len(),
                Some(DataRef::ShmSlot { .. }) => COMMAND_WIRE_LEN + 1 + 8,
            },
            Pdu::CapsuleResp(_) => COMPLETION_WIRE_LEN,
            Pdu::R2T(_) => 12,
            Pdu::H2CData(p) | Pdu::C2HData(p) => match &p.data {
                DataRef::Inline(b) => 8 + 4 + b.len(),
                DataRef::ShmSlot { .. } => 8 + 8,
            },
            Pdu::TermReq(_) => 2,
            Pdu::KeepAlive(_) | Pdu::KeepAliveAck(_) => 8,
            Pdu::Abort(_) => 6,
            Pdu::AbortAck(_) => 3 + COMPLETION_WIRE_LEN,
            Pdu::Degrade(_) => 2,
        };
        HEADER_LEN + body
    }

    /// Control-message size of this PDU on the wire, *excluding* inline
    /// payload bytes — the quantity the latency models charge to the
    /// control path.
    pub fn control_len(&self) -> usize {
        self.encoded_len() - self.payload_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inline payload a view borrows, if its kind carries one.
    fn borrowed_payload<'a>(view: &PduView<'a>) -> Option<&'a [u8]> {
        match *view {
            PduView::CapsuleCmd {
                data: Some(DataView::Inline(b)),
                ..
            } => Some(b),
            PduView::H2CData(DataPduView {
                data: DataView::Inline(b),
                ..
            })
            | PduView::C2HData(DataPduView {
                data: DataView::Inline(b),
                ..
            }) => Some(b),
            _ => None,
        }
    }

    /// Every decode entry point agrees on `p`, and the borrowed decode
    /// leaves an inline payload where it arrived: inside the frame.
    fn roundtrip(p: Pdu) {
        let frame = p.encode();
        assert_eq!(frame.len(), p.encoded_len());
        let view = PduView::decode(&frame).unwrap();
        match borrowed_payload(&view) {
            Some(b) => {
                assert_eq!(b.len(), p.payload_hint());
                assert!(
                    frame.as_ptr_range().contains(&b.as_ptr()) || b.is_empty(),
                    "borrowed decode copied the payload out of the frame"
                );
            }
            None => assert_eq!(p.payload_hint(), 0, "inline payload lost by the view"),
        }
        assert_eq!(view.into_owned(Bytes::copy_from_slice), p);
        assert_eq!(Pdu::decode_slice(&frame).unwrap(), p);
        assert_eq!(Pdu::decode_frame(Frame::Borrowed(&frame)).unwrap(), p);
        assert_eq!(Pdu::decode_frame(Frame::Owned(frame.clone())).unwrap(), p);
        assert_eq!(Pdu::decode(frame).unwrap(), p);
    }

    #[test]
    fn icreq_icresp_roundtrip() {
        roundtrip(Pdu::ICReq(ICReq {
            pfv: 1,
            maxr2t: 16,
            // Reserved bits travel verbatim.
            af_caps: AF_CAP_SHM | 0x8000_0000,
            host_id: 0x1122_3344_5566_7788,
        }));
        roundtrip(Pdu::ICResp(ICResp {
            pfv: 1,
            ioccsz: 8192,
            af_caps: AF_CAP_SHM,
            target_id: 42,
        }));
    }

    #[test]
    fn capsule_cmd_variants_roundtrip() {
        roundtrip(Pdu::CapsuleCmd(CapsuleCmd {
            cmd: NvmeCommand::read(5, 1, 100, 8),
            data: None,
        }));
        roundtrip(Pdu::CapsuleCmd(CapsuleCmd {
            cmd: NvmeCommand::write(6, 1, 0, 1),
            data: Some(DataRef::Inline(Bytes::from_static(b"in-capsule bytes"))),
        }));
        roundtrip(Pdu::CapsuleCmd(CapsuleCmd {
            cmd: NvmeCommand::write(7, 1, 0, 32),
            data: Some(DataRef::ShmSlot {
                slot: 17,
                len: 131072,
            }),
        }));
    }

    #[test]
    fn data_pdus_roundtrip() {
        roundtrip(Pdu::H2CData(DataPdu {
            cid: 1,
            ttag: 9,
            offset: 4096,
            last: true,
            data: DataRef::Inline(Bytes::from(vec![0xee; 512])),
        }));
        roundtrip(Pdu::C2HData(DataPdu {
            cid: 2,
            ttag: 0,
            offset: 0,
            last: false,
            data: DataRef::ShmSlot {
                slot: 3,
                len: 65536,
            },
        }));
        roundtrip(Pdu::C2HData(DataPdu {
            cid: 3,
            ttag: 0,
            offset: 8192,
            last: true,
            data: DataRef::Inline(Bytes::from(vec![0x3c; 4096])),
        }));
        roundtrip(Pdu::H2CData(DataPdu {
            cid: 4,
            ttag: 7,
            offset: 0,
            last: true,
            data: DataRef::ShmSlot { slot: 9, len: 512 },
        }));
        roundtrip(Pdu::C2HData(DataPdu {
            cid: 5,
            ttag: 0,
            offset: 0,
            last: true,
            data: DataRef::Inline(Bytes::new()),
        }));
    }

    #[test]
    fn r2t_and_term_roundtrip() {
        roundtrip(Pdu::R2T(R2T {
            cid: 11,
            ttag: 12,
            offset: 0,
            len: 128 * 1024,
        }));
        roundtrip(Pdu::TermReq(TermReq { reason: 2 }));
        roundtrip(Pdu::CapsuleResp(CapsuleResp {
            completion: NvmeCompletion::ok(11),
        }));
    }

    #[test]
    fn plen_mismatch_rejected() {
        let mut frame = BytesMut::from(&Pdu::TermReq(TermReq { reason: 0 }).encode()[..]);
        frame.extend_from_slice(&[0u8; 3]); // trailing garbage
        assert!(matches!(
            Pdu::decode(frame.freeze()),
            Err(NvmeofError::Codec(_))
        ));
    }

    #[test]
    fn truncated_frames_rejected() {
        let full = Pdu::R2T(R2T {
            cid: 1,
            ttag: 2,
            offset: 3,
            len: 4,
        })
        .encode();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN + 3] {
            let partial = full.slice(0..cut);
            assert!(Pdu::decode(partial).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(0x7f);
        raw.put_u8(0);
        raw.put_u8(HEADER_LEN as u8);
        raw.put_u8(0);
        raw.put_u32_le(HEADER_LEN as u32);
        raw.put_u32_le(0);
        let crc = frame_crc(&raw, &[]);
        raw[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Pdu::decode(raw.freeze()),
            Err(NvmeofError::Codec(m)) if m.contains("unknown pdu type")
        ));
    }

    #[test]
    fn recovery_pdus_roundtrip() {
        roundtrip(Pdu::KeepAlive(KeepAlive { seq: 7 }));
        roundtrip(Pdu::KeepAliveAck(KeepAlive { seq: u64::MAX }));
        roundtrip(Pdu::Abort(Abort {
            cid: 0x1234,
            gseq: 0xdead_beef,
        }));
        roundtrip(Pdu::AbortAck(AbortAck {
            cid: 0x1234,
            applied: true,
            completion: NvmeCompletion::ok(0x1234),
        }));
        roundtrip(Pdu::AbortAck(AbortAck {
            cid: 9,
            applied: false,
            completion: NvmeCompletion::error(9, crate::nvme::completion::Status::InternalError),
        }));
        roundtrip(Pdu::Degrade(Degrade { reason: 1 }));
    }

    #[test]
    fn corrupted_frames_surface_as_corrupt_frame() {
        let p = Pdu::CapsuleCmd(CapsuleCmd {
            cmd: NvmeCommand::write(3, 1, 64, 8),
            data: Some(DataRef::Inline(Bytes::from_static(b"payload bytes"))),
        });
        let clean = p.encode();
        // Flip every byte position in turn; every flip must surface as a
        // typed error (CorruptFrame for body/CRC damage, Codec when the
        // flip lands on a structural length field), never as a wrong
        // decode or a panic.
        for pos in 0..clean.len() {
            let mut bad = clean.to_vec();
            bad[pos] ^= 0x40;
            match Pdu::decode_slice(&bad) {
                Err(NvmeofError::CorruptFrame) | Err(NvmeofError::Codec(_)) => {}
                other => panic!("flip at {pos} produced {other:?}"),
            }
        }
        // The pristine frame still decodes.
        assert_eq!(Pdu::decode(clean).unwrap(), p);
    }

    #[test]
    fn corrupted_payload_byte_fails_every_decode_path() {
        // A payload-sized data PDU: the digest runs its interleaved
        // rounds, and the borrowed decode must check it before lending
        // a single payload byte.
        let payload: Vec<u8> = (0..128 * 1024u32).map(|i| (i % 253) as u8).collect();
        let clean = Pdu::H2CData(DataPdu {
            cid: 5,
            ttag: 2,
            offset: 0,
            last: true,
            data: DataRef::Inline(Bytes::from(payload)),
        })
        .encode();
        let payload_at = clean.len() - 128 * 1024;
        for pos in [payload_at, payload_at + 4097, clean.len() - 1] {
            let mut bad = clean.to_vec();
            bad[pos] ^= 0x01;
            assert!(matches!(
                PduView::decode(&bad),
                Err(NvmeofError::CorruptFrame)
            ));
            assert!(matches!(
                Pdu::decode_slice(&bad),
                Err(NvmeofError::CorruptFrame)
            ));
            assert!(matches!(
                Pdu::decode(Bytes::from(bad)),
                Err(NvmeofError::CorruptFrame)
            ));
        }
    }

    #[test]
    fn land_chunk_appends_in_order_and_zero_fills_only_gaps() {
        let mut buf = Vec::new();
        land_chunk(&mut buf, 12, 0, b"abcd");
        assert_eq!(buf.capacity(), 12, "whole transfer reserved up front");
        land_chunk(&mut buf, 12, 4, b"efgh");
        assert_eq!(buf, b"abcdefgh");
        // Out of order: the hole reads as zeroes until its chunk lands.
        let mut buf = Vec::new();
        land_chunk(&mut buf, 12, 8, b"ijkl");
        assert_eq!(buf, b"\0\0\0\0\0\0\0\0ijkl");
        land_chunk(&mut buf, 12, 0, b"abcd");
        // A duplicate that straddles the high-water mark overwrites and
        // extends.
        buf.truncate(6);
        land_chunk(&mut buf, 12, 4, b"efgh");
        assert_eq!(buf, b"abcdefgh");
    }

    #[test]
    fn control_len_excludes_inline_payload() {
        let big = Pdu::C2HData(DataPdu {
            cid: 1,
            ttag: 0,
            offset: 0,
            last: true,
            data: DataRef::Inline(Bytes::from(vec![0u8; 100_000])),
        });
        assert!(big.control_len() < 64);
        let shm = Pdu::C2HData(DataPdu {
            cid: 1,
            ttag: 0,
            offset: 0,
            last: true,
            data: DataRef::ShmSlot {
                slot: 0,
                len: 100_000,
            },
        });
        assert!(shm.control_len() < 64);
        assert_eq!(shm.encode().len(), shm.control_len());
    }

    #[test]
    fn encode_into_reuses_scratch_capacity() {
        let mut scratch = BytesMut::with_capacity(256);
        let cap_before = scratch.capacity();
        let pdus = [
            Pdu::CapsuleCmd(CapsuleCmd {
                cmd: NvmeCommand::write(1, 1, 0, 8),
                data: Some(DataRef::ShmSlot { slot: 2, len: 4096 }),
            }),
            Pdu::CapsuleResp(CapsuleResp {
                completion: NvmeCompletion::ok(1),
            }),
            Pdu::R2T(R2T {
                cid: 1,
                ttag: 3,
                offset: 0,
                len: 4096,
            }),
        ];
        for p in &pdus {
            scratch.clear();
            p.encode_into(&mut scratch);
            assert_eq!(scratch.len(), p.encoded_len());
            assert_eq!(Pdu::decode_slice(&scratch).unwrap(), *p);
        }
        assert_eq!(scratch.capacity(), cap_before, "scratch reallocated");
    }

    #[test]
    fn decode_frame_handles_both_variants() {
        use crate::transport::Frame;
        let p = Pdu::CapsuleResp(CapsuleResp {
            completion: NvmeCompletion::ok(9),
        });
        let frame = p.encode();
        assert_eq!(Pdu::decode_frame(Frame::Borrowed(&frame)).unwrap(), p);
        assert_eq!(Pdu::decode_frame(Frame::Owned(frame)).unwrap(), p);
    }

    #[test]
    fn split_encode_is_wire_identical_to_coalesced() {
        for (last, ctor) in [(false, false), (true, false), (false, true), (true, true)] {
            let payload = Bytes::from((0u8..=255).cycle().take(1000).collect::<Vec<u8>>());
            let pdu = DataPdu {
                cid: 7,
                ttag: 9,
                offset: 0x1_0000,
                last,
                data: DataRef::Inline(payload),
            };
            let pdu = if ctor {
                Pdu::C2HData(pdu)
            } else {
                Pdu::H2CData(pdu)
            };
            let mut whole = BytesMut::new();
            pdu.encode_into(&mut whole);
            let mut prefix = BytesMut::new();
            let tail = pdu.encode_split_into(&mut prefix).expect("inline data");
            let mut glued = prefix.to_vec();
            glued.extend_from_slice(tail);
            assert_eq!(&glued[..], &whole[..], "last={last} c2h={ctor}");
            assert_eq!(Pdu::decode_slice(&glued).unwrap(), pdu);
        }
    }

    #[test]
    fn split_encode_declines_non_inline_pdus() {
        let mut scratch = BytesMut::new();
        let shm = Pdu::H2CData(DataPdu {
            cid: 1,
            ttag: 2,
            offset: 0,
            last: true,
            data: DataRef::ShmSlot { slot: 3, len: 4096 },
        });
        assert!(shm.encode_split_into(&mut scratch).is_none());
        assert!(scratch.is_empty(), "declined encode must not emit bytes");
        let r2t = Pdu::R2T(R2T {
            cid: 1,
            ttag: 2,
            offset: 0,
            len: 4096,
        });
        assert!(r2t.encode_split_into(&mut scratch).is_none());
    }

    #[test]
    fn dataref_len_and_kind() {
        let inline = DataRef::Inline(Bytes::from_static(b"xyz"));
        assert_eq!(inline.len(), 3);
        assert!(!inline.is_shm());
        let slot = DataRef::ShmSlot { slot: 1, len: 0 };
        assert!(slot.is_empty());
        assert!(slot.is_shm());
    }
}
