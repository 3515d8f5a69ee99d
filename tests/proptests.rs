//! Property-based tests over core data structures and protocol codecs.

use bytes::Bytes;
use nvme_oaf::nvmeof::nvme::command::NvmeCommand;
use nvme_oaf::nvmeof::nvme::completion::{NvmeCompletion, Status};
use nvme_oaf::nvmeof::pdu::{CapsuleCmd, CapsuleResp, DataPdu, DataRef, ICReq, ICResp, Pdu, R2T};
use nvme_oaf::shmem::channel::Side;
use nvme_oaf::shmem::ShmChannel;
use nvme_oaf::simnet::calendar::CalendarServer;
use nvme_oaf::simnet::stats::LatencyHistogram;
use nvme_oaf::simnet::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_command() -> impl Strategy<Value = NvmeCommand> {
    (any::<u16>(), any::<u32>(), any::<u64>(), 1u32..1 << 20).prop_flat_map(
        |(cid, nsid, slba, nlb)| {
            prop_oneof![
                Just(NvmeCommand::read(cid, nsid, slba, nlb)),
                Just(NvmeCommand::write(cid, nsid, slba, nlb)),
                Just(NvmeCommand::flush(cid, nsid)),
            ]
        },
    )
}

fn arb_dataref() -> impl Strategy<Value = DataRef> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..4096)
            .prop_map(|v| DataRef::Inline(Bytes::from(v))),
        (any::<u32>(), any::<u32>()).prop_map(|(slot, len)| DataRef::ShmSlot { slot, len }),
    ]
}

fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        (any::<u16>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(pfv, maxr2t, af_caps, host_id)| Pdu::ICReq(ICReq {
                pfv,
                maxr2t,
                af_caps,
                host_id
            })
        ),
        (any::<u16>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(pfv, ioccsz, af_caps, target_id)| Pdu::ICResp(ICResp {
                pfv,
                ioccsz,
                af_caps,
                target_id
            })
        ),
        (arb_command(), proptest::option::of(arb_dataref()))
            .prop_map(|(cmd, data)| Pdu::CapsuleCmd(CapsuleCmd { cmd, data })),
        (
            any::<u16>(),
            prop_oneof![Just(Status::Success), Just(Status::LbaOutOfRange)]
        )
            .prop_map(|(cid, status)| Pdu::CapsuleResp(CapsuleResp {
                completion: NvmeCompletion { cid, status }
            })),
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()).prop_map(
            |(cid, ttag, offset, len)| Pdu::R2T(R2T {
                cid,
                ttag,
                offset,
                len
            })
        ),
        (
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<bool>(),
            arb_dataref()
        )
            .prop_map(|(cid, ttag, offset, last, data)| Pdu::H2CData(DataPdu {
                cid,
                ttag,
                offset,
                last,
                data
            })),
        (
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<bool>(),
            arb_dataref()
        )
            .prop_map(|(cid, ttag, offset, last, data)| Pdu::C2HData(DataPdu {
                cid,
                ttag,
                offset,
                last,
                data
            })),
    ]
}

proptest! {
    /// Every PDU survives an encode/decode roundtrip byte-exactly.
    #[test]
    fn pdu_codec_roundtrips(pdu in arb_pdu()) {
        let frame = pdu.encode();
        let back = Pdu::decode(frame).expect("decode");
        prop_assert_eq!(back, pdu);
    }

    /// Truncating a frame anywhere must produce an error, never a panic
    /// or a silently wrong PDU.
    #[test]
    fn truncated_pdus_error_cleanly(pdu in arb_pdu(), cut_frac in 0.0f64..1.0) {
        let frame = pdu.encode();
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        if cut < frame.len() {
            prop_assert!(Pdu::decode(frame.slice(0..cut)).is_err());
        }
    }

    /// Random payloads round-trip through the lock-free channel without
    /// corruption, across both directions.
    #[test]
    fn shm_channel_roundtrips(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..2048), 1..24)
    ) {
        let ch = ShmChannel::allocate(4, 2048);
        let client = ch.endpoint(Side::Client);
        let target = ch.endpoint(Side::Target);
        for (i, p) in payloads.iter().enumerate() {
            let (tx, rx): (&_, &_) = if i % 2 == 0 {
                (&client, &target)
            } else {
                (&target, &client)
            };
            let mut lease = tx.buffer_manager().lease(p.len()).expect("lease");
            lease.copy_from_slice(p);
            let (slot, len) = lease.publish();
            let guard = rx.recv(slot, len).expect("recv");
            prop_assert_eq!(guard.as_slice(), &p[..]);
        }
    }

    /// The calendar server never overlaps jobs, never starts before the
    /// arrival, and conserves total busy time.
    #[test]
    fn calendar_server_invariants(
        jobs in proptest::collection::vec((0u64..100_000, 1u64..5_000), 1..120)
    ) {
        let mut cal = CalendarServer::new();
        let mut placed: Vec<(u64, u64)> = Vec::new();
        let mut total = 0u64;
        for &(at, dur) in &jobs {
            let (start, done) = cal.submit(
                SimTime::from_micros(at),
                SimDuration::from_micros(dur),
            );
            prop_assert!(start >= SimTime::from_micros(at));
            prop_assert_eq!(done - start, SimDuration::from_micros(dur));
            placed.push((start.as_nanos(), done.as_nanos()));
            total += dur;
        }
        placed.sort();
        for w in placed.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "jobs overlap: {w:?}");
        }
        prop_assert_eq!(cal.busy_time(), SimDuration::from_micros(total));
    }

    /// Histogram quantiles are monotone and bounded by min/max.
    #[test]
    fn histogram_quantiles_are_sane(values in proptest::collection::vec(1u64..u32::MAX as u64, 1..400)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs: Vec<u64> = [0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
            .iter()
            .map(|&q| h.value_at_quantile(q).expect("non-empty"))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
        }
        let max = *values.iter().max().expect("non-empty");
        prop_assert!(qs[5] <= max);
        // Bucketized values may round up, but never past ~4% relative error.
        let min = *values.iter().min().expect("non-empty");
        prop_assert!((qs[0] as f64) >= min as f64 * 0.95);
    }

    /// Trace coalescing preserves total bytes and never reorders kinds
    /// within a merged run.
    #[test]
    fn coalescing_conserves_bytes(
        lens in proptest::collection::vec(1u64..100_000, 1..60),
        batch in 1u64..1_000_000,
    ) {
        use nvme_oaf::h5::{IoKind, IoRecord, IoTrace};
        let mut t = IoTrace::new();
        let mut off = 0;
        for (i, &len) in lens.iter().enumerate() {
            t.push(IoRecord {
                kind: if i % 3 == 0 { IoKind::Read } else { IoKind::Write },
                offset: off,
                len,
                depth: 1,
            });
            // Half the records are adjacent, half leave gaps.
            off += len + if i % 2 == 0 { 0 } else { 64 };
        }
        let c = t.coalesce(batch, 32);
        prop_assert_eq!(c.total_bytes(), t.total_bytes());
        prop_assert!(c.len() <= t.len());
        for r in c.records() {
            prop_assert!(r.len <= batch.max(*lens.iter().max().expect("non-empty")));
            prop_assert_eq!(r.depth, 32);
        }
    }
}
