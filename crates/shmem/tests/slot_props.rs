//! Property-based tests of the lock-free double-buffer state machine:
//! random interleavings of claim/publish/consume/abort must never alias
//! two writers, never lose a payload, and always return slots to `Free`.

use std::sync::Arc;

use oaf_shmem::layout::{Dir, DoubleBufferLayout};
use oaf_shmem::slot::{SlotRing, SlotState, WriteGuard};
use oaf_shmem::{ShmError, ShmRegion};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Claim the next round-robin slot and stage a payload byte.
    Claim(u8),
    /// Publish the oldest staged claim.
    Publish,
    /// Abort the oldest staged claim.
    Abort,
    /// Consume the oldest published slot and verify its contents.
    Consume,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(Op::Claim),
            Just(Op::Publish),
            Just(Op::Abort),
            Just(Op::Consume),
        ],
        1..200,
    )
}

proptest! {
    #[test]
    fn slot_state_machine_holds_under_random_interleavings(
        ops in arb_ops(),
        depth in 1usize..9,
    ) {
        let slot_size = 256usize;
        let layout = DoubleBufferLayout::new(depth, slot_size);
        let region = Arc::new(ShmRegion::new(layout.total()));
        let ring = SlotRing::new(region, layout, Dir::ToTarget).expect("ring");

        // Model state: staged claims (guard + stamp) and published
        // (slot, len, stamp) queues.
        let mut staged: std::collections::VecDeque<(WriteGuard, u8)> =
            std::collections::VecDeque::new();
        let mut published: std::collections::VecDeque<(usize, usize, u8)> =
            std::collections::VecDeque::new();
        // The producer's round-robin cursor: it advances on every claim
        // attempt, as the Buffer Manager's does.
        let mut next = 0usize;

        for op in ops {
            match op {
                Op::Claim(stamp) => {
                    let slot = next % depth;
                    next += 1;
                    match ring.begin_write_slot(slot) {
                        Ok(mut guard) => {
                            let body = vec![stamp; 64];
                            guard.fill(&body).expect("fits");
                            staged.push_back((guard, stamp));
                        }
                        Err(ShmError::NoFreeSlot) => {
                            // Legal whenever all slots are staged,
                            // published, or mid-consume.
                            prop_assert!(
                                staged.len() + published.len() >= 1,
                                "NoFreeSlot with everything free"
                            );
                        }
                        Err(e) => prop_assert!(false, "unexpected: {e}"),
                    }
                }
                Op::Publish => {
                    if let Some((guard, stamp)) = staged.pop_front() {
                        let (slot, len) = guard.publish();
                        prop_assert_eq!(len, 64);
                        prop_assert_eq!(
                            ring.state(slot).expect("in range"),
                            SlotState::Ready
                        );
                        published.push_back((slot, len, stamp));
                    }
                }
                Op::Abort => {
                    if let Some((guard, _)) = staged.pop_front() {
                        let slot = guard.slot();
                        drop(guard); // abort: slot must return to Free
                        prop_assert_eq!(
                            ring.state(slot).expect("in range"),
                            SlotState::Free
                        );
                    }
                }
                Op::Consume => {
                    if let Some((slot, len, stamp)) = published.pop_front() {
                        let guard = ring.begin_read(slot, len).expect("published");
                        prop_assert!(
                            guard.as_slice().iter().all(|&b| b == stamp),
                            "payload corrupted in slot {slot}"
                        );
                        drop(guard);
                        prop_assert_eq!(
                            ring.state(slot).expect("in range"),
                            SlotState::Free
                        );
                    }
                }
            }
        }

        // Drain everything; the ring must end fully Free.
        for (guard, _) in staged {
            drop(guard);
        }
        for (slot, len, stamp) in published {
            let guard = ring.begin_read(slot, len).expect("published");
            prop_assert!(guard.as_slice().iter().all(|&b| b == stamp));
        }
        for s in 0..depth {
            prop_assert_eq!(ring.state(s).expect("in range"), SlotState::Free);
        }
    }

    /// Two rings over the same region (one per direction) never interfere,
    /// whatever the interleaving of sends on each side.
    #[test]
    fn directions_never_interfere(
        to_target in proptest::collection::vec(any::<u8>(), 1..40),
        to_client in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let layout = DoubleBufferLayout::new(4, 128);
        let region = Arc::new(ShmRegion::new(layout.total()));
        let t_ring = SlotRing::new(region.clone(), layout, Dir::ToTarget).expect("ring");
        let c_ring = SlotRing::new(region, layout, Dir::ToClient).expect("ring");

        let mut ti = to_target.iter();
        let mut ci = to_client.iter();
        // Each ring is drained before its next claim, so one round-robin
        // cursor serves both directions.
        let mut next = 0usize;
        loop {
            let slot = next % layout.depth;
            next += 1;
            let t = ti.next();
            let c = ci.next();
            if t.is_none() && c.is_none() {
                break;
            }
            if let Some(&stamp) = t {
                let mut g = t_ring.begin_write_slot(slot).expect("free");
                g.fill(&[stamp; 100]).expect("fits");
                let (slot, len) = g.publish();
                let r = t_ring.begin_read(slot, len).expect("ready");
                prop_assert!(r.as_slice().iter().all(|&b| b == stamp));
            }
            if let Some(&stamp) = c {
                let mut g = c_ring.begin_write_slot(slot).expect("free");
                g.fill(&[stamp; 100]).expect("fits");
                let (slot, len) = g.publish();
                let r = c_ring.begin_read(slot, len).expect("ready");
                prop_assert!(r.as_slice().iter().all(|&b| b == stamp));
            }
        }
    }
}
