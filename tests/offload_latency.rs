//! Reads stay fast while a slow sync is in flight, pinned as a test:
//! at QD≥8 mixed read+FUA on a slow-sync device, read p99 stays at
//! least **5×** below the device barrier itself, because the FUA's
//! `fdatasync` runs on the store's sync worker.
//!
//! The harness models one reactor thread the way the target runs it: a
//! FUA write is dispatched, then a queue-depth of reads that arrived
//! concurrently with it (same arrival instant) is served. The FUA
//! completion parks on a [`BarrierTicket`] and the reads are served
//! immediately; the barrier is drained (polled to `Durable`) before the
//! next round, so every round retires one full durable barrier. A
//! dispatch that waited out the sync would put every read's latency at
//! or above `SYNC_DELAY`.
//!
//! [`BarrierTicket`]: nvme_oaf::nvmeof::nvme::namespace::BarrierTicket

use std::time::{Duration, Instant};

use nvme_oaf::nvmeof::nvme::command::NvmeCommand;
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::{BarrierPoll, Namespace};
use nvme_oaf::store::vfs::MemVfs;
use nvme_oaf::store::FileDisk;

const BS: usize = 512;
const BLOCKS: u64 = 64;
const QD: usize = 8;
const ROUNDS: usize = 100;
/// A pessimistic-but-realistic device barrier: a few milliseconds, ~2
/// orders of magnitude above an in-memory read.
const SYNC_DELAY: Duration = Duration::from_millis(5);

fn controller() -> Controller {
    let vfs = MemVfs::new();
    vfs.set_sync_delay(SYNC_DELAY);
    let disk =
        FileDisk::create_on(Box::new(vfs), BS as u32, BLOCKS, 256 * 1024).expect("format disk");
    let mut ctrl = Controller::new();
    ctrl.add_namespace(Namespace::with_file(1, disk));
    ctrl
}

/// Runs the mixed QD workload and returns every read's latency, where a
/// read's clock starts at the instant its round's FUA write was
/// dispatched — the reads were queued *behind* it at the reactor.
fn read_latencies(ctrl: &mut Controller) -> Vec<Duration> {
    let payload = vec![0xd7u8; BS];
    let mut out = vec![0u8; BS];
    let mut lat = Vec::with_capacity(ROUNDS * QD);
    // Seed the blocks the reads target.
    for lba in 0..QD as u64 {
        let (c, _) = ctrl.execute(&NvmeCommand::write(1, 1, lba, 1), Some(&payload));
        assert!(c.status.is_ok());
    }
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        let (comp, _, ticket) = ctrl.execute_async(
            &NvmeCommand::write_fua(2, 1, (QD as u64) + (round as u64 % 8), 1),
            Some(&payload),
        );
        assert!(comp.status.is_ok());
        for q in 0..QD {
            let c = ctrl.read_into(&NvmeCommand::read(3, 1, q as u64, 1), &mut out);
            assert!(c.status.is_ok());
            lat.push(t0.elapsed());
        }
        // Drain the barrier before the next round so every round carries
        // one full durable obligation.
        let t = ticket.expect("a file-backed FUA tickets");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ctrl.poll_barrier(1, t) {
                BarrierPoll::Durable => break,
                BarrierPoll::Failed => panic!("sync worker failed"),
                BarrierPoll::Pending => {
                    assert!(Instant::now() < deadline, "barrier never drained");
                    std::thread::yield_now();
                }
            }
        }
    }
    lat
}

fn p99(lat: &mut [Duration]) -> Duration {
    lat.sort_unstable();
    lat[(lat.len() * 99).div_ceil(100) - 1]
}

#[test]
fn offloaded_sync_improves_read_p99_at_least_5x() {
    let mut lat = read_latencies(&mut controller());
    let p99 = p99(&mut lat);
    eprintln!("mixed read+FUA QD{QD} over a {SYNC_DELAY:?} sync: read p99 {p99:?}");
    // A read answered only after the fsync returned would sit at or
    // above the device barrier itself.
    assert!(
        p99 * 5 <= SYNC_DELAY,
        "read p99 {p99:?} is not ≥5x below the {SYNC_DELAY:?} sync"
    );
}
