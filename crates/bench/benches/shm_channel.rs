//! Criterion micro-benchmarks of the real shared-memory channel: the
//! Fig. 8 ablation ladder measured on actual hardware (this machine)
//! rather than the calibrated model — lock-free ring vs locked region,
//! one-copy send vs zero-copy lease, across payload sizes. Every
//! lock-free row claims its slot from the Buffer Manager; the one-copy
//! rows then copy the payload in, the zero-copy rows build it in place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oaf_shmem::channel::Side;
use oaf_shmem::layout::Dir;
use oaf_shmem::locked::LockedShm;
use oaf_shmem::ShmChannel;

const SIZES: &[usize] = &[4 << 10, 64 << 10, 128 << 10, 512 << 10];

fn bench_lock_free_one_copy(c: &mut Criterion) {
    let mut g = c.benchmark_group("shm/lock-free-one-copy");
    for &size in SIZES {
        let ch = ShmChannel::allocate(8, size);
        let client = ch.endpoint(Side::Client);
        let target = ch.endpoint(Side::Target);
        let payload = vec![0xabu8; size];
        let mut out = vec![0u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let mut lease = client.buffer_manager().lease(size).expect("lease");
                lease.copy_from_slice(&payload);
                let (slot, len) = lease.publish();
                let guard = target.recv(slot, len).expect("recv");
                guard.copy_to(&mut out[..len]);
            })
        });
    }
    g.finish();
}

fn bench_lock_free_zero_copy(c: &mut Criterion) {
    let mut g = c.benchmark_group("shm/lock-free-zero-copy");
    for &size in SIZES {
        let ch = ShmChannel::allocate(8, size);
        let client = ch.endpoint(Side::Client);
        let target = ch.endpoint(Side::Target);
        let mut out = vec![0u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                // The application builds its data in place (§4.4.3): the
                // publish itself costs nothing.
                let mut lease = client.buffer_manager().lease(size).expect("lease");
                lease[0] = 1; // the app "fills" its buffer
                let (slot, len) = lease.publish();
                let guard = target.recv(slot, len).expect("recv");
                guard.copy_to(&mut out[..len]);
            })
        });
    }
    g.finish();
}

fn bench_locked_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("shm/locked-baseline");
    for &size in SIZES {
        let shm = LockedShm::allocate(8, size);
        let payload = vec![0xabu8; size];
        let mut out = vec![0u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let slot = shm.send(Dir::ToTarget, &payload).expect("send");
                shm.recv(Dir::ToTarget, slot, &mut out).expect("recv");
            })
        });
    }
    g.finish();
}

fn bench_cross_thread_pipeline(c: &mut Criterion) {
    // Producer and consumer on separate threads: the steady-state rate of
    // the full duplex ring under real contention.
    let mut g = c.benchmark_group("shm/cross-thread");
    let size = 128 << 10;
    g.throughput(Throughput::Bytes(size as u64));
    g.bench_function("128K-pipelined", |b| {
        b.iter_custom(|iters| {
            let ch = ShmChannel::allocate(16, size);
            let client = ch.endpoint(Side::Client);
            let target = ch.endpoint(Side::Target);
            let (tx, rx) = std::sync::mpsc::channel::<(usize, usize)>();
            let consumer = std::thread::spawn(move || {
                let mut out = vec![0u8; size];
                while let Ok((slot, len)) = rx.recv() {
                    let guard = loop {
                        match target.recv(slot, len) {
                            Ok(g) => break g,
                            Err(_) => std::hint::spin_loop(),
                        }
                    };
                    guard.copy_to(&mut out[..len]);
                }
            });
            let payload = vec![0x5au8; size];
            let start = std::time::Instant::now();
            for _ in 0..iters {
                let mut lease = loop {
                    match client.buffer_manager().lease(size) {
                        Ok(lease) => break lease,
                        Err(_) => std::hint::spin_loop(),
                    }
                };
                lease.copy_from_slice(&payload);
                tx.send(lease.publish()).expect("consumer alive");
            }
            drop(tx);
            consumer.join().expect("consumer");
            start.elapsed()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_lock_free_one_copy,
    bench_lock_free_zero_copy,
    bench_locked_baseline,
    bench_cross_thread_pipeline
);
criterion_main!(benches);
