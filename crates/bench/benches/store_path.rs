//! Criterion micro-benchmarks of the durable store's write path: what
//! journaling and durability barriers cost per operation, RAM disk as
//! the zero-cost baseline. MemVfs variants isolate the store's own
//! bookkeeping (journal encode, CRC, checkpoint fold) from the
//! filesystem; the real-file variant adds actual `write`/`fdatasync`
//! syscalls. The cached-read group measures the block cache's hit
//! (pure memcpy, zero syscalls) and miss (fill + thrash) paths, and
//! the group-commit group measures concurrent FUA barriers coalescing
//! through the shared disk's sync worker. `store/real-file/paced-flush`
//! times a Flush after a pause in which that worker may start the
//! page-cache write-out of the blocks dirtied before it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oaf_ssd::{BlockStore, SharedRamDisk};
use oaf_store::vfs::MemVfs;
use oaf_store::FileDisk;

const BS: usize = 4096;
const SIZES: &[usize] = &[4 << 10, 64 << 10, 128 << 10];
const BLOCKS: u64 = 64 * 1024; // 256 MiB namespace

fn bench_ram_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/ram-baseline");
    for &size in SIZES {
        let disk = SharedRamDisk::new(BS as u32, BLOCKS);
        let payload = vec![0xabu8; size];
        let nlb = (size / BS) as u32;
        let mut lba = 0u64;
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                disk.write(lba, nlb, &payload).expect("write");
                lba = (lba + u64::from(nlb)) % (BLOCKS - 64);
            })
        });
    }
    g.finish();
}

fn bench_journaled_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/journaled-write");
    for &size in SIZES {
        let mut disk =
            FileDisk::create_on(Box::new(MemVfs::new()), BS as u32, BLOCKS, 4 << 20).expect("fmt");
        let payload = vec![0xabu8; size];
        let nlb = (size / BS) as u32;
        let mut lba = 0u64;
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                // Journal append + data apply; checkpoints amortize in
                // (the log wraps every ~4 MiB of payload).
                disk.write(lba, nlb, &payload, false).expect("write");
                lba = (lba + u64::from(nlb)) % (BLOCKS - 64);
            })
        });
    }
    g.finish();
}

fn bench_fua_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/fua-write");
    for &size in SIZES {
        let mut disk =
            FileDisk::create_on(Box::new(MemVfs::new()), BS as u32, BLOCKS, 4 << 20).expect("fmt");
        let payload = vec![0xabu8; size];
        let nlb = (size / BS) as u32;
        let mut lba = 0u64;
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                disk.write(lba, nlb, &payload, true).expect("write");
                lba = (lba + u64::from(nlb)) % (BLOCKS - 64);
            })
        });
    }
    g.finish();
}

fn bench_cached_write(c: &mut Criterion) {
    // Journaled write *through* the block cache: journal append plus a
    // cache insert instead of a data-region write (the apply is
    // deferred to eviction/barrier).
    let mut g = c.benchmark_group("store/cached-write");
    for &size in SIZES {
        let mut disk = FileDisk::create_on(Box::new(MemVfs::new()), BS as u32, BLOCKS, 4 << 20)
            .and_then(|d| d.with_cache(1024))
            .expect("fmt");
        let payload = vec![0xabu8; size];
        let nlb = (size / BS) as u32;
        let mut lba = 0u64;
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                disk.write(lba, nlb, &payload, false).expect("write");
                lba = (lba + u64::from(nlb)) % (BLOCKS - 64);
            })
        });
    }
    g.finish();
}

fn bench_cached_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/cached-read");
    let size = 16 << 10;
    let nlb = (size / BS) as u32;
    let span = 256u64; // working set, blocks
    let payload = vec![0xabu8; size];
    let mut out = vec![0u8; size];
    g.throughput(Throughput::Bytes(size as u64));

    // Hit: the cache covers the working set, so after the prefill every
    // read is a per-block memcpy with zero syscalls.
    let mut disk = FileDisk::create_on(Box::new(MemVfs::new()), BS as u32, BLOCKS, 4 << 20)
        .and_then(|d| d.with_cache(512))
        .expect("fmt");
    for i in 0..span / u64::from(nlb) {
        disk.write(i * u64::from(nlb), nlb, &payload, false)
            .expect("prefill");
    }
    let mut lba = 0u64;
    g.bench_with_input(BenchmarkId::new("hit", size), &size, |b, _| {
        b.iter(|| {
            disk.read(lba, nlb, &mut out).expect("read");
            lba = (lba + u64::from(nlb)) % span;
        })
    });

    // Miss: a 1-entry cache thrashes on every multi-block read — the
    // worst case for fill overhead on top of the data-region read.
    let mut thrash = FileDisk::create_on(Box::new(MemVfs::new()), BS as u32, BLOCKS, 4 << 20)
        .and_then(|d| d.with_cache(1))
        .expect("fmt");
    for i in 0..span / u64::from(nlb) {
        thrash
            .write(i * u64::from(nlb), nlb, &payload, false)
            .expect("prefill");
    }
    let mut lba = 0u64;
    g.bench_with_input(BenchmarkId::new("miss", size), &size, |b, _| {
        b.iter(|| {
            thrash.read(lba, nlb, &mut out).expect("read");
            lba = (lba + u64::from(nlb)) % span;
        })
    });
    g.finish();
}

fn bench_group_commit(c: &mut Criterion) {
    // FUA barriers through the shared disk's sync worker: the 1-writer
    // leg is the solo barrier cost, the 4-writer leg shows concurrent
    // barriers retiring on one another's worker rounds.
    let mut g = c.benchmark_group("store/group-commit");
    for &writers in &[1usize, 4] {
        let disk = FileDisk::create_on(Box::new(MemVfs::new()), BS as u32, BLOCKS, 4 << 20)
            .and_then(|d| d.with_cache(256))
            .expect("fmt")
            .into_shared();
        g.throughput(Throughput::Bytes((BS * writers) as u64));
        g.bench_with_input(
            BenchmarkId::new("fua-writers", writers),
            &writers,
            |b, &w| {
                b.iter_custom(|iters| {
                    let start = std::time::Instant::now();
                    let threads: Vec<_> = (0..w as u64)
                        .map(|t| {
                            let mut d = disk.clone();
                            std::thread::spawn(move || {
                                let payload = [0xabu8; BS];
                                for i in 0..iters {
                                    d.write(t * 1024 + i % 1024, 1, &payload, true)
                                        .expect("fua write");
                                }
                            })
                        })
                        .collect();
                    for t in threads {
                        t.join().expect("writer");
                    }
                    start.elapsed()
                })
            },
        );
    }
    g.finish();
}

fn bench_mixed_read_fua_qd(c: &mut Criterion) {
    // The async durability pipeline's headline workload: one FUA write
    // dispatched, then a queue-depth of reads served behind it on the
    // same thread — the reactor's shape. The barrier parks on the sync
    // worker's ticket and the reads are served immediately; the ticket
    // drains at the end of the round. The sync carries a 100µs device
    // delay, the way a real disk's flush would.
    use oaf_ssd::BarrierPoll;

    let mut g = c.benchmark_group("store/mixed-read-fua");
    let sync_delay = std::time::Duration::from_micros(100);
    for &qd in &[1usize, 8, 32] {
        let vfs = MemVfs::new();
        vfs.set_sync_delay(sync_delay);
        let mut disk = FileDisk::create_on(Box::new(vfs), BS as u32, BLOCKS, 4 << 20)
            .and_then(|d| d.with_cache(256))
            .expect("fmt")
            .into_shared();
        let payload = [0xabu8; BS];
        let mut out = [0u8; BS];
        // Seed the read targets.
        for lba in 0..qd as u64 {
            disk.write(lba, 1, &payload, false).expect("seed");
        }
        // The figure of merit is *read service time*: from the FUA
        // dispatch until the last queued read is answered. The barrier
        // still retires every round — its drain just happens outside
        // the timed region, like a parked completion released by a
        // later poll pass.
        g.throughput(Throughput::Elements(qd as u64));
        g.bench_with_input(BenchmarkId::new("offloaded", qd), &qd, |b, &qd| {
            b.iter_custom(|iters| {
                let mut in_reads = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let t0 = std::time::Instant::now();
                    let ticket = disk
                        .write_submit(64 + (qd as u64 % 8), 1, &payload, true)
                        .expect("fua write")
                        .expect("a shared disk tickets FUA");
                    for q in 0..qd as u64 {
                        disk.read(q, 1, &mut out).expect("read");
                    }
                    in_reads += t0.elapsed();
                    // Drain so every round carries one full barrier.
                    loop {
                        match disk.poll_barrier(ticket) {
                            BarrierPoll::Durable => break,
                            BarrierPoll::Failed => panic!("sync failed"),
                            BarrierPoll::Pending => std::hint::spin_loop(),
                        }
                    }
                }
                in_reads
            })
        });
    }
    g.finish();
}

fn bench_real_file_fdatasync(c: &mut Criterion) {
    // One size; the point is the syscall floor, not a size sweep. A
    // smaller namespace keeps the benchmark file modest (20 MiB).
    let mut g = c.benchmark_group("store/real-file");
    let path = std::env::temp_dir().join(format!("oaf-bench-store-{}.img", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let size = 16 << 10;
    let nlb = (size / BS) as u32;
    {
        let mut disk = FileDisk::create(&path, BS as u32, 4096).expect("fmt");
        let payload = vec![0xabu8; size];
        let mut lba = 0u64;
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("journaled-write", size), &size, |b, _| {
            b.iter(|| {
                disk.write(lba, nlb, &payload, false).expect("write");
                lba = (lba + u64::from(nlb)) % (4096 - 16);
            })
        });
        g.bench_with_input(BenchmarkId::new("fua-write", size), &size, |b, _| {
            b.iter(|| {
                disk.write(lba, nlb, &payload, true).expect("write");
                lba = (lba + u64::from(nlb)) % (4096 - 16);
            })
        });
        g.bench_with_input(BenchmarkId::new("flush", size), &size, |b, _| {
            b.iter(|| {
                disk.write(lba, nlb, &payload, false).expect("write");
                disk.flush().expect("flush");
                lba = (lba + u64::from(nlb)) % (4096 - 16);
            })
        });
        // A barrier over a dirty write-back cache: DIRTY scattered 4 KiB
        // blocks parked dirty (untimed), then the timed `flush`. The
        // barrier syncs the journal; the blocks stay cached until
        // eviction or a checkpoint drains them.
        const DIRTY: u64 = 256;
        let mut disk = disk.with_cache(2 * DIRTY as usize).expect("cache");
        let block = [0xcdu8; BS];
        let mut round = 0u64;
        g.throughput(Throughput::Elements(DIRTY));
        g.bench_with_input(BenchmarkId::new("cached-flush", DIRTY), &DIRTY, |b, &n| {
            b.iter_custom(|iters| {
                let mut flushing = std::time::Duration::ZERO;
                for _ in 0..iters {
                    for i in 0..n {
                        let lba = (i * 613 + round * 7) % 4096;
                        disk.write(lba, 1, &block, false).expect("write");
                    }
                    round += 1;
                    let t0 = std::time::Instant::now();
                    disk.flush().expect("flush");
                    flushing += t0.elapsed();
                }
                flushing
            })
        });
        // The same barrier on the shared form, whose sync worker paces
        // write-back: DIRTY scattered cached writes, a 2 ms pause in
        // which the worker may start their write-out, then the timed
        // Flush.
        let mut disk = disk.into_shared();
        g.bench_with_input(BenchmarkId::new("paced-flush", DIRTY), &DIRTY, |b, &n| {
            b.iter_custom(|iters| {
                let mut flushing = std::time::Duration::ZERO;
                for _ in 0..iters {
                    for i in 0..n {
                        let lba = (i * 613 + round * 7) % 4096;
                        disk.write(lba, 1, &block, false).expect("write");
                    }
                    round += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    let t0 = std::time::Instant::now();
                    disk.flush().expect("flush");
                    flushing += t0.elapsed();
                }
                flushing
            })
        });
    }
    let _ = std::fs::remove_file(&path);
    g.finish();
}

criterion_group!(
    benches,
    bench_ram_baseline,
    bench_journaled_write,
    bench_fua_write,
    bench_cached_write,
    bench_cached_read,
    bench_group_commit,
    bench_mixed_read_fua_qd,
    bench_real_file_fdatasync
);
criterion_main!(benches);
