//! Sharded-runtime scale microbenchmarks: blocking write round-trips
//! against the thread-per-core sharded target at 1, 2, 4 and 8 shards —
//! on this box all oversubscribing one core, so the numbers witness
//! *overhead* (per-shard steering, mailbox polling, telemetry), not
//! parallel speed-up. The 1-shard point is what `launch` and
//! `launch_many` run.
//!
//! Run:    cargo bench -p oaf-bench --bench sharded
//! Smoke:  cargo bench -p oaf-bench --bench sharded -- --test

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oaf_nvmeof::initiator::{Initiator, InitiatorOptions};
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::nvme::namespace::Namespace;
use oaf_nvmeof::server::ConnectionSpec;
use oaf_nvmeof::shard::{spawn_sharded, ShardConfig};
use oaf_nvmeof::target::TargetConfig;
use oaf_nvmeof::transport::ShmTransport;

const TIMEOUT: Duration = Duration::from_secs(5);
const IO_BYTES: usize = 4096;

fn controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 2048));
    c
}

fn wire(n: usize) -> (Vec<ConnectionSpec>, Vec<ShmTransport>) {
    let mut specs = Vec::new();
    let mut sides = Vec::new();
    for _ in 0..n {
        let (ct, tt) = ShmTransport::pair(256 * 1024);
        specs.push(ConnectionSpec {
            transport: Box::new(tt),
            cfg: TargetConfig::default(),
            payload: None,
        });
        sides.push(ct);
    }
    (specs, sides)
}

fn connect_all(sides: Vec<ShmTransport>) -> Vec<Initiator<ShmTransport>> {
    sides
        .into_iter()
        .map(|ct| {
            Initiator::connect(ct, InitiatorOptions::default(), None, TIMEOUT).expect("connect")
        })
        .collect()
}

/// One blocking 4 KiB write per client, rotated over all clients —
/// every shard serves every iteration, so skew shows up as latency.
fn rotate_writes(clients: &mut [Initiator<ShmTransport>], lba: &mut u64) {
    for (i, c) in clients.iter_mut().enumerate() {
        let base = (i as u64) * 256;
        c.write_blocking(
            1,
            base + (*lba % 64),
            1,
            Bytes::from(vec![*lba as u8; IO_BYTES]),
            TIMEOUT,
        )
        .expect("write");
    }
    *lba += 1;
}

fn bench_sharded_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded_roundtrip");
    for shards in [1usize, 2, 4, 8] {
        // One client per shard; throughput is per full rotation so the
        // per-shard cost stays comparable across scales.
        g.throughput(Throughput::Bytes((IO_BYTES * shards) as u64));
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            let (specs, sides) = wire(shards);
            let target = spawn_sharded(
                controller(),
                specs,
                ShardConfig::new(shards),
                &Arc::default(),
            );
            let mut clients = connect_all(sides);
            let mut lba = 0u64;
            b.iter(|| rotate_writes(&mut clients, &mut lba));
            let ops = target.ops_per_shard();
            for mut cl in clients {
                cl.disconnect().expect("disconnect");
            }
            target.shutdown().expect("shutdown");
            assert!(
                ops.iter().all(|&o| o > 0),
                "idle shard during bench: {ops:?}"
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sharded_scale);
criterion_main!(benches);
