//! `perf` — an SPDK-perf-style load generator for the real NVMe-oAF
//! runtime (the paper uses SPDK's `perf` as its microbenchmark client,
//! §5.1).
//!
//! ```text
//! cargo run --release --example perf -- [--shards N] [--backend ram|file:<path>] [--cache BLOCKS] [--fua] [io_size_kib] [queue_depth] [read_pct] [seconds] [local|remote]
//! cargo run --release --example perf -- 128 32 100 2 local
//! cargo run --release --example perf -- --shards 4 16 32 100 2 local
//! cargo run --release --example perf -- --backend file:/tmp/oaf.img 16 32 0 2 local
//! cargo run --release --example perf -- --backend file:/tmp/oaf.img --cache 4096 16 32 0 2 local
//! ```
//!
//! With `--shards N` the storage service runs the thread-per-core
//! sharded runtime: N reactor threads, N clients (one per shard,
//! round-robin steering), the queue depth split evenly across them. The
//! summary then includes the per-shard ops split.
//!
//! With `--backend file:<path>` the namespace is served by the durable
//! log-structured store instead of RAM: every write is journaled to the
//! backing file, and an existing file is *opened* (journal replayed) so
//! back-to-back runs measure cold-cache vs warm-restart behavior. The
//! summary then includes the store's journal/fsync accounting, the
//! block-cache hit/miss split, group-commit coalescing, and TRIM
//! space-reclaim gauges. Barriers park on the store's sync worker and
//! never block the reactor. `--cache BLOCKS` puts a segmented-LRU
//! write-back cache of that many blocks in front of the data region
//! (0 = uncached, the default).

use std::sync::Arc;
use std::time::{Duration, Instant};

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::FabricSettings;
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, launch_many_sharded, AfClient};
use oaf_telemetry::Reporter;
use rand::{Rng, SeedableRng};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--shards N` is stripped before the positional arguments so it can
    // appear anywhere.
    let mut shards: Option<usize> = None;
    if let Some(pos) = args.iter().position(|a| a == "--shards") {
        let n = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--shards takes a shard count");
        assert!(n >= 1, "--shards takes a positive shard count");
        shards = Some(n);
        args.drain(pos..=pos + 1);
    }
    // `--backend ram` (default) or `--backend file:<path>`, also
    // position-independent.
    let mut backend_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--backend") {
        let b = args
            .get(pos + 1)
            .cloned()
            .expect("--backend takes `ram` or `file:<path>`");
        args.drain(pos..=pos + 1);
        match b.as_str() {
            "ram" => {}
            other => {
                let path = other
                    .strip_prefix("file:")
                    .expect("--backend takes `ram` or `file:<path>`");
                backend_path = Some(path.to_string());
            }
        }
    }
    // `--cache BLOCKS`: block-cache capacity for the file backend.
    let mut cache_blocks: usize = 0;
    if let Some(pos) = args.iter().position(|a| a == "--cache") {
        cache_blocks = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--cache takes a block count");
        args.drain(pos..=pos + 1);
    }
    // `--fua`: every write carries Force Unit Access — a durability
    // barrier per write, the workload group commit coalesces.
    let mut fua = false;
    if let Some(pos) = args.iter().position(|a| a == "--fua") {
        fua = true;
        args.drain(pos..=pos);
    }
    let io_kib: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(128);
    let qd: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let read_pct: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);
    let seconds: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);
    let local = args.get(4).map(|s| s != "remote").unwrap_or(true);

    let block_size = 4096u64;
    let io_bytes = io_kib * 1024;
    let nlb = (io_bytes / block_size) as u32;
    assert!(nlb >= 1, "io size must be >= 4 KiB");
    let capacity_blocks = 64 * 1024; // 256 MiB namespace

    let mut controller = Controller::new();
    match &backend_path {
        None => controller.add_namespace(Namespace::new(1, block_size as u32, capacity_blocks)),
        Some(path) => {
            // Reuse an existing store file (journal replay on open) so a
            // second run measures the warm-restart path; create fresh
            // otherwise.
            let disk = if std::path::Path::new(path).exists() {
                let t0 = Instant::now();
                let d = nvme_oaf::store::FileDisk::open(path).expect("open backing file");
                println!(
                    "store: opened {path} in {:.1}ms ({} journaled ops replayed)",
                    t0.elapsed().as_secs_f64() * 1e3,
                    d.metrics().replay_ops.get()
                );
                d
            } else {
                nvme_oaf::store::FileDisk::create(path, block_size as u32, capacity_blocks)
                    .expect("create backing file")
            };
            let disk = disk.with_cache(cache_blocks).expect("configure cache");
            if cache_blocks > 0 {
                println!(
                    "store: {cache_blocks}-block segmented-LRU write-back cache \
                     ({} MiB)",
                    (cache_blocks as u64 * block_size) >> 20
                );
            }
            controller.add_namespace(Namespace::with_file(1, disk));
        }
    }

    if let Some(shards) = shards {
        run_sharded(
            controller,
            shards,
            io_kib,
            qd,
            read_pct,
            seconds,
            local,
            nlb,
            capacity_blocks,
            fua,
        );
        return;
    }

    let registry = Arc::new(HostRegistry::new());
    let target_host = if local { 1 } else { 2 };
    let settings = FabricSettings {
        depth: qd.max(8),
        slot_size: io_bytes as usize,
        ..FabricSettings::default()
    };
    let mut pair = launch(
        &registry,
        (ProcessId(1), 1),
        (ProcessId(2), target_host),
        controller,
        settings,
    )
    .expect("fabric establishment");

    println!(
        "perf: {io_kib}KiB, QD{qd}, {read_pct}% reads, {seconds}s, fabric = {}",
        if pair.client.shm_active() {
            "shared-memory (oAF)"
        } else {
            "TCP"
        }
    );

    // Periodic telemetry: once a second, print the per-interval delta
    // straight from the runtime's registry — completions, inflight
    // depth, and the initiator's read-latency p99 — without touching
    // the I/O loop below.
    let io_bytes_f = io_bytes as f64;
    let reporter = Reporter::spawn(
        pair.telemetry.clone(),
        Duration::from_secs(1),
        move |cum, delta| {
            let ios = delta.counter("client", "completions");
            let inflight = cum.gauge("client", "inflight").map(|(v, _)| v).unwrap_or(0);
            let p99_us = delta
                .histo("client", "lat_read_ns")
                .or_else(|| delta.histo("client", "lat_write_ns"))
                .map(|h| h.p99() as f64 / 1e3)
                .unwrap_or(0.0);
            eprintln!(
                "[telemetry] {ios} IOPS, {:.0} MiB/s, inflight {inflight}, p99 ~{p99_us:.0}us",
                ios as f64 * io_bytes_f / (1u64 << 20) as f64
            );
        },
    );

    // Pre-write the LBA range so reads return real data.
    let span_ios = 64u64.min(capacity_blocks / u64::from(nlb));
    for i in 0..span_ios {
        let mut buf = pair.client.alloc(io_bytes as usize).expect("buffer");
        buf.fill((i % 251) as u8);
        pair.client
            .write(1, i * u64::from(nlb), nlb, buf, Duration::from_secs(10))
            .expect("prefill write");
    }

    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut completed: u64 = 0;
    let mut lat_sum = Duration::ZERO;
    let mut lats_us: Vec<f64> = Vec::with_capacity(1 << 20);
    let mut submit_times: std::collections::HashMap<u16, Instant> =
        std::collections::HashMap::new();

    let submit = |client: &mut nvme_oaf::oaf::runtime::AfClient,
                  rng: &mut rand::rngs::SmallRng,
                  submit_times: &mut std::collections::HashMap<u16, Instant>| {
        let slot = rng.gen_range(0..span_ios);
        let lba = slot * u64::from(nlb);
        let cid = if rng.gen_range(0..100u32) < read_pct {
            client
                .submit_read(1, lba, nlb, io_bytes as usize)
                .expect("submit read")
        } else {
            let mut buf = client.alloc(io_bytes as usize).expect("buffer");
            buf.fill((slot % 251) as u8);
            if fua {
                client
                    .submit_write_fua(1, lba, nlb, buf)
                    .expect("submit fua write")
            } else {
                client.submit_write(1, lba, nlb, buf).expect("submit write")
            }
        };
        submit_times.insert(cid, Instant::now());
    };

    for _ in 0..qd {
        submit(&mut pair.client, &mut rng, &mut submit_times);
    }
    while Instant::now() < deadline {
        for done in pair.client.poll().expect("poll") {
            assert!(done.status.is_ok(), "I/O failed: {:?}", done.status);
            if let Some(t) = submit_times.remove(&done.cid) {
                let d = t.elapsed();
                lat_sum += d;
                lats_us.push(d.as_secs_f64() * 1e6);
            }
            completed += 1;
            submit(&mut pair.client, &mut rng, &mut submit_times);
        }
        std::hint::spin_loop();
    }
    // Drain.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while !submit_times.is_empty() && Instant::now() < drain_deadline {
        for done in pair.client.poll().expect("poll") {
            submit_times.remove(&done.cid);
            completed += 1;
        }
    }

    let elapsed = t0.elapsed().as_secs_f64();
    let mib = completed as f64 * io_bytes as f64 / (1u64 << 20) as f64 / elapsed;
    let iops = completed as f64 / elapsed;
    let avg_lat_us = if completed > 0 {
        lat_sum.as_secs_f64() * 1e6 / completed as f64
    } else {
        0.0
    };
    println!("{completed} IOs in {elapsed:.2}s: {mib:.0} MiB/s, {iops:.0} IOPS, avg latency {avg_lat_us:.1}us");
    if !lats_us.is_empty() {
        lats_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q = |p: f64| lats_us[((lats_us.len() - 1) as f64 * p) as usize];
        println!(
            "latency percentiles: p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  p99.9 {:.1}us  max {:.1}us",
            q(0.50), q(0.90), q(0.99), q(0.999), lats_us[lats_us.len() - 1]
        );
    }
    reporter.stop();
    // Final registry view: the client's application counters, then
    // transport-level frame accounting for the run.
    let snap = pair.telemetry.snapshot();
    let writes = snap.counter("app", "writes");
    println!(
        "client stats: {writes} writes ({}% zero-copy), {} reads, {} errors",
        snap.counter("app", "zero_copy_writes") * 100 / writes.max(1),
        snap.counter("app", "reads"),
        snap.counter("app", "errors")
    );
    println!(
        "transport: {} frames sent / {} received, {} ring-full events",
        snap.counter("transport_client", "frames_sent"),
        snap.counter("transport_client", "frames_received"),
        snap.counter("transport_client", "ring_full"),
    );
    print_store_report(&snap);

    pair.client.disconnect().expect("disconnect");
    pair.target.shutdown().expect("shutdown");
}

/// Durable-store accounting: journal/fsync, group-commit coalescing,
/// block-cache hit split and TRIM space reclaim. A no-op for the RAM
/// backend (no `store_ns1` scope in the snapshot).
fn print_store_report(snap: &oaf_telemetry::Snapshot) {
    let scope = "store_ns1";
    let Some(fsync) = snap.histo(scope, "fsync_ns") else {
        return;
    };
    let fold_p99 = snap.histo(scope, "checkpoint_ns").map_or(0, |h| h.p99());
    println!(
        "store: {} journal appends ({} MiB), {} fsyncs (p99 {:.0}us), \
         {} write-out kicks, {} trims, {} checkpoints (p99 {:.1}ms)",
        snap.counter(scope, "log_appends"),
        snap.counter(scope, "log_bytes") >> 20,
        snap.counter(scope, "fsyncs"),
        fsync.p99() as f64 / 1e3,
        snap.counter(scope, "writeback_kicks"),
        snap.counter(scope, "trims"),
        snap.counter(scope, "checkpoints"),
        fold_p99 as f64 / 1e6,
    );
    let led = snap.counter(scope, "fsyncs");
    let coalesced = snap.counter(scope, "fsyncs_coalesced");
    if coalesced > 0 {
        println!(
            "store: group commit retired {} barriers with {led} fsyncs \
             ({coalesced} coalesced, mean batch {:.1})",
            led + coalesced,
            (led + coalesced) as f64 / led.max(1) as f64,
        );
    }
    let hits = snap.counter(scope, "cache_hits");
    let misses = snap.counter(scope, "cache_misses");
    if hits + misses > 0 {
        println!(
            "store: cache {hits} hits / {misses} misses ({:.0}% hit rate), \
             {} writebacks, {} evictions",
            hits as f64 * 100.0 / (hits + misses) as f64,
            snap.counter(scope, "cache_writebacks"),
            snap.counter(scope, "cache_evictions"),
        );
    }
    if let Some((live, _)) = snap.gauge(scope, "live_bytes") {
        println!(
            "store: {} MiB live data, {} MiB reclaimed by TRIM",
            live >> 20,
            snap.counter(scope, "bytes_reclaimed") >> 20,
        );
    }
}

/// The sharded load loop: N clients round-robined onto N reactor
/// shards, queue depth split evenly, disjoint LBA ranges per client.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    controller: Controller,
    shards: usize,
    io_kib: u64,
    qd: usize,
    read_pct: u32,
    seconds: u64,
    local: bool,
    nlb: u32,
    capacity_blocks: u64,
    fua: bool,
) {
    let io_bytes = io_kib * 1024;
    let registry = Arc::new(HostRegistry::new());
    let target_host = if local { 1 } else { 2 };
    let clients: Vec<(ProcessId, u64)> =
        (0..shards as u64).map(|i| (ProcessId(10 + i), 1)).collect();
    let per_client_qd = (qd / shards).max(1);
    let settings = FabricSettings {
        depth: per_client_qd.max(8),
        slot_size: io_bytes as usize,
        ..FabricSettings::default()
    };
    let mut group = launch_many_sharded(
        &registry,
        &clients,
        (ProcessId(2), target_host),
        controller,
        settings,
        shards,
    )
    .expect("sharded fabric establishment");

    println!(
        "perf: {io_kib}KiB, QD{qd} ({per_client_qd}/client), {read_pct}% reads, {seconds}s, \
         {shards} shards x 1 client, fabric = {}",
        if group.clients[0].shm_active() {
            "shared-memory (oAF)"
        } else {
            "TCP"
        }
    );

    // Disjoint per-client LBA ranges, prefilled so reads return data.
    let span_ios = 64u64.min(capacity_blocks / u64::from(nlb) / shards as u64);
    let base_io = |c: usize| c as u64 * span_ios;
    for (c, client) in group.clients.iter_mut().enumerate() {
        for i in 0..span_ios {
            let mut buf = client.alloc(io_bytes as usize).expect("buffer");
            buf.fill((i % 251) as u8);
            client
                .write(
                    1,
                    (base_io(c) + i) * u64::from(nlb),
                    nlb,
                    buf,
                    Duration::from_secs(10),
                )
                .expect("prefill write");
        }
    }

    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let ops_before = group.target.ops_per_shard();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut completed: u64 = 0;
    let mut lats_us: Vec<f64> = Vec::with_capacity(1 << 20);
    let mut submit_times: Vec<std::collections::HashMap<u16, Instant>> = (0..shards)
        .map(|_| std::collections::HashMap::new())
        .collect();

    let submit = |c: usize,
                  client: &mut AfClient,
                  rng: &mut rand::rngs::SmallRng,
                  submit_times: &mut std::collections::HashMap<u16, Instant>| {
        let slot = base_io(c) + rng.gen_range(0..span_ios);
        let lba = slot * u64::from(nlb);
        let cid = if rng.gen_range(0..100u32) < read_pct {
            client
                .submit_read(1, lba, nlb, io_bytes as usize)
                .expect("submit read")
        } else {
            let mut buf = client.alloc(io_bytes as usize).expect("buffer");
            buf.fill((slot % 251) as u8);
            if fua {
                client
                    .submit_write_fua(1, lba, nlb, buf)
                    .expect("submit fua write")
            } else {
                client.submit_write(1, lba, nlb, buf).expect("submit write")
            }
        };
        submit_times.insert(cid, Instant::now());
    };

    for (c, client) in group.clients.iter_mut().enumerate() {
        for _ in 0..per_client_qd {
            submit(c, client, &mut rng, &mut submit_times[c]);
        }
    }
    while Instant::now() < deadline {
        for (c, client) in group.clients.iter_mut().enumerate() {
            for done in client.poll().expect("poll") {
                assert!(done.status.is_ok(), "I/O failed: {:?}", done.status);
                if let Some(t) = submit_times[c].remove(&done.cid) {
                    lats_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                completed += 1;
                submit(c, client, &mut rng, &mut submit_times[c]);
            }
        }
        std::hint::spin_loop();
    }
    // Drain.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while submit_times.iter().any(|m| !m.is_empty()) && Instant::now() < drain_deadline {
        for (c, client) in group.clients.iter_mut().enumerate() {
            for done in client.poll().expect("poll") {
                submit_times[c].remove(&done.cid);
                completed += 1;
            }
        }
    }

    let elapsed = t0.elapsed().as_secs_f64();
    let mib = completed as f64 * io_bytes as f64 / (1u64 << 20) as f64 / elapsed;
    let iops = completed as f64 / elapsed;
    println!("{completed} IOs in {elapsed:.2}s: {mib:.0} MiB/s, {iops:.0} IOPS");
    if !lats_us.is_empty() {
        lats_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q = |p: f64| lats_us[((lats_us.len() - 1) as f64 * p) as usize];
        println!(
            "latency percentiles: p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  p99.9 {:.1}us  max {:.1}us",
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
            lats_us[lats_us.len() - 1]
        );
    }
    // Per-shard split: the load-balance witness for the scale table.
    let ops_after = group.target.ops_per_shard();
    let per_shard: Vec<u64> = ops_after
        .iter()
        .zip(&ops_before)
        .map(|(a, b)| a - b)
        .collect();
    let max = *per_shard.iter().max().unwrap_or(&0);
    let min = *per_shard.iter().min().unwrap_or(&0);
    println!(
        "per-shard ops: {per_shard:?} (max/min {:.2})",
        if min > 0 {
            max as f64 / min as f64
        } else {
            f64::NAN
        }
    );
    // Group commit shows up here: N shards share one journal, so
    // concurrent barriers coalesce onto one fdatasync.
    print_store_report(&group.telemetry.snapshot());

    for c in &mut group.clients {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("shutdown");
}
