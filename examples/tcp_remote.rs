//! Remote-path quickstart: a real NVMe/TCP initiator↔target link over
//! `127.0.0.1` (paper §4.5) — vectored framing and chunked H2C writes,
//! both live.
//!
//! ```text
//! cargo run --release --example tcp_remote
//! ```
//!
//! The target listens on an ephemeral loopback port; the initiator
//! dials it like it would dial a remote host. Swap the address for a
//! real one and the two halves run on separate machines unchanged.

use std::net::TcpListener;
use std::time::Duration;

use bytes::Bytes;
use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions};
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::target::{spawn_target, TargetConfig};
use nvme_oaf::nvmeof::tcp::{TcpConfig, TcpTransport};
use nvme_oaf::telemetry::Registry;

const TIMEOUT: Duration = Duration::from_secs(10);

fn main() {
    // 1. Target side: listen, accept one connection, serve a namespace
    //    (4 KiB blocks, 16 MiB) from a polled reactor thread.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accept = std::thread::spawn(move || {
        TcpTransport::accept_from(&listener, TcpConfig::default()).expect("accept")
    });

    // 2. Initiator side: dial the target's address over plain TCP.
    let ct = TcpTransport::connect(addr, TcpConfig::default()).expect("connect");
    let tt = accept.join().expect("accept thread");
    println!("NVMe/TCP link up on {addr}");

    let mut controller = Controller::new();
    controller.add_namespace(Namespace::new(1, 4096, 4096));
    let handle = spawn_target(tt, controller, TargetConfig::default(), None);

    // 3. Connect with the default options: H2C writes stream in 512 KiB
    //    chunks, Fig. 9's optimum for 25 Gb/s.
    let registry = Registry::new();
    let opts = InitiatorOptions::default();
    let write_chunk = opts.write_chunk;
    println!("write chunk: {} KiB", write_chunk / 1024);
    let mut ini = Initiator::connect(ct, opts, None, TIMEOUT).expect("NVMe-oF connect");
    ini.metrics().register(&registry.scope("client"));

    // 4. Mixed workload: 1 MiB writes stream as chunked H2CData sub-PDUs
    //    behind one R2T grant; 4 KiB reads stay latency-bound.
    const IO: usize = 1024 * 1024;
    let payload: Vec<u8> = (0..IO).map(|i| i as u8).collect();
    for round in 0..8u64 {
        ini.write_blocking(
            1,
            0,
            (IO / 4096) as u32,
            Bytes::from(payload.clone()),
            TIMEOUT,
        )
        .expect("1 MiB write");
        for lba in 0..16 {
            ini.read_blocking(1, lba, 1, 4096, TIMEOUT)
                .expect("4 KiB read");
        }
        let _ = round;
    }
    let back = ini
        .read_blocking(1, 0, (IO / 4096) as u32, IO, TIMEOUT)
        .expect("1 MiB read-back");
    assert_eq!(&back[..], &payload[..], "payload survived the wire");

    // 5. How the writes went out: 8 writes × ⌈1 MiB / 512 KiB⌉ chunks.
    let snap = registry.snapshot();
    println!(
        "h2c chunks: {} ({} per write)",
        snap.counter("client", "h2c_chunks"),
        IO.div_ceil(write_chunk),
    );

    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("target shutdown");
    println!("done.");
}
