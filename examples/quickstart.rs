//! Quickstart: bring up an NVMe-oAF target and client in one process and
//! do zero-copy I/O over the adaptive fabric.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::FabricSettings;
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, DEFAULT_TIMEOUT};

fn main() {
    // 1. A storage service exposing one namespace: 4 KiB blocks, 64 MiB.
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::new(1, 4096, 16 * 1024));

    // 2. The helper process (the cluster resource manager in the paper):
    //    both processes register; co-location gives the connection its
    //    own shared-memory region.
    let registry = Arc::new(HostRegistry::new());
    let host = 42; // same physical host for client and target
    let mut pair = launch(
        &registry,
        (ProcessId(1), host),
        (ProcessId(2), host),
        controller,
        FabricSettings::default(),
    )
    .expect("fabric establishment");

    println!(
        "connected; shared-memory channel active: {}",
        pair.client.shm_active()
    );

    // 3. Zero-copy write: the buffer the application fills *is* a slot in
    //    the shared region (§4.4.3 of the paper).
    let message = b"hello, adaptive fabric!";
    let mut buf = pair.client.alloc(4096).expect("buffer");
    println!("buffer is zero-copy: {}", buf.is_zero_copy());
    buf[..message.len()].copy_from_slice(message);
    pair.client
        .write(1, 0, 1, buf, DEFAULT_TIMEOUT)
        .expect("write");

    // 4. Read it back over the same fabric.
    let back = pair
        .client
        .read(1, 0, 1, 4096, Duration::from_secs(5))
        .expect("read");
    println!(
        "read back: {:?}",
        std::str::from_utf8(&back[..message.len()]).expect("utf8")
    );
    assert_eq!(&back[..message.len()], message);

    // 5. Tear down.
    pair.client.disconnect().expect("disconnect");
    pair.target.shutdown().expect("target shutdown");
    println!("done.");
}
