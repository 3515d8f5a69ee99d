//! The Connection Manager (§4.1, Fig. 5).
//!
//! Establishes every adaptive-fabric connection between an NVMe-oF
//! client and target — [`launch`](crate::runtime::launch)'s single pair
//! and each client of a group alike, through the one bring-up routine
//! of [`runtime`](crate::runtime):
//!
//! 1. the Connection Manager asks [`HostRegistry`] — the helper
//!    process — whether the pair is co-located; if so it allocates the
//!    connection its own isolated shared-memory region, sized by the
//!    connection's `depth` and `slot_size` (§4.2, §6);
//! 2. the control connection opens: a real nonblocking loopback socket
//!    pair ([`oaf_nvmeof::tcp::TcpTransport`], §4.5), or in-region byte
//!    rings when [`ControlPath::InRegion`] is set *and* the pair is
//!    co-located (§5.5);
//! 3. the caller starts the storage service over the target end;
//! 4. connection configuration parameters travel in ICReq/ICResp: the
//!    client requests the AF capabilities it can use, the target grants
//!    the intersection;
//! 5. the initiator connects; data can flow. Whether the shared-memory
//!    path is live is the initiator's answer (`shm_active`), which also
//!    follows a later degrade to TCP.
//!
//! Every client-side per-connection telemetry scope carries the caller's
//! *tag* as a suffix: empty for a single pair, the client index in a
//! group. The target side is named by the storage service
//! (`target_conn<i>`, `reactor<n>`, [`oaf_nvmeof::shard`]).
//! The region has no owner but the connection: each side holds one end
//! and it is freed when both ends are dropped.

use std::sync::Arc;
use std::time::Duration;

use oaf_nvmeof::initiator::{Initiator, InitiatorOptions, KeepAliveConfig};
use oaf_nvmeof::payload::PayloadChannel;
use oaf_nvmeof::pdu::AF_CAP_SHM;
use oaf_nvmeof::server::ConnectionSpec;
use oaf_nvmeof::target::TargetConfig;
use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};
use oaf_nvmeof::transport::{ControlTransport, ShmTransport};
use oaf_nvmeof::NvmeofError;
use oaf_shmem::channel::Side;
use oaf_shmem::ShmChannel;
use oaf_telemetry::Registry;

use crate::locality::{HostRegistry, ProcessId};
use crate::payload_impl::ShmPayloadChannel;

/// Which channel carries control PDUs for an established connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlPath {
    /// NVMe/TCP over a real nonblocking socket (§4.5) — always
    /// available; an environment that forbids sockets fails the
    /// connection with the socket's error.
    Tcp,
    /// In-region control over shared-memory byte rings (§5.5). Requires
    /// co-location; falls back to [`ControlPath::Tcp`] when the helper
    /// process finds none.
    InRegion,
}

/// Fabric-level connection settings: the knobs callers turn. What the
/// paper fixes per fabric stays fixed — the stock NVMe/TCP in-capsule
/// limit and read chunk ([`TargetConfig::default`]), a 256 KiB control
/// ring per direction, the default wait ladder, and the initiator's
/// 512 KiB socket write chunk (Fig. 9's optimum at 25 Gbps).
#[derive(Clone, Debug)]
pub struct FabricSettings {
    /// Double-buffer slots per direction (sized to the queue depth,
    /// §4.4.1).
    pub depth: usize,
    /// Slot size in bytes (sized to the I/O size, §4.4.1).
    pub slot_size: usize,
    /// Control-PDU channel preference.
    pub control: ControlPath,
    /// Per-command deadline: a command with no completion after this
    /// long is retried (reads) or aborted-then-retried (writes), up to
    /// `max_retries` attempts. `None` disables deadline tracking.
    pub cmd_deadline: Option<Duration>,
    /// Retry attempts before a command is surfaced as
    /// [`NvmeofError::Timeout`].
    pub max_retries: u32,
    /// Base backoff between retry attempts (doubles per attempt).
    pub retry_backoff: Duration,
    /// Keep-alive probe interval; the peer is declared dead after three
    /// quiet intervals. `None` disables keep-alive.
    pub keepalive_interval: Option<Duration>,
}

impl Default for FabricSettings {
    fn default() -> Self {
        FabricSettings {
            depth: 128,
            slot_size: 128 * 1024,
            control: ControlPath::Tcp,
            cmd_deadline: None,
            max_retries: 3,
            retry_backoff: Duration::from_millis(2),
            keepalive_interval: None,
        }
    }
}

/// The target end of a wired connection: what the storage service is
/// spawned over.
pub(crate) struct TargetSide {
    transport: ControlTransport,
    cfg: TargetConfig,
    payload: Option<Arc<dyn PayloadChannel>>,
}

impl TargetSide {
    /// The connection as the storage service takes it.
    pub(crate) fn into_spec(self) -> ConnectionSpec {
        ConnectionSpec {
            transport: Box::new(self.transport),
            cfg: self.cfg,
            payload: self.payload,
        }
    }
}

/// The client end of a wired connection, held until the target serves
/// its peer end and [`ConnectionManager::connect`] can handshake.
pub(crate) struct ClientSide {
    pid: ProcessId,
    transport: ControlTransport,
    shm: Option<Arc<ShmPayloadChannel>>,
}

/// A connected client's parts: its initiator and its end of the
/// shared-memory payload channel, when local.
pub(crate) type ConnectedClient = (Initiator<ControlTransport>, Option<Arc<ShmPayloadChannel>>);

/// The Connection Manager.
pub(crate) struct ConnectionManager {
    registry: Arc<HostRegistry>,
    telemetry: Arc<Registry>,
}

impl ConnectionManager {
    /// Creates a manager over a helper-process registry with a fresh
    /// telemetry registry.
    pub(crate) fn new(registry: Arc<HostRegistry>) -> Self {
        ConnectionManager {
            registry,
            telemetry: Arc::new(Registry::new()),
        }
    }

    /// The telemetry registry every fabric this manager establishes
    /// reports into.
    pub(crate) fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Publishes the fabric-level decisions and the settings in effect
    /// into the `fabric` scope: which locality verdict was reached, which
    /// control path was selected, and the slot geometry the connection
    /// runs with.
    fn record_fabric(&self, settings: &FabricSettings, local: bool, in_region: bool) {
        let fab = self.telemetry.scope("fabric");
        if local {
            fab.counter("locality_local").inc();
        } else {
            fab.counter("locality_remote").inc();
        }
        if in_region {
            fab.counter("control_in_region").inc();
        } else {
            fab.counter("control_tcp").inc();
        }
        fab.gauge("depth").set(settings.depth as i64);
        fab.gauge("slot_size").set(settings.slot_size as i64);
    }

    /// Wires one connection between two registered processes: locality,
    /// data channel and control transport (module steps 1–2), recorded
    /// once in the `fabric` scope and per endpoint under
    /// `transport_{client,target}<tag>`, plus `tcp_*<tag>`,
    /// `control_ring_*<tag>` and `bufmgr_*<tag>` where those exist.
    pub(crate) fn wire(
        &self,
        client: ProcessId,
        target: ProcessId,
        settings: &FabricSettings,
        tag: &str,
    ) -> Result<(TargetSide, ClientSide), NvmeofError> {
        let scope = |name: &str| self.telemetry.scope(&format!("{name}{tag}"));

        // Locality detection via the helper process (§4.2); a co-located
        // connection gets a region of its own (the §6 security model),
        // owned by its two ends.
        let local = self.registry.co_located(client, target);
        let (client_shm, target_shm) = if local {
            let region = ShmChannel::allocate(settings.depth, settings.slot_size);
            let c = ShmPayloadChannel::new(&region, Side::Client);
            let t = ShmPayloadChannel::new(&region, Side::Target);
            // Each side's lease pool (Buffer Manager) reports lease
            // traffic and occupancy alongside the transport scopes.
            c.lease_stats().register(&scope("bufmgr_client"));
            t.lease_stats().register(&scope("bufmgr_target"));
            (Some(c), Some(t))
        } else {
            (None, None)
        };

        // The control connection, ordered after locality so it can use
        // the verdict: in-region control (§5.5) needs co-location;
        // everything else rides the real-socket NVMe/TCP data plane over
        // loopback (§4.5).
        let (client_tr, target_tr) = if settings.control == ControlPath::InRegion && local {
            let (c, t) = ShmTransport::pair(256 * 1024);
            // The in-region path also exposes producer-side ring
            // occupancy and full events per endpoint.
            c.tx_ring_stats().register(&scope("control_ring_client"));
            t.tx_ring_stats().register(&scope("control_ring_target"));
            (ControlTransport::Shm(c), ControlTransport::Shm(t))
        } else {
            let (c, t) = TcpTransport::loopback_pair(TcpConfig::default())
                .map_err(|_| NvmeofError::TransportClosed)?;
            (ControlTransport::Tcp(c), ControlTransport::Tcp(t))
        };
        self.record_fabric(settings, local, client_tr.is_in_region());
        client_tr.metrics().register(&scope("transport_client"));
        target_tr.metrics().register(&scope("transport_target"));
        // The socket path additionally reports syscall/partial-I/O
        // counters per endpoint under the `tcp` scopes.
        if let Some(m) = client_tr.tcp_metrics() {
            m.register(&scope("tcp_client"));
        }
        if let Some(m) = target_tr.tcp_metrics() {
            m.register(&scope("tcp_target"));
        }

        Ok((
            TargetSide {
                transport: target_tr,
                cfg: TargetConfig {
                    target_id: target.0,
                    ..TargetConfig::default()
                },
                payload: target_shm.map(|t| t as Arc<dyn PayloadChannel>),
            },
            ClientSide {
                pid: client,
                transport: client_tr,
                shm: client_shm,
            },
        ))
    }

    /// Connects a wired client whose target end is being served: the
    /// ICReq/ICResp handshake with the capabilities locality allows
    /// (module steps 4–5). The initiator reports under `client<tag>`.
    pub(crate) fn connect(
        &self,
        side: ClientSide,
        settings: &FabricSettings,
        tag: &str,
    ) -> Result<ConnectedClient, NvmeofError> {
        let ClientSide {
            pid,
            transport,
            shm,
        } = side;
        let af_caps = if shm.is_some() { AF_CAP_SHM } else { 0 };
        let mut opts = InitiatorOptions {
            host_id: pid.0,
            af_caps,
            maxr2t: 16,
            cmd_deadline: settings.cmd_deadline,
            max_retries: settings.max_retries,
            retry_backoff: settings.retry_backoff,
            keepalive: settings
                .keepalive_interval
                .map(KeepAliveConfig::with_interval),
            ..InitiatorOptions::default()
        };
        // Chunking (Fig. 9): on the socket path large H2C data streams
        // as sub-PDUs of the default write_chunk; in-memory channels
        // move payloads whole.
        if !transport.is_socket() {
            opts.write_chunk = 0;
        }
        let initiator = Initiator::connect(
            transport,
            opts,
            shm.clone().map(|c| c as Arc<dyn PayloadChannel>),
            Duration::from_secs(5),
        )?;
        initiator
            .metrics()
            .register(&self.telemetry.scope(&format!("client{tag}")));

        Ok((initiator, shm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{launch, DEFAULT_TIMEOUT};
    use oaf_nvmeof::nvme::controller::Controller;
    use oaf_nvmeof::nvme::namespace::Namespace;

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 4096, 1024));
        c
    }

    /// Locality picks the data channel and gates in-region control; I/O
    /// round-trips on every combination.
    #[test]
    fn locality_decides_the_data_channel_and_the_control_path() {
        for (target_host, control) in [
            (7u64, ControlPath::Tcp),
            (8, ControlPath::Tcp),
            (7, ControlPath::InRegion),
            (8, ControlPath::InRegion),
        ] {
            let local = target_host == 7;
            let case = format!("local={local} {control:?}");
            let registry = Arc::new(HostRegistry::new());
            let settings = FabricSettings {
                control,
                ..FabricSettings::default()
            };
            let mut pair = launch(
                &registry,
                (ProcessId(1), 7),
                (ProcessId(2), target_host),
                controller(),
                settings,
            )
            .unwrap();
            assert_eq!(pair.client.shm_active(), local, "{case}");
            let snap = pair.telemetry.snapshot();
            assert_eq!(
                snap.counter("fabric", "locality_local"),
                local as u64,
                "{case}"
            );
            assert_eq!(
                snap.counter("fabric", "control_in_region"),
                (local && control == ControlPath::InRegion) as u64,
                "{case}"
            );

            let mut buf = pair.client.alloc(128 * 1024).unwrap();
            assert_eq!(buf.is_zero_copy(), local, "{case}");
            buf.fill(0x5c);
            pair.client.write(1, 0, 32, buf, DEFAULT_TIMEOUT).unwrap();
            let back = pair
                .client
                .read(1, 0, 32, 128 * 1024, DEFAULT_TIMEOUT)
                .unwrap();
            assert!(back.iter().all(|&b| b == 0x5c), "{case}");
            pair.client.disconnect().unwrap();
            pair.target.shutdown().unwrap();
        }
    }
}
