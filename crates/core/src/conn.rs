//! The Connection Manager (§4.1, Fig. 5).
//!
//! Establishes every adaptive-fabric connection between an NVMe-oF
//! client and target — [`launch`](crate::runtime::launch)'s single pair
//! and each client of a group alike:
//!
//! 1. the Connection Manager consults [`HostRegistry`] — the helper
//!    process — for locality; for co-located pairs an isolated
//!    shared-memory channel is hot-plugged and announced on the flag
//!    pages (§4.2);
//! 2. the control connection opens: a real nonblocking loopback socket
//!    pair ([`oaf_nvmeof::tcp::TcpTransport`], §4.5), or in-region byte
//!    rings when [`ControlPath::InRegion`] is set *and* the pair is
//!    co-located (§5.5);
//! 3. the caller starts the storage service over the target end — the
//!    one step the entry points differ in;
//! 4. connection configuration parameters travel in ICReq/ICResp: the
//!    client requests the AF capabilities it can use, the target grants
//!    the intersection;
//! 5. the AF endpoint object connects; data can flow.
//!
//! Every client-side per-connection telemetry scope carries the caller's
//! *tag* as a suffix: empty for a single pair, the client index in a
//! group. The target side is named by the storage service
//! (`target_conn<i>`, `reactor<n>`, [`oaf_nvmeof::shard`]).
//! Teardown reclaims the region through [`HostRegistry::unplug`].

use std::sync::Arc;
use std::time::Duration;

use oaf_nvmeof::initiator::{Initiator, InitiatorOptions, KeepAliveConfig};
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::payload::PayloadChannel;
use oaf_nvmeof::pdu::AF_CAP_SHM;
use oaf_nvmeof::server::ConnectionSpec;
use oaf_nvmeof::shard::{spawn_sharded, ShardConfig};
use oaf_nvmeof::target::{TargetConfig, TargetHandle};
use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};
use oaf_nvmeof::transport::{ControlTransport, ShmTransport};
use oaf_nvmeof::NvmeofError;
use oaf_shmem::channel::Side;
use oaf_telemetry::Registry;

use crate::endpoint::{AfEndpoint, ChannelKind};
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

/// An established adaptive-fabric connection: the client handle plus the
/// running target.
pub struct EstablishedFabric {
    /// The connected initiator.
    pub initiator: Initiator<ControlTransport>,
    /// The client's AF endpoint object.
    pub endpoint: Arc<AfEndpoint>,
    /// The client-side shared-memory payload channel, when local.
    pub shm: Option<Arc<ShmPayloadChannel>>,
    /// Handle to the target reactor.
    pub target: TargetHandle,
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

/// A connected client's parts: its initiator, its AF endpoint object and
/// its side of the shared-memory payload channel, when local.
pub(crate) type ConnectedClient = (
    Initiator<ControlTransport>,
    Arc<AfEndpoint>,
    Option<Arc<ShmPayloadChannel>>,
);

/// The Connection Manager.
pub struct ConnectionManager {
    registry: Arc<HostRegistry>,
    telemetry: Arc<Registry>,
}

impl ConnectionManager {
    /// Creates a manager over a helper-process registry with a fresh
    /// telemetry registry.
    pub fn new(registry: Arc<HostRegistry>) -> Self {
        ConnectionManager {
            registry,
            telemetry: Arc::new(Registry::new()),
        }
    }

    /// The registry (for registering processes).
    pub fn registry(&self) -> &Arc<HostRegistry> {
        &self.registry
    }

    /// The telemetry registry every fabric this manager establishes
    /// reports into.
    pub fn telemetry(&self) -> &Arc<Registry> {
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

        // Locality detection via the helper process (§4.2), which
        // hot-plugs an isolated region per co-located client (the §6
        // security model).
        let hotplug = self
            .registry
            .hotplug(client, target, settings.depth, settings.slot_size);
        let (client_shm, target_shm) = match &hotplug {
            Some(hp) => {
                let c = ShmPayloadChannel::new(&hp.channel, Side::Client);
                let t = ShmPayloadChannel::new(&hp.channel, Side::Target);
                // Each side's lease pool (Buffer Manager) reports lease
                // traffic and occupancy alongside the transport scopes.
                c.lease_stats().register(&scope("bufmgr_client"));
                t.lease_stats().register(&scope("bufmgr_target"));
                (Some(c), Some(t))
            }
            None => (None, None),
        };

        // The control connection, ordered after locality so it can use
        // the verdict: in-region control (§5.5) needs co-location;
        // everything else rides the real-socket NVMe/TCP data plane over
        // loopback (§4.5).
        let (client_tr, target_tr) =
            if settings.control == ControlPath::InRegion && hotplug.is_some() {
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
        self.record_fabric(settings, hotplug.is_some(), client_tr.is_in_region());
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
    /// ICReq/ICResp handshake with the capabilities locality allows,
    /// then the AF endpoint object (module steps 4–5). The initiator
    /// reports under `client<tag>`.
    pub(crate) fn connect(
        &self,
        side: ClientSide,
        target: ProcessId,
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

        let endpoint = AfEndpoint::new(pid.0);
        let channel = if initiator.shm_active() {
            ChannelKind::Shm
        } else {
            ChannelKind::Tcp
        };
        endpoint.connect(target.0, channel);

        Ok((initiator, endpoint, shm))
    }

    /// Establishes a connection between a registered client and target,
    /// spawning the target reactor over `controller`. Locality decides
    /// the data channel; everything else follows Fig. 5. Client-side
    /// scopes carry no tag; the target side reports under `target_conn0`
    /// and `reactor0`, as connection 0 of a one-shard group would.
    pub fn establish(
        &self,
        client: ProcessId,
        target: ProcessId,
        controller: Controller,
        settings: &FabricSettings,
    ) -> Result<EstablishedFabric, NvmeofError> {
        let (served, side) = self.wire(client, target, settings, "")?;
        let target_handle = spawn_sharded(
            controller,
            vec![served.into_spec()],
            ShardConfig::new(1),
            &self.telemetry,
        );
        let (initiator, endpoint, shm) = self.connect(side, target, settings, "")?;
        Ok(EstablishedFabric {
            initiator,
            endpoint,
            shm,
            target: target_handle,
        })
    }

    /// Tears a connection down, reclaiming the shared-memory region.
    pub fn teardown(
        &self,
        client: ProcessId,
        target: ProcessId,
        mut fabric: EstablishedFabric,
    ) -> Result<(), NvmeofError> {
        fabric.initiator.disconnect()?;
        fabric.endpoint.close();
        let result = fabric.target.shutdown();
        self.registry.unplug(client, target);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_nvmeof::nvme::namespace::Namespace;

    const CLIENT: ProcessId = ProcessId(1);
    const TARGET: ProcessId = ProcessId(2);

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 4096, 1024));
        c
    }

    fn manager(client_host: u64, target_host: u64) -> ConnectionManager {
        let reg = Arc::new(HostRegistry::new());
        reg.register(CLIENT, client_host);
        reg.register(TARGET, target_host);
        ConnectionManager::new(reg)
    }

    #[test]
    fn co_located_pair_selects_shm() {
        let cm = manager(7, 7);
        let fabric = cm
            .establish(CLIENT, TARGET, controller(), &FabricSettings::default())
            .unwrap();
        assert!(fabric.initiator.shm_active());
        assert_eq!(fabric.endpoint.channel(), ChannelKind::Shm);
        assert!(fabric.shm.is_some());
        cm.teardown(CLIENT, TARGET, fabric).unwrap();
    }

    #[test]
    fn remote_pair_falls_back_to_tcp() {
        let cm = manager(7, 8);
        let fabric = cm
            .establish(CLIENT, TARGET, controller(), &FabricSettings::default())
            .unwrap();
        assert!(!fabric.initiator.shm_active());
        assert_eq!(fabric.endpoint.channel(), ChannelKind::Tcp);
        assert!(fabric.shm.is_none());
        cm.teardown(CLIENT, TARGET, fabric).unwrap();
    }

    #[test]
    fn io_works_on_both_channels() {
        for (ch, th) in [(7u64, 7u64), (7, 8)] {
            let cm = manager(ch, th);
            let mut fabric = cm
                .establish(CLIENT, TARGET, controller(), &FabricSettings::default())
                .unwrap();
            let data = bytes::Bytes::from(vec![0x5cu8; 128 * 1024]);
            fabric
                .initiator
                .write_blocking(1, 0, 32, data.clone(), Duration::from_secs(5))
                .unwrap();
            let back = fabric
                .initiator
                .read_blocking(1, 0, 32, 128 * 1024, Duration::from_secs(5))
                .unwrap();
            assert_eq!(back, data);
            cm.teardown(CLIENT, TARGET, fabric).unwrap();
        }
    }

    #[test]
    fn in_region_control_path_works_when_co_located() {
        let cm = manager(7, 7);
        let settings = FabricSettings {
            control: ControlPath::InRegion,
            ..FabricSettings::default()
        };
        let mut fabric = cm
            .establish(CLIENT, TARGET, controller(), &settings)
            .unwrap();
        assert!(fabric.initiator.shm_active());
        let data = bytes::Bytes::from(vec![0xa7u8; 64 * 1024]);
        fabric
            .initiator
            .write_blocking(1, 4, 16, data.clone(), Duration::from_secs(5))
            .unwrap();
        let back = fabric
            .initiator
            .read_blocking(1, 4, 16, 64 * 1024, Duration::from_secs(5))
            .unwrap();
        assert_eq!(back, data);
        cm.teardown(CLIENT, TARGET, fabric).unwrap();
    }

    #[test]
    fn in_region_control_falls_back_to_tcp_when_remote() {
        let cm = manager(7, 8);
        let settings = FabricSettings {
            control: ControlPath::InRegion,
            ..FabricSettings::default()
        };
        let mut fabric = cm
            .establish(CLIENT, TARGET, controller(), &settings)
            .unwrap();
        assert!(!fabric.initiator.shm_active());
        let data = bytes::Bytes::from(vec![0x11u8; 4096]);
        fabric
            .initiator
            .write_blocking(1, 0, 1, data.clone(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(
            fabric
                .initiator
                .read_blocking(1, 0, 1, 4096, Duration::from_secs(5))
                .unwrap(),
            data
        );
        cm.teardown(CLIENT, TARGET, fabric).unwrap();
    }

    #[test]
    fn teardown_reclaims_region() {
        let cm = manager(7, 7);
        let fabric = cm
            .establish(CLIENT, TARGET, controller(), &FabricSettings::default())
            .unwrap();
        assert!(cm.registry().channel_for(CLIENT, TARGET).is_some());
        cm.teardown(CLIENT, TARGET, fabric).unwrap();
        assert!(cm.registry().channel_for(CLIENT, TARGET).is_none());
    }
}
