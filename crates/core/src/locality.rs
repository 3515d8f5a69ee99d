//! Locality awareness and the helper-process hot-plug protocol (§4.2).
//!
//! In the paper, a helper process (the cluster resource manager —
//! Kubernetes, OpenStack, SLURM) attaches an IVSHMEM/ICSHMEM region to
//! both endpoints when a client and a storage service share a physical
//! host, then notifies them through a pre-reserved shared-memory flag
//! page that the Connection Manager polls.
//!
//! [`HostRegistry`] plays the resource manager: processes register with a
//! host identity; [`HostRegistry::hotplug`] allocates an isolated
//! [`ShmChannel`] per client↔target pair (one region per client, for the
//! paper's security model, §6) and announces it on each side's flag page.

use std::collections::HashMap;
use std::sync::Arc;

use oaf_shmem::flag::{Announcement, FlagPage};
use oaf_shmem::ShmChannel;
use oaf_shmem::ShmRegion;
use parking_lot::Mutex;

/// Identity of a registered process (client application or storage
/// service).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u64);

/// A process's registration record.
struct ProcessEntry {
    host: u64,
    flag: FlagPage,
}

/// A hot-plugged channel between one client and one target.
pub struct HotplugResult {
    /// The shared data channel.
    pub channel: ShmChannel,
    /// Region identity announced on both flag pages.
    pub region_id: u64,
}

/// The helper-process registry: knows which host every process runs on
/// and owns the pre-reserved flag pages.
pub struct HostRegistry {
    inner: Mutex<RegistryInner>,
}

struct RegistryInner {
    processes: HashMap<ProcessId, ProcessEntry>,
    channels: HashMap<(ProcessId, ProcessId), Arc<HotplugResult>>,
    next_region: u64,
}

impl HostRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        HostRegistry {
            inner: Mutex::new(RegistryInner {
                processes: HashMap::new(),
                channels: HashMap::new(),
                next_region: 1,
            }),
        }
    }

    /// Registers a process on a host; returns the flag page the process
    /// should poll (its pre-reserved region).
    pub fn register(&self, pid: ProcessId, host: u64) -> FlagPage {
        let flag = FlagPage::new(Arc::new(ShmRegion::new(FlagPage::LEN)), 0);
        let mut g = self.inner.lock();
        g.processes.insert(
            pid,
            ProcessEntry {
                host,
                flag: flag.clone(),
            },
        );
        flag
    }

    /// Whether two registered processes share a physical host.
    pub fn co_located(&self, a: ProcessId, b: ProcessId) -> bool {
        let g = self.inner.lock();
        match (g.processes.get(&a), g.processes.get(&b)) {
            (Some(pa), Some(pb)) => pa.host == pb.host,
            _ => false,
        }
    }

    /// Hot-plugs an isolated shared-memory channel between `client` and
    /// `target` if (and only if) they are co-located, announcing it on
    /// both flag pages. Returns `None` for remote pairs — the fabric then
    /// stays on TCP (§4.2's automatic fallback).
    pub fn hotplug(
        &self,
        client: ProcessId,
        target: ProcessId,
        depth: usize,
        slot_size: usize,
    ) -> Option<Arc<HotplugResult>> {
        let mut g = self.inner.lock();
        let (host_c, host_t) = {
            let pc = g.processes.get(&client)?;
            let pt = g.processes.get(&target)?;
            (pc.host, pt.host)
        };
        if host_c != host_t {
            return None;
        }
        if let Some(existing) = g.channels.get(&(client, target)) {
            return Some(existing.clone());
        }
        let region_id = g.next_region;
        g.next_region += 1;
        let result = Arc::new(HotplugResult {
            channel: ShmChannel::allocate(depth, slot_size),
            region_id,
        });
        g.channels.insert((client, target), result.clone());
        // Notify both endpoints through their pre-reserved pages.
        g.processes[&client].flag.announce(host_c, region_id);
        g.processes[&target].flag.announce(host_t, region_id);
        Some(result)
    }

    /// Looks up the channel previously hot-plugged for a pair (what an
    /// endpoint does after seeing the flag page announcement).
    pub fn channel_for(&self, client: ProcessId, target: ProcessId) -> Option<Arc<HotplugResult>> {
        self.inner.lock().channels.get(&(client, target)).cloned()
    }

    /// Hot-unplugs a pair's channel (resource reclamation at teardown).
    pub fn unplug(&self, client: ProcessId, target: ProcessId) {
        let mut g = self.inner.lock();
        if g.channels.remove(&(client, target)).is_some() {
            if let Some(p) = g.processes.get(&client) {
                p.flag.clear();
            }
            if let Some(p) = g.processes.get(&target) {
                p.flag.clear();
            }
        }
    }
}

impl Default for HostRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Polls a flag page the way the Connection Manager does during
/// connection establishment (§4.2): returns the announcement if the
/// helper process has hot-plugged a region.
pub fn poll_locality(flag: &FlagPage) -> Option<Announcement> {
    flag.poll()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_shmem::channel::Side;

    const CLIENT: ProcessId = ProcessId(10);
    const TARGET: ProcessId = ProcessId(20);

    #[test]
    fn co_located_pair_gets_channel_and_announcement() {
        let reg = HostRegistry::new();
        let cflag = reg.register(CLIENT, 1);
        let tflag = reg.register(TARGET, 1);
        assert!(reg.co_located(CLIENT, TARGET));

        assert!(poll_locality(&cflag).is_none(), "no announcement yet");
        let hp = reg.hotplug(CLIENT, TARGET, 4, 4096).unwrap();

        let a = poll_locality(&cflag).unwrap();
        let b = poll_locality(&tflag).unwrap();
        assert_eq!(a.region_id, hp.region_id);
        assert_eq!(b.region_id, hp.region_id);
        assert_eq!(a.host_id, 1);

        // The channel moves bytes.
        let mut lease = hp.channel.endpoint(Side::Client).lease_managed(2).unwrap();
        lease.copy_from_slice(b"hi");
        let (slot, len) = lease.publish();
        assert_eq!(
            hp.channel
                .endpoint(Side::Target)
                .recv(slot, len)
                .unwrap()
                .as_slice(),
            b"hi"
        );
    }

    #[test]
    fn remote_pair_gets_no_channel() {
        let reg = HostRegistry::new();
        let cflag = reg.register(CLIENT, 1);
        reg.register(TARGET, 2);
        assert!(!reg.co_located(CLIENT, TARGET));
        assert!(reg.hotplug(CLIENT, TARGET, 4, 4096).is_none());
        assert!(poll_locality(&cflag).is_none());
    }

    #[test]
    fn hotplug_is_idempotent_per_pair() {
        let reg = HostRegistry::new();
        reg.register(CLIENT, 1);
        reg.register(TARGET, 1);
        let a = reg.hotplug(CLIENT, TARGET, 4, 4096).unwrap();
        let b = reg.hotplug(CLIENT, TARGET, 4, 4096).unwrap();
        assert_eq!(a.region_id, b.region_id);
    }

    #[test]
    fn separate_clients_get_isolated_regions() {
        // §4.2/§6: each client gets its own region so a malicious client
        // cannot snoop another's payloads.
        let reg = HostRegistry::new();
        let c2 = ProcessId(11);
        reg.register(CLIENT, 1);
        reg.register(c2, 1);
        reg.register(TARGET, 1);
        let a = reg.hotplug(CLIENT, TARGET, 4, 4096).unwrap();
        let b = reg.hotplug(c2, TARGET, 4, 4096).unwrap();
        assert_ne!(a.region_id, b.region_id);
    }

    #[test]
    fn unplug_clears_flags_and_channel() {
        let reg = HostRegistry::new();
        let cflag = reg.register(CLIENT, 1);
        reg.register(TARGET, 1);
        reg.hotplug(CLIENT, TARGET, 4, 4096).unwrap();
        assert!(reg.channel_for(CLIENT, TARGET).is_some());
        reg.unplug(CLIENT, TARGET);
        assert!(reg.channel_for(CLIENT, TARGET).is_none());
        assert!(poll_locality(&cflag).is_none());
    }

    #[test]
    fn unknown_processes_are_not_co_located() {
        let reg = HostRegistry::new();
        reg.register(CLIENT, 1);
        assert!(!reg.co_located(CLIENT, ProcessId(999)));
        assert!(reg.hotplug(CLIENT, ProcessId(999), 2, 64).is_none());
    }
}
