//! Locality awareness: the helper process (§4.2).
//!
//! In the paper, a helper process (the cluster resource manager —
//! Kubernetes, OpenStack, SLURM) knows which physical host every client
//! and storage service runs on, and attaches an IVSHMEM/ICSHMEM region
//! to both endpoints when they share one.
//!
//! [`HostRegistry`] plays the resource manager's first half: processes
//! register with a host identity and [`HostRegistry::co_located`]
//! answers the Connection Manager's locality question. The second half
//! belongs to the connection: for a co-located pair, the Connection
//! Manager allocates a fresh isolated region sized by that connection's
//! own settings (one region per client, the paper's security model, §6),
//! hands one end to each side, and the region is freed when both ends
//! drop it. The registry holds no region.

use std::collections::HashMap;

use parking_lot::Mutex;

/// Identity of a registered process (client application or storage
/// service).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u64);

/// The helper-process registry: knows which host every process runs on.
#[derive(Default)]
pub struct HostRegistry {
    hosts: Mutex<HashMap<ProcessId, u64>>,
}

impl HostRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a process on a host (re-registering moves it).
    pub fn register(&self, pid: ProcessId, host: u64) {
        self.hosts.lock().insert(pid, host);
    }

    /// Whether two registered processes share a physical host. An
    /// unregistered process is co-located with nothing.
    pub fn co_located(&self, a: ProcessId, b: ProcessId) -> bool {
        let hosts = self.hosts.lock();
        matches!((hosts.get(&a), hosts.get(&b)), (Some(x), Some(y)) if x == y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT: ProcessId = ProcessId(10);
    const TARGET: ProcessId = ProcessId(20);

    #[test]
    fn processes_on_one_host_are_co_located() {
        let reg = HostRegistry::new();
        reg.register(CLIENT, 1);
        reg.register(TARGET, 1);
        assert!(reg.co_located(CLIENT, TARGET));
        assert!(reg.co_located(TARGET, CLIENT));
    }

    #[test]
    fn processes_on_different_hosts_are_not() {
        let reg = HostRegistry::new();
        reg.register(CLIENT, 1);
        reg.register(TARGET, 2);
        assert!(!reg.co_located(CLIENT, TARGET));
        // Re-registering moves a process.
        reg.register(TARGET, 1);
        assert!(reg.co_located(CLIENT, TARGET));
    }

    #[test]
    fn unknown_processes_are_not_co_located() {
        let reg = HostRegistry::new();
        reg.register(CLIENT, 1);
        assert!(!reg.co_located(CLIENT, ProcessId(999)));
        assert!(!reg.co_located(ProcessId(998), ProcessId(999)));
    }
}
