//! The NVM subsystem controller: namespaces + command execution.

use std::collections::BTreeMap;

use oaf_ssd::block::wait_barrier;

use crate::nvme::command::{NvmeCommand, Opcode};
use crate::nvme::completion::{NvmeCompletion, Status};
use crate::nvme::namespace::{BarrierPoll, BarrierTicket, Namespace};

/// Identify payload for a namespace (simplified identify structure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdentifyInfo {
    /// Namespace id.
    pub nsid: u32,
    /// Block size in bytes.
    pub block_size: u32,
    /// Capacity in blocks.
    pub capacity_blocks: u64,
}

impl IdentifyInfo {
    /// Serialized length.
    pub const WIRE_LEN: usize = 16;

    /// Serializes to a fixed little-endian layout.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..4].copy_from_slice(&self.nsid.to_le_bytes());
        out[4..8].copy_from_slice(&self.block_size.to_le_bytes());
        out[8..16].copy_from_slice(&self.capacity_blocks.to_le_bytes());
        out
    }

    /// Deserializes from [`IdentifyInfo::to_bytes`] output.
    pub fn from_bytes(raw: &[u8]) -> Option<IdentifyInfo> {
        if raw.len() < Self::WIRE_LEN {
            return None;
        }
        Some(IdentifyInfo {
            nsid: u32::from_le_bytes(raw[0..4].try_into().ok()?),
            block_size: u32::from_le_bytes(raw[4..8].try_into().ok()?),
            capacity_blocks: u64::from_le_bytes(raw[8..16].try_into().ok()?),
        })
    }
}

/// A controller owning a set of namespaces.
#[derive(Default)]
pub struct Controller {
    namespaces: BTreeMap<u32, Namespace>,
}

impl Controller {
    /// An empty controller.
    pub fn new() -> Self {
        Controller::default()
    }

    /// Adds a namespace; panics on duplicate ids.
    pub fn add_namespace(&mut self, ns: Namespace) {
        let id = ns.id();
        let prev = self.namespaces.insert(id, ns);
        assert!(prev.is_none(), "duplicate namespace id {id}");
    }

    /// Looks up a namespace.
    pub fn namespace(&self, nsid: u32) -> Option<&Namespace> {
        self.namespaces.get(&nsid)
    }

    /// Returns a controller whose namespaces are shared views over this
    /// controller's storage — the NVMe multi-queue model, where every
    /// I/O queue (here: reactor shard) drives its own controller state
    /// against one storage service. See [`Namespace::share`] for the
    /// exclusivity contract on overlapping writes.
    pub fn share(&mut self) -> Controller {
        let namespaces = self
            .namespaces
            .iter_mut()
            .map(|(&id, ns)| (id, ns.share()))
            .collect();
        Controller { namespaces }
    }

    /// Namespace ids in ascending order.
    pub fn namespace_ids(&self) -> Vec<u32> {
        self.namespaces.keys().copied().collect()
    }

    /// Transfer length of `cmd` against its namespace's block size, or
    /// `None` if the namespace does not exist.
    pub fn transfer_len(&self, cmd: &NvmeCommand) -> Option<usize> {
        self.namespaces
            .get(&cmd.nsid)
            .map(|ns| cmd.transfer_len(ns.block_size()) as usize)
    }

    /// Transfer length of the read `cmd`, with its range checked against
    /// the namespace — the check that must pass before a wire-supplied
    /// `nlb` sizes any buffer. `Err` is the completion to answer with.
    pub fn read_len(&self, cmd: &NvmeCommand) -> Result<usize, NvmeCompletion> {
        let Some(ns) = self.namespaces.get(&cmd.nsid) else {
            return Err(NvmeCompletion::error(cmd.cid, Status::InvalidNamespace));
        };
        let len = cmd.transfer_len(ns.block_size()) as usize;
        let status = ns.check(cmd.slba, cmd.nlb, len);
        if status.is_ok() {
            Ok(len)
        } else {
            Err(NvmeCompletion::error(cmd.cid, status))
        }
    }

    /// Executes a read directly into `dst` — the zero-copy path, where
    /// `dst` is a leased shared-memory slot (or the target's recycled
    /// inline-read buffer) and the device's bytes land there with no
    /// intermediate `Vec` (§4.4.3). `dst` must be exactly the command's
    /// transfer length.
    pub fn read_into(&self, cmd: &NvmeCommand, dst: &mut [u8]) -> NvmeCompletion {
        debug_assert_eq!(cmd.opcode, Opcode::Read);
        let Some(ns) = self.namespaces.get(&cmd.nsid) else {
            return NvmeCompletion::error(cmd.cid, Status::InvalidNamespace);
        };
        if dst.len() != cmd.transfer_len(ns.block_size()) as usize {
            return NvmeCompletion::error(cmd.cid, Status::InvalidFieldLength);
        }
        let status = ns.read(cmd.slba, cmd.nlb, dst);
        if status.is_ok() {
            NvmeCompletion::ok(cmd.cid)
        } else {
            NvmeCompletion::error(cmd.cid, status)
        }
    }

    /// Executes a command to completion. `write_payload` must be `Some`
    /// for writes and carry exactly the command's transfer length.
    /// Returns the completion and, for reads/identify, the response
    /// payload. This is [`execute_async`](Controller::execute_async)
    /// plus waiting out a returned ticket, so it is for callers with
    /// nothing else to serve meanwhile.
    pub fn execute(
        &mut self,
        cmd: &NvmeCommand,
        write_payload: Option<&[u8]>,
    ) -> (NvmeCompletion, Option<Vec<u8>>) {
        let (mut comp, payload, ticket) = self.execute_async(cmd, write_payload);
        if let Some(ticket) = ticket {
            if wait_barrier(|| self.poll_barrier(cmd.nsid, ticket)) == BarrierPoll::Failed {
                comp = NvmeCompletion::error(cmd.cid, Status::InternalError);
            }
        }
        (comp, payload)
    }

    /// Executes a command — the one opcode dispatch. Barrier-class
    /// commands (Flush, FUA writes, FUA zero/trim) against a
    /// file-backed namespace return a [`BarrierTicket`]: the
    /// mutation is journaled and applied, its `fdatasync` is in flight,
    /// and the returned (success) completion must be parked until
    /// [`poll_barrier`](Controller::poll_barrier) resolves the ticket.
    /// Everything else completes here (ticket `None`).
    pub fn execute_async(
        &mut self,
        cmd: &NvmeCommand,
        write_payload: Option<&[u8]>,
    ) -> (NvmeCompletion, Option<Vec<u8>>, Option<BarrierTicket>) {
        let Some(ns) = self.namespaces.get_mut(&cmd.nsid) else {
            let comp = NvmeCompletion::error(cmd.cid, Status::InvalidNamespace);
            return (comp, None, None);
        };
        let mut payload = None;
        let mut ticket = None;
        let status = match cmd.opcode {
            Opcode::Identify => {
                let info = IdentifyInfo {
                    nsid: ns.id(),
                    block_size: ns.block_size(),
                    capacity_blocks: ns.capacity_blocks(),
                };
                payload = Some(info.to_bytes().to_vec());
                Status::Success
            }
            // Real durability barrier on file-backed stores; RAM disks
            // ack it as a no-op.
            Opcode::Flush => {
                let (status, t) = ns.flush_submit();
                ticket = t;
                status
            }
            Opcode::Read => {
                // `nlb` is a wire field: the range is checked before it
                // sizes the buffer.
                let len = cmd.transfer_len(ns.block_size()) as usize;
                let mut status = ns.check(cmd.slba, cmd.nlb, len);
                if status.is_ok() {
                    let mut out = vec![0u8; len];
                    status = ns.read(cmd.slba, cmd.nlb, &mut out);
                    payload = status.is_ok().then_some(out);
                }
                status
            }
            Opcode::Write => match write_payload {
                Some(src) => {
                    let (status, t) = ns.write_submit(cmd.slba, cmd.nlb, src, cmd.fua);
                    ticket = t;
                    status
                }
                None => Status::InvalidFieldLength,
            },
            Opcode::Compare => match write_payload {
                Some(expected) => {
                    // Range and payload length are checked before the
                    // payload's length sizes the scratch buffer.
                    let mut status = ns.check(cmd.slba, cmd.nlb, expected.len());
                    if status.is_ok() {
                        let mut stored = vec![0u8; expected.len()];
                        status = ns.read(cmd.slba, cmd.nlb, &mut stored);
                        if status.is_ok() && stored != expected {
                            status = Status::CompareFailure;
                        }
                    }
                    status
                }
                None => Status::InvalidFieldLength,
            },
            Opcode::WriteZeroes | Opcode::Dsm => {
                let mut status = if cmd.opcode == Opcode::Dsm {
                    ns.trim(cmd.slba, cmd.nlb)
                } else {
                    ns.write_zeroes(cmd.slba, cmd.nlb)
                };
                if status.is_ok() && cmd.fua {
                    (status, ticket) = ns.flush_submit();
                }
                status
            }
        };
        let comp = NvmeCompletion {
            cid: cmd.cid,
            status,
        };
        (comp, payload, ticket)
    }

    /// Resolution state of a parked barrier ticket issued by
    /// [`execute_async`](Controller::execute_async) against `nsid`.
    /// An unknown namespace reports `Durable` so a drain loop over a
    /// reconfigured controller stays total.
    pub fn poll_barrier(&self, nsid: u32, ticket: BarrierTicket) -> BarrierPoll {
        match self.namespaces.get(&nsid) {
            Some(ns) => ns.poll_barrier(ticket),
            None => BarrierPoll::Durable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 512, 128));
        c.add_namespace(Namespace::new(2, 4096, 64));
        c
    }

    #[test]
    fn write_then_read() {
        let mut c = controller();
        let data = vec![0xabu8; 1024];
        let (comp, _) = c.execute(&NvmeCommand::write(1, 1, 10, 2), Some(&data));
        assert!(comp.status.is_ok());
        let (comp, payload) = c.execute(&NvmeCommand::read(2, 1, 10, 2), None);
        assert!(comp.status.is_ok());
        assert_eq!(payload.unwrap(), data);
    }

    #[test]
    fn identify_roundtrips_geometry() {
        let mut c = controller();
        let cmd = NvmeCommand {
            cid: 9,
            opcode: Opcode::Identify,
            nsid: 2,
            slba: 0,
            nlb: 0,
            fua: false,
            gseq: 0,
        };
        let (comp, payload) = c.execute(&cmd, None);
        assert!(comp.status.is_ok());
        let info = IdentifyInfo::from_bytes(&payload.unwrap()).unwrap();
        assert_eq!(info.nsid, 2);
        assert_eq!(info.block_size, 4096);
        assert_eq!(info.capacity_blocks, 64);
    }

    #[test]
    fn bad_namespace_rejected() {
        let mut c = controller();
        let (comp, _) = c.execute(&NvmeCommand::read(1, 99, 0, 1), None);
        assert_eq!(comp.status, Status::InvalidNamespace);
    }

    #[test]
    fn write_without_payload_rejected() {
        let mut c = controller();
        let (comp, _) = c.execute(&NvmeCommand::write(1, 1, 0, 1), None);
        assert_eq!(comp.status, Status::InvalidFieldLength);
    }

    #[test]
    fn flush_acks() {
        let mut c = controller();
        let (comp, payload) = c.execute(&NvmeCommand::flush(3, 1), None);
        assert!(comp.status.is_ok());
        assert!(payload.is_none());
    }

    #[test]
    fn out_of_range_read_is_error() {
        let mut c = controller();
        let (comp, payload) = c.execute(&NvmeCommand::read(1, 1, 127, 2), None);
        assert_eq!(comp.status, Status::LbaOutOfRange);
        assert!(payload.is_none());
    }

    /// `nlb` comes off the wire; it must be range-checked before it
    /// sizes a buffer (at 4 KiB blocks `u32::MAX` asks for 16 TiB,
    /// which aborts the process instead of failing the command).
    #[test]
    fn oversized_nlb_is_refused_before_a_buffer_is_sized() {
        let mut c = controller();
        let (comp, payload) = c.execute(&NvmeCommand::read(1, 2, 0, u32::MAX), None);
        assert_eq!(comp.status, Status::LbaOutOfRange);
        assert!(payload.is_none());
        // The target's inline read path asks before it sizes its buffer.
        let refused = c.read_len(&NvmeCommand::read(4, 2, 0, u32::MAX));
        assert_eq!(refused.map_err(|c| c.status), Err(Status::LbaOutOfRange));
        let fits = NvmeCommand::read(5, 2, 0, 2);
        assert_eq!(c.read_len(&fits).ok(), c.transfer_len(&fits));
        let nowhere = c.read_len(&NvmeCommand::read(6, 9, 0, 1));
        assert_eq!(nowhere.map_err(|c| c.status), Err(Status::InvalidNamespace));
        let one_block = vec![0u8; 4096];
        let (comp, _) = c.execute(&NvmeCommand::compare(2, 2, 0, u32::MAX), Some(&one_block));
        assert_eq!(comp.status, Status::LbaOutOfRange, "range before length");
        // In range but the payload is short: a field-length error, not
        // a compare against a buffer sized from `nlb`.
        let (comp, _) = c.execute(&NvmeCommand::compare(3, 2, 0, 2), Some(&one_block));
        assert_eq!(comp.status, Status::InvalidFieldLength);
    }

    #[test]
    #[should_panic(expected = "duplicate namespace")]
    fn duplicate_nsid_panics() {
        let mut c = controller();
        c.add_namespace(Namespace::new(1, 512, 1));
    }

    #[test]
    fn compare_matches_and_mismatches() {
        let mut c = controller();
        let data = vec![0x11u8; 512];
        c.execute(&NvmeCommand::write(1, 1, 4, 1), Some(&data));
        let (ok, _) = c.execute(&NvmeCommand::compare(2, 1, 4, 1), Some(&data));
        assert!(ok.status.is_ok());
        let other = vec![0x22u8; 512];
        let (bad, _) = c.execute(&NvmeCommand::compare(3, 1, 4, 1), Some(&other));
        assert_eq!(bad.status, Status::CompareFailure);
        // Compare without payload is a field error.
        let (nf, _) = c.execute(&NvmeCommand::compare(4, 1, 4, 1), None);
        assert_eq!(nf.status, Status::InvalidFieldLength);
    }

    #[test]
    fn write_zeroes_clears_blocks_without_payload() {
        let mut c = controller();
        c.execute(&NvmeCommand::write(1, 1, 8, 2), Some(&vec![0xffu8; 1024]));
        let (comp, _) = c.execute(&NvmeCommand::write_zeroes(2, 1, 8, 2), None);
        assert!(comp.status.is_ok());
        let (rc, data) = c.execute(&NvmeCommand::read(3, 1, 8, 2), None);
        assert!(rc.status.is_ok());
        assert!(data.unwrap().iter().all(|&b| b == 0));
        // Out of range is still caught.
        let (oor, _) = c.execute(&NvmeCommand::write_zeroes(4, 1, 1 << 40, 1), None);
        assert_eq!(oor.status, Status::LbaOutOfRange);
    }

    #[test]
    fn dsm_deallocates_and_reads_back_zero() {
        let mut c = controller();
        c.execute(&NvmeCommand::write(1, 1, 16, 4), Some(&vec![0xeeu8; 2048]));
        let (comp, _) = c.execute(&NvmeCommand::trim(2, 1, 16, 4), None);
        assert!(comp.status.is_ok());
        let (rc, data) = c.execute(&NvmeCommand::read(3, 1, 16, 4), None);
        assert!(rc.status.is_ok());
        assert!(data.unwrap().iter().all(|&b| b == 0));
        let (oor, _) = c.execute(&NvmeCommand::trim(4, 1, 1 << 40, 1), None);
        assert_eq!(oor.status, Status::LbaOutOfRange);
        let (bad_ns, _) = c.execute(&NvmeCommand::trim(5, 99, 0, 1), None);
        assert_eq!(bad_ns.status, Status::InvalidNamespace);
    }

    #[test]
    fn fua_write_and_flush_reach_durable_store() {
        use oaf_store::vfs::MemVfs;
        let mut c = Controller::new();
        let disk =
            oaf_store::FileDisk::create_on(Box::new(MemVfs::new()), 512, 64, 64 * 1024).unwrap();
        c.add_namespace(Namespace::with_file(1, disk));
        let (w, _) = c.execute(
            &NvmeCommand::write_fua(1, 1, 0, 1),
            Some(&vec![0x42u8; 512]),
        );
        assert!(w.status.is_ok());
        let (f, _) = c.execute(&NvmeCommand::flush(2, 1), None);
        assert!(f.status.is_ok());
        let m = c.namespace(1).unwrap().store_metrics().unwrap();
        assert!(m.fsyncs.get() >= 2, "FUA write + flush both sync");
    }

    #[test]
    fn execute_async_tickets_file_backed_barriers() {
        let vfs = oaf_store::vfs::MemVfs::new();
        let disk =
            oaf_store::FileDisk::create_on(Box::new(vfs.clone()), 512, 64, 64 * 1024).unwrap();
        let mut c = Controller::new();
        c.add_namespace(Namespace::with_file(1, disk));
        c.add_namespace(Namespace::new(2, 512, 16));
        let data = vec![0x42u8; 512];
        let (w, _, ticket) = c.execute_async(&NvmeCommand::write_fua(1, 1, 0, 1), Some(&data));
        assert!(w.status.is_ok());
        let t = ticket.expect("FUA against the file-backed namespace tickets");
        while c.poll_barrier(1, t) == BarrierPoll::Pending {
            std::thread::yield_now();
        }
        assert_eq!(c.poll_barrier(1, t), BarrierPoll::Durable);
        // Reads pass through with payload and no ticket.
        let (r, payload, rt) = c.execute_async(&NvmeCommand::read(2, 1, 0, 1), None);
        assert!(r.status.is_ok());
        assert_eq!(payload.unwrap(), data);
        assert!(rt.is_none());
        // Flush tickets; a RAM-backed namespace never does.
        let (f, _, ft) = c.execute_async(&NvmeCommand::flush(3, 1), None);
        assert!(f.status.is_ok());
        let ft = ft.expect("flush tickets");
        while c.poll_barrier(1, ft) == BarrierPoll::Pending {
            std::thread::yield_now();
        }
        let (rw, _, ram_t) = c.execute_async(&NvmeCommand::write_fua(4, 2, 0, 1), Some(&data));
        assert!(rw.status.is_ok());
        assert!(ram_t.is_none(), "RAM namespace must not ticket");
        // `execute` is the same dispatch plus waiting the ticket out:
        // durable → success, failed sync → InternalError.
        let (w, _) = c.execute(&NvmeCommand::write_fua(5, 1, 1, 1), Some(&data));
        assert!(w.status.is_ok());
        vfs.set_fail_sync(true);
        let (w, _) = c.execute(&NvmeCommand::write_fua(6, 1, 2, 1), Some(&data));
        assert_eq!(w.status, Status::InternalError);
    }

    #[test]
    fn shared_controllers_drive_one_storage() {
        let mut a = controller();
        let mut b = a.share();
        let data = vec![0x5au8; 512];
        let (w, _) = b.execute(&NvmeCommand::write(1, 1, 3, 1), Some(&data));
        assert!(w.status.is_ok());
        let (r, payload) = a.execute(&NvmeCommand::read(2, 1, 3, 1), None);
        assert!(r.status.is_ok());
        assert_eq!(payload.unwrap(), data);
        assert_eq!(b.namespace_ids(), vec![1, 2]);
    }

    #[test]
    fn identify_info_bytes_roundtrip() {
        let info = IdentifyInfo {
            nsid: 7,
            block_size: 4096,
            capacity_blocks: 1 << 30,
        };
        assert_eq!(IdentifyInfo::from_bytes(&info.to_bytes()), Some(info));
        assert_eq!(IdentifyInfo::from_bytes(&[0u8; 3]), None);
    }
}
