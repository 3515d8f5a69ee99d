//! The syscall boundary of the store, made swappable so crashes can be
//! injected exactly where a real power loss bites.
//!
//! [`FileDisk`](crate::disk::FileDisk) never touches `std::fs` directly;
//! every byte goes through a [`Vfs`]. Every `Vfs` can hand out a second
//! handle onto the same bytes ([`Vfs::try_clone`]): the shared disk's
//! sync worker syncs through one, so `fdatasync` never runs under the
//! disk lock.
//!
//! Two provided methods are performance hooks with a default that keeps
//! every model exact: [`Vfs::write_vectored_at`] (one journal record,
//! one device write — the default is one [`Vfs::write_at`] per slice)
//! and [`Vfs::start_writeback`] (start page-cache write-out so a later
//! [`Vfs::sync`] has less left to push — the default does nothing). A
//! kick is never durability: only `sync` is a barrier.
//!
//! Three implementations:
//!
//! * [`RealVfs`] — a real file with positional I/O and `fdatasync`; on
//!   Linux, `pwritev` for vectored writes and
//!   `sync_file_range(SYNC_FILE_RANGE_WRITE)` for the write-out kick;
//! * [`MemVfs`] — a flat in-memory image with no volatile cache
//!   (always "durable"), for unit tests and allocation-budget tests,
//!   with slow-sync / failing-sync knobs shared by every handle;
//! * [`CrashVfs`] — the chaos layer: a volatile-cache model over an
//!   in-memory image. Writes land in a pending cache and only
//!   [`Vfs::sync`] makes them durable. At a chosen syscall index the
//!   "machine dies": a seeded-random subset of the pending cache —
//!   including a possibly *torn prefix* of the in-flight write — reaches
//!   the durable image, and every later operation on every handle
//!   fails. Reopening from [`CrashVfs::durable_image`] is exactly a
//!   post-power-loss mount.

use std::fs::File;
use std::io::{self, IoSlice};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Positional I/O + durability barrier: the syscalls the store is
/// allowed to make.
#[allow(clippy::len_without_is_empty)] // `len` is a file size, not a collection
pub trait Vfs: Send {
    /// Reads `buf.len()` bytes at absolute offset `off`. The store only
    /// reads inside the file it sized with [`Vfs::set_len`], so short
    /// reads are errors.
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes all of `buf` at absolute offset `off`.
    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()>;

    /// Writes the concatenation of `bufs` at absolute offset `off`. The
    /// default issues one [`Vfs::write_at`] per non-empty slice, in
    /// order, so a crash model sees — and can tear — exactly the writes
    /// it would see from separate calls.
    fn write_vectored_at(&mut self, off: u64, bufs: &[IoSlice<'_>]) -> io::Result<()> {
        let mut off = off;
        for buf in bufs.iter().filter(|b| !b.is_empty()) {
            self.write_at(off, buf)?;
            off += buf.len() as u64;
        }
        Ok(())
    }

    /// Durability barrier: every write acknowledged before this call
    /// must survive a crash after it (`fdatasync` semantics).
    fn sync(&mut self) -> io::Result<()>;

    /// Starts write-out of the file's dirty pages and returns without
    /// waiting for it: a hint that leaves the next [`Vfs::sync`] less to
    /// push. It makes nothing durable, so nothing may be acknowledged on
    /// its strength. The default does nothing — right for a backend with
    /// no volatile cache, and for the crash model, where only `sync`
    /// moves bytes to the platter.
    fn start_writeback(&self) -> io::Result<()> {
        Ok(())
    }

    /// Current file length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Grows (or truncates) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// A second handle onto the same bytes: a write through either
    /// handle is visible to reads through both, and `sync` through
    /// either makes every earlier write durable.
    fn try_clone(&self) -> io::Result<Box<dyn Vfs>>;
}

/// Direct `pwritev`/`sync_file_range` bindings. `std` already links
/// libc, so declaring the symbols avoids a dependency; other targets
/// take the trait's provided bodies.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::fs::File;
    use std::io::{self, IoSlice};
    use std::os::fd::AsRawFd;
    use std::os::unix::fs::FileExt;

    /// Start write-out of the range's dirty pages; do not wait.
    const SYNC_FILE_RANGE_WRITE: u32 = 2;
    /// The kernel's `UIO_MAXIOV`.
    const IOV_MAX: usize = 1024;

    extern "C" {
        fn pwritev(fd: i32, iov: *const core::ffi::c_void, iovcnt: i32, offset: i64) -> isize;
        fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
    }

    /// Writes every slice of `bufs` at `off` with as few `pwritev`
    /// calls as the kernel allows. A slice a short write cut is finished
    /// with a positional write of its tail, so nothing is copied or
    /// allocated.
    pub fn write_all_vectored_at(
        file: &File,
        mut off: u64,
        mut bufs: &[IoSlice<'_>],
    ) -> io::Result<()> {
        loop {
            while bufs.first().is_some_and(|b| b.is_empty()) {
                bufs = &bufs[1..];
            }
            if bufs.is_empty() {
                return Ok(());
            }
            let cnt = bufs.len().min(IOV_MAX) as i32;
            let offset = i64::try_from(off).map_err(|_| io::Error::other("offset overflow"))?;
            // SAFETY: `IoSlice` is ABI-compatible with `struct iovec`,
            // and `cnt` slices of `bufs` are live for the call.
            let n = unsafe { pwritev(file.as_raw_fd(), bufs.as_ptr().cast(), cnt, offset) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            let mut n = n as usize;
            off += n as u64;
            while let Some(b) = bufs.first().filter(|b| n >= b.len()) {
                n -= b.len();
                bufs = &bufs[1..];
            }
            if n > 0 {
                let tail = &bufs[0][n..];
                file.write_all_at(tail, off)?;
                off += tail.len() as u64;
                bufs = &bufs[1..];
            }
        }
    }

    /// Starts write-out of every dirty page of `file` (offset 0, length
    /// 0 = to the end of the file) without waiting for any of it.
    pub fn start_writeback(file: &File) -> io::Result<()> {
        // SAFETY: plain syscall on a descriptor `file` keeps open.
        let rc = unsafe { sync_file_range(file.as_raw_fd(), 0, 0, SYNC_FILE_RANGE_WRITE) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// A real file. `sync` is `fdatasync` — the store's own metadata lives
/// inside the file body, so inode timestamps need not be durable.
pub struct RealVfs {
    file: File,
}

impl RealVfs {
    /// Creates (or truncates) `path` for read/write.
    pub fn create(path: &Path) -> io::Result<RealVfs> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(RealVfs { file })
    }

    /// Opens an existing store file at `path` for read/write.
    pub fn open(path: &Path) -> io::Result<RealVfs> {
        let file = File::options().read(true).write(true).open(path)?;
        Ok(RealVfs { file })
    }
}

impl Vfs for RealVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact_at(buf, off)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        self.file.write_all_at(buf, off)
    }

    /// `pwritev`: one syscall for a whole journal record.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn write_vectored_at(&mut self, off: u64, bufs: &[IoSlice<'_>]) -> io::Result<()> {
        sys::write_all_vectored_at(&self.file, off, bufs)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// `sync_file_range(fd, 0, 0, SYNC_FILE_RANGE_WRITE)`: queues every
    /// dirty page for write-out and returns. It flushes neither the
    /// device cache nor metadata — only [`Vfs::sync`] is a barrier.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn start_writeback(&self) -> io::Result<()> {
        sys::start_writeback(&self.file)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    /// A duplicated descriptor: `fdatasync` on either flushes the inode.
    fn try_clone(&self) -> io::Result<Box<dyn Vfs>> {
        Ok(Box::new(RealVfs {
            file: self.file.try_clone()?,
        }))
    }
}

/// Sync-behaviour knobs shared by every handle of a [`MemVfs`].
#[derive(Default)]
struct SyncCtl {
    delay_ns: AtomicU64,
    fail: AtomicBool,
    hold: AtomicBool,
    syncs: AtomicU64,
}

/// A flat in-memory image with no volatile cache: every write is
/// immediately "durable". Writes inside the sized image never allocate,
/// so the store's steady-state allocation budget can be pinned over
/// this backend.
///
/// Every clone views the same image, the way a file opened twice does.
/// The sync knobs model a slow or failing device; the configured delay
/// and hold are served without touching the image, so reads and writes
/// through other handles keep flowing while a sync is "in flight" —
/// exactly how a real file behaves while `fdatasync` runs on another
/// descriptor.
#[derive(Clone, Default)]
pub struct MemVfs {
    image: Arc<Mutex<Vec<u8>>>,
    ctl: Arc<SyncCtl>,
}

impl MemVfs {
    /// An empty image (size it with [`Vfs::set_len`] — `FileDisk::create`
    /// does).
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    /// An image holding `bytes` — e.g. a [`CrashVfs::durable_image`] to
    /// mount what survived a crash.
    pub fn from_image(bytes: Vec<u8>) -> MemVfs {
        MemVfs {
            image: Arc::new(Mutex::new(bytes)),
            ctl: Arc::default(),
        }
    }

    /// A copy of the current image.
    pub fn image(&self) -> Vec<u8> {
        self.bytes().clone()
    }

    fn bytes(&self) -> MutexGuard<'_, Vec<u8>> {
        self.image.lock().expect("mem image lock poisoned")
    }

    /// Every future [`Vfs::sync`] (through any handle) sleeps this long
    /// first — a slow device.
    pub fn set_sync_delay(&self, delay: Duration) {
        let ns = u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX);
        self.ctl.delay_ns.store(ns, Ordering::SeqCst);
    }

    /// Every future [`Vfs::sync`] fails with an injected I/O error
    /// until cleared — a dying device.
    pub fn set_fail_sync(&self, fail: bool) {
        self.ctl.fail.store(fail, Ordering::SeqCst);
    }

    /// While held, [`Vfs::sync`] spins (allocation-free) — a sync frozen
    /// in flight, released on demand.
    pub fn hold_syncs(&self, hold: bool) {
        self.ctl.hold.store(hold, Ordering::SeqCst);
    }

    /// Completed (successful) syncs across all handles.
    pub fn syncs(&self) -> u64 {
        self.ctl.syncs.load(Ordering::SeqCst)
    }
}

fn range_of(off: u64, len: usize, file_len: usize) -> io::Result<std::ops::Range<usize>> {
    let start = usize::try_from(off).map_err(|_| io::Error::other("offset overflow"))?;
    let end = start
        .checked_add(len)
        .filter(|&e| e <= file_len)
        .ok_or_else(|| io::Error::other(format!("access [{start}, +{len}) beyond {file_len}")))?;
    Ok(start..end)
}

impl Vfs for MemVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        let image = self.bytes();
        let r = range_of(off, buf.len(), image.len())?;
        buf.copy_from_slice(&image[r]);
        Ok(())
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        let mut image = self.bytes();
        let r = range_of(off, buf.len(), image.len())?;
        image[r].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let delay = self.ctl.delay_ns.load(Ordering::SeqCst);
        if delay > 0 {
            std::thread::sleep(Duration::from_nanos(delay));
        }
        while self.ctl.hold.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        if self.ctl.fail.load(Ordering::SeqCst) {
            return Err(io::Error::other("injected sync failure"));
        }
        self.ctl.syncs.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.bytes().len() as u64)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.bytes().resize(len as usize, 0);
        Ok(())
    }

    fn try_clone(&self) -> io::Result<Box<dyn Vfs>> {
        Ok(Box::new(self.clone()))
    }
}

/// One write parked in the volatile cache.
struct PendingWrite {
    off: u64,
    data: Vec<u8>,
}

/// The volatile-cache crash model.
///
/// `view` is what the running store observes (page-cache semantics:
/// reads see unsynced writes); `durable` is what the platter holds.
/// [`Vfs::sync`] reconciles them. When the syscall counter reaches
/// `crash_at` the machine dies mid-syscall: each cached write survives
/// with probability ½ (drawn from a splitmix64 stream seeded by `seed`,
/// the same generator family `oaf-chaos` uses, so a failing seed replays
/// bit-for-bit), the in-flight write survives as a random — possibly
/// empty, possibly torn — prefix, and every subsequent call fails.
///
/// Clones are handles onto one machine: they share the syscall counter,
/// so a kill point counts the syscalls of every handle, and after the
/// crash every handle is dead.
#[derive(Clone)]
pub struct CrashVfs(Arc<Mutex<CrashState>>);

struct CrashState {
    view: Vec<u8>,
    durable: Vec<u8>,
    pending: Vec<PendingWrite>,
    /// Syscall index (1-based) at which to crash; `None` = never.
    crash_at: Option<u64>,
    syscalls: u64,
    rng: u64,
    crashed: bool,
}

/// splitmix64 step — the seed expander behind `oaf_chaos::rng`, inlined
/// here because the dependency points the other way (`oaf-chaos` sits
/// above `oaf-nvmeof`, which sits above this crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CrashVfs {
    /// A crash layer over an empty image. `crash_at` counts mutating
    /// syscalls (`write_at`, `sync`) from 1; the counter is exposed via
    /// [`CrashVfs::syscalls`] so tests can size kill windows.
    pub fn new(seed: u64, crash_at: Option<u64>) -> CrashVfs {
        CrashVfs::over_image(Vec::new(), seed, crash_at)
    }

    /// A crash layer over an existing durable image (e.g. to crash a
    /// store that already survived one crash).
    pub fn over_image(bytes: Vec<u8>, seed: u64, crash_at: Option<u64>) -> CrashVfs {
        CrashVfs(Arc::new(Mutex::new(CrashState {
            view: bytes.clone(),
            durable: bytes,
            pending: Vec::new(),
            crash_at,
            syscalls: 0,
            rng: seed,
            crashed: false,
        })))
    }

    fn state(&self) -> MutexGuard<'_, CrashState> {
        self.0.lock().expect("crash state lock poisoned")
    }

    /// Mutating syscalls issued so far, through every handle.
    pub fn syscalls(&self) -> u64 {
        self.state().syscalls
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.state().crashed
    }

    /// What the platter holds: the bytes a post-crash mount would see.
    /// (Before a crash this is the synced prefix of history.)
    pub fn durable_image(&self) -> Vec<u8> {
        let st = self.state();
        st.durable
            .iter()
            .copied()
            .chain(std::iter::repeat_n(
                0,
                st.view.len().saturating_sub(st.durable.len()),
            ))
            .collect()
    }
}

fn dead() -> io::Error {
    io::Error::other("injected crash: store is dead")
}

impl CrashState {
    /// Counts one mutating syscall; returns true when this is the one
    /// that dies.
    fn tick(&mut self) -> bool {
        self.syscalls += 1;
        self.crash_at == Some(self.syscalls)
    }

    /// The power cut: a random subset of the volatile cache — in write
    /// order, so later survivors still overwrite earlier ones — plus a
    /// random prefix of `inflight` reaches the platter.
    fn crash(&mut self, inflight: Option<(u64, &[u8])>) {
        self.crashed = true;
        self.durable.resize(self.view.len(), 0);
        let pending = std::mem::take(&mut self.pending);
        for w in pending {
            if splitmix64(&mut self.rng) & 1 == 0 {
                let end = (w.off as usize + w.data.len()).min(self.durable.len());
                let start = (w.off as usize).min(end);
                self.durable[start..end].copy_from_slice(&w.data[..end - start]);
            }
        }
        if let Some((off, data)) = inflight {
            let keep = (splitmix64(&mut self.rng) as usize) % (data.len() + 1);
            let end = (off as usize + keep).min(self.durable.len());
            let start = (off as usize).min(end);
            self.durable[start..end].copy_from_slice(&data[..end - start]);
        }
    }
}

impl Vfs for CrashVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        let st = self.state();
        if st.crashed {
            return Err(dead());
        }
        let r = range_of(off, buf.len(), st.view.len())?;
        buf.copy_from_slice(&st.view[r]);
        Ok(())
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        let mut st = self.state();
        if st.crashed {
            return Err(dead());
        }
        if st.tick() {
            st.crash(Some((off, buf)));
            return Err(dead());
        }
        let r = range_of(off, buf.len(), st.view.len())?;
        st.view[r].copy_from_slice(buf);
        st.pending.push(PendingWrite {
            off,
            data: buf.to_vec(),
        });
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = self.state();
        if st.crashed {
            return Err(dead());
        }
        if st.tick() {
            // Dying inside fsync: the kernel may have written any subset
            // back already — same policy as a write-boundary crash.
            st.crash(None);
            return Err(dead());
        }
        st.durable = st.view.clone();
        st.pending.clear();
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        let st = self.state();
        if st.crashed {
            return Err(dead());
        }
        Ok(st.view.len() as u64)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut st = self.state();
        if st.crashed {
            return Err(dead());
        }
        st.view.resize(len as usize, 0);
        Ok(())
    }

    fn try_clone(&self) -> io::Result<Box<dyn Vfs>> {
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_roundtrip_and_bounds() {
        let mut v = MemVfs::new();
        v.set_len(64).unwrap();
        v.write_at(8, &[7u8; 4]).unwrap();
        let mut out = [0u8; 4];
        v.read_at(8, &mut out).unwrap();
        assert_eq!(out, [7u8; 4]);
        assert!(v.write_at(62, &[0u8; 4]).is_err());
        assert!(v.read_at(64, &mut out).is_err());
        assert_eq!(v.len().unwrap(), 64);
    }

    /// The `try_clone` contract: a write through either handle reads
    /// back through the other, and the clone's `sync` succeeds. Returns
    /// the clone.
    fn second_handle(v: &mut dyn Vfs) -> Box<dyn Vfs> {
        v.set_len(64).unwrap();
        let mut clone = v.try_clone().unwrap();
        let mut out = [0u8; 4];
        v.write_at(8, &[7u8; 4]).unwrap();
        clone.read_at(8, &mut out).unwrap();
        assert_eq!(out, [7u8; 4]);
        clone.write_at(16, &[9u8; 4]).unwrap();
        v.read_at(16, &mut out).unwrap();
        assert_eq!(out, [9u8; 4]);
        assert_eq!(clone.len().unwrap(), 64);
        clone.sync().unwrap();
        clone
    }

    #[test]
    fn every_backend_hands_out_a_second_handle_onto_the_same_bytes() {
        let path = std::env::temp_dir().join(format!("oaf-vfs-clone-{}", std::process::id()));
        second_handle(&mut RealVfs::create(&path).unwrap());
        std::fs::remove_file(&path).unwrap();

        let mut mem = MemVfs::new();
        second_handle(&mut mem);
        assert_eq!(mem.syncs(), 1, "the clone's sync is the image's sync");

        // Syscalls 1–3 are the two writes and the clone's sync.
        let mut crash = CrashVfs::new(3, Some(6));
        let mut clone = second_handle(&mut crash);
        let img = crash.durable_image();
        assert_eq!(&img[8..12], &[7u8; 4], "the clone's sync made it durable");
        assert_eq!(&img[16..20], &[9u8; 4]);
        // One machine, one syscall counter: the kill point counts the
        // syscalls of both handles, and the crash kills both.
        crash.write_at(0, &[1u8; 4]).unwrap();
        clone.write_at(4, &[2u8; 4]).unwrap();
        assert!(clone.sync().is_err(), "syscall 6 dies");
        assert!(crash.crashed());
        assert!(crash.read_at(0, &mut [0u8; 1]).is_err());
        assert!(clone.read_at(0, &mut [0u8; 1]).is_err());
        assert!(crash.write_at(0, &[1u8; 4]).is_err());
    }

    /// The `write_vectored_at` contract: a header, a payload and a
    /// trailer written in one vectored call (an empty slice among them)
    /// leave the bytes three `write_at`s leave. Returns the image.
    fn vectored_matches_three_writes(vectored: &mut dyn Vfs, separate: &mut dyn Vfs) -> Vec<u8> {
        let (hdr, payload, crc) = ([0x11u8; 40], [0x22u8; 4096], [0x33u8; 4]);
        vectored.set_len(8192).unwrap();
        separate.set_len(8192).unwrap();
        let iov = [
            IoSlice::new(&hdr),
            IoSlice::new(&[]),
            IoSlice::new(&payload),
            IoSlice::new(&crc),
        ];
        vectored.write_vectored_at(100, &iov).unwrap();
        separate.write_at(100, &hdr).unwrap();
        separate.write_at(140, &payload).unwrap();
        separate.write_at(4236, &crc).unwrap();
        let (mut a, mut b) = (vec![0u8; 8192], vec![0u8; 8192]);
        vectored.read_at(0, &mut a).unwrap();
        separate.read_at(0, &mut b).unwrap();
        assert!(a == b, "vectored bytes differ from three positional writes");
        assert_eq!(&a[4236..4240], &crc);
        a
    }

    #[test]
    fn a_vectored_write_lands_the_bytes_of_three_positional_writes() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let (pa, pb) = (
            dir.join(format!("oaf-vfs-iov-a-{pid}")),
            dir.join(format!("oaf-vfs-iov-b-{pid}")),
        );
        vectored_matches_three_writes(
            &mut RealVfs::create(&pa).unwrap(),
            &mut RealVfs::create(&pb).unwrap(),
        );
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();

        vectored_matches_three_writes(&mut MemVfs::new(), &mut MemVfs::new());

        // The crash model sees the vectored call as the same three
        // writes, so a kill point tears it where it tore three calls.
        let (mut a, mut b) = (CrashVfs::new(1, None), CrashVfs::new(1, None));
        vectored_matches_three_writes(&mut a, &mut b);
        assert_eq!(a.syscalls(), 3);
        assert_eq!(b.syscalls(), 3);
    }

    #[test]
    fn a_writeback_kick_makes_nothing_durable_in_the_crash_model() {
        let mut v = CrashVfs::new(9, None);
        v.set_len(16).unwrap();
        v.write_at(0, &[0xaa; 16]).unwrap();
        v.start_writeback().unwrap();
        assert_eq!(v.syscalls(), 1, "a kick is not a syscall the model counts");
        assert!(v.durable_image().iter().all(|&b| b == 0));
        // On a real file the kick is `sync_file_range`: it must succeed.
        let path = std::env::temp_dir().join(format!("oaf-vfs-kick-{}", std::process::id()));
        let mut real = RealVfs::create(&path).unwrap();
        real.set_len(4096).unwrap();
        real.write_at(0, &[1u8; 4096]).unwrap();
        real.start_writeback().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_vfs_unsynced_writes_may_die() {
        // Crash at syscall 3: writes 1 and 2 are pending, write 3 is
        // in-flight. Whatever survives must be a subset; synced data
        // must survive in full.
        let mut v = CrashVfs::new(0xD15C, Some(4));
        v.set_len(32).unwrap();
        v.write_at(0, &[1u8; 8]).unwrap(); // syscall 1
        v.sync().unwrap(); // syscall 2 — [1; 8] is now guaranteed
        v.write_at(8, &[2u8; 8]).unwrap(); // syscall 3
        let err = v.write_at(16, &[3u8; 8]).unwrap_err(); // syscall 4: dies
        assert!(err.to_string().contains("crash"));
        assert!(v.crashed());
        assert!(
            v.read_at(0, &mut [0u8; 1]).is_err(),
            "dead store stays dead"
        );
        let img = v.durable_image();
        assert_eq!(&img[0..8], &[1u8; 8], "synced bytes must survive");
        // Unsynced regions hold either the old or the new bytes.
        assert!(img[8..16].iter().all(|&b| b == 0 || b == 2));
        assert!(img[16..24].iter().all(|&b| b == 0 || b == 3));
    }

    #[test]
    fn crash_vfs_same_seed_same_wreckage() {
        let run = |seed| {
            let mut v = CrashVfs::new(seed, Some(5));
            v.set_len(128).unwrap();
            for i in 0..5u64 {
                let _ = v.write_at(i * 16, &[i as u8 + 1; 16]);
            }
            v.durable_image()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn crash_vfs_sync_barrier_is_total() {
        let mut v = CrashVfs::new(7, Some(4));
        v.set_len(16).unwrap();
        v.write_at(0, &[0xaa; 16]).unwrap();
        v.sync().unwrap();
        v.write_at(0, &[0xbb; 16]).unwrap(); // syscall 3, pending
        let _ = v.sync(); // syscall 4: dies mid-fsync
        let img = v.durable_image();
        // Every byte is old-or-new; never garbage.
        assert!(img.iter().all(|&b| b == 0xaa || b == 0xbb));
    }
}
