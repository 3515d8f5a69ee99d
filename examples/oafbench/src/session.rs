//! Set-up and teardown of the runtime for one workload: backend, fabric,
//! prefill — the span `setup_s` times — plus the data-dir hygiene.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::target::TargetHandle;
use nvme_oaf::oaf::conn::{ControlPath, FabricSettings};
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::{launch, launch_many, AfClient, AfGroup, AfPair};
use nvme_oaf::store::vfs::RealVfs;
use nvme_oaf::store::FileDisk;
use nvme_oaf::telemetry::Registry;

use crate::catalog::{Backend, Fabric, Workload};
use crate::gen::{Pattern, BLOCK};

/// Any blocking runtime call gives up after this long without progress;
/// the same budget the closed loop's watchdog uses.
pub const WATCHDOG: Duration = Duration::from_secs(5);

/// Where the benchmark may write: store images under
/// `<target>/oafbench-data/`, reports and traces under
/// `<target>/oafbench/`, with `<target>` the cargo target directory of
/// the current checkout.
pub struct Dirs {
    pub data: PathBuf,
    pub out: PathBuf,
}

impl Dirs {
    pub fn from_env() -> Dirs {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        Dirs {
            data: target.join("oafbench-data"),
            out: target.join("oafbench"),
        }
    }
}

static IMAGE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A store image that exists only while this guard does. Every session
/// creates a fresh one, so journal replay never leaks between runs, and
/// the guard removes it on every exit path that unwinds or returns.
pub struct DataFile {
    path: PathBuf,
}

impl DataFile {
    pub fn fresh(dirs: &Dirs, tag: &str) -> Result<DataFile, String> {
        std::fs::create_dir_all(&dirs.data)
            .map_err(|e| format!("create {}: {e}", dirs.data.display()))?;
        let n = IMAGE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dirs
            .data
            .join(format!("{}-{tag}-{n}.img", std::process::id()));
        Ok(DataFile { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        if let Some(dir) = self.path.parent() {
            // Succeeds only once the last image is gone.
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Removes every image this process left behind: the exit path for
/// aborts that do not unwind (watchdog, fatal runtime error).
pub fn scrub_data_dir(dirs: &Dirs) {
    let prefix = format!("{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(&dirs.data) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    let _ = std::fs::remove_dir(&dirs.data);
}

/// A live fabric for one workload.
pub struct Session {
    pub clients: Vec<AfClient>,
    pub telemetry: Arc<Registry>,
    /// Wall time of the `launch*` call.
    pub establish_ms: f64,
    /// Wall time of the whole set-up (backend + launch + prefill).
    pub setup_s: f64,
    /// Commands the prefill issued (all checked for success).
    pub prefill_ops: u64,
    // Field order is drop order: the reactor (and with it the store and
    // its sync worker) goes before the image is unlinked.
    target: Option<TargetHandle>,
    _image: Option<DataFile>,
}

fn controller_for(w: &Workload, image: Option<&DataFile>) -> Result<Controller, String> {
    let mut controller = Controller::new();
    match (w.backend, image) {
        (Backend::Ram, _) => {
            controller.add_namespace(Namespace::new(1, BLOCK as u32, w.blocks()));
        }
        (Backend::File { cache_blocks }, Some(image)) => {
            let disk = FileDisk::create(image.path(), BLOCK as u32, w.blocks())
                .and_then(|d| d.with_cache(cache_blocks))
                .map_err(|e| format!("create store image: {e:?}"))?;
            // The worker syncs through its own descriptor so the disk
            // lock is never held across fdatasync.
            let sync_vfs = RealVfs::open(image.path())
                .map_err(|e| format!("reopen store image for the sync worker: {e}"))?;
            let shared = disk.into_shared().with_sync_worker(Box::new(sync_vfs));
            controller.add_namespace(Namespace::with_shared_file(1, shared));
        }
        (Backend::File { .. }, None) => return Err("file backend without an image".into()),
    }
    Ok(controller)
}

impl Session {
    /// Backend create + `launch*` + full working-set prefill.
    pub fn open(w: &Workload, dirs: &Dirs, pattern: &Pattern) -> Result<Session, String> {
        let t0 = Instant::now();
        let image = if w.is_file() {
            Some(DataFile::fresh(dirs, w.name)?)
        } else {
            None
        };
        let controller = controller_for(w, image.as_ref())?;

        let depth = w.qd.max(8);
        let settings = FabricSettings {
            depth,
            slot_size: w.io_bytes,
            control: if w.fabric == Fabric::InRegion {
                ControlPath::InRegion
            } else {
                ControlPath::Tcp
            },
            ..FabricSettings::default()
        };
        // Same host id = co-located (the helper hot-plugs shared
        // memory); different = remote (real loopback sockets).
        let client_host = 1;
        let target_host = match w.fabric {
            Fabric::Oshm | Fabric::InRegion => 1,
            Fabric::Tcp | Fabric::Tcp2 => 2,
        };
        // A registry per session: `launch` never unplugs its region, so
        // reusing one would hand the next session a stale channel.
        let registry = Arc::new(HostRegistry::new());
        let t_launch = Instant::now();
        let (clients, target, telemetry) = if w.fabric == Fabric::Tcp2 {
            let ids: Vec<(ProcessId, u64)> = (0..w.conns() as u64)
                .map(|i| (ProcessId(10 + i), client_host))
                .collect();
            let AfGroup {
                clients,
                target,
                telemetry,
            } = launch_many(
                &registry,
                &ids,
                (ProcessId(2), target_host),
                controller,
                settings,
            )
            .map_err(|e| format!("launch_many: {e}"))?;
            (clients, target, telemetry)
        } else {
            let AfPair {
                client,
                target,
                telemetry,
            } = launch(
                &registry,
                (ProcessId(1), client_host),
                (ProcessId(2), target_host),
                controller,
                settings,
            )
            .map_err(|e| format!("launch: {e}"))?;
            (vec![client], target, telemetry)
        };
        let establish_ms = t_launch.elapsed().as_secs_f64() * 1e3;

        let mut session = Session {
            clients,
            telemetry,
            establish_ms,
            setup_s: 0.0,
            prefill_ops: 0,
            target: Some(target),
            _image: image,
        };
        session.prefill(w, depth, pattern)?;
        session.setup_s = t0.elapsed().as_secs_f64();
        Ok(session)
    }

    /// Writes every slot of the working set once at the workload's I/O
    /// size, pipelined `depth` deep (the fabric's slot count, so a QD1
    /// workload does not pay 16 Ki round trips to set up), and makes it
    /// durable on file backends so the measured window starts from a
    /// clean journal.
    fn prefill(&mut self, w: &Workload, depth: usize, pattern: &Pattern) -> Result<(), String> {
        let slots = u64::from(w.slots());
        let nlb = w.nlb();
        let client = &mut self.clients[0];
        let (mut next, mut done, mut inflight) = (0u64, 0u64, 0usize);
        let mut last_progress = Instant::now();
        while done < slots {
            while inflight < depth && next < slots {
                let slba = next * u64::from(nlb);
                let mut buf = client
                    .alloc(w.io_bytes)
                    .map_err(|e| format!("prefill alloc: {e}"))?;
                pattern.fill(slba, &mut buf);
                client
                    .submit_write(1, slba, nlb, buf)
                    .map_err(|e| format!("prefill submit: {e}"))?;
                next += 1;
                inflight += 1;
            }
            let results = client.poll().map_err(|e| format!("prefill poll: {e}"))?;
            if results.is_empty() {
                if last_progress.elapsed() > WATCHDOG {
                    return Err(format!(
                        "prefill made no progress for {WATCHDOG:?} ({done}/{slots} slots)"
                    ));
                }
                std::thread::yield_now();
                continue;
            }
            last_progress = Instant::now();
            for r in results {
                if !r.status.is_ok() {
                    return Err(format!("prefill write failed: {:?}", r.status));
                }
                inflight -= 1;
                done += 1;
            }
        }
        self.prefill_ops = slots;
        if w.is_file() {
            client
                .flush(1, WATCHDOG * 2)
                .map_err(|e| format!("prefill flush: {e}"))?;
            self.prefill_ops += 1;
        }
        Ok(())
    }

    /// Graceful teardown; the store image is removed once the reactor
    /// (and the sync worker it owns) has exited.
    pub fn close(mut self) -> Result<(), String> {
        for c in &mut self.clients {
            c.disconnect().map_err(|e| format!("disconnect: {e}"))?;
        }
        if let Some(t) = self.target.take() {
            t.shutdown().map_err(|e| format!("target shutdown: {e}"))?;
        }
        Ok(())
    }
}
