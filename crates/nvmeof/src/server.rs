//! The storage service's one poll-mode reactor.
//!
//! The paper's architecture (Fig. 1) has one storage service per target
//! VM serving several client applications, each over its own connection
//! and — when co-located — its own isolated shared-memory channel (§4.2,
//! §6). Every target runs the reactor spawned here (an SPDK poll group),
//! started by [`spawn_sharded`] once per shard, each over its own
//! connections against one shared controller set; one shard serves
//! every connection of [`spawn_target`] and of `launch`/`launch_many`.
//!
//! [`spawn_sharded`]: crate::shard::spawn_sharded
//! [`spawn_target`]: crate::target::spawn_target

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use crate::error::NvmeofError;
use crate::nvme::controller::Controller;
use crate::payload::PayloadChannel;
use crate::pdu::Pdu;
use crate::shard::{ShardStats, ThreadHook};
use crate::spsc::spsc;
use crate::target::{ReactorPort, TargetConfig, TargetConnection, TargetHandle};
use crate::transport::{queue_pdu, BackoffConfig, Transport, WaitLadder, WaitStep, CORK_BUDGET};
use oaf_telemetry::Registry;

/// Capacity of each reactor's admin mailbox: connections adopted at
/// runtime that the reactor has not drained yet.
const MAILBOX_DEPTH: usize = 64;

/// One client connection a reactor services. Connection `i` reports its
/// target-side metrics under the `target_conn<i>` scope.
pub struct ConnectionSpec {
    /// The connection's control transport.
    pub transport: Box<dyn Transport>,
    /// Per-connection configuration (capability grants, identities).
    pub cfg: TargetConfig,
    /// The connection's isolated payload channel, if the client is
    /// co-located.
    pub payload: Option<Arc<dyn PayloadChannel>>,
}

/// A wired, servable connection owned by exactly one reactor. Opaque
/// outside the crate: instances are built by the spawn functions (or
/// [`TargetHandle::add_connection`]) and only ever travel *into* a
/// reactor, never out.
pub struct LiveConnection {
    transport: Box<dyn Transport>,
    conn: TargetConnection,
    alive: bool,
    /// Reusable response staging and encode scratch: the steady-state
    /// serve pass allocates nothing per frame.
    out: Vec<Pdu>,
    /// Indices into `out` where the pass flushes the transport's queue
    /// before queueing further (strictly increasing).
    flush_at: Vec<usize>,
    scratch: BytesMut,
}

impl LiveConnection {
    /// Wires connection `index` into a servable connection, registering
    /// its target-side metric bundle into `registry` under
    /// `target_conn<index>`.
    pub(crate) fn build(spec: ConnectionSpec, index: usize, registry: &Registry) -> LiveConnection {
        let conn = TargetConnection::new(spec.cfg, spec.payload);
        conn.metrics()
            .register(&registry.scope(&format!("target_conn{index}")));
        LiveConnection {
            conn,
            transport: spec.transport,
            alive: true,
            out: Vec::new(),
            flush_at: Vec::with_capacity(16),
            scratch: BytesMut::with_capacity(4096),
        }
    }

    /// One serve pass — the reactor's body per connection: drain
    /// the ready frames in one batch, execute them, release parked
    /// barrier completions whose sync retired, and answer.
    ///
    /// Small responses are queued on the transport and leave with one
    /// flush at the end of the pass; large inline data goes out split at
    /// once, behind whatever was queued before it. So that a deep batch
    /// does not hold its first answers until its last device copy is done
    /// (client and target would stop overlapping), the queue is also
    /// flushed wherever the ops handled since the last flush moved
    /// [`CORK_BUDGET`] bytes.
    ///
    /// Returns the progress made (frames drained + completions released;
    /// 0 = idle). A peer that hung up, broke the protocol or left its
    /// ring full past the backoff budget ends this connection, never the
    /// reactor; only a transport fault is an error.
    fn pass(&mut self, controller: &mut Controller) -> Result<usize, NvmeofError> {
        let LiveConnection {
            transport,
            conn,
            alive,
            out,
            flush_at,
            scratch,
        } = self;
        let transport: &dyn Transport = &**transport;
        let mut flushed_at = conn.metrics().payload_bytes.get();
        let mut err = None;
        // Nothing is sent from inside the callback: the transport's
        // receive window is borrowed for its whole duration.
        let drained = transport.recv_batch(&mut |frame| {
            if err.is_some() {
                return;
            }
            if let Err(e) = conn.handle(frame, controller, out) {
                err = Some(e);
                return;
            }
            let moved = conn.metrics().payload_bytes.get();
            if moved - flushed_at >= CORK_BUDGET as u64 && flush_at.last() != Some(&out.len()) {
                flush_at.push(out.len());
                flushed_at = moved;
            }
        });
        let mut progress = match (drained, err) {
            (Err(NvmeofError::TransportClosed), _) | (_, Some(_)) => {
                *alive = false;
                return Ok(0);
            }
            (Err(e), _) => return Err(e),
            (Ok(n), None) => n,
        };
        // Probe the connection's sync-done queue: barrier completions
        // parked on offloaded tickets release here, and count as
        // progress so the idle policy keeps the reactor hot while syncs
        // are retiring.
        progress += conn.poll_parked(controller, out);
        let mut flush_points = flush_at.drain(..).peekable();
        let sent = out
            .drain(..)
            .enumerate()
            .try_for_each(|(i, pdu)| {
                if flush_points.next_if_eq(&i).is_some() {
                    transport.flush_queued()?;
                }
                queue_pdu(transport, &pdu, scratch)
            })
            .and_then(|()| transport.flush_queued());
        match sent {
            Ok(()) => {}
            Err(NvmeofError::TransportClosed) | Err(NvmeofError::RingFull) => *alive = false,
            Err(e) => return Err(e),
        }
        if conn.terminated() {
            *alive = false;
        }
        Ok(progress)
    }

    /// Whether a completion is parked on a sync ticket. That is work
    /// outstanding whose producer — the store's sync worker — cannot
    /// wake a sleeping reactor, so the reactor may not sleep while it is
    /// held: it polls until [`pass`](LiveConnection::pass) releases it.
    fn has_parked(&self) -> bool {
        self.conn.parked_barriers() > 0
    }
}

/// One poll-mode reactor's connection set and idle ladder.
struct Reactor {
    live: Vec<LiveConnection>,
    ladder: WaitLadder,
}

impl Reactor {
    /// How long an idle ladder runs before it is re-armed — spin, yield,
    /// then sleep slices of at most 500 µs, starting over each period.
    const IDLE_PERIOD: Duration = Duration::from_millis(1);

    fn new(live: Vec<LiveConnection>) -> Self {
        Reactor {
            live,
            ladder: Self::arm(),
        }
    }

    fn arm() -> WaitLadder {
        WaitLadder::until(
            Instant::now() + Self::IDLE_PERIOD,
            &BackoffConfig::default(),
        )
    }

    /// One fair round-robin pass over every connection (like an SPDK
    /// poll group), each served by [`LiveConnection::pass`]. A
    /// connection the pass ended leaves the reactor here, so its
    /// transport closes and the peer reads EOF. Returns the total
    /// progress (0 = the pass was idle).
    fn poll_pass(&mut self, controller: &mut Controller) -> Result<usize, NvmeofError> {
        let mut progress = 0;
        for l in &mut self.live {
            progress += l.pass(controller)?;
        }
        self.live.retain(|l| l.alive);
        Ok(progress)
    }

    /// Idles after a poll pass on the crate's [`WaitLadder`], re-armed
    /// on progress and once per [`IDLE_PERIOD`](Self::IDLE_PERIOD) while
    /// idle. Where the ladder would sleep while a completion is parked,
    /// the reactor yields and polls again instead, so the release waits
    /// for the sync worker, never for a timer; a sleep entered anyway is
    /// counted in the parking connection's `timer_wakeups`.
    fn idle_step(&mut self, progressed: bool) {
        if progressed {
            self.ladder = Self::arm();
            return;
        }
        match self.ladder.step() {
            WaitStep::Again => {}
            WaitStep::Sleep(_) if self.live.iter().any(LiveConnection::has_parked) => {
                std::thread::yield_now()
            }
            WaitStep::Sleep(d) => {
                for l in self.live.iter().filter(|l| l.has_parked()) {
                    l.conn.metrics().timer_wakeups.inc();
                }
                std::thread::sleep(d);
            }
            WaitStep::Expired => self.ladder = Self::arm(),
        }
    }
}

impl TargetHandle {
    /// Adds one reactor thread (shard `n = self.shards()`) to this
    /// target — the only place a reactor is spawned, called by
    /// [`spawn_sharded`](crate::shard::spawn_sharded) once per shard.
    ///
    /// The reactor exclusively owns `live` and its `controller` view and
    /// records into its [`ShardStats`], registered into the handle's
    /// registry under `reactor<n>`. Besides the stop flag, only the
    /// admin mailbox created here reaches into it: connections adopted
    /// at runtime, drained between poll passes with a wait-free `pop`.
    /// It runs until told to stop, even with no connection left. `hook`
    /// runs first on the new thread.
    pub(crate) fn spawn_reactor(
        &mut self,
        live: Vec<LiveConnection>,
        mut controller: Controller,
        hook: Option<ThreadHook>,
    ) {
        let stats = Arc::new(ShardStats::default());
        let (mailbox, rx) = spsc::<Box<LiveConnection>>(MAILBOX_DEPTH);
        let n = self.ports.len();
        stats.register(&self.registry.scope(&format!("reactor{n}")));
        stats.conns.set(live.len() as i64);
        let stop = self.stop.clone();
        let thread_stats = stats.clone();
        let join = std::thread::Builder::new()
            .name(format!("oaf-shard{n}"))
            .spawn(move || {
                if let Some(hook) = hook {
                    hook(n);
                }
                let mut reactor = Reactor::new(live);
                while !stop.load(Ordering::Acquire) {
                    let mut progressed = false;
                    while let Some(conn) = rx.pop() {
                        thread_stats.admin_cmds.inc();
                        progressed = true;
                        reactor.live.push(*conn);
                    }
                    let drained = reactor.poll_pass(&mut controller)?;
                    if drained > 0 {
                        thread_stats.ops.add(drained as u64);
                        progressed = true;
                    }
                    thread_stats.polls.inc();
                    thread_stats.conns.set(reactor.live.len() as i64);
                    reactor.idle_step(progressed);
                }
                Ok(())
            })
            .expect("spawn reactor thread");
        self.joins.push(join);
        self.ports.push(ReactorPort { mailbox, stats });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initiator::{Initiator, InitiatorOptions};
    use crate::nvme::namespace::Namespace;
    use crate::shard::{spawn_sharded, ShardConfig};
    use crate::transport::ShmTransport;
    use bytes::Bytes;

    const TIMEOUT: Duration = Duration::from_secs(5);
    /// Ring bytes per direction: a 128 KiB inline chunk fits a frame.
    const RING: u64 = 1 << 20;

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 4096, 2048));
        c
    }

    /// One reactor over `transports`, reporting nowhere anyone reads.
    fn serve(transports: Vec<Box<dyn Transport>>) -> TargetHandle {
        let specs = transports
            .into_iter()
            .map(|transport| ConnectionSpec {
                transport,
                cfg: TargetConfig::default(),
                payload: None,
            })
            .collect();
        spawn_sharded(controller(), specs, ShardConfig::new(1), &Arc::default())
    }

    #[test]
    fn two_clients_share_one_service() {
        let (c1, t1) = ShmTransport::pair(RING);
        let (c2, t2) = ShmTransport::pair(RING);
        let handle = serve(vec![Box::new(t1), Box::new(t2)]);
        let mut a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).unwrap();

        // Writes through one connection are visible through the other:
        // it is one storage service.
        a.write_blocking(1, 0, 1, Bytes::from(vec![0xaa; 4096]), TIMEOUT)
            .unwrap();
        let via_b = b.read_blocking(1, 0, 1, 4096, TIMEOUT).unwrap();
        assert!(via_b.iter().all(|&x| x == 0xaa));

        // And concurrent disjoint traffic does not interfere.
        b.write_blocking(1, 10, 1, Bytes::from(vec![0xbb; 4096]), TIMEOUT)
            .unwrap();
        assert!(a
            .read_blocking(1, 10, 1, 4096, TIMEOUT)
            .unwrap()
            .iter()
            .all(|&x| x == 0xbb));
        assert!(a
            .read_blocking(1, 0, 1, 4096, TIMEOUT)
            .unwrap()
            .iter()
            .all(|&x| x == 0xaa));

        a.disconnect().unwrap();
        b.disconnect().unwrap();
        handle.shutdown().unwrap();
    }

    /// A FUA held parked for well over the ladder's spin and yield
    /// phases keeps the reactor from sleeping: reads issued meanwhile
    /// complete, and no sleep is entered with the completion parked.
    #[test]
    fn a_parked_completion_keeps_the_reactor_from_sleeping() {
        let vfs = oaf_store::vfs::MemVfs::new();
        let disk =
            oaf_store::FileDisk::create_on(Box::new(vfs.clone()), 4096, 64, 256 * 1024).unwrap();
        let mut ctrl = Controller::new();
        ctrl.add_namespace(Namespace::with_file(1, disk));
        let registry = Arc::new(Registry::new());
        let (client, served) = ShmTransport::pair(RING);
        let spec = ConnectionSpec {
            transport: Box::new(served),
            cfg: TargetConfig::default(),
            payload: None,
        };
        let handle = spawn_sharded(ctrl, vec![spec], ShardConfig::new(1), &registry);
        let mut ini =
            Initiator::connect(client, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        vfs.hold_syncs(true);
        let fua = ini
            .submit_write_fua(1, 0, 1, Bytes::from(vec![0xab; 4096]))
            .unwrap();
        for lba in 1..5 {
            std::thread::sleep(Duration::from_millis(5));
            let read = ini.submit_read(1, lba, 1, 4096).unwrap();
            assert!(ini.wait(read, TIMEOUT).unwrap().status.is_ok());
        }
        std::thread::sleep(Duration::from_millis(5));
        vfs.hold_syncs(false);
        assert!(ini.wait(fua, TIMEOUT).unwrap().status.is_ok());
        ini.disconnect().unwrap();
        handle.shutdown().unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("target_conn0", "barriers_parked"), 1);
        assert_eq!(snap.counter("target_conn0", "timer_wakeups"), 0);
    }

    /// A connection the reactor ends — here for a command before ICReq —
    /// leaves it, so the peer reads EOF (a closed socket, a closed ring)
    /// instead of a silent transport.
    #[test]
    fn a_connection_ended_for_a_protocol_error_is_closed() {
        use crate::nvme::command::NvmeCommand;
        use crate::pdu::CapsuleCmd;
        use crate::tcp::{TcpConfig, TcpTransport};
        let (tcp_client, tcp_served) = TcpTransport::loopback_pair(TcpConfig::default()).unwrap();
        let (shm_client, shm_served) = ShmTransport::pair(RING);
        let pairs: [(Box<dyn Transport>, Box<dyn Transport>); 2] = [
            (Box::new(tcp_client), Box::new(tcp_served)),
            (Box::new(shm_client), Box::new(shm_served)),
        ];
        for (client, served) in pairs {
            let handle = serve(vec![served]);
            let read = CapsuleCmd {
                cmd: NvmeCommand::read(1, 1, 0, 1),
                data: None,
            };
            client.send_frame(&Pdu::CapsuleCmd(read).encode()).unwrap();
            assert!(matches!(
                crate::transport::recv_n(&client, 1, Duration::from_secs(1)),
                Err(NvmeofError::TransportClosed)
            ));
            handle.shutdown().unwrap();
        }
    }

    #[test]
    fn reactor_survives_one_client_hanging_up() {
        let (c1, t1) = ShmTransport::pair(RING);
        let (c2, t2) = ShmTransport::pair(RING);
        let handle = serve(vec![Box::new(t1), Box::new(t2)]);
        let a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        drop(a); // client 1 vanishes without a TermReq
        for i in 0..8 {
            b.write_blocking(1, i, 1, Bytes::from(vec![i as u8; 4096]), TIMEOUT)
                .unwrap();
        }
        b.disconnect().unwrap();
        handle.shutdown().unwrap();
    }
}
