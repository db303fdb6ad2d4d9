//! The paper's transport: TCP, multiplexed per worker pair.
//!
//! §IV-C of the paper: "the system relies on TCP channels to deliver
//! messages ... it guarantees that messages can be successfully transmitted
//! without any loss." Every protocol message is encoded with
//! `causal_proto::wire` and shipped through a real kernel socket — the
//! closest this repository gets to the authors' JDK-over-TCP testbed.
//!
//! ## Topology
//!
//! The old runtime kept a full site mesh: `n(n-1)/2` sockets and two
//! reader threads per socket — ~1,600 threads at `n = 40`. Sites are now
//! sharded over `W` scheduler workers (see [`crate::runner`]), and the
//! mesh connects *workers*: one socket per unordered worker pair, carrying
//! the traffic of every site pair whose owners differ. Each socket
//! endpoint gets one writer thread and one reader thread, so the whole
//! fabric is `W + 2·W·(W-1)` threads.
//!
//! The in-process channel fabric is the same mesh with no sockets: every
//! worker pair is unconnected and the fabric is just the `W` workers.
//! One send rule covers both (see [`MuxTransport::send`]): a frame
//! between two workers with no connection between them — same-worker
//! pairs on either fabric, every pair on the channel fabric — goes
//! straight into the destination mailbox, waking the owner only when it
//! is another worker; any other frame is queued on the pair's connection.
//!
//! ## Framing
//!
//! `[len: u32 LE][flags: u8][body: len bytes]`, where the body is a
//! *routed* frame: `[src_site][dst_site][msg]` (varint header, see
//! `causal_proto::wire::encode_routed_into`). The routing header is what
//! lets one socket carry many site pairs. `len` counts the body only and
//! must not exceed [`wire::MAX_FRAME`]; `flags` bit 0 carries the frame's
//! warm-up attribution (batch frames additionally carry per-update bits in
//! the body), and the remaining bits are reserved-zero. A length beyond
//! the bound, a reserved flag, or a body the codec rejects tears the
//! connection down cleanly — counted in
//! [`RunMetrics::transport_conn_errors`], never a panic or a multi-GiB
//! allocation.
//!
//! Receivers route on the header, not on the connection: a frame for any
//! valid site is pushed into that site's mailbox and its owner woken (see
//! *Coalesced reads* for when), so a frame arriving on an unexpected
//! connection is *rerouted*, never dropped.
//!
//! ## Coalesced writes
//!
//! A site's send enqueues the frame on the connection's writer thread and
//! returns. The writer drains everything queued at each wake into one
//! buffer and ships it with a single `write_all` — one syscall per wake
//! instead of one per frame (counted in `RunMetrics::syscall_writes`).
//! Lane flushes from per-destination batching (PR8) land on the same
//! queue, so a batch window closing produces exactly one coalesced write.
//! A failed write marks the connection dead and un-counts the queued
//! frames from the in-flight tally; later sends fail fast.
//!
//! ## Coalesced reads
//!
//! The reader mirrors the writer. It reads through a 64 KiB buffer, so
//! one `read(2)` pulls in every frame a coalesced write shipped, and it
//! reuses one body buffer across frames. Each frame is decoded and pushed
//! into its mailbox without a wake; the reader only notes the owning
//! worker. When the buffer runs short of the next header or body — the
//! next read is the one that can block — it wakes each noted worker
//! once. A burst of frames for one worker therefore costs one wake, not
//! one per frame, and no worker sleeps on a frame already in its
//! mailbox. A connection that ends, cleanly or on a bad frame, wakes the
//! owners of the frames it already routed before the reader returns.
//!
//! ## Handshake & teardown
//!
//! Each worker binds an ephemeral listener; worker `a` dials every `b > a`
//! and sends a 2-byte hello carrying its worker id. `TCP_NODELAY` is set
//! on every stream — Nagle would otherwise delay small frames behind
//! unacked data and poison the latency tails the serve mode measures.
//! Teardown is ordered: drop the transport (disconnecting every writer's
//! queue), join the writers, then `shutdown(Both)` each socket to wake the
//! readers blocked in `read` (they hold dups of the fd, so a plain
//! drop would never deliver the EOF) and join them — nothing leaks.

use crate::node::Wire;
use crate::runner::{Quiesce, Routes};
use crate::serve::ServeTransport;
use causal_proto::{wire, Msg};
use causal_types::{Error, Result, SiteId};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Coalescing bound: a writer stops draining its queue once the batched
/// buffer reaches this size, ships it, and comes back for the rest.
const WRITE_COALESCE_BYTES: usize = 256 * 1024;

/// Read-side buffering bound: each reader pulls up to this many bytes of
/// queued frames per `read(2)`.
const READ_BUF_BYTES: usize = 64 * 1024;

/// A blocked writer gives up (and declares the connection dead) after
/// this long — insurance against a peer that stopped draining.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One frame queued toward a connection's writer thread.
struct OutFrame {
    src: SiteId,
    dst: SiteId,
    msg: Msg,
    measured: bool,
}

/// One directed connection endpoint: the queue feeding its writer thread,
/// and the flag the writer raises when the socket dies.
struct Conn {
    tx: Sender<OutFrame>,
    dead: Arc<AtomicBool>,
}

/// The run's one transport, shared by every site: frames between workers
/// with no connection go straight to the destination mailbox, all others
/// are queued on the owning pair's connection.
pub(crate) struct MuxTransport {
    routes: Arc<Routes>,
    workers: usize,
    /// `conns[wa * workers + wb]` is the endpoint at worker `wa` writing
    /// toward worker `wb`; `None` when the pair has no socket (always for
    /// `wa == wb`, and for every pair on the channel fabric).
    conns: Vec<Option<Conn>>,
    conn_errors: Arc<AtomicU64>,
}

impl MuxTransport {
    /// Deliver `msg` (tagged with its warm-up attribution) from `from` to
    /// `to`'s mailbox, reliably and in FIFO order per ordered pair.
    ///
    /// Returns `false` when the peer is unreachable — the frame never
    /// entered the network. The failure counts one connection error; the
    /// caller un-counts the frame from the in-flight tally so quiescence
    /// detection cannot hang on a message that will never arrive.
    pub(crate) fn send(&self, from: SiteId, to: SiteId, msg: &Msg, measured: bool) -> bool {
        let wa = self.routes.owner(from.index());
        let wb = self.routes.owner(to.index());
        let ok = match &self.conns[wa * self.workers + wb] {
            None => {
                let wire = Wire::Msg {
                    from,
                    msg: msg.clone(),
                    measured,
                };
                let ok = self.routes.push(to.index(), wire);
                // A same-worker destination is drained by the very worker
                // executing this send; only another worker needs the wake.
                if ok && wa != wb {
                    self.routes.wake(wb);
                }
                ok
            }
            Some(conn) => {
                !conn.dead.load(Ordering::Relaxed)
                    && conn
                        .tx
                        .send(OutFrame {
                            src: from,
                            dst: to,
                            msg: msg.clone(),
                            measured,
                        })
                        .is_ok()
            }
        };
        if !ok {
            self.conn_errors.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
}

/// Append one framed routed message to the writer's coalescing buffer.
fn append_frame(buf: &mut Vec<u8>, f: &OutFrame) {
    wire::encode_routed_with(f.src, f.dst, &f.msg, |body| {
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.push(u8::from(f.measured));
        buf.extend_from_slice(body);
    });
}

/// One connection endpoint's writer: drain everything queued at each
/// wake into a single buffered `write_all`. Exits when every sender is
/// gone (transport dropped at teardown). A write failure marks the
/// connection dead and un-counts the doomed frames from the in-flight
/// tally so quiescence detection cannot hang on them.
fn writer_loop(
    mut stream: TcpStream,
    rx: Receiver<OutFrame>,
    dead: Arc<AtomicBool>,
    quiesce: Arc<Quiesce>,
    conn_errors: Arc<AtomicU64>,
    syscall_writes: Arc<AtomicU64>,
) {
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    while let Ok(first) = rx.recv() {
        if dead.load(Ordering::Relaxed) {
            // The socket already failed; this frame is positively lost.
            conn_errors.fetch_add(1, Ordering::Relaxed);
            quiesce.frames_done(1);
            continue;
        }
        buf.clear();
        let mut batched: u64 = 1;
        append_frame(&mut buf, &first);
        while buf.len() < WRITE_COALESCE_BYTES {
            match rx.try_recv() {
                Ok(f) => {
                    append_frame(&mut buf, &f);
                    batched += 1;
                }
                Err(_) => break,
            }
        }
        if stream.write_all(&buf).is_err() {
            dead.store(true, Ordering::Relaxed);
            conn_errors.fetch_add(batched, Ordering::Relaxed);
            quiesce.frames_done(batched);
            continue;
        }
        syscall_writes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Why a reader stopped.
enum ReadEnd {
    /// EOF, a failed read, or a destination whose worker already exited.
    Closed,
    /// The peer sent a frame that fails validation.
    Invalid,
}

/// Wake every worker marked in `owed` once, and clear the marks.
fn flush_wakes(routes: &Routes, owed: &mut [bool]) {
    for (w, o) in owed.iter_mut().enumerate() {
        if std::mem::take(o) {
            routes.wake(w);
        }
    }
}

/// One connection endpoint's reader: route framed messages to the
/// mailboxes their *headers* name until EOF, waking each owning worker
/// once per drained read buffer rather than once per frame. A frame that
/// fails validation — length beyond [`wire::MAX_FRAME`], reserved flag
/// bits, a body the codec rejects, or a destination outside the system —
/// counts a connection error and fails the connection cleanly. However
/// the connection ends, the frames already routed have their owners
/// woken first.
fn reader_loop(stream: TcpStream, routes: Arc<Routes>, conn_errors: Arc<AtomicU64>) {
    let mut owed = vec![false; routes.workers()];
    let end = read_frames(&stream, &routes, &mut owed);
    flush_wakes(&routes, &mut owed);
    if let ReadEnd::Invalid = end {
        conn_errors.fetch_add(1, Ordering::Relaxed);
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// The reader's frame loop. Each decoded frame is pushed without a wake
/// and its owner marked in `owed`; the marks are flushed whenever the
/// next read needs more bytes than the buffer holds — the one read that
/// can block — so a parked worker never waits on a frame the reader has
/// already routed.
fn read_frames(stream: &TcpStream, routes: &Routes, owed: &mut [bool]) -> ReadEnd {
    let mut rd = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let mut header = [0u8; 5];
    let mut body: Vec<u8> = Vec::new();
    loop {
        if rd.buffer().len() < header.len() {
            flush_wakes(routes, owed);
        }
        if rd.read_exact(&mut header).is_err() {
            return ReadEnd::Closed;
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let flags = header[4];
        if len > wire::MAX_FRAME || flags > 1 {
            // Never trust the prefix: a corrupt length would otherwise ask
            // for an allocation of up to 4 GiB.
            return ReadEnd::Invalid;
        }
        if rd.buffer().len() < len {
            flush_wakes(routes, owed);
        }
        body.resize(len, 0);
        if rd.read_exact(&mut body).is_err() {
            return ReadEnd::Closed;
        }
        let Ok(routed) = wire::decode_routed(&body) else {
            return ReadEnd::Invalid;
        };
        let dst = routed.dst.index();
        if dst >= routes.sites() {
            return ReadEnd::Invalid;
        }
        // Route on the header, not the connection: any in-range
        // destination is honoured, so a wrong-shard frame is rerouted to
        // its owner rather than dropped.
        let frame = Wire::Msg {
            from: routed.src,
            msg: routed.msg,
            measured: flags & 1 != 0,
        };
        if !routes.push(dst, frame) {
            return ReadEnd::Closed; // node already gone
        }
        owed[routes.owner(dst)] = true;
    }
}

/// An established worker mesh: the shared transport, the writer and reader
/// threads, and the teardown handles that wake blocked readers. The
/// channel fabric is a mesh with none of these but the transport.
pub(crate) struct Mesh {
    transport: Arc<MuxTransport>,
    writers: Vec<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
    shutdowns: Vec<TcpStream>,
    syscall_writes: Arc<AtomicU64>,
}

impl Mesh {
    /// The shared transport (clone per site). Every clone must be dropped
    /// before [`Mesh::teardown`] can join the writers.
    pub(crate) fn transport(&self) -> Arc<MuxTransport> {
        self.transport.clone()
    }

    /// Writer and reader threads the mesh spawned.
    pub(crate) fn threads(&self) -> usize {
        self.writers.len() + self.readers.len()
    }

    /// Tear the mesh down, in dependency order, and return its connection
    /// errors (refused sends, failed writes, rejected frames) and its
    /// coalesced `write(2)` count, read last so teardown races are
    /// included. Call after the workers have exited (their nodes hold
    /// transport clones).
    pub(crate) fn teardown(self) -> (u64, u64) {
        let Mesh {
            transport,
            writers,
            readers,
            shutdowns,
            syscall_writes,
        } = self;
        let conn_errors = transport.conn_errors.clone();
        // Dropping the last transport handle disconnects every writer's
        // queue; the writers drain what is left and exit.
        drop(transport);
        for h in writers {
            let _ = h.join();
        }
        // Readers block in read on a dup of the fd — only an
        // explicit shutdown delivers the EOF that wakes them.
        for s in &shutdowns {
            let _ = s.shutdown(Shutdown::Both);
        }
        for h in readers {
            let _ = h.join();
        }
        (
            conn_errors.load(Ordering::Relaxed),
            syscall_writes.load(Ordering::Relaxed),
        )
    }
}

/// Establish the worker mesh over `routes`. Over TCP: one socket per
/// unordered worker pair, `TCP_NODELAY` everywhere, one writer + one
/// reader thread per endpoint; with a single worker no socket exists. The
/// channel fabric dials nothing: every pair stays unconnected.
pub(crate) fn build_mesh(
    routes: &Arc<Routes>,
    quiesce: &Arc<Quiesce>,
    kind: ServeTransport,
) -> Result<Mesh> {
    let w = routes.workers();
    let conn_errors = Arc::new(AtomicU64::new(0));
    let syscall_writes = Arc::new(AtomicU64::new(0));
    let mut conns: Vec<Option<Conn>> = (0..w * w).map(|_| None).collect();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    let mut shutdowns = Vec::new();
    // Workers that bind a listener and dial their peers: all of them over
    // TCP, none on the channel fabric.
    let dial = match kind {
        ServeTransport::Tcp => w,
        ServeTransport::Channel => 0,
    };

    let mut listeners = Vec::with_capacity(dial);
    let mut addrs = Vec::with_capacity(dial);
    for _ in 0..dial {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|_| Error::ChannelClosed)?;
        addrs.push(l.local_addr().map_err(|_| Error::ChannelClosed)?);
        listeners.push(l);
    }

    // Worker a dials every b > a; the accepting side reads the 2-byte
    // hello. Dialing and accepting are interleaved deterministically: for
    // each (a, b) pair we connect and accept inline — loopback makes this
    // immediate and avoids a thread per handshake.
    let sock_err = |_| Error::ChannelClosed;
    for a in 0..dial {
        for b in (a + 1)..dial {
            let out = TcpStream::connect(addrs[b]).map_err(sock_err)?;
            // Nagle would delay small frames behind unacked data — fatal
            // for latency measurement on a chatty mesh.
            out.set_nodelay(true).map_err(sock_err)?;
            out.set_write_timeout(Some(WRITE_TIMEOUT))
                .map_err(sock_err)?;
            out.try_clone()
                .map_err(sock_err)?
                .write_all(&(a as u16).to_le_bytes())
                .map_err(sock_err)?;
            let (inc, _) = listeners[b].accept().map_err(sock_err)?;
            inc.set_nodelay(true).map_err(sock_err)?;
            inc.set_write_timeout(Some(WRITE_TIMEOUT))
                .map_err(sock_err)?;
            let mut hello = [0u8; 2];
            let mut inc_read = inc.try_clone().map_err(sock_err)?;
            inc_read.read_exact(&mut hello).map_err(sock_err)?;
            debug_assert_eq!(u16::from_le_bytes(hello) as usize, a);

            shutdowns.push(out.try_clone().map_err(sock_err)?);
            shutdowns.push(inc.try_clone().map_err(sock_err)?);

            // Endpoint at a: writes a → b on `out`, reads b → a off `out`.
            let (tx_ab, rx_ab) = channel::<OutFrame>();
            let dead_ab = Arc::new(AtomicBool::new(false));
            conns[a * w + b] = Some(Conn {
                tx: tx_ab,
                dead: dead_ab.clone(),
            });
            writers.push({
                let (s, q, e, sw) = (
                    out.try_clone().map_err(sock_err)?,
                    quiesce.clone(),
                    conn_errors.clone(),
                    syscall_writes.clone(),
                );
                std::thread::spawn(move || writer_loop(s, rx_ab, dead_ab, q, e, sw))
            });
            readers.push({
                let (r, e) = (routes.clone(), conn_errors.clone());
                std::thread::spawn(move || reader_loop(out, r, e))
            });

            // Endpoint at b: writes b → a on `inc`, reads a → b off `inc`.
            let (tx_ba, rx_ba) = channel::<OutFrame>();
            let dead_ba = Arc::new(AtomicBool::new(false));
            conns[b * w + a] = Some(Conn {
                tx: tx_ba,
                dead: dead_ba.clone(),
            });
            writers.push({
                let (q, e, sw) = (quiesce.clone(), conn_errors.clone(), syscall_writes.clone());
                std::thread::spawn(move || writer_loop(inc, rx_ba, dead_ba, q, e, sw))
            });
            readers.push({
                let (r, e) = (routes.clone(), conn_errors.clone());
                std::thread::spawn(move || reader_loop(inc_read, r, e))
            });
        }
    }

    Ok(Mesh {
        transport: Arc::new(MuxTransport {
            routes: routes.clone(),
            workers: w,
            conns,
            conn_errors,
        }),
        writers,
        readers,
        shutdowns,
        syscall_writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{test_fabric, MailboxRx};
    use causal_clocks::MatrixClock;
    use causal_proto::{Fm, Rm, RmMeta};
    use causal_types::VarId;

    /// A connected loopback socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    fn spawn_reader(
        stream: TcpStream,
        routes: Arc<Routes>,
        errs: Arc<AtomicU64>,
    ) -> JoinHandle<()> {
        std::thread::spawn(move || reader_loop(stream, routes, errs))
    }

    #[test]
    fn oversized_length_prefix_fails_the_connection_not_the_process() {
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(AtomicU64::new(0));
        let reader = spawn_reader(rx, routes, errs.clone());
        // A frame claiming 2 GiB: must be rejected before any allocation.
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(2u32 << 30).to_le_bytes());
        tx.write_all(&header).unwrap();
        reader.join().expect("reader exits cleanly, no panic");
        assert_eq!(errs.load(Ordering::Relaxed), 1);
        assert!(
            mailboxes.iter().all(|m| m.try_recv_test().is_none()),
            "no message reaches any mailbox"
        );
    }

    #[test]
    fn corrupt_frame_tears_the_connection_down_cleanly() {
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(AtomicU64::new(0));
        let reader = spawn_reader(rx, routes, errs.clone());
        // Well-formed header, garbage body: the codec must reject it and
        // the reader must return (the pre-PR6 code panicked here).
        let body = [0xFFu8; 16];
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        tx.write_all(&header).unwrap();
        tx.write_all(&body).unwrap();
        reader.join().expect("reader exits cleanly, no panic");
        assert_eq!(errs.load(Ordering::Relaxed), 1);
        assert!(mailboxes.iter().all(|m| m.try_recv_test().is_none()));
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        let (mut tx, rx) = pair();
        let (routes, _mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(AtomicU64::new(0));
        let reader = spawn_reader(rx, routes, errs.clone());
        let header = [0u8, 0, 0, 0, 0x80];
        tx.write_all(&header).unwrap();
        reader.join().expect("reader exits cleanly");
        assert_eq!(errs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn out_of_range_destination_fails_the_connection() {
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(AtomicU64::new(0));
        let reader = spawn_reader(rx, routes, errs.clone());
        // Valid routed frame, but dst = 5 in a 2-site system.
        let msg = Msg::Fm(Fm { var: VarId(0) });
        let body =
            wire::encode_routed_with(SiteId::from(0usize), SiteId::from(5usize), &msg, |b| {
                b.to_vec()
            });
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.push(0);
        frame.extend_from_slice(&body);
        tx.write_all(&frame).unwrap();
        reader.join().expect("reader exits cleanly");
        assert_eq!(errs.load(Ordering::Relaxed), 1);
        assert!(mailboxes.iter().all(|m| m.try_recv_test().is_none()));
    }

    #[test]
    fn wrong_shard_frame_is_rerouted_not_dropped() {
        // 4 sites over 2 workers: sites {0, 2} on worker 0, {1, 3} on
        // worker 1. A frame addressed to site 3 arriving on *any*
        // connection must land in site 3's mailbox and wake worker 1 —
        // the reader trusts the routing header, not the socket it came in
        // on.
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(4, 2);
        let errs = Arc::new(AtomicU64::new(0));
        let reader = spawn_reader(rx, routes.clone(), errs.clone());
        let msg = Msg::Fm(Fm { var: VarId(7) });
        let body =
            wire::encode_routed_with(SiteId::from(0usize), SiteId::from(3usize), &msg, |b| {
                b.to_vec()
            });
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.push(1);
        frame.extend_from_slice(&body);
        tx.write_all(&frame).unwrap();

        let delivered = mailboxes[3]
            .recv_timeout(Duration::from_secs(5))
            .expect("the frame reaches the header's destination");
        match delivered {
            Wire::Msg {
                from,
                msg: Msg::Fm(fm),
                measured,
            } => {
                assert_eq!(from, SiteId::from(0usize));
                assert_eq!(fm.var, VarId(7));
                assert!(measured);
            }
            _ => panic!("expected the routed FM"),
        }
        assert!(
            routes.take_wake(1, Duration::from_secs(5)),
            "the destination's owner is woken"
        );
        assert!(
            mailboxes[0].try_recv_test().is_none() && mailboxes[1].try_recv_test().is_none(),
            "no other mailbox sees the frame"
        );
        assert_eq!(errs.load(Ordering::Relaxed), 0);
        tx.shutdown(Shutdown::Both).unwrap();
        reader.join().unwrap();
    }

    /// `msg` framed exactly as a writer ships it.
    fn framed(src: usize, dst: usize, msg: &Msg, measured: bool) -> Vec<u8> {
        let mut buf = Vec::new();
        append_frame(
            &mut buf,
            &OutFrame {
                src: SiteId::from(src),
                dst: SiteId::from(dst),
                msg: msg.clone(),
                measured,
            },
        );
        buf
    }

    /// Unwrap a delivered message.
    fn delivered(wire: Option<Wire>) -> (SiteId, Msg, bool) {
        match wire {
            Some(Wire::Msg {
                from,
                msg,
                measured,
            }) => (from, msg, measured),
            Some(Wire::Stop) => panic!("expected a message, got Stop"),
            None => panic!("expected a message, got nothing"),
        }
    }

    #[test]
    fn a_corrupt_frame_still_wakes_the_owners_of_earlier_frames() {
        // 4 sites over 2 workers: {0, 2} on worker 0, {1, 3} on worker 1.
        // Valid frames for sites 0, 1 and 3, then a garbage body, all in
        // one write that lands before the reader starts — so one read
        // sees all of it, the valid frames are routed without a wake, and
        // the corrupt one ends the connection before the buffer drains.
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(4, 2);
        let errs = Arc::new(AtomicU64::new(0));
        let sent = [(0usize, 10u32), (1, 11), (3, 13)];
        let mut bytes = Vec::new();
        for &(dst, var) in &sent {
            bytes.extend(framed(2, dst, &Msg::Fm(Fm { var: VarId(var) }), true));
        }
        let garbage = [0xFFu8; 16];
        bytes.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&garbage);
        tx.write_all(&bytes).unwrap();

        spawn_reader(rx, routes.clone(), errs.clone())
            .join()
            .expect("reader exits cleanly");
        assert_eq!(errs.load(Ordering::Relaxed), 1, "one connection error");
        for &(dst, var) in &sent {
            let (from, msg, _) = delivered(mailboxes[dst].try_recv_test());
            assert_eq!(from, SiteId::from(2usize));
            assert_eq!(msg, Msg::Fm(Fm { var: VarId(var) }));
        }
        // The reader has exited, so the wakes must already be set.
        assert!(routes.take_wake(0, Duration::ZERO), "worker 0 woken");
        assert!(routes.take_wake(1, Duration::ZERO), "worker 1 woken");
    }

    #[test]
    fn coalesced_and_byte_split_reads_deliver_every_frame_in_order() {
        // A run of routed frames of very different sizes — one-byte-var
        // FMs up to a matrix RM larger than the whole read buffer — sent
        // once as a single write and once one byte per write, so frames,
        // bodies and headers straddle reads at every offset.
        let mut big = MatrixClock::new(128);
        for j in 0..128usize {
            for k in 0..128usize {
                // Six- to seven-byte varints: ~100 KiB of cells.
                big.set(
                    SiteId::from(j),
                    SiteId::from(k),
                    (1 << 40) + (j * 128 + k) as u64,
                );
            }
        }
        let big_rm = Msg::Rm(Rm {
            var: VarId(1),
            value: None,
            meta: RmMeta::FullTrack(Some(Arc::new(big))),
        });
        let frames: Vec<(usize, usize, Msg, bool)> = (0..24u32)
            .map(|i| {
                let msg = if i == 9 {
                    big_rm.clone()
                } else {
                    Msg::Fm(Fm {
                        var: VarId(i << (i % 5 * 6)),
                    })
                };
                (i as usize % 5, (i as usize * 3) % 5, msg, i % 2 == 0)
            })
            .collect();
        let bytes: Vec<u8> = frames
            .iter()
            .flat_map(|(src, dst, msg, measured)| framed(*src, *dst, msg, *measured))
            .collect();
        assert!(
            framed(0, 0, &big_rm, false).len() > READ_BUF_BYTES,
            "one frame outgrows the read buffer"
        );

        for split in [false, true] {
            // 5 sites over 2 workers: {0, 2, 4} on worker 0, {1, 3} on 1.
            let (mut tx, rx) = pair();
            tx.set_nodelay(true).unwrap();
            let (routes, mailboxes) = test_fabric(5, 2);
            let errs = Arc::new(AtomicU64::new(0));
            let reader = spawn_reader(rx, routes.clone(), errs.clone());
            if split {
                for b in &bytes {
                    tx.write_all(std::slice::from_ref(b)).unwrap();
                }
            } else {
                tx.write_all(&bytes).unwrap();
            }
            for (src, dst, msg, measured) in &frames {
                let got = delivered(mailboxes[*dst].recv_timeout(Duration::from_secs(5)));
                assert_eq!(
                    got,
                    (SiteId::from(*src), msg.clone(), *measured),
                    "split {split}"
                );
            }
            for w in 0..2 {
                assert!(
                    routes.take_wake(w, Duration::from_secs(5)),
                    "split {split}: worker {w} woken"
                );
            }
            tx.shutdown(Shutdown::Both).unwrap();
            reader.join().unwrap();
            assert_eq!(errs.load(Ordering::Relaxed), 0, "split {split}");
            assert!(mailboxes.iter().all(|m| m.try_recv_test().is_none()));
        }
    }

    /// A mesh of `kind` over 4 sites on 2 workers ({0, 2} on worker 0,
    /// {1, 3} on worker 1), with the receive sides kept for the test.
    fn mesh_of(kind: ServeTransport) -> (Arc<Routes>, Vec<MailboxRx>, Mesh) {
        let (routes, rxs) = test_fabric(4, 2);
        let mesh = build_mesh(&routes, &Arc::new(Quiesce::new(4)), kind).unwrap();
        (routes, rxs, mesh)
    }

    #[test]
    fn socketless_cross_worker_send_lands_in_the_mailbox_and_wakes_the_owner() {
        let (routes, rxs, mesh) = mesh_of(ServeTransport::Channel);
        assert_eq!(mesh.threads(), 0, "the channel mesh dials nothing");
        let msg = Msg::Fm(Fm { var: VarId(4) });
        assert!(mesh
            .transport()
            .send(SiteId::from(0usize), SiteId::from(1usize), &msg, true));
        let (from, got, measured) = delivered(rxs[1].try_recv_test());
        assert_eq!((from, got, measured), (SiteId::from(0usize), msg, true));
        assert!(routes.take_wake(1, Duration::ZERO), "the owner is woken");
        assert!(!routes.take_wake(0, Duration::ZERO), "the sender is not");
        assert_eq!(mesh.teardown(), (0, 0));
    }

    #[test]
    fn same_worker_send_skips_the_socket_and_wakes_nobody() {
        for kind in [ServeTransport::Channel, ServeTransport::Tcp] {
            let (routes, rxs, mesh) = mesh_of(kind);
            let msg = Msg::Fm(Fm { var: VarId(2) });
            assert!(mesh
                .transport()
                .send(SiteId::from(0usize), SiteId::from(2usize), &msg, false));
            // Pushed inline, so already in the mailbox: no socket on the way.
            let (from, got, _) = delivered(rxs[2].try_recv_test());
            assert_eq!((from, got), (SiteId::from(0usize), msg), "{kind:?}");
            for w in 0..2 {
                assert!(!routes.take_wake(w, Duration::ZERO), "{kind:?}: worker {w}");
            }
            assert_eq!(mesh.teardown(), (0, 0), "{kind:?}");
        }
    }

    #[test]
    fn send_to_a_gone_mailbox_fails_and_counts_one_connection_error() {
        let (_routes, mut rxs, mesh) = mesh_of(ServeTransport::Channel);
        drop(rxs.pop()); // site 3's worker has exited
        let msg = Msg::Fm(Fm { var: VarId(0) });
        assert!(!mesh
            .transport()
            .send(SiteId::from(0usize), SiteId::from(3usize), &msg, true));
        assert_eq!(mesh.teardown(), (1, 0));
    }

    #[test]
    fn dead_connection_fails_sends_fast_without_blocking() {
        // Two sites on two workers with the connection already marked
        // dead: the send must fail immediately (no socket interaction, no
        // sleep-poll) and count a connection error.
        let (routes, _mailboxes) = test_fabric(2, 2);
        let (tx, _rx) = channel::<OutFrame>();
        let errs = Arc::new(AtomicU64::new(0));
        let mut conns: Vec<Option<Conn>> = (0..4).map(|_| None).collect();
        let dead = Arc::new(AtomicBool::new(true));
        conns[1] = Some(Conn {
            tx: tx.clone(),
            dead: dead.clone(),
        });
        conns[2] = Some(Conn { tx, dead });
        let t = MuxTransport {
            routes,
            workers: 2,
            conns,
            conn_errors: errs.clone(),
        };
        let msg = Msg::Fm(Fm { var: VarId(0) });
        assert!(!t.send(SiteId::from(0usize), SiteId::from(1usize), &msg, true));
        assert!(!t.send(SiteId::from(1usize), SiteId::from(0usize), &msg, true));
        assert_eq!(errs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn writer_marks_dead_peer_and_uncounts_inflight_frames() {
        // The peer vanishes; the writer must surface the failure (dead
        // flag + connection errors) and un-count every doomed frame from
        // the in-flight tally, so quiescence cannot hang. The old
        // transport needed a sleep-poll loop here; the writer thread's
        // exit (queue disconnect) is now a deterministic sync point.
        let (a, b) = pair();
        drop(b);
        a.set_write_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let quiesce = Arc::new(Quiesce::new(1));
        let (tx, rx) = channel::<OutFrame>();
        let dead = Arc::new(AtomicBool::new(false));
        let errs = Arc::new(AtomicU64::new(0));
        let syscalls = Arc::new(AtomicU64::new(0));
        let writer = {
            let (d, q, e, s) = (
                dead.clone(),
                quiesce.clone(),
                errs.clone(),
                syscalls.clone(),
            );
            std::thread::spawn(move || writer_loop(a, rx, d, q, e, s))
        };
        // Far more bytes than any socket buffer: with nothing draining,
        // some write must fail (RST or timeout).
        let msg = Msg::Fm(Fm { var: VarId(0) });
        let sent: u64 = 100_000;
        for _ in 0..sent {
            quiesce.frame_sent();
            tx.send(OutFrame {
                src: SiteId::from(0usize),
                dst: SiteId::from(0usize),
                msg: msg.clone(),
                measured: false,
            })
            .unwrap();
        }
        drop(tx);
        writer
            .join()
            .expect("writer exits when the queue disconnects");
        assert!(dead.load(Ordering::Relaxed), "the dead flag is raised");
        let failed = errs.load(Ordering::Relaxed);
        assert!(failed > 0, "some frames positively failed");
        // Every frame either reached the kernel (still counted in flight —
        // nothing received them in this test) or was un-counted as failed.
        assert_eq!(quiesce.in_flight(), (sent - failed) as i64);
    }
}
