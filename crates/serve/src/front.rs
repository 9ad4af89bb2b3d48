//! The NDJSON front end shared by the daemon and the coordinator.
//!
//! Both roles speak one protocol over one connection model, so that
//! plumbing lives here once:
//!
//! * the accept loop, which reaps each connection thread once it has
//!   finished, so a long-lived service holds threads only for the
//!   connections that are still open;
//! * one reader thread per connection, which frames requests on `\n` and
//!   keeps a partial line across read timeouts, and one writer thread,
//!   which drains an mpsc channel of event lines to the socket under a
//!   write timeout (so workers and routers never touch sockets);
//! * the watcher registry and [`Front::publish`], the fan-out every job
//!   event goes through;
//! * the finished latch: shutdown wakes every reader, and the connection
//!   that asked for the shutdown gets its `shutdown` event only once the
//!   role has fully drained;
//! * the ops both roles answer alike: `ping`, `watch`, `shutdown`, and a
//!   `protocol_error` for an unparseable line or an op of the other role.
//!
//! A role implements [`Service`] and supplies only its own ops: the
//! daemon ([`crate::server`]) through its queue and worker pool, the
//! coordinator ([`crate::coord`]) through its ring router.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use wib_core::Json;

use crate::fault::{FaultPlan, WriteFault};
use crate::protocol::{self, Request};

/// How often a blocked connection reader wakes to check for shutdown.
pub(crate) const READ_TICK: Duration = Duration::from_millis(100);

/// Per-connection socket write budget: a client that accepts no bytes for
/// this long is treated as gone and its writer thread exits.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Which side of the protocol a front end serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    Daemon,
    Coordinator,
}

impl Role {
    /// Log prefix and thread-name stem.
    fn name(self) -> &'static str {
        match self {
            Role::Daemon => "wib-serve",
            Role::Coordinator => "wib-coord",
        }
    }

    /// Why this role refuses `request`, if it is the other role's op.
    fn refusal(self, request: &Request) -> Option<&'static str> {
        match (self, request) {
            (Role::Daemon, Request::Join { .. } | Request::ClusterStats) => {
                Some("coordinator-only op: this is a backend daemon, not a coordinator")
            }
            (Role::Coordinator, Request::Cancel { .. }) => {
                Some("cancel is not routed through the coordinator; cancel at the owning backend")
            }
            _ => None,
        }
    }
}

/// One role behind the front end.
pub(crate) trait Service: Send + Sync + 'static {
    /// The front-end state this role embeds.
    fn front(&self) -> &Front;

    /// Gate run on every parsed request, shared ops included; an `Err`
    /// is answered as a `protocol_error`. The daemon's `sick` fault
    /// lives here.
    fn screen(&self, _request: &Request) -> Result<(), String> {
        Ok(())
    }

    /// Answer one of this role's own ops, replying on `tx`.
    fn handle(&self, tx: &Sender<String>, request: Request);

    /// Start this role's shutdown (the `shutdown` op). The front end
    /// then waits for the finished latch and replies with
    /// [`Service::farewell`].
    fn shutdown(&self, drain: bool);

    /// The final `shutdown` event, sent to every watcher and to the
    /// connection that asked for the shutdown.
    fn farewell(&self) -> Json;
}

/// Connection-facing state shared by every connection of one role.
pub(crate) struct Front {
    role: Role,
    quiet: bool,
    bound: SocketAddr,
    /// Client-write faults (`slow`, `drop`); empty for the coordinator.
    faults: Arc<FaultPlan>,
    watchers: Mutex<HashMap<u64, Sender<String>>>,
    next_watcher: AtomicU64,
    shutting_down: AtomicBool,
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

impl Front {
    pub(crate) fn new(role: Role, bound: SocketAddr, quiet: bool, faults: Arc<FaultPlan>) -> Front {
        Front {
            role,
            quiet,
            bound,
            faults,
            watchers: Mutex::new(HashMap::new()),
            next_watcher: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
        }
    }

    /// The bound listening address.
    pub(crate) fn bound(&self) -> SocketAddr {
        self.bound
    }

    pub(crate) fn log(&self, msg: &str) {
        if !self.quiet {
            eprintln!("{}: {msg}", self.role.name());
        }
    }

    fn lock_watchers(&self) -> MutexGuard<'_, HashMap<u64, Sender<String>>> {
        self.watchers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Connections subscribed with `watch`.
    pub(crate) fn watcher_count(&self) -> usize {
        self.lock_watchers().len()
    }

    /// Send `ev` to the owning connection (if still attached) and to
    /// every watcher. A watcher whose connection died (its writer hit a
    /// broken pipe and hung up the channel) fails the send and is
    /// unregistered here, its buffered events dropped with it.
    pub(crate) fn publish(&self, own: Option<&Sender<String>>, ev: &Json) {
        let line = ev.to_string();
        if let Some(tx) = own {
            let _ = tx.send(line.clone());
        }
        self.lock_watchers()
            .retain(|_, w| w.send(line.clone()).is_ok());
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flip into shutdown once: run the role's `stop` step, then wake
    /// the accept loop with a loopback self-connect. A second request
    /// is a no-op.
    pub(crate) fn begin_shutdown(&self, stop: impl FnOnce()) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        stop();
        let _ = TcpStream::connect(self.bound);
    }

    fn is_finished(&self) -> bool {
        *self.finished.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn mark_finished(&self) {
        *self.finished.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.finished_cv.notify_all();
    }

    fn wait_finished(&self) {
        let mut done = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self
                .finished_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Accept connections until shutdown begins, one reader thread each.
/// Threads of connections that have closed are joined at every accept,
/// so only open connections hold a thread. Returns the threads still
/// running; hand them to [`close`].
pub(crate) fn accept<S: Service>(service: &Arc<S>, listener: TcpListener) -> Vec<JoinHandle<()>> {
    let front = service.front();
    let mut conns = Vec::new();
    for stream in listener.incoming() {
        if front.is_shutting_down() {
            break;
        }
        reap(front, &mut conns);
        match stream {
            Ok(stream) => {
                let service = Arc::clone(service);
                let spawned = std::thread::Builder::new()
                    .name(format!("{}-conn", front.role.name()))
                    .spawn(move || serve_conn(&*service, stream));
                match spawned {
                    Ok(h) => conns.push(h),
                    Err(e) => front.log(&format!(
                        "cannot spawn a connection thread ({e}); dropping the connection"
                    )),
                }
            }
            Err(e) => front.log(&format!("accept error: {e}")),
        }
    }
    conns
}

/// Finish the front end once the role has drained: send the farewell
/// to every watcher and drop their channels, release the finished latch
/// (which wakes every reader, including the one waiting to confirm a
/// `shutdown`), then join every remaining connection thread.
pub(crate) fn close<S: Service>(service: &S, conns: Vec<JoinHandle<()>>) {
    let front = service.front();
    front.publish(None, &service.farewell());
    front.lock_watchers().clear();
    front.mark_finished();
    for h in conns {
        join_conn(front, h);
    }
}

/// Join the connection threads that have already returned.
fn reap(front: &Front, conns: &mut Vec<JoinHandle<()>>) {
    let (done, live): (Vec<_>, Vec<_>) = std::mem::take(conns)
        .into_iter()
        .partition(JoinHandle::is_finished);
    *conns = live;
    for h in done {
        join_conn(front, h);
    }
}

/// Join one connection thread; a panic in it is logged, not propagated.
fn join_conn(front: &Front, h: JoinHandle<()>) {
    if h.join().is_err() {
        front.log("a connection thread panicked");
    }
}

/// One connection's reader: frame request lines, dispatch each, and on
/// close undo the connection's watcher registration and join its writer.
fn serve_conn<S: Service>(service: &S, stream: TcpStream) {
    let front = service.front();
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "?".to_string(), |a| a.to_string());
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // A client that stops draining its socket must not pin the writer:
    // bound every write, and treat timeout like any other write error.
    let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));
    let (tx, rx) = channel::<String>();
    let faults = Arc::clone(&front.faults);
    let spawned = std::thread::Builder::new()
        .name(format!("{}-writer", front.role.name()))
        .spawn(move || write_events(write_half, &rx, &faults));
    let writer = match spawned {
        Ok(h) => h,
        Err(e) => {
            front.log(&format!(
                "cannot spawn a writer thread for {peer} ({e}); dropping the connection"
            ));
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut watcher = None;
    while !front.is_finished() {
        match reader.read_until(b'\n', &mut line) {
            // EOF. An unterminated last line is dropped.
            Ok(0) => break,
            Ok(_) if line.ends_with(b"\n") => {
                let frame = std::mem::take(&mut line);
                if dispatch(service, &tx, &mut watcher, &frame) {
                    break;
                }
            }
            // A partial line before EOF: the next read returns 0.
            Ok(_) => {}
            // Read timeout: `line` keeps the partial frame read so far.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    // Stop fanning events out to a connection that is gone.
    if let Some(wid) = watcher {
        front.lock_watchers().remove(&wid);
    }
    front.log(&format!("connection {peer} closed"));
    drop(tx);
    let _ = writer.join();
}

/// One connection's writer: drain event lines to the socket until every
/// sender is gone or a write fails.
fn write_events(stream: TcpStream, rx: &Receiver<String>, faults: &FaultPlan) {
    let mut out = BufWriter::new(stream);
    while let Ok(line) = rx.recv() {
        match faults.next_client_write() {
            WriteFault::None => {}
            WriteFault::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
            WriteFault::Truncate => {
                // A client that vanished mid-line: half the frame, then
                // the writer dies.
                let _ = out
                    .write_all(&line.as_bytes()[..line.len() / 2])
                    .and_then(|()| out.flush());
                break;
            }
        }
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
    }
}

/// Answer one request frame; returns `true` when the connection should
/// close (after a shutdown it requested has completed).
fn dispatch<S: Service>(
    service: &S,
    tx: &Sender<String>,
    watcher: &mut Option<u64>,
    frame: &[u8],
) -> bool {
    let front = service.front();
    let reply = |ev: Json| {
        let _ = tx.send(ev.to_string());
    };
    let Ok(line) = std::str::from_utf8(frame) else {
        reply(protocol::ev_protocol_error(
            "request line is not valid UTF-8",
        ));
        return false;
    };
    let line = line.trim();
    if line.is_empty() {
        return false;
    }
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            reply(protocol::ev_protocol_error(&e));
            return false;
        }
    };
    if let Err(why) = service.screen(&request) {
        reply(protocol::ev_protocol_error(&why));
        return false;
    }
    if let Some(why) = front.role.refusal(&request) {
        reply(protocol::ev_protocol_error(why));
        return false;
    }
    match request {
        Request::Ping => reply(Json::obj().field("event", "pong")),
        Request::Watch => {
            let wid =
                *watcher.get_or_insert_with(|| front.next_watcher.fetch_add(1, Ordering::Relaxed));
            front.lock_watchers().insert(wid, tx.clone());
            reply(Json::obj().field("event", "watching"));
        }
        Request::Shutdown { drain } => {
            service.shutdown(drain);
            // Confirm only after the full drain-and-join.
            front.wait_finished();
            reply(service.farewell());
            return true;
        }
        other => service.handle(tx, other),
    }
    false
}
