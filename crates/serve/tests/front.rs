//! The shared NDJSON front end, driven through both roles: an
//! in-process daemon and an in-process coordinator fronting it.
//!
//! * a request line that arrives in two parts, further apart than the
//!   reader's 100 ms read tick, is still one request;
//! * connection threads are joined as connections close, so hundreds of
//!   sequential connections leave no thread stacks behind.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use wib_core::Json;
use wib_serve::client;
use wib_serve::coord::{self, CoordHandle, CoordOptions};
use wib_serve::server::{self, ServerHandle, ServerOptions};

/// The leak check reads process-wide state (`/proc/self/maps`), so the
/// tests in this file take turns rather than run side by side.
static SERIAL: Mutex<()> = Mutex::new(());

fn daemon_and_coordinator() -> (ServerHandle, CoordHandle) {
    let daemon = server::spawn(ServerOptions {
        workers: 1,
        tiny: true,
        results_dir: None,
        quiet: true,
        faults: Some(String::new()),
        watchdog_ms: None,
        ..ServerOptions::default()
    })
    .expect("bind daemon");
    let coord = coord::spawn(CoordOptions {
        backends: vec![daemon.addr().to_string()],
        tiny: true,
        quiet: true,
        supervise_ms: 0,
        ..CoordOptions::default()
    })
    .expect("bind coordinator");
    (daemon, coord)
}

fn stop(daemon: ServerHandle, coord: CoordHandle) {
    coord.shutdown();
    coord.join();
    daemon.shutdown(true);
    daemon.join();
}

#[test]
fn a_request_split_across_read_timeouts_is_one_request_for_both_roles() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (daemon, coord) = daemon_and_coordinator();
    for addr in [daemon.addr(), coord.addr()] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(br#"{"op":"#).unwrap();
        stream.flush().unwrap();
        // Three read ticks pass with half a line buffered.
        std::thread::sleep(Duration::from_millis(300));
        stream.write_all(b"\"ping\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("reply");
        let ev = Json::parse(reply.trim()).expect("reply is JSON");
        assert_eq!(
            ev.get("event").and_then(Json::as_str),
            Some("pong"),
            "{addr} answered a split request with {reply}"
        );
    }
    stop(daemon, coord);
}

#[cfg(target_os = "linux")]
#[test]
fn sequential_connections_leave_no_threads_behind() {
    const CONNECTIONS: usize = 500;
    let maps = || {
        std::fs::read_to_string("/proc/self/maps")
            .expect("read /proc/self/maps")
            .lines()
            .count()
    };
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (daemon, coord) = daemon_and_coordinator();
    for addr in [daemon.addr().to_string(), coord.addr().to_string()] {
        // Warm up first: the allocator's per-thread arenas settle after
        // the first few connection threads.
        for _ in 0..20 {
            client::ping(&addr).expect("warm-up ping");
        }
        let before = maps();
        for _ in 0..CONNECTIONS {
            client::ping(&addr).expect("ping");
        }
        let grown = maps().saturating_sub(before);
        // Each leaked connection thread keeps a stack and its guard page:
        // two mappings apiece, ~1000 lines for this loop.
        assert!(
            grown < 50,
            "{CONNECTIONS} connections to {addr} grew /proc/self/maps by {grown} lines"
        );
    }
    stop(daemon, coord);
}
