//! A threaded TCP server that maps each connection to one owned
//! [`Session`](backbone_core::Session).
//!
//! Architecture: one listener thread accepts connections and pushes them
//! onto a bounded admission queue; a fixed pool of `max_sessions` worker
//! threads pops connections and serves each one to completion (a
//! connection is a session — the worker handles its requests one line at a
//! time until the client hangs up). When every worker is busy *and* the
//! queue is full, the listener immediately answers the newcomer with a
//! typed overload error and closes — no hangs, no silent drops.
//!
//! The whole thing rides on [`Database`] being a cheap cloneable handle:
//! the server owns one clone, every worker mints owned sessions from it,
//! and all of them share the same tables, WAL, and metrics registry.

use crate::proto::{Request, Response};
use backbone_core::{Database, Error, Session};
use backbone_query::{Counter, Metrics};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Admission-control knobs for [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Worker threads = maximum concurrently served sessions.
    pub max_sessions: usize,
    /// Connections allowed to wait for a free worker before newcomers are
    /// turned away with [`Error::Overloaded`].
    pub queue_depth: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_sessions: 8,
            queue_depth: 16,
        }
    }
}

/// State shared by the listener, the workers, and the [`Server`] handle.
struct Shared {
    db: Database,
    opts: ServerOptions,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    /// Sessions currently being served (not queued).
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Streams currently held by workers, so shutdown can force-close them
    /// and unblock workers parked in `read_line` on an idle connection.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    metrics: Metrics,
    /// `session.requests`, resolved once: it is bumped on every request.
    requests: Counter,
    /// Executes one decoded request ([`handle`] outside tests).
    handler: Handler,
}

/// Executes one decoded request on a session.
type Handler = fn(&Session, Request) -> Response;

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the listener, wakes the workers, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `db`. Spawns `opts.max_sessions` workers plus one listener.
    pub fn start(
        db: Database,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> std::io::Result<Server> {
        Server::start_with(db, addr, opts, handle)
    }

    /// [`Server::start`] with the request handler supplied, so tests can
    /// serve through one that fails.
    fn start_with(
        db: Database,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
        handler: Handler,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = db.metrics().clone();
        let shared = Arc::new(Shared {
            db,
            opts,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            requests: metrics.counter("session.requests"),
            metrics,
            handler,
        });
        let workers = (0..opts.max_sessions.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Server {
            addr,
            shared,
            listener: Some(accept),
            workers,
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions being served right now.
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Stop accepting, wake every worker, and join all threads. Queued
    /// connections that never reached a worker are dropped.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The listener blocks in accept(); a no-op connection unblocks it so
        // it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        // Notify under the queue lock: a worker between its shutdown check
        // and its wait holds the lock, so taking it here guarantees every
        // worker either sees the flag or receives this wakeup.
        let guard = self.shared.queue.lock().unwrap();
        self.shared.available.notify_all();
        drop(guard);
        // Force-close in-flight connections so workers parked in read_line
        // observe EOF, finish their session, and see the shutdown flag.
        for (_, conn) in self.shared.conns.lock().unwrap().iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(l) = self.listener.take() {
            let _ = l.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let mut queue = shared.queue.lock().unwrap();
        let active = shared.active.load(Ordering::SeqCst);
        // Overloaded means *both* every worker is busy and the waiting room
        // is full. A burst that transiently stacks the queue while workers
        // are idle is admitted — the pool drains it immediately.
        if active >= shared.opts.max_sessions && queue.len() >= shared.opts.queue_depth {
            drop(queue);
            shared.metrics.counter("session.rejected").incr();
            reject(stream, active, shared.opts.queue_depth);
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.available.notify_one();
    }
}

/// Answer a turned-away connection with the typed overload error, then
/// close. Runs on the listener thread; it is one small write.
fn reject(stream: TcpStream, active: usize, queue: usize) {
    let err = Error::Overloaded { active, queue };
    let resp = Response::Error {
        message: err.to_string(),
        overloaded: Some((active, queue)),
    };
    let mut w = BufWriter::new(stream);
    let _ = w.write_all(resp.encode().as_bytes());
    let _ = w.write_all(b"\n");
    let _ = w.flush();
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(s) = queue.pop_front() {
                    break s;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.metrics.counter("session.opened").incr();
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(conn_id, clone);
        }
        // Releases the slot and the registry entry however serving ends,
        // unwinding included.
        let _slot = SessionSlot { shared, conn_id };
        // Re-check after registering: either stop() sees this connection in
        // the registry and closes it, or this check sees the flag — no
        // window where a live connection can outlast shutdown.
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let session = shared.db.session();
        let _ = serve_connection(&session, stream, shared);
    }
}

/// A worker's hold on one connection: dropping it unregisters the stream
/// and gives the session slot back.
struct SessionSlot<'a> {
    shared: &'a Shared,
    conn_id: u64,
}

impl Drop for SessionSlot<'_> {
    fn drop(&mut self) {
        // A poisoned registry still gets the entry removed: the slot must be
        // released even while unwinding.
        let mut conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.remove(&self.conn_id);
        drop(conns);
        self.shared.metrics.counter("session.closed").incr();
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Longest request line the server reads, newline included. The largest
/// request any client sends is a 100-row insert, far below this; a line
/// that never ends is cut off here instead of growing a buffer until the
/// process runs out of memory.
pub const MAX_REQUEST_BYTES: u64 = 16 << 20;

/// Serve one connection: read a request line, execute it on this
/// connection's session, write the response line; repeat until EOF. A line
/// longer than [`MAX_REQUEST_BYTES`] gets a `bad request` error, and then
/// the connection closes: the rest of that line is never read.
fn serve_connection(session: &Session, stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = (&mut reader)
            .take(MAX_REQUEST_BYTES)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(()); // client hung up
        }
        let too_long = n as u64 == MAX_REQUEST_BYTES && line.last() != Some(&b'\n');
        let text = if too_long {
            Err(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"))
        } else {
            std::str::from_utf8(&line)
                .map(str::trim)
                .map_err(|e| format!("request line is not UTF-8: {e}"))
        };
        if text == Ok("") {
            continue;
        }
        shared.requests.incr();
        let response = match text.and_then(Request::decode) {
            Ok(request) => serve_request(session, request, shared.handler),
            Err(e) => Response::Error {
                message: format!("bad request: {e}"),
                overloaded: None,
            },
        };
        writer.write_all(response.encode().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if too_long {
            return Ok(());
        }
    }
}

/// Run one request under `catch_unwind`: a panic anywhere in the engine
/// answers [`Error::Internal`] on the same connection instead of unwinding
/// out of the worker, so the session keeps serving.
fn serve_request(session: &Session, request: Request, handler: Handler) -> Response {
    std::panic::catch_unwind(AssertUnwindSafe(|| handler(session, request))).unwrap_or_else(
        |panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "request panicked".into());
            error_response(Error::Internal(message))
        },
    )
}

fn handle(session: &Session, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Sql { query } => rows_response(session.sql(&query)),
        Request::Insert { table, rows } => {
            let n = rows.len();
            match session.insert(&table, rows) {
                Ok(()) => Response::Inserted { rows: n },
                Err(e) => error_response(e),
            }
        }
        // Prepared statements live on the session, and the session lives as
        // long as the connection — handles are connection-scoped for free.
        Request::Prepare { query } => match session.prepare(&query) {
            Ok(info) => Response::Prepared {
                stmt: info.id,
                params: info.params,
            },
            Err(e) => error_response(e),
        },
        Request::Execute { stmt, params } => rows_response(session.execute_prepared(stmt, &params)),
    }
}

fn rows_response(result: Result<backbone_storage::RecordBatch, Error>) -> Response {
    match result {
        Ok(batch) => Response::Rows {
            columns: batch
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect(),
            rows: batch.to_rows(),
        },
        Err(e) => error_response(e),
    }
}

fn error_response(e: Error) -> Response {
    Response::Error {
        message: e.to_string(),
        overloaded: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ServerError};
    use backbone_storage::{DataType, Field, Schema, Value};
    use std::time::{Duration, Instant};

    /// [`handle`], except that the query `PANIC` panics.
    fn faulty(session: &Session, request: Request) -> Response {
        if matches!(&request, Request::Sql { query } if query == "PANIC") {
            panic!("injected fault");
        }
        handle(session, request)
    }

    #[test]
    fn panicking_request_is_a_typed_error_and_the_worker_survives() {
        let db = Database::new();
        db.create_table("t", Schema::new(vec![Field::new("id", DataType::Int64)]))
            .unwrap();
        db.insert("t", vec![vec![Value::Int(7)]]).unwrap();

        // The per-request helper turns the panic into the typed error, and
        // the same session serves the next request.
        let session = db.session();
        let panicked = serve_request(&session, Request::Ping, |_, _| panic!("injected fault"));
        let internal = error_response(Error::Internal("injected fault".into()));
        assert_eq!(panicked, internal);
        assert_eq!(
            serve_request(&session, Request::Ping, handle),
            Response::Pong
        );

        // Over the wire, with a single worker: the panic is answered on the
        // same connection, the connection keeps serving, and the worker is
        // back in the pool once the client leaves.
        let opts = ServerOptions {
            max_sessions: 1,
            queue_depth: 4,
        };
        let server = Server::start_with(db, "127.0.0.1:0", opts, faulty).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        match client.sql("PANIC") {
            Err(ServerError::Remote(m)) => assert_eq!(m, "internal error: injected fault"),
            other => panic!("expected the internal error, got {other:?}"),
        }
        assert_eq!(
            client.sql("SELECT id FROM t").unwrap().rows,
            vec![vec![Value::Int(7)]]
        );
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.active_sessions() != 0 {
            assert!(Instant::now() < deadline, "session slot never released");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut next = Client::connect(server.addr()).unwrap();
        next.ping().unwrap();
        server.shutdown();
    }
}
