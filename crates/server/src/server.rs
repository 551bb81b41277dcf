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
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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
}

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
        // Re-check after registering: either stop() sees this connection in
        // the registry and closes it, or this check sees the flag — no
        // window where a live connection can outlast shutdown.
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let session = shared.db.session();
        let _ = serve_connection(&session, stream, &shared.requests);
        shared.conns.lock().unwrap().remove(&conn_id);
        shared.metrics.counter("session.closed").incr();
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serve one connection: read a request line, execute it on this
/// connection's session, write the response line; repeat until EOF.
fn serve_connection(
    session: &Session,
    stream: TcpStream,
    requests: &Counter,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        requests.incr();
        let response = match Request::decode(trimmed) {
            Ok(request) => handle(session, request),
            Err(e) => Response::Error {
                message: format!("bad request: {e}"),
                overloaded: None,
            },
        };
        writer.write_all(response.encode().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
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
