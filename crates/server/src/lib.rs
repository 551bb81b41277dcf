//! `backbone-server`: a network front door over `backbone-core`.
//!
//! A [`Server`] binds a TCP port and serves the newline-delimited JSON
//! protocol in [`proto`]; each connection gets its own owned
//! [`backbone_core::Session`], so concurrent clients read consistent
//! snapshots and batch their commits through the shared group-commit WAL
//! without any coordination of their own. Admission is bounded: at most
//! `max_sessions` connections are served concurrently, at most
//! `queue_depth` wait, and everyone else gets a typed
//! [`backbone_core::Error::Overloaded`] reply instead of a hang.
//!
//! Zero external dependencies: the JSON codec is hand-rolled in [`json`]
//! and the server is plain `std::net` + threads.

pub mod client;
pub mod json;
pub mod proto;
mod server;

pub use client::{Client, RowSet};
pub use server::{Server, ServerOptions};

use std::fmt;

/// Client-side failures: transport, protocol, or an error the server
/// reported. Overload rejections arrive as
/// `ServerError::Db(backbone_core::Error::Overloaded { .. })` so callers
/// can match the same typed error the embedded API uses.
#[derive(Debug)]
pub enum ServerError {
    /// The TCP transport failed.
    Io(std::io::Error),
    /// The peer sent something that is not valid protocol.
    Protocol(String),
    /// The server reported a typed database error (currently: overload).
    Db(backbone_core::Error),
    /// The server reported a failure as text (query errors, missing
    /// tables, ...) — typed on the server side, stringly over the wire.
    Remote(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io error: {e}"),
            ServerError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServerError::Db(e) => write!(f, "{e}"),
            ServerError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl ServerError {
    /// Is this an admission-control rejection the caller should retry
    /// after backing off?
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            ServerError::Db(backbone_core::Error::Overloaded { .. })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_core::Database;
    use backbone_storage::{DataType, Field, Schema, Value};

    fn served_db() -> Database {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
        )
        .unwrap();
        db.insert(
            "t",
            vec![
                vec![Value::Int(1), Value::str("ada")],
                vec![Value::Int(2), Value::str("grace")],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn serves_sql_and_inserts_over_tcp() {
        let db = served_db();
        let server = Server::start(db.clone(), "127.0.0.1:0", ServerOptions::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        client.ping().unwrap();
        let out = client.sql("SELECT id, name FROM t WHERE id > 1").unwrap();
        assert_eq!(out.columns, vec!["id", "name"]);
        assert_eq!(out.rows, vec![vec![Value::Int(2), Value::str("grace")]]);

        let acked = client
            .insert("t", vec![vec![Value::Int(3), Value::str("edsger")]])
            .unwrap();
        assert_eq!(acked, 1);
        // The insert went through the shared database, not a copy.
        assert_eq!(db.row_count("t"), Some(3));

        // Remote errors stay errors, and the connection survives them.
        let err = client.sql("SELECT * FROM ghost").unwrap_err();
        assert!(matches!(err, ServerError::Remote(_)), "{err}");
        assert_eq!(client.sql("SELECT id FROM t").unwrap().rows.len(), 3);

        server.shutdown();
    }

    #[test]
    fn deeply_nested_request_gets_an_error_and_the_connection_survives() {
        use crate::proto::Response;
        use std::io::{BufRead, BufReader, Write};

        let server = Server::start(served_db(), "127.0.0.1:0", ServerOptions::default()).unwrap();
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut roundtrip = |line: &str| {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::decode(reply.trim()).unwrap()
        };

        let depth = 100_000;
        let hostile = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        match roundtrip(&hostile) {
            Response::Error { message, .. } => assert!(message.contains("nesting"), "{message}"),
            other => panic!("expected an error response, got {other:?}"),
        }
        match roundtrip(r#"{"op":"sql","q":"SELECT id FROM t"}"#) {
            Response::Rows { rows, .. } => assert_eq!(rows.len(), 2),
            other => panic!("expected rows, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn deeply_nested_sql_gets_an_error_and_the_connection_survives() {
        let server = Server::start(served_db(), "127.0.0.1:0", ServerOptions::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let depth = 100_000;
        let hostile = format!(
            "SELECT id FROM t WHERE {}id = 1{}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        match client.sql(&hostile) {
            Err(ServerError::Remote(message)) => {
                assert!(message.contains("nests deeper"), "{message}")
            }
            other => panic!("expected a remote error, got {other:?}"),
        }
        assert_eq!(client.sql("SELECT id FROM t").unwrap().rows.len(), 2);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_each_get_a_session() {
        let db = served_db();
        let server = Server::start(db, "127.0.0.1:0", ServerOptions::default()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for _ in 0..10 {
                        c.insert("t", vec![vec![Value::Int(100 + i), Value::str("w")]])
                            .unwrap();
                        let out = c.sql("SELECT id FROM t").unwrap();
                        assert!(out.rows.len() >= 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.sql("SELECT id FROM t").unwrap().rows.len(), 2 + 6 * 10);
        server.shutdown();
    }

    #[test]
    fn overload_is_a_typed_rejection_not_a_hang() {
        let db = served_db();
        let opts = ServerOptions {
            max_sessions: 2,
            queue_depth: 2,
        };
        let server = Server::start(db, "127.0.0.1:0", opts).unwrap();
        let addr = server.addr();

        // Occupy both workers with held-open sessions (ping proves a worker
        // picked the connection up).
        let mut held: Vec<Client> = (0..2)
            .map(|_| {
                let mut c = Client::connect(addr).unwrap();
                c.ping().unwrap();
                c
            })
            .collect();
        // Fill the wait queue. These connect (the listener queues them) but
        // never reach a worker while the held sessions live.
        let queued: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
        // Give the single-threaded listener a beat to drain its accept
        // backlog into the wait queue.
        std::thread::sleep(std::time::Duration::from_millis(50));

        // The next arrival must be turned away immediately with the typed
        // error — not blocked, not silently dropped.
        let mut extra = Client::connect(addr).unwrap();
        let err = extra.ping().unwrap_err();
        assert!(err.is_overloaded(), "expected Overloaded, got {err}");
        match &err {
            ServerError::Db(backbone_core::Error::Overloaded { active, queue }) => {
                assert_eq!(*active, 2);
                assert_eq!(*queue, 2);
            }
            other => panic!("expected Overloaded, got {other}"),
        }

        // Releasing the held sessions lets the queued connections be served.
        drop(held.drain(..));
        for mut c in queued {
            c.ping().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn session_metrics_track_the_lifecycle() {
        let db = served_db();
        let metrics = db.metrics().clone();
        let server = Server::start(db, "127.0.0.1:0", ServerOptions::default()).unwrap();
        {
            let mut c = Client::connect(server.addr()).unwrap();
            c.ping().unwrap();
            c.sql("SELECT id FROM t").unwrap();
        }
        // The drop above closes the connection; wait for the worker to
        // notice EOF and close the session.
        for _ in 0..100 {
            if metrics.value("session.closed") >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(metrics.value("session.opened"), 1);
        assert_eq!(metrics.value("session.closed"), 1);
        assert_eq!(metrics.value("session.requests"), 2);
        server.shutdown();
    }
}
