//! Layer replays for one wire SQL read: the traced run calls the public
//! function of each layer the server path goes through, on the request's
//! own statement and result, right after the real round trip.

use crate::trace::{Role, Tracer};
use backbone_core::{Database, Session};
use backbone_query::{execute_optimized, optimize_plan, parse_statement, ExecOptions, Statement};
use backbone_server::proto::{Request, Response};
use backbone_server::RowSet;
use std::time::Instant;

/// What a replay measured, in ms.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replayed {
    /// `execute_optimized`, on the miss path.
    pub execute_ms: Option<f64>,
    /// The embedded `Session::sql`, on the hit path.
    pub session_ms: Option<f64>,
}

/// Replay `query`'s layers. `miss` says the real request executed (no
/// result-cache hit): its steps are then codec, snapshot pin and
/// execution, with parse and optimize recorded as probes (a plan-cache hit
/// skips them). A hit's steps are codec and an embedded `Session::sql` of
/// the same statement, which hits the same caches.
pub fn sql_read(
    db: &Database,
    session: &Session,
    tracer: &mut Tracer,
    query: &str,
    result: &RowSet,
    miss: bool,
) -> Result<Replayed, String> {
    let request = Request::Sql {
        query: query.to_string(),
    };
    let response = Response::Rows {
        columns: result.columns.clone(),
        rows: result.rows.clone(),
    };
    tracer.time("server.codec", Role::Component, || {
        let line = request.encode();
        let decoded = Request::decode(&line);
        let reply = response.encode();
        let _ = std::hint::black_box((decoded, reply));
    });
    if !miss {
        let t0 = Instant::now();
        tracer
            .time("core.session.sql", Role::Component, || session.sql(query))
            .map_err(|e| format!("embedded replay of {query}: {e}"))?;
        return Ok(Replayed {
            session_ms: Some(t0.elapsed().as_secs_f64() * 1e3),
            ..Replayed::default()
        });
    }
    let pin = tracer.time("core.snapshot_pin", Role::Component, || db.pin_snapshot());
    let catalog = db.catalog();
    let parsed = tracer
        .time("query.parse", Role::Probe, || {
            parse_statement(query, catalog)
        })
        .map_err(|e| format!("parse {query}: {e}"))?;
    let Statement::Select(plan) = parsed else {
        return Err(format!("not a SELECT: {query}"));
    };
    let opts = ExecOptions::serial();
    let plan = tracer
        .time("query.optimize", Role::Probe, || {
            optimize_plan(plan, catalog, &opts)
        })
        .map_err(|e| format!("optimize {query}: {e}"))?;
    let at = opts.at_snapshot(pin.epoch());
    let t0 = Instant::now();
    let batch = tracer
        .time("query.execute", Role::Component, || {
            execute_optimized(&plan, catalog, &at)
        })
        .map_err(|e| format!("execute {query}: {e}"))?;
    let execute_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(batch);
    Ok(Replayed {
        execute_ms,
        ..Replayed::default()
    })
}
