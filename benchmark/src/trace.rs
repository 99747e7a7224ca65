//! In-memory span recorder and the from-outside service taps.
//!
//! Spans are recorded only by the benchmark's own code: a root span per
//! round part, one around every `run_until` step and every `bootstrap`,
//! and one around every `Service::call` that reaches the primary
//! Drivolution server or the database, through a [`Tap`] re-bound at that
//! address. Nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use drivolution_core::{DriverId, DrvMsg, DrvRequest, RequestKind, TransferMethod};
use netsim::{Addr, NetError, Network, Pipe, Service};

/// One recorded interval. `parent` is the index of the enclosing span in
/// the same trace, −1 for a root.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub round: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    round: u32,
    /// The first exchange seen per span name, kept for replay by the unit
    /// rig.
    exchanges: Vec<(&'static str, Exchange)>,
}

/// One captured request and its reply.
#[derive(Clone, Debug)]
pub struct Exchange {
    pub from: Addr,
    pub request: Bytes,
    pub reply: Bytes,
}

/// Span recorder shared by the round loop and the taps.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                stack: Vec::new(),
                round: 0,
                exchanges: Vec::new(),
            }),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock is never held across a panic")
    }

    pub fn set_round(&self, round: u32) {
        self.state().round = round;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&self, name: &'static str) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state();
        let id = st.spans.len();
        let parent = st.stack.last().map_or(-1, |&p| p as i64);
        let round = st.round;
        st.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            round,
        });
        st.stack.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn exit(&self, id: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state();
        while let Some(top) = st.stack.pop() {
            st.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    fn has_exchange(&self, name: &str) -> bool {
        self.state().exchanges.iter().any(|(n, _)| *n == name)
    }

    /// The first exchange recorded under span `name`.
    pub fn exchange(&self, name: &str) -> Option<Exchange> {
        self.state()
            .exchanges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, e)| e.clone())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let st = self.state();
        let spans = &st.spans;
        let mut out = String::with_capacity(spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
        );
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"round\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.round
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Span names of the primary server's frames, keyed by frame prefix.
pub const SRV_REQUEST: &str = "server.call.request";
pub const SRV_RENEW: &str = "server.call.renew";
pub const SRV_FILE_REQUEST: &str = "server.call.file_request";
pub const SRV_CHUNK_REQUEST: &str = "server.call.chunk_request";
pub const SRV_ACTIVATION_REPORT: &str = "server.call.activation_report";
pub const SRV_RENEW_BATCH: &str = "server.call.renew_batch";
pub const SRV_OTHER: &str = "server.call.other";
pub const DB_CALL: &str = "db.call";

/// Frame classifier for the primary's dialect. The tag bytes are read off
/// sample frames the public encoder produces, so the table follows
/// `core::proto` without naming its private constants.
fn server_frame_names() -> Vec<(Vec<u8>, &'static str)> {
    let boot = DrvRequest::bootstrap("d", "u", "RDBC", "p");
    let renew = DrvRequest {
        kind: RequestKind::Renewal {
            current: DriverId(0),
        },
        ..boot.clone()
    };
    let prefix = |m: DrvMsg, n: usize| m.encode()[..n].to_vec();
    vec![
        (prefix(DrvMsg::Request(boot), 2), SRV_REQUEST),
        (prefix(DrvMsg::Request(renew), 2), SRV_RENEW),
        (
            prefix(
                DrvMsg::FileRequest {
                    location: String::new(),
                    transfer_method: TransferMethod::Plain,
                },
                1,
            ),
            SRV_FILE_REQUEST,
        ),
        (
            prefix(
                DrvMsg::ChunkRequest {
                    digests: Vec::new(),
                    transfer_method: TransferMethod::Plain,
                },
                1,
            ),
            SRV_CHUNK_REQUEST,
        ),
        (
            prefix(
                DrvMsg::ActivationReport {
                    database: String::new(),
                    driver: DriverId(0),
                    version: None,
                    ok: true,
                    detail: String::new(),
                },
                1,
            ),
            SRV_ACTIVATION_REPORT,
        ),
        (
            prefix(
                DrvMsg::RenewBatch {
                    entries: Vec::new(),
                },
                1,
            ),
            SRV_RENEW_BATCH,
        ),
    ]
}

/// A [`Service`] that forwards to `inner` and records one span per call.
pub struct Tap {
    inner: Arc<dyn Service>,
    tracer: Arc<Tracer>,
    /// Frame prefix → span name; empty for the database tap.
    names: Vec<(Vec<u8>, &'static str)>,
    fallback: &'static str,
}

impl Tap {
    /// Re-binds `addr` to a tap around `inner` (which must be the service
    /// bound there, or an equivalent the caller owns).
    pub fn rebind(net: &Network, addr: &Addr, tap: Tap) {
        net.unbind(addr);
        net.bind_arc(addr.clone(), Arc::new(tap))
            .expect("address was just unbound");
    }

    pub fn server(inner: Arc<dyn Service>, tracer: Arc<Tracer>) -> Self {
        Tap {
            inner,
            tracer,
            names: server_frame_names(),
            fallback: SRV_OTHER,
        }
    }

    pub fn database(inner: Arc<dyn Service>, tracer: Arc<Tracer>) -> Self {
        Tap {
            inner,
            tracer,
            names: Vec::new(),
            fallback: DB_CALL,
        }
    }
}

impl Service for Tap {
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let name = self
            .names
            .iter()
            .find(|(prefix, _)| request.starts_with(prefix))
            .map_or(self.fallback, |(_, n)| n);
        // Bytes clones share the buffer; only the first exchange per name
        // pays for them.
        let keep = (!self.tracer.has_exchange(name)).then(|| request.clone());
        let id = self.tracer.enter(name);
        let reply = self.inner.call(from, request);
        self.tracer.exit(id);
        if let (Some(request), Ok(reply)) = (keep, &reply) {
            self.tracer.state().exchanges.push((
                name,
                Exchange {
                    from: from.clone(),
                    request,
                    reply: reply.clone(),
                },
            ));
        }
        reply
    }

    fn accept_pipe(&self, from: &Addr, pipe: Pipe) -> Result<(), NetError> {
        self.inner.accept_pipe(from, pipe)
    }
}
