//! The simulated network: service registry, request/response delivery,
//! broadcast, dedicated pipes, and fault application.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::NetError;
use crate::fault::FaultPlan;
use crate::pipe::Pipe;
use crate::sched::Scheduler;
use crate::stats::{FailureKind, NetStats};
use crate::topology::Topology;
use crate::{Addr, Clock};

/// The typed-ledger classification of one path or service error.
fn failure_kind(e: &NetError) -> FailureKind {
    match e {
        NetError::Timeout(_) => FailureKind::Dropped,
        NetError::Partitioned(_) => FailureKind::Partitioned,
        NetError::Unreachable(_) => FailureKind::Unreachable,
        _ => FailureKind::Refused,
    }
}

/// A network service bound at an [`Addr`].
///
/// Services handle synchronous request/response exchanges and may
/// optionally accept dedicated [`Pipe`]s (long-lived duplex channels used
/// for push notifications and failure detection).
pub trait Service: Send + Sync {
    /// Handles one request and produces one response.
    ///
    /// # Errors
    ///
    /// Implementations report application-level refusals via
    /// [`NetError::Refused`] or [`NetError::Protocol`].
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError>;

    /// Accepts a dedicated pipe from `from`. The default implementation
    /// refuses pipes.
    ///
    /// # Errors
    ///
    /// [`NetError::PipesUnsupported`] unless overridden.
    fn accept_pipe(&self, from: &Addr, pipe: Pipe) -> Result<(), NetError> {
        drop(pipe);
        Err(NetError::PipesUnsupported(from.to_string()))
    }
}

/// A [`Service`] built from a plain function or closure.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use netsim::{Addr, FnService, Network};
///
/// let net = Network::new();
/// net.bind(
///     Addr::new("echo", 7),
///     FnService::new(|_from, req| Ok(req)),
/// )?;
/// let reply = net.request(
///     &Addr::new("client", 1),
///     &Addr::new("echo", 7),
///     Bytes::from_static(b"hello"),
/// )?;
/// assert_eq!(reply, Bytes::from_static(b"hello"));
/// # Ok::<(), netsim::NetError>(())
/// ```
pub struct FnService<F> {
    f: F,
}

impl<F> fmt::Debug for FnService<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnService").finish_non_exhaustive()
    }
}

impl<F> FnService<F>
where
    F: Fn(&Addr, Bytes) -> Result<Bytes, NetError> + Send + Sync,
{
    /// Wraps a closure as a [`Service`].
    pub fn new(f: F) -> Self {
        FnService { f }
    }
}

impl<F> Service for FnService<F>
where
    F: Fn(&Addr, Bytes) -> Result<Bytes, NetError> + Send + Sync,
{
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        (self.f)(from, request)
    }
}

/// What a message's path consults (faults, topology, RNG), behind one lock.
struct Path {
    faults: FaultPlan,
    topology: Topology,
    rng: StdRng,
}

struct NetworkInner {
    services: RwLock<BTreeMap<Addr, Arc<dyn Service>>>,
    path: Mutex<Path>,
    stats: NetStats,
    clock: Clock,
    sched: Scheduler,
}

/// Handle to the in-process simulated network.
///
/// Cloning is cheap; all clones share the same service registry, fault
/// plan, statistics, and clock.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.inner.services.read().len();
        f.debug_struct("Network").field("services", &n).finish()
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// Creates an empty network with a fresh simulated [`Clock`].
    pub fn new() -> Self {
        Network::with_clock(Clock::simulated())
    }

    /// Creates an empty network sharing the given clock.
    pub fn with_clock(clock: Clock) -> Self {
        Network {
            inner: Arc::new(NetworkInner {
                services: RwLock::new(BTreeMap::new()),
                path: Mutex::new(Path {
                    faults: FaultPlan::new(),
                    topology: Topology::new(),
                    rng: StdRng::seed_from_u64(0x5eed),
                }),
                stats: NetStats::new(),
                sched: Scheduler::new(clock.clone()),
                clock,
            }),
        }
    }

    /// The clock shared by every component on this network.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// The lifecycle task scheduler on this network's clock. Components
    /// (mirrors, bootloaders) register their periodic work here; a
    /// single [`Network::run_until`] pump drives it.
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.sched
    }

    /// Pumps the scheduler up to virtual time `target_ms`: registered
    /// tasks fire in deterministic `(due, registration)` order,
    /// interleaved with the link latency their message exchanges charge
    /// to the shared clock, and the clock ends at `target_ms` (or later
    /// if the final task overshot it). Returns the number of task
    /// executions. See [`Scheduler::run_until`].
    pub fn run_until(&self, target_ms: u64) -> u64 {
        self.inner.sched.run_until(target_ms)
    }

    /// Traffic statistics for this network.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Runs `f` against the mutable fault plan.
    pub fn with_faults<R>(&self, f: impl FnOnce(&mut FaultPlan) -> R) -> R {
        f(&mut self.inner.path.lock().faults)
    }

    /// Runs `f` against the mutable zone/latency topology.
    pub fn with_topology<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        f(&mut self.inner.path.lock().topology)
    }

    /// The zone `host` is placed in, if any.
    pub fn zone_of(&self, host: &str) -> Option<String> {
        let path = self.inner.path.lock();
        path.topology.zone_of(host).map(str::to_string)
    }

    /// Reseeds the RNG used for probabilistic message loss, for
    /// reproducible lossy-network tests.
    pub fn reseed(&self, seed: u64) {
        self.inner.path.lock().rng = StdRng::seed_from_u64(seed);
    }

    /// Binds a service at `addr`.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] when another service already holds `addr`.
    pub fn bind(&self, addr: Addr, service: impl Service + 'static) -> Result<(), NetError> {
        self.bind_arc(addr, Arc::new(service))
    }

    /// Binds an already-shared service at `addr`.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] when another service already holds `addr`.
    pub fn bind_arc(&self, addr: Addr, service: Arc<dyn Service>) -> Result<(), NetError> {
        let mut services = self.inner.services.write();
        if services.contains_key(&addr) {
            return Err(NetError::AddrInUse(addr.to_string()));
        }
        services.insert(addr, service);
        Ok(())
    }

    /// Removes the binding at `addr`, returning whether one existed.
    pub fn unbind(&self, addr: &Addr) -> bool {
        self.inner.services.write().remove(addr).is_some()
    }

    /// Lists every bound address, sorted.
    pub fn bound_addrs(&self) -> Vec<Addr> {
        self.inner.services.read().keys().cloned().collect()
    }

    /// Decides the leg `from → to` under one lock: an open path yields its
    /// one-way latency (topology × storm) and whether the plan was calm.
    /// A calm plan skips every lookup; it never drew (each draw needs p > 0).
    fn check_path(&self, from: &Addr, to: &Addr) -> Result<(u64, bool), NetError> {
        let path = &mut *self.inner.path.lock();
        let (faults, topology, rng) = (&path.faults, &path.topology, &mut path.rng);
        let latency = topology.latency_ms(from.host(), to.host()) * faults.latency_factor();
        if faults.is_calm() {
            return Ok((latency, true));
        }
        if faults.is_down(to.host()) {
            return Err(NetError::Unreachable(format!("{to} (host down)")));
        }
        if faults.is_down(from.host()) {
            return Err(NetError::Unreachable(format!("{from} (host down)")));
        }
        if faults.is_partitioned(from.host(), to.host()) {
            return Err(NetError::Partitioned(format!(
                "{} <-> {}",
                from.host(),
                to.host()
            )));
        }
        // Zone-level partitions: blocked only when both endpoints are
        // placed and their zones are separated.
        if let (Some(za), Some(zb)) = (topology.zone_of(from.host()), topology.zone_of(to.host())) {
            if faults.zones_partitioned(za, zb) {
                return Err(NetError::Partitioned(format!("zone {za} <-> zone {zb}")));
            }
        }
        let p = faults.drop_prob();
        if p > 0.0 && rng.gen_bool(p) {
            return Err(NetError::Timeout(format!("message to {to} lost")));
        }
        // Directional per-link loss: drawn after the global probability
        // so a flapping link composes with background loss.
        let p = faults.link_loss(from.host(), to.host());
        if p > 0.0 && rng.gen_bool(p) {
            return Err(NetError::Timeout(format!(
                "message on link {} -> {} lost",
                from.host(),
                to.host()
            )));
        }
        Ok((latency, false))
    }

    /// Applies byzantine corruption to a response served by `to`: with
    /// the fault plan's per-host probability, one payload byte is
    /// flipped. Digest- and checksum-verifying clients detect the
    /// damage; the ledger records the corrupted serve against the
    /// byzantine address either way. Drawn after the service's call,
    /// which may itself have drawn for nested requests; a `calm` leg
    /// neither draws nor locks.
    fn maybe_corrupt(&self, to: &Addr, resp: Bytes, calm: bool) -> Bytes {
        if calm || resp.is_empty() {
            return resp;
        }
        let path = &mut *self.inner.path.lock();
        let p = path.faults.corrupt_prob(to.host());
        if p == 0.0 || !path.rng.gen_bool(p) {
            return resp;
        }
        self.inner.stats.record_failure(to, FailureKind::Corrupted);
        let mut bytes = resp.to_vec();
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x5a;
        }
        Bytes::from(bytes)
    }

    /// Sends `request` from `from` to the service bound at `to` and returns
    /// its response.
    ///
    /// # Errors
    ///
    /// * [`NetError::Unreachable`] — nothing bound at `to`, or a host is down.
    /// * [`NetError::Partitioned`] — the hosts are separated.
    /// * [`NetError::Timeout`] — the message was lost (fault injection).
    /// * Any error returned by the service itself.
    pub fn request(&self, from: &Addr, to: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let (latency, calm) = match self.check_path(from, to) {
            Ok(leg) => leg,
            Err(e) => {
                self.inner.stats.record_failure(to, failure_kind(&e));
                return Err(e);
            }
        };
        let service = self.inner.services.read().get(to).cloned();
        let Some(service) = service else {
            self.inner
                .stats
                .record_failure(to, FailureKind::Unreachable);
            return Err(NetError::Unreachable(to.to_string()));
        };
        // Charge the one-way link latency on each leg against the shared
        // clock (multiplied during a latency storm), so locality is
        // observable wherever time is.
        if latency > 0 {
            self.inner.clock.advance_ms(latency);
        }
        self.inner.stats.record_request(to, request.len());
        let result = service.call(from, request);
        if latency > 0 {
            self.inner.clock.advance_ms(latency);
        }
        match result {
            Ok(resp) => {
                self.inner.stats.record_response(to, resp.len());
                Ok(self.maybe_corrupt(to, resp, calm))
            }
            Err(e) => {
                self.inner.stats.record_failure(to, failure_kind(&e));
                Err(e)
            }
        }
    }

    /// Broadcasts `request` to every service bound on `port`, as the
    /// DHCP-like `DRIVOLUTION_DISCOVER` does (§3.1). Unreachable or
    /// partitioned targets are silently skipped; answering services are
    /// returned with their responses, sorted by address.
    pub fn broadcast(&self, from: &Addr, port: u16, request: Bytes) -> Vec<(Addr, Bytes)> {
        let targets: Vec<Addr> = {
            let services = self.inner.services.read();
            services
                .keys()
                .filter(|a| a.port() == port)
                .cloned()
                .collect()
        };
        let mut replies = Vec::new();
        for to in targets {
            if to.host() == from.host() && to.port() == from.port() {
                continue;
            }
            if let Ok(resp) = self.request(from, &to, request.clone()) {
                replies.push((to, resp));
            }
        }
        replies.sort_by(|a, b| a.0.cmp(&b.0));
        replies
    }

    /// Opens a dedicated duplex [`Pipe`] to the service at `to`.
    ///
    /// # Errors
    ///
    /// Path errors as for [`Network::request`], plus
    /// [`NetError::PipesUnsupported`] when the service refuses pipes.
    pub fn connect_pipe(&self, from: &Addr, to: &Addr) -> Result<Pipe, NetError> {
        let (latency, _) = self.check_path(from, to)?;
        let service = self.inner.services.read().get(to).cloned();
        let Some(service) = service else {
            return Err(NetError::Unreachable(to.to_string()));
        };
        if latency > 0 {
            self.inner.clock.advance_ms(latency);
        }
        let (client_end, server_end) = Pipe::pair(from.clone(), to.clone());
        service.accept_pipe(from, server_end)?;
        Ok(client_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo() -> impl Service {
        FnService::new(|_from, req| Ok(req))
    }

    fn client() -> Addr {
        Addr::new("client", 9)
    }

    #[test]
    fn request_reaches_bound_service() {
        let net = Network::new();
        net.bind(Addr::new("srv", 1), echo()).unwrap();
        let r = net
            .request(&client(), &Addr::new("srv", 1), Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(r, Bytes::from_static(b"x"));
        assert_eq!(net.stats().for_addr(&Addr::new("srv", 1)).requests, 1);
    }

    #[test]
    fn unbound_addr_is_unreachable() {
        let net = Network::new();
        let e = net
            .request(&client(), &Addr::new("nope", 1), Bytes::new())
            .unwrap_err();
        assert!(matches!(e, NetError::Unreachable(_)));
        assert_eq!(net.stats().for_addr(&Addr::new("nope", 1)).failures, 1);
    }

    #[test]
    fn double_bind_is_rejected() {
        let net = Network::new();
        net.bind(Addr::new("srv", 1), echo()).unwrap();
        let e = net.bind(Addr::new("srv", 1), echo()).unwrap_err();
        assert!(matches!(e, NetError::AddrInUse(_)));
    }

    #[test]
    fn unbind_releases_the_addr() {
        let net = Network::new();
        net.bind(Addr::new("srv", 1), echo()).unwrap();
        assert!(net.unbind(&Addr::new("srv", 1)));
        assert!(!net.unbind(&Addr::new("srv", 1)));
        net.bind(Addr::new("srv", 1), echo()).unwrap();
    }

    #[test]
    fn partition_blocks_both_directions() {
        let net = Network::new();
        net.bind(Addr::new("a", 1), echo()).unwrap();
        net.bind(Addr::new("b", 1), echo()).unwrap();
        net.with_faults(|f| f.partition("a", "b"));
        let e = net
            .request(&Addr::new("a", 2), &Addr::new("b", 1), Bytes::new())
            .unwrap_err();
        assert!(matches!(e, NetError::Partitioned(_)));
        let e = net
            .request(&Addr::new("b", 2), &Addr::new("a", 1), Bytes::new())
            .unwrap_err();
        assert!(matches!(e, NetError::Partitioned(_)));
        net.with_faults(|f| f.heal("a", "b"));
        assert!(net
            .request(&Addr::new("a", 2), &Addr::new("b", 1), Bytes::new())
            .is_ok());
    }

    #[test]
    fn down_host_refuses_all_services() {
        let net = Network::new();
        net.bind(Addr::new("db", 1), echo()).unwrap();
        net.bind(Addr::new("db", 2), echo()).unwrap();
        net.with_faults(|f| f.take_down("db"));
        assert!(net
            .request(&client(), &Addr::new("db", 1), Bytes::new())
            .is_err());
        assert!(net
            .request(&client(), &Addr::new("db", 2), Bytes::new())
            .is_err());
        net.with_faults(|f| f.restore("db"));
        assert!(net
            .request(&client(), &Addr::new("db", 1), Bytes::new())
            .is_ok());
    }

    #[test]
    fn lossy_network_drops_some_messages() {
        let net = Network::new();
        net.reseed(42);
        net.bind(Addr::new("srv", 1), echo()).unwrap();
        net.with_faults(|f| f.set_drop_prob(0.5));
        let mut lost = 0;
        for _ in 0..100 {
            if net
                .request(&client(), &Addr::new("srv", 1), Bytes::new())
                .is_err()
            {
                lost += 1;
            }
        }
        assert!(lost > 20 && lost < 80, "lost={lost}");
    }

    #[test]
    fn broadcast_collects_all_replies_on_port() {
        let net = Network::new();
        net.bind(
            Addr::new("s1", 70),
            FnService::new(|_f, _r| Ok(Bytes::from_static(b"one"))),
        )
        .unwrap();
        net.bind(
            Addr::new("s2", 70),
            FnService::new(|_f, _r| Ok(Bytes::from_static(b"two"))),
        )
        .unwrap();
        net.bind(Addr::new("other", 71), echo()).unwrap();
        let replies = net.broadcast(&client(), 70, Bytes::new());
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].0, Addr::new("s1", 70));
        assert_eq!(replies[1].0, Addr::new("s2", 70));
    }

    #[test]
    fn broadcast_skips_partitioned_servers() {
        let net = Network::new();
        net.bind(Addr::new("s1", 70), echo()).unwrap();
        net.bind(Addr::new("s2", 70), echo()).unwrap();
        net.with_faults(|f| f.partition("client", "s1"));
        let replies = net.broadcast(&client(), 70, Bytes::new());
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, Addr::new("s2", 70));
    }

    #[test]
    fn pipes_require_service_support() {
        let net = Network::new();
        net.bind(Addr::new("srv", 1), echo()).unwrap();
        let e = net
            .connect_pipe(&client(), &Addr::new("srv", 1))
            .unwrap_err();
        assert!(matches!(e, NetError::PipesUnsupported(_)));
    }

    #[test]
    fn pipe_roundtrip_through_accepting_service() {
        use parking_lot::Mutex;

        struct PipeKeeper {
            pipes: Mutex<Vec<Pipe>>,
        }
        impl Service for PipeKeeper {
            fn call(&self, _from: &Addr, _req: Bytes) -> Result<Bytes, NetError> {
                // Push a greeting down every held pipe.
                for p in self.pipes.lock().iter() {
                    let _ = p.send(Bytes::from_static(b"hi"));
                }
                Ok(Bytes::new())
            }
            fn accept_pipe(&self, _from: &Addr, pipe: Pipe) -> Result<(), NetError> {
                self.pipes.lock().push(pipe);
                Ok(())
            }
        }

        let net = Network::new();
        net.bind(
            Addr::new("srv", 1),
            PipeKeeper {
                pipes: Mutex::new(Vec::new()),
            },
        )
        .unwrap();
        let pipe = net.connect_pipe(&client(), &Addr::new("srv", 1)).unwrap();
        net.request(&client(), &Addr::new("srv", 1), Bytes::new())
            .unwrap();
        assert_eq!(pipe.try_recv().unwrap().unwrap(), Bytes::from_static(b"hi"));
    }

    #[test]
    fn zoned_links_charge_the_clock_per_leg() {
        let net = Network::new();
        net.bind(Addr::new("srv", 1), echo()).unwrap();
        net.with_topology(|t| {
            t.set_default_latency(1, 25);
            t.place("client", "east");
            t.place("srv", "west");
        });
        assert_eq!(net.zone_of("srv").as_deref(), Some("west"));
        assert_eq!(net.with_topology(|t| t.latency_ms("client", "srv")), 25);
        let t0 = net.clock().now_ms();
        net.request(&client(), &Addr::new("srv", 1), Bytes::new())
            .unwrap();
        // Request leg + response leg.
        assert_eq!(net.clock().now_ms() - t0, 50);

        // Unplaced peers stay free.
        net.bind(Addr::new("other", 1), echo()).unwrap();
        let t1 = net.clock().now_ms();
        net.request(
            &Addr::new("someone", 2),
            &Addr::new("other", 1),
            Bytes::new(),
        )
        .unwrap();
        assert_eq!(net.clock().now_ms(), t1);
    }

    /// Runs 200 requests through six fault stretches on a seeded network
    /// and renders each as `<kind><last reply byte>+<clock advance>`, ten
    /// to a line. `mirror` answers by fetching from `srv` over a link
    /// that is lossy in the third stretch, where `mirror`'s own serves
    /// are also corrupted: its corrupt draw must follow the nested
    /// request's loss draw.
    fn seeded_fault_schedule() -> Vec<String> {
        let net = Network::new();
        net.reseed(2024);
        net.bind(Addr::new("srv", 1), echo()).unwrap();
        let inner = net.clone();
        net.bind(
            Addr::new("mirror", 1),
            FnService::new(move |_from, req| {
                inner
                    .request(&Addr::new("mirror", 2), &Addr::new("srv", 1), req)
                    .map_err(|e| NetError::Refused(format!("upstream: {e}")))
            }),
        )
        .unwrap();
        net.with_topology(|t| {
            t.set_default_latency(1, 20);
            t.place("client", "east");
            t.place("mirror", "east");
            t.place("srv", "west");
        });
        let mut out = Vec::new();
        let mut line = Vec::new();
        for i in 0..200u32 {
            match i {
                0 => net.with_faults(|f| f.set_drop_prob(0.3)),
                40 => net.with_faults(|f| *f = FaultPlan::new()),
                70 => net.with_faults(|f| {
                    f.set_link_loss("mirror", "srv", 0.5);
                    f.corrupt_serves("mirror", 0.5);
                }),
                110 => net.with_faults(|f| {
                    *f = FaultPlan::new();
                    f.partition("client", "srv");
                }),
                125 => net.with_faults(FaultPlan::heal_all),
                140 => net.with_faults(|f| f.set_latency_factor(4)),
                170 => net.with_faults(|f| *f = FaultPlan::new()),
                _ => {}
            }
            let to = if i % 2 == 0 { "srv" } else { "mirror" };
            let t0 = net.clock().now_ms();
            let r = net.request(&client(), &Addr::new(to, 1), Bytes::from(vec![i as u8]));
            let (kind, byte) = match r {
                Ok(b) => ('o', b.last().copied().unwrap_or(0)),
                Err(NetError::Timeout(_)) => ('t', 0),
                Err(NetError::Partitioned(_)) => ('p', 0),
                Err(NetError::Unreachable(_)) => ('u', 0),
                Err(_) => ('r', 0),
            };
            line.push(format!("{kind}{byte:02x}+{}", net.clock().now_ms() - t0));
            if line.len() == 10 {
                out.push(line.join(" "));
                line.clear();
            }
        }
        net.unbind(&Addr::new("mirror", 1));
        out
    }

    /// Recorded before a calm network learned to skip its fault lookups.
    /// A calm stretch that drew would shift every later `t`/corrupted
    /// entry; a corrupt draw taken before `mirror`'s nested request would
    /// swap the two draws of each third-stretch `mirror` exchange.
    const GOLDEN: &str = "\
t00+0 t00+0 t00+0 o03+42 t00+0 r00+2 o06+40 o07+42 o08+40 r00+2
o0a+40 o0b+42 o0c+40 o0d+42 o0e+40 t00+0 o10+40 o11+42 o12+40 r00+2
t00+0 r00+2 o16+40 t00+0 t00+0 o19+42 o1a+40 o1b+42 o1c+40 r00+2
o1e+40 o1f+42 o20+40 t00+0 o22+40 r00+2 t00+0 r00+2 o26+40 t00+0
o28+40 o29+42 o2a+40 o2b+42 o2c+40 o2d+42 o2e+40 o2f+42 o30+40 o31+42
o32+40 o33+42 o34+40 o35+42 o36+40 o37+42 o38+40 o39+42 o3a+40 o3b+42
o3c+40 o3d+42 o3e+40 o3f+42 o40+40 o41+42 o42+40 o43+42 o44+40 o45+42
o46+40 o1d+42 o48+40 o49+42 o4a+40 o11+42 o4c+40 r00+2 o4e+40 o15+42
o50+40 r00+2 o52+40 o09+42 o54+40 o55+42 o56+40 r00+2 o58+40 r00+2
o5a+40 r00+2 o5c+40 o5d+42 o5e+40 r00+2 o60+40 o3b+42 o62+40 r00+2
o64+40 o65+42 o66+40 r00+2 o68+40 r00+2 o6a+40 o6b+42 o6c+40 o6d+42
p00+0 o6f+42 p00+0 o71+42 p00+0 o73+42 p00+0 o75+42 p00+0 o77+42
p00+0 o79+42 p00+0 o7b+42 p00+0 o7d+42 o7e+40 o7f+42 o80+40 o81+42
o82+40 o83+42 o84+40 o85+42 o86+40 o87+42 o88+40 o89+42 o8a+40 o8b+42
o8c+160 o8d+168 o8e+160 o8f+168 o90+160 o91+168 o92+160 o93+168 o94+160 o95+168
o96+160 o97+168 o98+160 o99+168 o9a+160 o9b+168 o9c+160 o9d+168 o9e+160 o9f+168
oa0+160 oa1+168 oa2+160 oa3+168 oa4+160 oa5+168 oa6+160 oa7+168 oa8+160 oa9+168
oaa+40 oab+42 oac+40 oad+42 oae+40 oaf+42 ob0+40 ob1+42 ob2+40 ob3+42
ob4+40 ob5+42 ob6+40 ob7+42 ob8+40 ob9+42 oba+40 obb+42 obc+40 obd+42
obe+40 obf+42 oc0+40 oc1+42 oc2+40 oc3+42 oc4+40 oc5+42 oc6+40 oc7+42";

    #[test]
    fn a_seeded_fault_schedule_replays_draw_for_draw() {
        let got = seeded_fault_schedule();
        let want: Vec<&str> = GOLDEN.lines().collect();
        assert_eq!(got.len(), want.len());
        for (n, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "requests {}..{}", n * 10, n * 10 + 10);
        }
    }

    #[test]
    fn clock_is_shared() {
        let net = Network::new();
        let c1 = net.clock().clone();
        net.clock().advance_ms(10);
        assert_eq!(c1.now_ms(), 10);
    }
}
