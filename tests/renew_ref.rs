//! Renewal by reference at its edges: a server from before the frame, a
//! server restart, a server briefly unreachable, a token presented by a
//! host that did not register it, two clients on one host, and a
//! reference table flushed at its cap. In each, every renewal still
//! completes, and the server grants what full requests would have drawn.

use std::sync::Arc;

use bytes::Bytes;

use drivolution::core::pack::pack_driver;
use drivolution::core::proto::{DrvErrCode, DrvMsg, DrvRequest, RequestKind};
use drivolution::netsim::{NetError, Service};
use drivolution::prelude::*;
use drivolution::server::MAX_RENEW_REFS;

const LEASE_MS: u64 = 60_000;

fn drv() -> Addr {
    Addr::new("drv", DRIVOLUTION_PORT)
}

fn url() -> DbUrl {
    "rdbc:minidb://db1:5432/orders"
        .parse()
        .expect("a valid url")
}

/// A server from before renewal by reference: it refuses the
/// `RENEW_REF` tag as an undecodable frame and answers the rest.
struct OldServer(Arc<DrivolutionServer>);

impl Service for OldServer {
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let tag = DrvMsg::RenewRef {
            current: DriverId(0),
            token: 0,
        }
        .encode()[0];
        if request.first() == Some(&tag) {
            return Err(NetError::Protocol(format!("unknown drv msg tag {tag}")));
        }
        self.0.call(from, request)
    }
}

/// Binds a fresh standalone server at [`drv`] (replacing whatever was
/// there: a restart) with driver 1 under a one-minute lease; `old` puts
/// it behind [`OldServer`].
fn launch(net: &Network, old: bool) -> Arc<DrivolutionServer> {
    net.unbind(&drv());
    let srv = launch_standalone(net, drv(), ServerConfig::default()).expect("binds");
    let image = DriverImage::new("minidb-rdbc", DriverVersion::new(1, 0, 0), 1);
    let binary = pack_driver(BinaryFormat::Djar, &image);
    srv.install_driver(&DriverRecord::new(
        DriverId(1),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        binary,
    ))
    .expect("installs");
    srv.add_rule(&PermissionRule::any(DriverId(1)).with_lease_ms(LEASE_MS as i64))
        .expect("adds");
    if old {
        net.unbind(&drv());
        net.bind_arc(drv(), Arc::new(OldServer(Arc::clone(&srv))))
            .expect("rebinds");
    }
    srv
}

struct Rig {
    net: Network,
    srv: Arc<DrivolutionServer>,
    clients: Vec<Arc<Bootloader>>,
}

/// A database, a server and `n` bootstrapped clients that renew only
/// when polled.
fn rig(n: usize, old: bool) -> Rig {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db)))
        .expect("binds");
    let srv = launch(&net, old);
    let props = ConnectProps::user("admin", "admin");
    let clients = (0..n)
        .map(|i| client(&net, &srv, Addr::new(format!("app{i:03}"), 1), &props))
        .collect();
    Rig { net, srv, clients }
}

/// A client at `local`, bootstrapped under `props`.
fn client(
    net: &Network,
    srv: &DrivolutionServer,
    local: Addr,
    props: &ConnectProps,
) -> Arc<Bootloader> {
    let config = BootloaderConfig::fixed(vec![drv()]).trusting(srv.certificate());
    let boot = Bootloader::new(net, local, config);
    drop(boot.connect(&url(), props).expect("bootstraps"));
    boot
}

impl Rig {
    /// Requests the server's address has received so far.
    fn requests(&self) -> u64 {
        self.net.stats().for_addr(&drv()).requests
    }

    /// Lets every lease run out and polls each client once: each renews.
    fn renew_all(&self) {
        self.net.clock().advance_ms(LEASE_MS);
        for c in &self.clients {
            assert_eq!(c.poll(), PollOutcome::Renewed, "{}", c.local_addr());
        }
    }

    fn failed_renewals(&self) -> u64 {
        self.clients.iter().map(|c| c.stats().failed_renewals).sum()
    }
}

/// What a server granted: renewals, seats held, lease rows (one per
/// binding).
fn granted(srv: &DrivolutionServer) -> (u64, usize, i64) {
    (
        srv.stats().renewals,
        srv.licenses().holders(DriverId(1)).len(),
        srv.store().lease_count().expect("counts"),
    )
}

#[test]
fn an_old_server_renews_every_client_for_one_extra_request_each() {
    const N: usize = 8;
    let rig = rig(N, true);
    let before = rig.requests();
    for _ in 0..3 {
        rig.renew_all();
    }
    // The first renewal of each client sends a reference, which the old
    // server refuses, then the full request; every later one goes in
    // full without asking again.
    assert_eq!(rig.requests() - before, 3 * N as u64 + N as u64);
    assert_eq!(rig.failed_renewals(), 0);
    assert_eq!(rig.srv.stats().renewals, 3 * N as u64);
}

/// Bootstraps `n` clients, renews once, restarts the server with a seat
/// per client, renews twice more; returns the restarted server, the
/// requests it received and the errors it answered.
fn restart_run(n: usize, old: bool) -> (Arc<DrivolutionServer>, u64, u64) {
    let mut rig = rig(n, old);
    rig.renew_all();
    rig.srv = launch(&rig.net, old);
    rig.srv.licenses().set_limit(DriverId(1), n);
    let before = rig.requests();
    rig.renew_all();
    rig.renew_all();
    assert_eq!(rig.failed_renewals(), 0);
    let (requests, errors) = (rig.requests() - before, rig.srv.stats().errors);
    (rig.srv, requests, errors)
}

#[test]
fn after_a_server_restart_each_client_resends_in_full_at_most_once() {
    const N: usize = 8;
    let (by_ref, requests, resends) = restart_run(N, false);
    // Two renewals per client, plus the reference the restarted server
    // no longer knew: one typed "resend in full" per client.
    assert_eq!(resends, N as u64);
    assert_eq!(requests, 2 * N as u64 + resends);
    // The same run with every renewal in full grants the same.
    let (in_full, _, _) = restart_run(N, true);
    assert_eq!(granted(&by_ref), granted(&in_full));
    // Two renewals each, one seat each, one lease row per client.
    assert_eq!(granted(&by_ref), (2 * N as u64, N, N as i64));
}

/// A server that did not answer is not one that refused the frame: a
/// renewal lost to an outage fails, and the next one, once the server
/// answers again, still goes by reference.
#[test]
fn after_an_outage_each_client_renews_by_reference_again() {
    const N: usize = 4;
    let rig = rig(N, false);
    let bytes_in = || rig.net.stats().for_addr(&drv()).bytes_in;
    let before = bytes_in();
    rig.renew_all();
    let by_reference = bytes_in() - before;

    rig.net.with_faults(|f| f.take_down(drv().host()));
    rig.net.clock().advance_ms(LEASE_MS);
    for c in &rig.clients {
        assert_eq!(
            c.poll(),
            PollOutcome::KeptAfterFailure,
            "{}",
            c.local_addr()
        );
    }
    assert_eq!(rig.failed_renewals(), N as u64);

    rig.net.with_faults(|f| f.restore(drv().host()));
    let (requests, before) = (rig.requests(), bytes_in());
    for c in &rig.clients {
        assert_eq!(c.poll(), PollOutcome::Renewed, "{}", c.local_addr());
    }
    // One reference per client, as before the outage.
    assert_eq!(rig.requests() - requests, N as u64);
    assert_eq!(bytes_in() - before, by_reference);
    assert_eq!(rig.srv.stats().renewals, 2 * N as u64);
}

/// A client's request carries its zone, so a client placed in a zone
/// after it bootstrapped no longer has the request its token names: its
/// next renewal goes in full, once, and the ones after by reference
/// again.
#[test]
fn a_client_placed_in_a_zone_renews_in_full_once() {
    const N: usize = 4;
    let rig = rig(N, false);
    let bytes_in = || rig.net.stats().for_addr(&drv()).bytes_in;
    let before = bytes_in();
    rig.renew_all();
    let by_reference = bytes_in() - before;

    rig.net.with_topology(|t| {
        for c in &rig.clients {
            t.place(c.local_addr().host(), "east");
        }
    });
    let before = bytes_in();
    rig.renew_all();
    let placed = bytes_in() - before;
    assert!(
        placed > by_reference,
        "{placed} B after placement, {by_reference} B by reference"
    );
    let before = bytes_in();
    rig.renew_all();
    assert_eq!(bytes_in() - before, by_reference);
    assert_eq!(rig.failed_renewals(), 0);
}

fn renewal(user: &str) -> DrvRequest {
    DrvRequest {
        kind: RequestKind::Renewal {
            current: DriverId(1),
        },
        ..DrvRequest::bootstrap("orders", user, "RDBC", "linux-x86_64")
    }
}

#[test]
fn a_token_is_honoured_only_for_the_host_that_registered_it() {
    let net = Network::new();
    let srv = launch(&net, false);
    srv.licenses().set_limit(DriverId(1), 4);
    let (a, b) = (Addr::new("app-a", 1), Addr::new("app-b", 1));
    let req = renewal("alice");
    let token = req.context_digest();
    let full = srv.handle(&a, DrvMsg::Request(req));
    assert!(matches!(full, DrvMsg::Offer(_)), "{full:?}");
    let by_ref = DrvMsg::RenewRef {
        current: DriverId(1),
        token,
    };
    let before = granted(&srv);

    let stolen = srv.handle(&b, by_ref.clone());
    assert!(
        matches!(
            stolen,
            DrvMsg::Error {
                code: DrvErrCode::ResendInFull,
                ..
            }
        ),
        "{stolen:?}"
    );
    assert_eq!(before.1, 1, "A holds its seat");
    assert_eq!(granted(&srv), before, "B took nothing");
    let holders = srv.licenses().holders(DriverId(1));
    assert!(
        holders.iter().all(|(_, host)| host != "app-b"),
        "{holders:?}"
    );

    // A's own reference renews A, and a wrong token draws a resend.
    let renewed = srv.handle(&a, by_ref);
    assert!(matches!(renewed, DrvMsg::Renewed(_)), "{renewed:?}");
    let wrong = srv.handle(
        &a,
        DrvMsg::RenewRef {
            current: DriverId(1),
            token: token ^ 1,
        },
    );
    assert!(
        matches!(
            wrong,
            DrvMsg::Error {
                code: DrvErrCode::ResendInFull,
                ..
            }
        ),
        "{wrong:?}"
    );
    assert_eq!(srv.stats().renewals, before.0 + 1);
}

/// Two bootloaders on one host, whose requests differ, each keep their
/// own reference: the server keeps one request per client address, not
/// per host, so neither evicts the other's.
#[test]
fn two_clients_on_one_host_each_renew_by_reference() {
    let mut rig = rig(0, false);
    let admin = ConnectProps::user("admin", "admin");
    let other = admin.clone().with_locale("fr_FR");
    rig.clients = vec![
        client(&rig.net, &rig.srv, Addr::new("app-host", 1), &admin),
        client(&rig.net, &rig.srv, Addr::new("app-host", 2), &other),
    ];
    let before = rig.requests();
    for _ in 0..3 {
        rig.renew_all();
    }
    // One request per renewal, and no resend asked.
    assert_eq!(rig.requests() - before, 6);
    assert_eq!(rig.srv.stats().errors, 0);
    assert_eq!(rig.failed_renewals(), 0);
    assert_eq!(rig.srv.stats().renewals, 6);
}

#[test]
fn past_the_cap_the_table_is_flushed_and_every_client_still_renews() {
    const N: usize = 4;
    let rig = rig(N, false);
    rig.renew_all();
    // Enough other hosts register a request to flush every client's.
    let req = renewal("filler");
    for i in 0..MAX_RENEW_REFS {
        let host = Addr::new(format!("filler{i:05}"), 1);
        let reply = rig.srv.handle(&host, DrvMsg::Request(req.clone()));
        assert!(matches!(reply, DrvMsg::Offer(_)), "{reply:?}");
    }
    let before = rig.requests();
    rig.renew_all();
    // Each reference drew a resend, and the resend renewed.
    assert_eq!(rig.requests() - before, 2 * N as u64);
    let before = rig.requests();
    rig.renew_all();
    assert_eq!(rig.requests() - before, N as u64, "by reference again");
    assert_eq!(rig.failed_renewals(), 0);
}
