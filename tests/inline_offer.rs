//! A request sent as `FETCH` (tag 21) is answered, whenever its offer
//! would send the client back for the whole file, with `OFFER_FILE`
//! (tag 22): the offer and the file in one round trip. Everything else
//! stays as it was: a request under tag 0 still gets a staged file, a
//! revalidation or a delta is still a plain `OFFER`, a server from before
//! the frame costs one refused request per client, the inline file is
//! checked like a downloaded one before it may enter the depot, and a
//! dead candidate still fails over.

use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;

use drivolution::core::pack::pack_driver_padded;
use drivolution::core::proto::{DrvMsg, DrvOffer, DrvRequest, HaveSummary};
use drivolution::core::{fnv1a64, transfer, ChannelTrust, SigningKey, TrustStore};
use drivolution::netsim::{NetError, Service};
use drivolution::prelude::*;

const LEASE_MS: u64 = 60_000;
const PADDING: usize = 64 * 1024;

/// Tags as `DESIGN.md` §2 lists them.
const REQUEST: u8 = 0;
const FILE_REQUEST: u8 = 4;
const RENEW_REF: u8 = 18;
const FETCH: u8 = 21;

fn drv() -> Addr {
    Addr::new("drv", DRIVOLUTION_PORT)
}

fn url() -> DbUrl {
    "rdbc:minidb://db1:5432/orders"
        .parse()
        .expect("a valid url")
}

fn props() -> ConnectProps {
    ConnectProps::user("admin", "admin")
}

/// Driver `id` at `version`, padded so two versions share most chunks.
fn record(id: i64, version: DriverVersion) -> DriverRecord {
    let image = DriverImage::new("inline-driver", version, 1);
    let binary = pack_driver_padded(BinaryFormat::Djar, &image, PADDING);
    DriverRecord::new(DriverId(id), ApiName::rdbc(), BinaryFormat::Djar, binary)
        .with_version(version)
}

/// Rewrites the server's answers on their way back.
type Tamper = fn(DrvMsg) -> DrvMsg;

/// The server's front at [`drv`]: records the tag of every frame it is
/// sent, refuses `FETCH` as undecodable when `old` (as a server from
/// before the frame does), and passes each answer through `tamper`.
struct Front {
    srv: Arc<DrivolutionServer>,
    old: bool,
    tamper: Option<Tamper>,
    tags: Mutex<Vec<u8>>,
}

impl Service for Front {
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let tag = request.first().copied().unwrap_or(u8::MAX);
        lock(&self.tags).push(tag);
        if self.old && tag == FETCH {
            return Err(NetError::Protocol(format!("unknown drv msg tag {tag}")));
        }
        let reply = self.srv.call(from, request)?;
        Ok(match self.tamper {
            Some(tamper) => {
                tamper(DrvMsg::decode(reply).expect("the server answers frames")).encode()
            }
            None => reply,
        })
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no test thread panicked holding it")
}

struct Rig {
    net: Network,
    srv: Arc<DrivolutionServer>,
    front: Arc<Front>,
}

/// A database, a standalone server under `config` serving driver 1
/// under a one-minute lease, and its [`Front`].
fn rig(config: ServerConfig, old: bool, tamper: Option<Tamper>) -> Rig {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db)))
        .expect("binds");
    let behind = Addr::new("behind", DRIVOLUTION_PORT);
    let srv = launch_standalone(&net, behind, config).expect("binds");
    srv.install_driver(&record(1, DriverVersion::new(1, 0, 0)))
        .expect("installs");
    srv.add_rule(&PermissionRule::any(DriverId(1)).with_lease_ms(LEASE_MS as i64))
        .expect("adds");
    let front = Arc::new(Front {
        srv: Arc::clone(&srv),
        old,
        tamper,
        tags: Mutex::new(Vec::new()),
    });
    net.bind_arc(drv(), front.clone()).expect("binds");
    Rig { net, srv, front }
}

impl Rig {
    /// A client at `host` asking `servers` in turn, with its own depot.
    fn client_of(&self, host: &str, servers: Vec<Addr>) -> (Arc<Bootloader>, Arc<DriverDepot>) {
        let depot = DriverDepot::in_memory();
        let config = BootloaderConfig::fixed(servers)
            .trusting(self.srv.certificate())
            .with_depot(depot.clone());
        (
            Bootloader::new(&self.net, Addr::new(host, 1), config),
            depot,
        )
    }

    fn client(&self, host: &str) -> (Arc<Bootloader>, Arc<DriverDepot>) {
        self.client_of(host, vec![drv()])
    }

    /// The tags the front was sent since the last call, in order.
    fn take_tags(&self) -> Vec<u8> {
        std::mem::take(&mut *lock(&self.front.tags))
    }

    /// Sends `msg` to the server from `host`, as a client from before
    /// `FETCH` would.
    fn call(&self, host: &str, msg: DrvMsg) -> DrvMsg {
        let reply = self.net.request(&Addr::new(host, 1), &drv(), msg.encode());
        DrvMsg::decode(reply.expect("the server answers")).expect("a valid frame")
    }
}

#[test]
fn a_fetch_is_answered_with_the_file_in_one_round_trip() {
    const N: usize = 4;
    let rig = rig(ServerConfig::default(), false, None);
    let binary = record(1, DriverVersion::new(1, 0, 0)).binary;
    let clients: Vec<_> = (0..N).map(|i| rig.client(&format!("app{i}"))).collect();
    for (boot, depot) in &clients {
        drop(boot.connect(&url(), &props()).expect("bootstraps"));
        assert_eq!(rig.take_tags(), [FETCH], "one request per bootstrap");
        assert_eq!(boot.stats().downloads, 1);
        assert_eq!(depot.image_count(), 1);
    }
    let stats = rig.srv.stats();
    assert_eq!(stats.files, N as u64);
    assert_eq!(stats.file_bytes, (N * binary.len()) as u64);
    // Nothing was staged: the first stage a `REQUEST` would have made
    // is unknown.
    let staged = rig.call(
        "legacy",
        DrvMsg::FileRequest {
            location: "stage/0".into(),
            transfer_method: TransferMethod::Sealed,
        },
    );
    assert!(
        matches!(&staged, DrvMsg::Error { message, .. } if message.contains("unknown location")),
        "{staged:?}"
    );
}

#[test]
fn an_old_server_costs_each_client_one_refused_fetch_once() {
    const N: usize = 4;
    for old in [true, false] {
        let rig = rig(ServerConfig::default(), old, None);
        let clients: Vec<_> = (0..N).map(|i| rig.client(&format!("app{i}"))).collect();
        for (boot, _) in &clients {
            drop(boot.connect(&url(), &props()).expect("bootstraps"));
        }
        let bootstraps = rig.take_tags();
        // The first renewal asks in full (the depot's `HAVE` changed
        // since the bootstrap), the second by reference.
        for _ in 0..2 {
            rig.net.clock().advance_ms(LEASE_MS);
            for (boot, _) in &clients {
                assert_eq!(boot.poll(), PollOutcome::Renewed);
            }
        }
        let renewals = rig.take_tags();
        if old {
            // Refused, asked again as a `REQUEST`, the staged file
            // fetched; from then on every full request is a `REQUEST`.
            assert_eq!(bootstraps, [FETCH, REQUEST, FILE_REQUEST].repeat(N));
            assert_eq!(renewals, [[REQUEST; N], [RENEW_REF; N]].concat());
        } else {
            assert_eq!(bootstraps, [FETCH; N]);
            assert_eq!(renewals, [[FETCH; N], [RENEW_REF; N]].concat());
        }
        let failed: u64 = clients.iter().map(|(c, _)| c.stats().failed_renewals).sum();
        assert_eq!(failed, 0);
        assert_eq!(rig.srv.stats().renewals, 2 * N as u64);
    }
}

#[test]
fn a_request_under_tag_0_still_gets_a_staged_file() {
    let rig = rig(ServerConfig::default(), false, None);
    let req = DrvRequest::bootstrap("orders", "admin", "RDBC", "linux-x86_64");
    let DrvMsg::Offer(offer) = rig.call("legacy", DrvMsg::Request(req)) else {
        panic!("a REQUEST is answered with an OFFER");
    };
    assert!(offer.location.starts_with("stage/"), "{offer:?}");
    let reply = rig.call(
        "legacy",
        DrvMsg::FileRequest {
            location: offer.location.clone(),
            transfer_method: offer.transfer_method,
        },
    );
    let DrvMsg::FileData { payload } = reply else {
        panic!("the staged file is served: {reply:?}");
    };
    let mut trust = ChannelTrust::new();
    trust.pin(rig.srv.certificate());
    let file = transfer::unwrap(offer.transfer_method, payload, &trust).expect("unwraps");
    assert_eq!(file, record(1, DriverVersion::new(1, 0, 0)).binary);
    assert_eq!(rig.srv.stats().files, 1);
}

#[test]
fn a_fetch_answered_by_a_revalidation_or_a_delta_is_a_plain_offer() {
    let rig = rig(ServerConfig::default(), false, None);
    let v1 = record(1, DriverVersion::new(1, 0, 0));
    let v2 = record(2, DriverVersion::new(2, 0, 0));
    rig.srv.install_driver(&v2).expect("installs");
    rig.srv
        .add_rule(&PermissionRule::any(DriverId(2)))
        .expect("adds");
    rig.srv.expire_driver(DriverId(1)).expect("expires");
    let fetch = |host: &str, have: Option<HaveSummary>| {
        let req = DrvRequest {
            have,
            ..DrvRequest::bootstrap("orders", "admin", "RDBC", "linux-x86_64")
        };
        rig.call(host, DrvMsg::Fetch(req))
    };
    let holding = |image: &DriverRecord, base: Option<u64>| HaveSummary {
        images: vec![fnv1a64(&image.binary)],
        params: rig.srv.depot_chunking(),
        base,
    };

    // The depot holds v2: a revalidation, nothing to send.
    let reply = fetch("app1", Some(holding(&v2, None)));
    let DrvMsg::Offer(offer) = reply else {
        panic!("a revalidation is a plain OFFER: {reply:?}");
    };
    assert_eq!((offer.location.as_str(), offer.chunked), ("", None));
    assert_eq!(offer.content_digest, Some(fnv1a64(&v2.binary)));

    // The depot holds v1 as its base: a chunk plan, the chunks to follow.
    let reply = fetch("app2", Some(holding(&v1, Some(fnv1a64(&v1.binary)))));
    let DrvMsg::Offer(offer) = reply else {
        panic!("a delta is a plain OFFER: {reply:?}");
    };
    assert!(
        offer.location.is_empty() && offer.chunked.is_some(),
        "{offer:?}"
    );

    // An empty depot: the file comes inside the answer.
    let reply = fetch("app3", None);
    assert!(matches!(reply, DrvMsg::OfferFile { .. }), "{reply:?}");
    let stats = rig.srv.stats();
    assert_eq!(
        (stats.revalidations, stats.delta_offers, stats.files),
        (1, 1, 1)
    );
}

/// Applies `edit` to the offer of an `OFFER_FILE`, leaving its file.
fn edit_inline(msg: DrvMsg, edit: fn(&mut DrvOffer)) -> DrvMsg {
    match msg {
        DrvMsg::OfferFile { mut offer, payload } => {
            edit(&mut offer);
            DrvMsg::OfferFile { offer, payload }
        }
        other => other,
    }
}

#[test]
fn an_inline_file_that_is_not_the_offered_one_never_enters_the_depot() {
    let key = SigningKey::from_seed(7);
    let signed = ServerConfig {
        signing: Some(key.clone()),
        ..ServerConfig::default()
    };
    let mut trust = TrustStore::new();
    trust.trust(key.verifying_key());
    let bigger: Tamper = |m| edit_inline(m, |o| o.size += 1);
    let other_digest: Tamper =
        |m| edit_inline(m, |o| o.content_digest = o.content_digest.map(|d| !d));
    let unsigned: Tamper = |m| edit_inline(m, |o| o.signature = None);
    let cases = [
        (None, true),
        (Some(bigger), false),
        (Some(other_digest), false),
        (Some(unsigned), false),
    ];
    for (tamper, loads) in cases {
        let rig = rig(signed.clone(), false, tamper);
        let depot = DriverDepot::in_memory();
        let config = BootloaderConfig::fixed(vec![drv()])
            .trusting(rig.srv.certificate())
            .requiring_signatures(trust.clone())
            .with_depot(depot.clone());
        let boot = Bootloader::new(&rig.net, Addr::new("app", 1), config);
        match boot.connect(&url(), &props()) {
            Ok(_) => assert!(loads, "a file that is not the offered one loaded"),
            Err(e) => assert!(
                !loads
                    && matches!(
                        e,
                        DkError::Drv(DrvError::BadPackage(_) | DrvError::SignatureInvalid(_))
                    ),
                "{e:?}"
            ),
        }
        assert_eq!(rig.take_tags(), [FETCH]);
        assert_eq!(depot.image_count(), usize::from(loads));
        assert_eq!(boot.stats().downloads, u64::from(loads));
    }
}

#[test]
fn a_fetch_fails_over_to_the_next_candidate() {
    let rig = rig(ServerConfig::default(), false, None);
    let down = Addr::new("down", DRIVOLUTION_PORT);
    let (boot, depot) = rig.client_of("app", vec![down, drv()]);
    drop(
        boot.connect(&url(), &props())
            .expect("bootstraps past the dead candidate"),
    );
    assert_eq!(rig.take_tags(), [FETCH]);
    assert_eq!(boot.stats().downloads, 1);
    assert_eq!(depot.image_count(), 1);

    // A server nobody reaches is not one that refused the frame: once
    // it is back, the client still asks with a `FETCH`.
    let (boot, depot) = rig.client("late");
    rig.net.unbind(&drv());
    assert!(boot.connect(&url(), &props()).is_err());
    rig.net.bind_arc(drv(), rig.front.clone()).expect("binds");
    drop(boot.connect(&url(), &props()).expect("bootstraps"));
    assert_eq!(rig.take_tags(), [FETCH]);
    assert_eq!(depot.image_count(), 1);
}
