//! End-to-end depot distribution scenarios: cold fetch, zero-transfer
//! revalidation, chunked delta upgrade, mirror offload, cluster mirror
//! replication, and persistent depots across process restarts.
//!
//! The core claim (ISSUE 1 acceptance): a bootloader upgrading a cached
//! driver vN→vN+1 through the simulated network transfers measurably
//! fewer bytes than a cold full-image fetch, verified via [`NetStats`].

use std::sync::Arc;

use drivolution::core::pack::pack_driver_padded;
use drivolution::core::{
    ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion, ExpirationPolicy,
    PermissionRule, RenewPolicy, DRIVOLUTION_PORT,
};
use drivolution::depot::DriverDepot;
use drivolution::prelude::*;
use drivolution::server::DrivolutionServer;

const DRIVER_PADDING: usize = 256 * 1024;

fn padded_record(id: i64, version: DriverVersion) -> DriverRecord {
    // v1/v2 version strings have equal length, so the packed archives are
    // the same size and fixed-size chunk boundaries line up: only the
    // chunks covering the image entry differ between versions.
    let image = DriverImage::new("depot-driver", version, 1);
    let bytes = pack_driver_padded(BinaryFormat::Djar, &image, DRIVER_PADDING);
    DriverRecord::new(DriverId(id), ApiName::rdbc(), BinaryFormat::Djar, bytes)
        .with_version(version)
}

struct Rig {
    net: Network,
    srv: Arc<DrivolutionServer>,
    url: DbUrl,
    server_addr: Addr,
}

fn rig() -> Rig {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    let server_addr = Addr::new("db1", DRIVOLUTION_PORT);
    let srv = attach_in_database(&net, db, server_addr.clone(), ServerConfig::default()).unwrap();
    srv.install_driver(&padded_record(1, DriverVersion::new(1, 0, 0)))
        .unwrap();
    Rig {
        net,
        srv,
        url: "rdbc:minidb://db1:5432/orders".parse().unwrap(),
        server_addr,
    }
}

fn upgrade_rule() -> PermissionRule {
    PermissionRule::any(DriverId(2))
        .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit)
}

fn connect(rig: &Rig, boot: &Arc<Bootloader>) {
    let mut conn = boot
        .connect(&rig.url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    conn.execute("SELECT 1").unwrap();
}

#[test]
fn delta_upgrade_transfers_measurably_fewer_bytes_than_cold_fetch() {
    let rig = rig();
    let depot = DriverDepot::in_memory();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .with_depot(depot.clone()),
    );

    // Phase 1 — cold fetch: the full image travels.
    connect(&rig, &boot);
    let cold_bytes = rig.net.stats().for_addr(&rig.server_addr).bytes_out;
    assert!(
        cold_bytes > DRIVER_PADDING as u64,
        "cold fetch must ship the full image ({cold_bytes} bytes)"
    );
    assert_eq!(boot.stats().downloads, 1);
    assert_eq!(depot.image_count(), 1);

    // Phase 2 — upgrade to v2 via chunked delta.
    rig.srv
        .install_driver(&padded_record(2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    rig.srv.add_rule(&upgrade_rule()).unwrap();
    rig.net.clock().advance_ms(4_000_000); // expire the lease
    let outcome = boot.poll();
    assert!(
        matches!(outcome, PollOutcome::Upgraded { .. }),
        "expected upgrade, got {outcome:?}"
    );
    assert_eq!(boot.active_version(), Some(DriverVersion::new(2, 0, 0)));

    let total_bytes = rig.net.stats().for_addr(&rig.server_addr).bytes_out;
    let upgrade_bytes = total_bytes - cold_bytes;
    assert!(
        upgrade_bytes < cold_bytes / 4,
        "delta upgrade moved {upgrade_bytes} bytes; cold fetch moved {cold_bytes}"
    );

    // The ledger agrees end to end.
    let bs = boot.stats();
    assert_eq!(bs.delta_downloads, 1);
    assert!(bs.bytes_saved > (DRIVER_PADDING as u64) / 2);
    assert_eq!(rig.srv.stats().delta_offers, 1);
    assert!(bs.bytes_saved > bs.same_zone_chunk_bytes + bs.cross_zone_chunk_bytes);
}

#[test]
fn shared_depot_revalidates_with_zero_payload_transfer() {
    let rig = rig();
    let depot = DriverDepot::in_memory();
    let config = BootloaderConfig::same_host()
        .trusting(rig.srv.certificate())
        .with_depot(depot.clone());

    // First app on this machine downloads the driver cold.
    let boot1 = Bootloader::new(&rig.net, Addr::new("app", 1), config.clone());
    connect(&rig, &boot1);
    let cold_bytes = rig.net.stats().for_addr(&rig.server_addr).bytes_out;

    // Second app shares the machine depot: its bootstrap revalidates.
    let boot2 = Bootloader::new(&rig.net, Addr::new("app", 2), config);
    connect(&rig, &boot2);
    let reval_bytes = rig.net.stats().for_addr(&rig.server_addr).bytes_out - cold_bytes;
    assert!(
        reval_bytes < 2048,
        "revalidation should ship only the offer, moved {reval_bytes} bytes"
    );
    let bs = boot2.stats();
    assert_eq!(bs.revalidations, 1);
    assert_eq!(bs.downloads, 0);
    assert_eq!(rig.srv.stats().revalidations, 1);
    assert_eq!(depot.image_count(), 1);
    // Both apps run the same driver.
    assert_eq!(boot1.active_version(), boot2.active_version());
}

#[test]
fn mirror_takes_chunk_traffic_off_the_primary() {
    let rig = rig();
    let mirror = drivolution::depot::MirrorDepot::launch(
        &rig.net,
        Addr::new("mirror1", 1071),
        rig.server_addr.clone(),
    )
    .unwrap();
    rig.srv.register_mirror(mirror.location());

    let depot = DriverDepot::in_memory();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .trusting(mirror.certificate())
            .with_depot(depot.clone()),
    );
    connect(&rig, &boot);

    rig.srv
        .install_driver(&padded_record(2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    rig.srv.add_rule(&upgrade_rule()).unwrap();
    rig.net.clock().advance_ms(4_000_000);
    let before_primary = rig.net.stats().for_addr(&rig.server_addr).requests;
    assert!(matches!(boot.poll(), PollOutcome::Upgraded { .. }));

    // The client fetched its delta chunks from the mirror; the primary
    // only saw the renewal request plus the mirror's own read-through.
    let ms = mirror.stats();
    assert_eq!(ms.chunk_requests, 1);
    assert!(ms.chunks_served > 0);
    let mirror_stats = rig.net.stats().for_addr(&Addr::new("mirror1", 1071));
    assert_eq!(mirror_stats.requests, 1);
    let primary_extra = rig.net.stats().for_addr(&rig.server_addr).requests - before_primary;
    assert!(
        primary_extra <= 2,
        "primary should only see renewal + read-through, saw {primary_extra}"
    );

    // A second client upgrading the same way is served entirely from the
    // mirror's replica — zero extra read-through on the primary.
    let depot2 = DriverDepot::in_memory();
    let boot2 = Bootloader::new(
        &rig.net,
        Addr::new("app", 2),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .trusting(mirror.certificate())
            .with_depot(depot2),
    );
    connect(&rig, &boot2);
    let rt_before = mirror.stats().read_through_chunks;
    // boot2 bootstrapped straight onto v2 (it matches first now), so no
    // further upgrade is needed; verify the mirror kept its replica.
    assert_eq!(mirror.stats().read_through_chunks, rt_before);
}

#[test]
fn cluster_controllers_replicate_depot_mirrors_alongside_the_driver_table() {
    use drivolution::cluster::{Controller, VirtualDb};

    // This scenario exercises only the driver-distribution path, so the
    // controller needs no SQL backends.
    let net = Network::new();
    let vdb = VirtualDb::new("orders", Vec::new());
    let ctrl = Controller::launch(&net, 1, Addr::new("ctrl1", 9000), vdb, 2).unwrap();
    let srv = ctrl.embed_drivolution(ServerConfig::default()).unwrap();
    srv.install_driver(&padded_record(1, DriverVersion::new(1, 0, 0)))
        .unwrap();
    let mirror = ctrl.attach_depot_mirror(1071).unwrap();

    // The mirror was warmed with the already-installed driver.
    assert!(mirror.chunk_count() > 0);

    // A depot-equipped client bootstraps onto v1 through the controller.
    let depot = DriverDepot::in_memory();
    let boot = Bootloader::new(
        &net,
        Addr::new("app", 1),
        BootloaderConfig::fixed(vec![Addr::new("ctrl1", DRIVOLUTION_PORT)])
            // Manual lifecycle: this test drives poll() by hand so the
            // run_due pump below only fires the mirror's heartbeat task.
            .with_lifecycle(LifecyclePolicy::manual())
            .trusting(srv.certificate())
            .trusting(mirror.certificate())
            .with_depot(depot),
    );
    let url: DbUrl = "rdbc:minidb://ctrl1:9000/orders".parse().unwrap();
    let props = ConnectProps::user("admin", "admin");
    boot.bootstrap(&url, &props).unwrap();
    assert_eq!(boot.active_version(), Some(DriverVersion::new(1, 0, 0)));

    // Installing v2 warms the mirror through the admin-event hook…
    let before = mirror.chunk_count();
    srv.install_driver(&padded_record(2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    assert!(mirror.chunk_count() > before);

    // …and the upgrade's delta chunks are served from the warm replica.
    // The mirror registered via the announce protocol and keeps itself
    // alive through its scheduler heartbeat task — pumping run_due after
    // the long lease-expiry jump stands in for the continuous pumping a
    // live deployment would do; no controller code heartbeats by hand.
    srv.add_rule(&upgrade_rule()).unwrap();
    net.clock().advance_ms(4_000_000);
    net.scheduler().run_due();
    assert!(matches!(boot.poll(), PollOutcome::Upgraded { .. }));
    assert_eq!(mirror.stats().chunk_requests, 1);
    // Everything the mirror served came from its warmed replica.
    assert_eq!(mirror.stats().read_through_chunks, 0);

    // A rolling controller restart (§5.3.1) takes the mirror down and
    // brings it back; re-attaching is idempotent.
    ctrl.stop();
    assert!(net
        .request(&Addr::new("app", 1), mirror.addr(), bytes::Bytes::new())
        .is_err());
    ctrl.start().unwrap();
    assert!(Arc::ptr_eq(
        &ctrl.attach_depot_mirror(1071).unwrap(),
        &mirror
    ));
    assert!(net
        .request(
            &Addr::new("app", 1),
            mirror.addr(),
            drivolution::core::DrvMsg::ChunkRequest {
                digests: vec![],
                transfer_method: drivolution::core::TransferMethod::Checksum,
            }
            .encode(),
        )
        .is_ok());
}

#[test]
fn persistent_depot_keeps_saving_bytes_across_process_restarts() {
    let dir = std::env::temp_dir().join(format!("drv-depot-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let rig = rig();
    {
        let depot = DriverDepot::persistent(&dir).unwrap();
        let boot = Bootloader::new(
            &rig.net,
            Addr::new("app", 1),
            BootloaderConfig::same_host()
                .trusting(rig.srv.certificate())
                .with_depot(depot),
        );
        connect(&rig, &boot);
        assert_eq!(boot.stats().downloads, 1);
    }
    let cold_bytes = rig.net.stats().for_addr(&rig.server_addr).bytes_out;

    // "Restart": a fresh bootloader reopens the same depot directory and
    // bootstraps with zero payload transfer.
    {
        let depot = DriverDepot::persistent(&dir).unwrap();
        assert_eq!(depot.image_count(), 1);
        let boot = Bootloader::new(
            &rig.net,
            Addr::new("app", 1),
            BootloaderConfig::same_host()
                .trusting(rig.srv.certificate())
                .with_depot(depot),
        );
        connect(&rig, &boot);
        assert_eq!(boot.stats().downloads, 0);
        assert_eq!(boot.stats().revalidations, 1);
    }
    let reval_bytes = rig.net.stats().for_addr(&rig.server_addr).bytes_out - cold_bytes;
    assert!(reval_bytes < 2048, "revalidation moved {reval_bytes} bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a depot persisted by a build with another digest definition
/// looks like to this one: intact bytes under a name, and a `latest.idx`
/// line, that this build's digest of them does not produce. (The depot
/// cannot tell an older build's name from any other wrong one.)
#[test]
fn depot_keyed_by_another_builds_digest_is_discarded_and_refetched_cold() {
    let dir = std::env::temp_dir().join(format!("drv-depot-rekey-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let images = dir.join("images");
    let names = || -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&images)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };

    let package = padded_record(1, DriverVersion::new(1, 0, 0)).binary;
    let digest = drivolution::core::fnv1a64(&package);
    let stale = !digest;
    std::fs::create_dir_all(&images).unwrap();
    std::fs::write(images.join(format!("{stale:016x}.img")), &package).unwrap();
    std::fs::write(dir.join("latest.idx"), format!("{stale:016x} orders\n")).unwrap();

    let rig = rig();
    let depot = DriverDepot::persistent(&dir).unwrap();
    assert_eq!(depot.image_count(), 0);
    assert!(
        names().is_empty(),
        "stale image left on disk: {:?}",
        names()
    );
    // Nothing to advertise: the bootstrap below carries no `HAVE`.
    assert!(depot.have_summary("orders").is_none());

    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .with_depot(depot),
    );
    connect(&rig, &boot);
    assert_eq!(boot.stats().downloads, 1);
    assert_eq!(boot.stats().revalidations, 0);
    assert_eq!(boot.stats().delta_downloads, 0);
    assert_eq!(names(), [format!("{digest:016x}.img")]);
    assert_eq!(
        std::fs::read_to_string(dir.join("latest.idx")).unwrap(),
        format!("{digest:016x} orders\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn size_shifting_upgrade_stays_a_small_delta_under_cdc() {
    // v2's version string is longer than v1's, so every byte after the
    // image entry shifts — the edit shape that used to degenerate a
    // fixed-size delta into a near-full transfer.
    let rig = rig();
    let depot = DriverDepot::in_memory();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .with_depot(depot.clone()),
    );
    connect(&rig, &boot);
    let cold_bytes = rig.net.stats().for_addr(&rig.server_addr).bytes_out;

    rig.srv
        .install_driver(&padded_record(2, DriverVersion::new(2, 0, 10)))
        .unwrap();
    rig.srv.add_rule(&upgrade_rule()).unwrap();
    rig.net.clock().advance_ms(4_000_000);
    assert!(matches!(boot.poll(), PollOutcome::Upgraded { .. }));
    let upgrade_bytes = rig.net.stats().for_addr(&rig.server_addr).bytes_out - cold_bytes;
    assert!(
        upgrade_bytes < cold_bytes / 10,
        "size-shifting upgrade moved {upgrade_bytes} of {cold_bytes} cold bytes"
    );
    assert_eq!(boot.stats().delta_downloads, 1);
}

#[test]
fn client_with_foreign_chunking_params_still_gets_delta_offers() {
    // The server depot indexes under default CDC params; this client
    // chunks fixed/2048. The server derives the delta manifest under the
    // client's params instead of silently falling back to a full
    // transfer (the old `have.chunk_size == depot_chunk_size` gate).
    use drivolution::core::ChunkingParams;
    let rig = rig();
    rig.srv
        .install_driver(&padded_record(2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    rig.srv.add_rule(&upgrade_rule()).unwrap();
    rig.net.clock().advance_ms(4_000_000);

    let mark = rig.net.stats().for_addr(&rig.server_addr).bytes_out;
    for params in [
        ChunkingParams::fixed(2048),
        ChunkingParams::cdc(512, 2048, 8192),
    ] {
        let depot = DriverDepot::with_params(params);
        let boot = Bootloader::new(
            &rig.net,
            Addr::new(format!("app-{params}"), 1),
            BootloaderConfig::same_host()
                .trusting(rig.srv.certificate())
                .with_depot(depot.clone()),
        );
        // Seed the depot with v1 so the bootstrap advertises a v1 delta
        // base under this client's (non-server) params.
        let v1 = rig.srv.store().record(DriverId(1)).unwrap().binary.clone();
        depot.insert("orders", v1);
        connect(&rig, &boot);
        let bs = boot.stats();
        assert!(
            bs.delta_downloads == 1 || bs.revalidations == 1,
            "foreign params {params} fell back to a full download: {bs:?}"
        );
        assert_eq!(bs.downloads, 0, "foreign params {params} full-transferred");
    }
    let moved = rig.net.stats().for_addr(&rig.server_addr).bytes_out - mark;
    assert!(
        moved < 2 * DRIVER_PADDING as u64 / 4,
        "foreign-params clients moved {moved} bytes"
    );
    assert!(rig.srv.stats().delta_offers >= 2);
}

#[test]
fn mixed_fleet_legacy_gear_client_interops_with_normalized_server() {
    // The server indexes under the normalized default (FastCDC-style
    // dual masks, min-skip); one client still chunks with the previous
    // generation's plain-Gear params (the exact legacy wire dialect its
    // persisted depot was built under), another with the normalized
    // default. Both must upgrade v1→v2 as small verifying deltas: the
    // server derives the legacy client's manifest under its advertised
    // level-0 params, boundary-for-boundary what the legacy chunker
    // produces.
    use drivolution::core::{ChunkingParams, DEFAULT_CDC_AVG, DEFAULT_CDC_MAX, DEFAULT_CDC_MIN};
    let rig = rig();
    let legacy = ChunkingParams::cdc(DEFAULT_CDC_MIN, DEFAULT_CDC_AVG, DEFAULT_CDC_MAX);
    let normalized = ChunkingParams::default();
    assert_ne!(legacy, normalized, "default no longer normalizes");

    let mut fleet = Vec::new();
    for (name, params) in [("legacy", legacy), ("normalized", normalized)] {
        let depot = DriverDepot::with_params(params);
        let boot = Bootloader::new(
            &rig.net,
            Addr::new(format!("app-{name}"), 1),
            BootloaderConfig::same_host()
                .trusting(rig.srv.certificate())
                .with_depot(depot.clone()),
        );
        connect(&rig, &boot);
        assert_eq!(boot.active_version(), Some(DriverVersion::new(1, 0, 0)));
        fleet.push((name, params, depot, boot));
    }

    rig.srv
        .install_driver(&padded_record(2, DriverVersion::new(2, 0, 10)))
        .unwrap();
    rig.srv.add_rule(&upgrade_rule()).unwrap();
    rig.net.clock().advance_ms(4_000_000);

    for (name, params, depot, boot) in &fleet {
        let mark = rig.net.stats().for_addr(&rig.server_addr).bytes_out;
        assert!(
            matches!(boot.poll(), PollOutcome::Upgraded { .. }),
            "{name} client failed to upgrade"
        );
        let moved = rig.net.stats().for_addr(&rig.server_addr).bytes_out - mark;
        assert_eq!(
            boot.stats().delta_downloads,
            1,
            "{name} client did not travel as a delta"
        );
        assert!(
            moved < DRIVER_PADDING as u64 / 4,
            "{name} delta moved {moved} bytes"
        );
        // The depot's assembled v2 verifies against a manifest derived
        // locally under this client's own params — digests and
        // boundaries agree with what the server served.
        let have = depot.have_summary("orders").unwrap();
        assert_eq!(have.params, *params, "{name} depot advertises its params");
        let v2 = rig.srv.store().record(DriverId(2)).unwrap().binary.clone();
        drivolution::core::ChunkManifest::of_with(&v2, params)
            .verify(&depot.lookup(drivolution::core::fnv1a64(&v2)).unwrap())
            .unwrap_or_else(|e| panic!("{name} assembled image fails verification: {e}"));
    }
    assert!(rig.srv.stats().delta_offers >= 2);
}

#[test]
fn depotless_clients_are_unaffected_by_the_depot_rollout() {
    let rig = rig();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host().trusting(rig.srv.certificate()),
    );
    connect(&rig, &boot);
    assert_eq!(boot.stats().downloads, 1);
    assert_eq!(boot.stats().revalidations, 0);
    assert_eq!(rig.srv.stats().revalidations, 0);
    assert_eq!(rig.srv.stats().delta_offers, 0);
    // Reconnect after expiry renews as before.
    rig.net.clock().advance_ms(4_000_000);
    assert_eq!(boot.poll(), PollOutcome::Renewed);
}

/// Sits in front of the real server on a `Plain` channel (no MAC to
/// object) and answers every `FILE_REQUEST` with a different, perfectly
/// loadable driver than the one the offer described.
struct FileSwapper {
    net: Network,
    real: Addr,
    swapped: bytes::Bytes,
}

impl netsim::Service for FileSwapper {
    fn call(&self, from: &Addr, request: bytes::Bytes) -> Result<bytes::Bytes, netsim::NetError> {
        use drivolution::core::proto::DrvMsg;
        let reply = self.net.request(from, &self.real, request)?;
        Ok(match DrvMsg::decode(reply.clone()) {
            Ok(DrvMsg::FileData { .. }) => {
                let payload =
                    drivolution::core::transfer::wrap(TransferMethod::Plain, &self.swapped, None)
                        .unwrap();
                DrvMsg::FileData { payload }.encode()
            }
            _ => reply,
        })
    }
}

#[test]
fn downloaded_file_that_is_not_the_offered_one_is_refused() {
    let offered = padded_record(1, DriverVersion::new(1, 0, 0));
    // Same length (only the digest differs), then a different length.
    let same_len = padded_record(1, DriverVersion::new(1, 0, 1)).binary;
    assert_eq!(same_len.len(), offered.binary.len());
    let other_len = pack_driver_padded(
        BinaryFormat::Djar,
        &DriverImage::new("depot-driver", DriverVersion::new(1, 0, 0), 1),
        1024,
    );
    for swapped in [same_len, other_len] {
        let net = Network::new();
        let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
        net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
            .unwrap();
        let real = Addr::new("behind", DRIVOLUTION_PORT);
        let config = ServerConfig {
            default_transfer: TransferMethod::Plain,
            ..ServerConfig::default()
        };
        let srv = attach_in_database(&net, db, real.clone(), config).unwrap();
        srv.install_driver(&offered).unwrap();
        let swapper = FileSwapper {
            net: net.clone(),
            real,
            swapped,
        };
        net.bind(Addr::new("db1", DRIVOLUTION_PORT), swapper)
            .unwrap();

        let depot = DriverDepot::in_memory();
        let boot = Bootloader::new(
            &net,
            Addr::new("app", 1),
            BootloaderConfig::same_host().with_depot(depot.clone()),
        );
        let url: DbUrl = "rdbc:minidb://db1:5432/orders".parse().unwrap();
        let e = boot
            .connect(&url, &ConnectProps::user("admin", "admin"))
            .unwrap_err();
        assert!(matches!(e, DkError::Drv(DrvError::BadPackage(_))), "{e:?}");
        assert_eq!(depot.image_count(), 0);
        assert_eq!(boot.stats().downloads, 0);
    }
}
