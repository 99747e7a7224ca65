//! Depot distribution: cold fetch vs warm revalidation vs chunked delta
//! upgrade in bytes on the wire, the same delta upgrade with chunk
//! traffic offloaded to a mirror, and a fleet-scale sweep of the §5
//! "server traffic vs lease time" tradeoff with and without depots.

use std::sync::Arc;

use driverkit::ConnectProps;
use drivolution_bootloader::{Bootloader, BootloaderConfig, PollOutcome};
use drivolution_core::DriverId;
use drivolution_depot::{DriverDepot, MirrorDepot};
use netsim::Addr;

use super::{v2, Rig};
use crate::kit::{Object, Report, Size, Value};

fn props() -> ConnectProps {
    ConnectProps::user("admin", "admin")
}

fn client(rig: &Rig, app: &str, config: BootloaderConfig) -> Arc<Bootloader> {
    Bootloader::new(&rig.net, Addr::new(app, 1), config)
}

fn upgrade(boot: &Arc<Bootloader>) {
    let outcome = boot.poll();
    assert!(
        matches!(outcome, PollOutcome::Upgraded { .. }),
        "{outcome:?}"
    );
}

/// Cold fetch, warm revalidation and delta upgrade of one driver size,
/// each recorded with the server wire bytes it moved.
fn run_size(padding: usize, rows: &mut Vec<Value>) {
    let rig = Rig::new("depot-bench", padding);
    let driver_bytes = rig.srv.store().record(DriverId(1)).unwrap().binary.len();
    let mut measure = |name: &str, phase: &dyn Fn()| {
        let mark = rig.wire(&rig.server_addr);
        phase();
        let row = Object::default()
            .with("name", format!("{name}/{}k", driver_bytes / 1024))
            .with("driver_bytes", driver_bytes)
            .with("wire_bytes", rig.wire(&rig.server_addr) - mark);
        rows.push(row.into());
    };

    // Cold fetch: empty depot, full image travels.
    let depot = DriverDepot::in_memory();
    let cold = client(
        &rig,
        "app-cold",
        rig.client_config().with_depot(depot.clone()),
    );
    measure("cold_fetch", &|| {
        cold.bootstrap(&rig.url, &props()).unwrap();
    });

    // Warm revalidation: a second bootloader sharing the machine depot.
    let warm = client(&rig, "app-warm", rig.client_config().with_depot(depot));
    measure("warm_revalidate", &|| {
        warm.bootstrap(&rig.url, &props()).unwrap();
    });
    assert_eq!(warm.stats().revalidations, 1);

    // Delta upgrade: v2 shares all but the image-entry chunks with v1.
    rig.publish_upgrade(v2());
    measure("delta_upgrade", &|| upgrade(&cold));
}

/// Mirror offload: the same delta upgrade with chunk traffic redirected
/// to a mirror replica. Returns (primary wire bytes, mirror wire bytes).
fn run_mirror(padding: usize) -> (u64, u64) {
    let rig = Rig::new("depot-bench", padding);
    let mirror_addr = Addr::new("mirror1", 1071);
    let mirror =
        MirrorDepot::launch(&rig.net, mirror_addr.clone(), rig.server_addr.clone()).unwrap();
    rig.srv.register_mirror(mirror.location());
    let config = rig
        .client_config()
        .trusting(mirror.certificate())
        .with_depot(DriverDepot::in_memory());
    let boot = client(&rig, "app", config);
    boot.bootstrap(&rig.url, &props()).unwrap();
    rig.publish_upgrade(v2());
    let primary_mark = rig.wire(&rig.server_addr);
    upgrade(&boot);
    (
        rig.wire(&rig.server_addr) - primary_mark,
        rig.wire(&mirror_addr),
    )
}

/// Fleet upgrade: `clients` machines upgrade v1→v2; total server traffic
/// with depots everywhere vs the paper's full re-ship.
fn run_fleet(clients: usize, padding: usize, with_depot: bool) -> u64 {
    let rig = Rig::new("depot-bench", padding);
    let mut boots = Vec::new();
    for i in 0..clients {
        let config = rig.client_config();
        let config = if with_depot {
            config.with_depot(DriverDepot::in_memory())
        } else {
            config
        };
        let boot = client(&rig, &format!("app{i}"), config);
        boot.bootstrap(&rig.url, &props()).unwrap();
        boots.push(boot);
    }
    rig.publish_upgrade(v2());
    let mark = rig.wire(&rig.server_addr);
    boots.iter().for_each(upgrade);
    rig.wire(&rig.server_addr) - mark
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let sizes: &[usize] = size.pick(&[64 * 1024], &[64 * 1024, 256 * 1024, 1024 * 1024]);
    let fleet_clients = size.pick(8, 50);

    let mut r = Report::new("depot");
    let mut rows = Vec::new();
    for &padding in sizes {
        run_size(padding, &mut rows);
    }
    r.set("scenarios", Value::Array(rows));

    let (primary, mirror) = run_mirror(256 * 1024);
    let offload = Object::default()
        .with("primary_wire_bytes", primary)
        .with("mirror_wire_bytes", mirror);
    r.set("mirror_offload_256k", offload);

    let fleet = Object::default()
        .with("clients", fleet_clients)
        .with(
            "full_wire_bytes",
            run_fleet(fleet_clients, 256 * 1024, false),
        )
        .with(
            "depot_wire_bytes",
            run_fleet(fleet_clients, 256 * 1024, true),
        );
    r.set("fleet_upgrade_256k", fleet);
    r
}
