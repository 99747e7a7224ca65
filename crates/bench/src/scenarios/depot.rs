//! Depot distribution: cold fetch vs warm revalidation vs chunked delta
//! upgrade in bytes on the wire, the same delta upgrade with chunk
//! traffic offloaded to a mirror, and a fleet-scale sweep of the §5
//! "server traffic vs lease time" tradeoff with and without depots.

use drivolution_core::DriverId;
use drivolution_depot::{DriverDepot, MirrorDepot};
use netsim::Addr;

use super::{poll_upgrades, props, v2, Rig};
use crate::kit::{Gates, Object, Report, Size, Value};

/// Cold fetch, warm revalidation and delta upgrade of one driver size,
/// each recorded with the server wire bytes it moved and gated as a
/// share of the image.
fn run_size(padding: usize, rows: &mut Vec<Value>, gates: &mut Gates) {
    let rig = Rig::new("depot-bench", padding);
    let driver_bytes = rig.srv.store().record(DriverId(1)).unwrap().binary.len();
    let kib = driver_bytes / 1024;
    let mut measure = |name: &str, phase: &mut dyn FnMut()| {
        let mark = rig.wire(&rig.server_addr);
        phase();
        let wire = rig.wire(&rig.server_addr) - mark;
        let row = Object::default()
            .with("name", format!("{name}/{kib}k"))
            .with("driver_bytes", driver_bytes)
            .with("wire_bytes", wire);
        rows.push(row.into());
        wire as f64 / driver_bytes as f64
    };

    // Cold fetch: empty depot, full image travels.
    let depot = DriverDepot::in_memory();
    let cold = rig.client("app-cold", rig.client_config().with_depot(depot.clone()));
    measure("cold_fetch", &mut || {
        cold.bootstrap(&rig.url, &props()).unwrap();
    });

    // Warm revalidation: a second bootloader sharing the machine depot.
    let warm = rig.client("app-warm", rig.client_config().with_depot(depot));
    let warm_share = measure("warm_revalidate", &mut || {
        warm.bootstrap(&rig.url, &props()).unwrap();
    });
    gates.require(
        warm.stats().revalidations == 1 && warm_share < 0.01,
        format!(
            "{kib}k warm bootstrap moved {:.2}% of the image ({} revalidations; limit 1%)",
            warm_share * 100.0,
            warm.stats().revalidations
        ),
    );

    // Delta upgrade: v2 shares all but the image-entry chunks with v1.
    // The changed chunks are a fixed few KiB, so the promised share
    // shrinks with the image: 25% below 1 MiB, 2.5% from there.
    rig.publish_upgrade(v2());
    let delta_share = measure("delta_upgrade", &mut || poll_upgrades(&cold, gates));
    let limit = if kib < 1024 { 0.25 } else { 0.025 };
    gates.require(
        delta_share < limit,
        format!(
            "{kib}k delta upgrade moved {:.1}% of the image (limit {:.1}%)",
            delta_share * 100.0,
            limit * 100.0
        ),
    );
}

/// Mirror offload: the same delta upgrade with chunk traffic redirected
/// to a mirror replica. Returns (primary wire bytes, mirror wire bytes).
fn run_mirror(padding: usize, gates: &mut Gates) -> (u64, u64) {
    let rig = Rig::new("depot-bench", padding);
    let mirror_addr = Addr::new("mirror1", 1071);
    let mirror =
        MirrorDepot::launch(&rig.net, mirror_addr.clone(), rig.server_addr.clone()).unwrap();
    rig.srv.register_mirror(mirror.location());
    let config = rig
        .client_config()
        .trusting(mirror.certificate())
        .with_depot(DriverDepot::in_memory());
    let boot = rig.client("app", config);
    boot.bootstrap(&rig.url, &props()).unwrap();
    rig.publish_upgrade(v2());
    let primary_mark = rig.wire(&rig.server_addr);
    poll_upgrades(&boot, gates);
    (
        rig.wire(&rig.server_addr) - primary_mark,
        rig.wire(&mirror_addr),
    )
}

/// Fleet upgrade: `clients` machines upgrade v1→v2; total server traffic
/// with depots everywhere vs the paper's full re-ship.
fn run_fleet(clients: usize, padding: usize, with_depot: bool, gates: &mut Gates) -> u64 {
    let rig = Rig::new("depot-bench", padding);
    let mut boots = Vec::new();
    for i in 0..clients {
        let config = rig.client_config();
        let config = if with_depot {
            config.with_depot(DriverDepot::in_memory())
        } else {
            config
        };
        let boot = rig.client(&format!("app{i}"), config);
        boot.bootstrap(&rig.url, &props()).unwrap();
        boots.push(boot);
    }
    rig.publish_upgrade(v2());
    let mark = rig.wire(&rig.server_addr);
    boots.iter().for_each(|boot| poll_upgrades(boot, gates));
    rig.wire(&rig.server_addr) - mark
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let sizes: &[usize] = size.pick(&[64 * 1024], &[64 * 1024, 256 * 1024, 1024 * 1024]);
    let fleet_clients = size.pick(8, 50);

    let mut r = Report::new("depot");
    let mut rows = Vec::new();
    for &padding in sizes {
        run_size(padding, &mut rows, &mut r.gates);
    }
    r.set("scenarios", Value::Array(rows));

    let (primary, mirror) = run_mirror(256 * 1024, &mut r.gates);
    let offload = Object::default()
        .with("primary_wire_bytes", primary)
        .with("mirror_wire_bytes", mirror);
    r.set("mirror_offload_256k", offload);
    r.gates.require(
        mirror > 0,
        format!("the mirror carried no chunk bytes ({primary} B at the primary)"),
    );

    let full = run_fleet(fleet_clients, 256 * 1024, false, &mut r.gates);
    let depot = run_fleet(fleet_clients, 256 * 1024, true, &mut r.gates);
    let fleet = Object::default()
        .with("clients", fleet_clients)
        .with("full_wire_bytes", full)
        .with("depot_wire_bytes", depot);
    r.set("fleet_upgrade_256k", fleet);
    r.gates.require(
        depot * 20 <= full,
        format!("depot fleet upgrade moved {depot} B against {full} B re-shipped (need ≤ 1/20)"),
    );
    r
}
