//! The three deployment variants of the Drivolution server (paper §4):
//! in-database (§4.1.2), external (§4.1.3), and standalone (§4.1.4).
//!
//! All three produce the same [`DrivolutionServer`]; they differ in where
//! the driver tables live and how SQL reaches them.

use std::sync::Arc;

use netsim::{Addr, Network};

use driverkit::{legacy_driver, ConnectProps, DbUrl};
use drivolution_core::{DrvError, DrvResult};
use minidb::MiniDb;

use crate::server::{DrivolutionServer, ServerConfig};
use crate::store::{DriverStore, EmbeddedExec, RemoteExec};

/// In-database server (§4.1.2): the driver tables live in the production
/// database itself; the Drivolution service listens on a separate port of
/// the same host ("the Drivolution Server can listen on a different port
/// than the database engine to allow legacy drivers to access the
/// database using existing technology").
///
/// # Errors
///
/// Schema installation or bind failures.
pub fn attach_in_database(
    net: &Network,
    db: Arc<MiniDb>,
    drv_addr: Addr,
    mut config: ServerConfig,
) -> DrvResult<Arc<DrivolutionServer>> {
    let store = DriverStore::new(Box::new(EmbeddedExec::new(db.clone())));
    store.install_schema()?;
    // An in-database server serves exactly its own database.
    config.serves = Some(vec![db.name().to_string()]);
    let srv = Arc::new(DrivolutionServer::new(
        drv_addr.host().to_string(),
        store,
        net.clock().clone(),
        config,
    ));
    srv.register_maintenance(net);
    net.bind_arc(drv_addr, srv.clone())
        .map_err(DrvError::from)?;
    Ok(srv)
}

/// External server (§4.1.3): the legacy database does not speak
/// Drivolution, so a separate process holds the driver tables *in that
/// database*, reached through a legacy RDBC driver. "When the legacy
/// driver becomes obsolete, only the Drivolution server driver needs to
/// be updated (that is a single machine)."
///
/// # Errors
///
/// Legacy connect, schema installation, or bind failures.
pub fn launch_external(
    net: &Network,
    legacy_db: &DbUrl,
    admin: &ConnectProps,
    legacy_proto: u16,
    drv_addr: Addr,
    mut config: ServerConfig,
) -> DrvResult<Arc<DrivolutionServer>> {
    let driver = legacy_driver(net, &drv_addr, legacy_proto)
        .map_err(|e| DrvError::Internal(e.to_string()))?;
    let conn = driver
        .connect(legacy_db, admin)
        .map_err(|e| DrvError::Internal(format!("external server legacy connect: {e}")))?;
    let store = DriverStore::new(Box::new(RemoteExec::new(conn)));
    store.install_schema()?;
    config.serves = Some(vec![legacy_db.database().to_string()]);
    let srv = Arc::new(DrivolutionServer::new(
        drv_addr.host().to_string(),
        store,
        net.clock().clone(),
        config,
    ));
    srv.register_maintenance(net);
    net.bind_arc(drv_addr, srv.clone())
        .map_err(DrvError::from)?;
    Ok(srv)
}

/// Standalone server (§4.1.4): a dedicated service distributing drivers
/// for many databases, backed by "an embedded database that does not
/// require driver upgrades".
///
/// # Errors
///
/// Schema installation or bind failures.
pub fn launch_standalone(
    net: &Network,
    drv_addr: Addr,
    config: ServerConfig,
) -> DrvResult<Arc<DrivolutionServer>> {
    let embedded = Arc::new(MiniDb::with_clock(
        format!("{}-drivolution-store", drv_addr.host()),
        net.clock().clone(),
    ));
    let store = DriverStore::new(Box::new(EmbeddedExec::new(embedded)));
    store.install_schema()?;
    let srv = Arc::new(DrivolutionServer::new(
        drv_addr.host().to_string(),
        store,
        net.clock().clone(),
        config,
    ));
    srv.register_maintenance(net);
    net.bind_arc(drv_addr, srv.clone())
        .map_err(DrvError::from)?;
    Ok(srv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivolution_core::pack::pack_driver;
    use drivolution_core::proto::{DrvMsg, DrvRequest};
    use drivolution_core::{
        ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion, DRIVOLUTION_PORT,
    };
    use minidb::wire::DbServer;

    fn driver_record(id: i64) -> DriverRecord {
        let image = DriverImage::new(format!("drv-{id}"), DriverVersion::new(1, 0, 0), 1);
        DriverRecord::new(
            DriverId(id),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            pack_driver(BinaryFormat::Djar, &image),
        )
    }

    fn request_via_net(net: &Network, to: &Addr, db: &str) -> DrvMsg {
        request_via_net_from(net, "client", to, db)
    }

    fn request_via_net_from(net: &Network, host: &str, to: &Addr, db: &str) -> DrvMsg {
        let req = DrvRequest::bootstrap(db, "app", "RDBC", "linux-x86_64");
        let reply = net
            .request(&Addr::new(host, 1), to, DrvMsg::Request(req).encode())
            .unwrap();
        DrvMsg::decode(reply).unwrap()
    }

    #[test]
    fn in_database_server_serves_its_own_db_only() {
        let net = Network::new();
        let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
        net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
            .unwrap();
        let drv_addr = Addr::new("db1", DRIVOLUTION_PORT);
        let srv = attach_in_database(&net, db, drv_addr.clone(), ServerConfig::default()).unwrap();
        srv.install_driver(&driver_record(1)).unwrap();

        assert!(matches!(
            request_via_net(&net, &drv_addr, "orders"),
            DrvMsg::Offer(_)
        ));
        assert!(matches!(
            request_via_net(&net, &drv_addr, "hr"),
            DrvMsg::Error { .. }
        ));
        // The driver tables are visible inside the production database.
        let mut s = srv.store();
        let _ = &mut s;
        assert_eq!(srv.store().records().unwrap().len(), 1);
    }

    #[test]
    fn external_server_stores_drivers_in_the_legacy_db() {
        let net = Network::new();
        let legacy = Arc::new(MiniDb::with_clock("legacydb", net.clock().clone()));
        net.bind_arc(
            Addr::new("legacy-host", 5432),
            Arc::new(DbServer::new(legacy.clone())),
        )
        .unwrap();
        let drv_addr = Addr::new("drv-host", DRIVOLUTION_PORT);
        let srv = launch_external(
            &net,
            &DbUrl::direct(Addr::new("legacy-host", 5432), "legacydb"),
            &ConnectProps::user("admin", "admin"),
            2,
            drv_addr.clone(),
            ServerConfig::default(),
        )
        .unwrap();
        srv.install_driver(&driver_record(1)).unwrap();
        // The driver row physically lives in the legacy database.
        assert_eq!(legacy.table_len("information_schema.drivers").unwrap(), 1);
        assert!(matches!(
            request_via_net(&net, &drv_addr, "legacydb"),
            DrvMsg::Offer(_)
        ));
    }

    #[test]
    fn maintenance_task_reaps_broken_channels_on_schedule() {
        let net = Network::new();
        let drv_addr = Addr::new("drv", DRIVOLUTION_PORT);
        let srv = launch_standalone(&net, drv_addr.clone(), ServerConfig::default()).unwrap();
        srv.install_driver(&driver_record(1)).unwrap();
        srv.licenses().set_limit(DriverId(1), 1);
        // A client opens a dedicated channel, takes the only seat, then
        // crashes (its pipe end drops).
        let pipe = net.connect_pipe(&Addr::new("c1", 1), &drv_addr).unwrap();
        assert!(matches!(
            request_via_net_from(&net, "c1", &drv_addr, "orders"),
            DrvMsg::Offer(_)
        ));
        let now = net.clock().now_ms();
        assert_eq!(srv.licenses().available(DriverId(1), now), Some(0));
        drop(pipe);

        // Nothing on the request path frees the seat; the registered
        // maintenance task does, on its 30s cadence.
        net.run_until(now + 31_000);
        assert_eq!(
            srv.licenses().available(DriverId(1), net.clock().now_ms()),
            Some(1)
        );
    }

    #[test]
    fn standalone_server_serves_many_databases() {
        let net = Network::new();
        let drv_addr = Addr::new("drv", DRIVOLUTION_PORT);
        let srv = launch_standalone(&net, drv_addr.clone(), ServerConfig::default()).unwrap();
        srv.install_driver(&driver_record(1)).unwrap();
        srv.install_driver(&{
            let mut r = driver_record(2);
            r.binary = pack_driver(
                BinaryFormat::Djar,
                &DriverImage::new("drv-2", DriverVersion::new(2, 0, 0), 2),
            );
            r
        })
        .unwrap();
        // Permission rules route per database.
        srv.add_rule(&drivolution_core::PermissionRule::any(DriverId(1)).for_database("orders"))
            .unwrap();
        srv.add_rule(&drivolution_core::PermissionRule::any(DriverId(2)).for_database("hr"))
            .unwrap();
        let DrvMsg::Offer(o1) = request_via_net(&net, &drv_addr, "orders") else {
            panic!()
        };
        let DrvMsg::Offer(o2) = request_via_net(&net, &drv_addr, "hr") else {
            panic!()
        };
        assert_eq!(o1.driver_id, DriverId(1));
        assert_eq!(o2.driver_id, DriverId(2));
    }
}
