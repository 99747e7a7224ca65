//! The interpreted driver: a live [`Driver`] instantiated from a
//! [`DriverImage`] — this reproduction's stand-in for dynamically loaded
//! driver code (see the substitution note in `drivolution_core::image`).

use std::sync::Arc;

use netsim::{Addr, Network};

use drivolution_core::image::{AuthKind, Extension};
use drivolution_core::{DriverFlavor, DriverImage, DriverVersion};
use minidb::auth::realm_token;
use minidb::sql::leading_keyword;
use minidb::wire::{Credentials, RawClient, V2, V3};
use minidb::{Params, QueryResult};

use crate::api::{ConnectProps, Connection, Driver};
use crate::error::{DkError, DkResult};
use crate::url::{DbUrl, UrlScheme};

/// A [`Driver`] interpreting a direct-flavor [`DriverImage`].
pub struct InterpretedDriver {
    image: Arc<DriverImage>,
    net: Network,
    local: Addr,
}

impl std::fmt::Debug for InterpretedDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "InterpretedDriver({} v{} proto v{})",
            self.image.name, self.image.version, self.image.db_protocol
        )
    }
}

impl InterpretedDriver {
    /// Instantiates a driver from an image on the given network, sending
    /// from `local`.
    ///
    /// # Errors
    ///
    /// [`DkError::Unsupported`] for non-direct images (cluster images are
    /// instantiated by the cluster middleware's factory).
    pub fn new(image: impl Into<Arc<DriverImage>>, net: Network, local: Addr) -> DkResult<Self> {
        let image = image.into();
        if image.flavor != DriverFlavor::Direct {
            return Err(DkError::Unsupported(format!(
                "image {} has flavor {:?}; this VM factory only interprets Direct",
                image.name, image.flavor
            )));
        }
        Ok(InterpretedDriver { image, net, local })
    }

    /// The interpreted image.
    pub fn image(&self) -> &DriverImage {
        &self.image
    }

    /// Picks the strongest credentials this driver supports, mirroring a
    /// real driver's auth negotiation: token (needs the Kerberos package
    /// and protocol v3), then challenge (v2), then password.
    fn pick_credentials(&self, props: &ConnectProps) -> Credentials {
        if self.image.db_protocol >= V3 && self.image.supports_auth(AuthKind::Token) {
            if let Some(Extension::Kerberos { realm_secret }) = self
                .image
                .extensions
                .iter()
                .find(|e| matches!(e, Extension::Kerberos { .. }))
            {
                return Credentials::Token(realm_token(&props.user, realm_secret));
            }
        }
        if self.image.db_protocol >= V2 && self.image.supports_auth(AuthKind::Challenge) {
            return Credentials::Challenge(props.password.clone());
        }
        Credentials::Password(props.password.clone())
    }

    fn targets(&self, url: &DbUrl) -> DkResult<Vec<Addr>> {
        // Pre-configured drivers ignore the URL host (Figure 4): "Whatever
        // host name is found in the URL specified by the client
        // application, it is ignored".
        if let Some(t) = &self.image.preconfigured_target {
            return Ok(vec![t.parse::<Addr>().map_err(|e| {
                DkError::BadUrl(format!("preconfigured target {t:?}: {e}"))
            })?]);
        }
        Ok(url.hosts().to_vec())
    }
}

impl Driver for InterpretedDriver {
    fn name(&self) -> &str {
        &self.image.name
    }

    fn version(&self) -> DriverVersion {
        self.image.version
    }

    fn connect(&self, url: &DbUrl, props: &ConnectProps) -> DkResult<Box<dyn Connection>> {
        if url.scheme() != UrlScheme::MiniDb {
            return Err(DkError::BadUrl(format!(
                "direct driver {} cannot serve {url}",
                self.image.name
            )));
        }
        let creds = self.pick_credentials(props);
        let targets = self.targets(url)?;
        let mut last_err: Option<DkError> = None;
        for target in &targets {
            match RawClient::connect(
                &self.net,
                &self.local,
                target,
                self.image.db_protocol,
                url.database(),
                &props.user,
                &creds,
            ) {
                Ok(client) => {
                    let locales: Vec<String> = self
                        .image
                        .extensions
                        .iter()
                        .filter_map(|e| match e {
                            Extension::Nls { locale } => Some(locale.clone()),
                            _ => None,
                        })
                        .collect();
                    let gis = self.image.extension("gis").is_some();
                    return Ok(Box::new(InterpretedConnection {
                        client: Some(client),
                        gis,
                        locales,
                        requested_locale: props.locale.clone(),
                        txn: false,
                    }));
                }
                Err(e) => last_err = Some(e.into()),
            }
        }
        let Some(last_err) = last_err else {
            return Err(DkError::NoHostAvailable(format!("{url} names no host")));
        };
        if targets.len() == 1 {
            Err(last_err)
        } else {
            Err(DkError::NoHostAvailable(format!(
                "all {} hosts failed; last error: {last_err}",
                targets.len(),
            )))
        }
    }
}

/// Builds an interpreted direct driver behind an `Arc`.
///
/// # Errors
///
/// As for [`InterpretedDriver::new`].
pub fn interpret_direct(
    image: DriverImage,
    net: Network,
    local: Addr,
) -> DkResult<Arc<dyn Driver>> {
    Ok(Arc::new(InterpretedDriver::new(image, net, local)?))
}

struct InterpretedConnection {
    client: Option<RawClient>,
    gis: bool,
    locales: Vec<String>,
    requested_locale: Option<String>,
    txn: bool,
}

impl InterpretedConnection {
    fn client(&self) -> DkResult<&RawClient> {
        self.client
            .as_ref()
            .ok_or_else(|| DkError::Closed("connection is closed".into()))
    }

    fn track_txn(&mut self, sql: &str) {
        let head = leading_keyword(sql);
        let is = |kw: &str| head.eq_ignore_ascii_case(kw);
        if is("BEGIN") || is("START") {
            self.txn = true;
        } else if is("COMMIT") || is("ROLLBACK") {
            self.txn = false;
        }
    }
}

impl Connection for InterpretedConnection {
    fn execute(&mut self, sql: &str) -> DkResult<QueryResult> {
        let r = self.client()?.query(sql);
        if r.is_ok() {
            self.track_txn(sql);
        }
        r.map_err(DkError::from)
    }

    fn execute_params(&mut self, sql: &str, params: &Params) -> DkResult<QueryResult> {
        let client = self.client()?;
        if client.proto() < V2 {
            return Err(DkError::Unsupported(
                "parameterized statements require a protocol v2 driver".into(),
            ));
        }
        let r = client.query_params(sql, params);
        if r.is_ok() {
            self.track_txn(sql);
        }
        r.map_err(DkError::from)
    }

    fn begin(&mut self) -> DkResult<()> {
        self.execute("BEGIN").map(|_| ())
    }

    fn commit(&mut self) -> DkResult<()> {
        self.execute("COMMIT").map(|_| ())
    }

    fn rollback(&mut self) -> DkResult<()> {
        self.execute("ROLLBACK").map(|_| ())
    }

    fn in_transaction(&self) -> bool {
        self.txn
    }

    fn is_open(&self) -> bool {
        self.client.is_some()
    }

    fn close(&mut self) -> DkResult<()> {
        if let Some(mut c) = self.client.take() {
            c.close().map_err(DkError::from)?;
        }
        Ok(())
    }

    fn geo_query(&mut self, wkt: &str) -> DkResult<QueryResult> {
        if !self.gis {
            // The ClassNotFoundException analog: the GIS classes are not
            // in this driver's package.
            return Err(DkError::ExtensionMissing("gis".into()));
        }
        let escaped = wkt.replace('\'', "''");
        self.execute(&format!(
            "SELECT '{escaped}' AS geometry, length('{escaped}') AS wkt_len"
        ))
    }

    fn localized_message(&self, key: &str) -> DkResult<String> {
        let locale = self.requested_locale.as_deref().unwrap_or("en_US");
        if locale == "en_US" {
            return Ok(format!("[en_US] {key}"));
        }
        if self.locales.iter().any(|l| l == locale) {
            Ok(format!("[{locale}] {key}"))
        } else {
            Err(DkError::ExtensionMissing(format!("nls-{locale}")))
        }
    }
}

impl Drop for InterpretedConnection {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::wire::{DbServer, V1};
    use minidb::{AuthMethod, DbError, MiniDb, Value};

    fn setup(server_versions: &[u16]) -> (Network, Arc<MiniDb>, DbUrl) {
        let net = Network::new();
        let db = Arc::new(MiniDb::new("orders"));
        {
            let mut s = db.admin_session();
            db.exec(&mut s, "CREATE TABLE items (id INTEGER PRIMARY KEY)")
                .unwrap();
            db.exec(&mut s, "INSERT INTO items VALUES (1), (2)")
                .unwrap();
        }
        db.with_auth(|a| a.create_user("app", "pw").unwrap());
        net.bind_arc(
            Addr::new("db1", 5432),
            Arc::new(DbServer::with_versions(db.clone(), server_versions)),
        )
        .unwrap();
        let url = DbUrl::direct(Addr::new("db1", 5432), "orders");
        (net, db, url)
    }

    fn driver(net: &Network, image: DriverImage) -> InterpretedDriver {
        InterpretedDriver::new(image, net.clone(), Addr::new("app-host", 1)).unwrap()
    }

    #[test]
    fn v1_driver_connects_and_queries() {
        let (net, _db, url) = setup(&[V1, V2, V3]);
        let d = driver(&net, DriverImage::new("d", DriverVersion::new(1, 0, 0), V1));
        let mut c = d.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
        let rs = c
            .execute("SELECT count(*) FROM items")
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::BigInt(2));
        // v1 drivers cannot run parameterized statements.
        assert!(matches!(
            c.execute_params("SELECT 1", &Params::new()),
            Err(DkError::Unsupported(_))
        ));
        c.close().unwrap();
        assert!(!c.is_open());
        assert!(matches!(c.execute("SELECT 1"), Err(DkError::Closed(_))));
    }

    #[test]
    fn protocol_mismatch_fails_at_connect_like_paper_step_5() {
        // Server only speaks v1; a v3 driver must fail at connect time.
        let (net, _db, url) = setup(&[V1]);
        let d = driver(&net, DriverImage::new("d", DriverVersion::new(3, 0, 0), V3));
        let e = d
            .connect(&url, &ConnectProps::user("app", "pw"))
            .unwrap_err();
        assert!(matches!(e, DkError::Db(DbError::Protocol(_))), "{e}");
    }

    #[test]
    fn auth_method_mismatch_fails_at_authenticate_like_paper_step_6() {
        let (net, db, url) = setup(&[V1, V2, V3]);
        // Database now requires token auth.
        db.with_auth(|a| a.set_accepted_methods(&[AuthMethod::Token]));
        // A password-only driver fails at step 6.
        let d = driver(&net, DriverImage::new("d", DriverVersion::new(1, 0, 0), V1));
        let e = d
            .connect(&url, &ConnectProps::user("app", "pw"))
            .unwrap_err();
        assert!(matches!(e, DkError::Db(DbError::Auth(_))), "{e}");
        // A kerberos-capable v3 driver succeeds.
        let mut img = DriverImage::new("d3", DriverVersion::new(3, 0, 0), V3);
        img.auth_kinds = vec![AuthKind::Token];
        let secret = db.with_auth(|a| a.realm_secret().to_string());
        img.extensions.push(Extension::Kerberos {
            realm_secret: secret,
        });
        let d = driver(&net, img);
        d.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
    }

    #[test]
    fn challenge_auth_is_preferred_on_v2() {
        let (net, db, url) = setup(&[V1, V2, V3]);
        // Disable password auth entirely; only challenge remains usable.
        db.with_auth(|a| a.set_accepted_methods(&[AuthMethod::Challenge]));
        let mut img = DriverImage::new("d2", DriverVersion::new(2, 0, 0), V2);
        img.auth_kinds = vec![AuthKind::Password, AuthKind::Challenge];
        let d = driver(&net, img);
        d.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
    }

    #[test]
    fn preconfigured_target_ignores_url_host() {
        let (net, _db, _url) = setup(&[V1]);
        let mut img = DriverImage::new("dbmaster-driver", DriverVersion::new(1, 0, 0), V1);
        img.preconfigured_target = Some("db1:5432".into());
        let d = driver(&net, img);
        // URL points at a host that does not exist; the driver connects to
        // its preconfigured target anyway (Figure 4 semantics).
        let url = DbUrl::direct(Addr::new("nonexistent", 9), "orders");
        let mut c = d.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
        c.execute("SELECT 1").unwrap();
    }

    #[test]
    fn transactions_and_tracking() {
        let (net, _db, url) = setup(&[V1]);
        let d = driver(&net, DriverImage::new("d", DriverVersion::new(1, 0, 0), V1));
        let mut c = d
            .connect(&url, &ConnectProps::user("admin", "admin"))
            .unwrap();
        assert!(!c.in_transaction());
        c.begin().unwrap();
        assert!(c.in_transaction());
        c.execute("INSERT INTO items VALUES (3)").unwrap();
        assert!(c.in_transaction());
        c.rollback().unwrap();
        assert!(!c.in_transaction());
        // Plain execute of BEGIN is tracked too.
        c.execute("BEGIN").unwrap();
        assert!(c.in_transaction());
        c.execute("COMMIT").unwrap();
        assert!(!c.in_transaction());
    }

    #[test]
    fn gis_and_nls_extensions_gate_functionality() {
        let (net, _db, url) = setup(&[V1]);
        // Plain driver: both extension calls fail.
        let d = driver(&net, DriverImage::new("d", DriverVersion::new(1, 0, 0), V1));
        let mut c = d.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
        assert!(matches!(
            c.geo_query("POINT(1 2)"),
            Err(DkError::ExtensionMissing(m)) if m == "gis"
        ));
        assert_eq!(c.localized_message("hello").unwrap(), "[en_US] hello");
        let props_fr = ConnectProps::user("app", "pw").with_locale("fr_FR");
        let c2 = d.connect(&url, &props_fr).unwrap();
        assert!(matches!(
            c2.localized_message("hello"),
            Err(DkError::ExtensionMissing(m)) if m == "nls-fr_FR"
        ));
        // Enriched driver: both work.
        let mut img = DriverImage::new("rich", DriverVersion::new(1, 1, 0), V1);
        img.extensions = vec![
            Extension::Gis,
            Extension::Nls {
                locale: "fr_FR".into(),
            },
        ];
        let d = driver(&net, img);
        let mut c = d.connect(&url, &props_fr).unwrap();
        let rs = c.geo_query("POINT(1 2)").unwrap().rows().unwrap();
        assert_eq!(rs.rows[0][0], Value::str("POINT(1 2)"));
        assert_eq!(c.localized_message("hello").unwrap(), "[fr_FR] hello");
    }

    #[test]
    fn cluster_image_is_rejected_by_direct_factory() {
        let (net, _db, _url) = setup(&[V1]);
        let mut img = DriverImage::new("seq", DriverVersion::new(1, 0, 0), V1);
        img.flavor = DriverFlavor::Cluster;
        assert!(matches!(
            InterpretedDriver::new(img, net, Addr::new("a", 1)),
            Err(DkError::Unsupported(_))
        ));
    }

    #[test]
    fn single_host_failure_preserves_cause() {
        let (net, _db, url) = setup(&[V1]);
        net.with_faults(|f| f.take_down("db1"));
        let d = driver(&net, DriverImage::new("d", DriverVersion::new(1, 0, 0), V1));
        let e = d
            .connect(&url, &ConnectProps::user("app", "pw"))
            .unwrap_err();
        assert!(matches!(e, DkError::Db(DbError::Session(_))));
    }
}
