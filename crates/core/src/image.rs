//! The driver image — this reproduction's "driver binary code".
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The paper ships JVM bytecode and loads it with a classloader. Rust has
//! no stable ABI, so shipping compiled code is not faithfully
//! reproducible; instead a [`DriverImage`] is a complete *declarative
//! specification* of a driver's behaviour — which wire protocol version it
//! speaks, which authentication methods it implements, which extensions
//! (GIS, NLS, Kerberos) it bundles, its preconfigured target, its failover
//! capability. `driverkit`'s driver VM instantiates a live `Driver` object
//! from an image at runtime, giving the same observable lifecycle as
//! dynamic class loading: code arrives as bytes, multiple versions load
//! side by side, new connects switch atomically, old versions unload.

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{
    get_code, get_items, get_opt_str, get_str, get_u16, get_u8, put_opt_str, put_str, wire_enum,
};

use crate::descriptor::ApiName;
use crate::digest::fnv1a64;
use crate::error::{DrvError, DrvResult};
use crate::version::{ApiVersion, DriverVersion};

wire_enum! {
    /// Authentication methods a driver implements (mirrors the database's
    /// methods without depending on the `minidb` crate).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum AuthKind: u8 {
        /// Cleartext password.
        Password = 0,
        /// Nonce/response challenge.
        Challenge = 1,
        /// Realm token (requires the [`Extension::Kerberos`] package).
        Token = 2,
    }
}

/// Optional driver packages (paper §5.4.1: NLS, GIS, Kerberos bundles).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Extension {
    /// Geographic Information System support.
    Gis,
    /// National Language Support for one locale.
    Nls {
        /// Locale code, e.g. `fr_FR`.
        locale: String,
    },
    /// Kerberos-like token authentication (the DB2 "12 libraries" case);
    /// carries the realm secret a keytab would hold.
    Kerberos {
        /// Shared realm secret used to derive tokens.
        realm_secret: String,
    },
}

impl Extension {
    /// Stable name used for package entries and lazy fetch requests.
    pub fn name(&self) -> String {
        match self {
            Extension::Gis => "gis".to_string(),
            Extension::Nls { locale } => format!("nls-{locale}"),
            Extension::Kerberos { .. } => "kerberos".to_string(),
        }
    }

    fn encode(&self, b: &mut BytesMut) {
        match self {
            Extension::Gis => b.put_u8(0),
            Extension::Nls { locale } => {
                b.put_u8(1);
                put_str(b, locale);
            }
            Extension::Kerberos { realm_secret } => {
                b.put_u8(2);
                put_str(b, realm_secret);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> DrvResult<Self> {
        match get_u8(buf, "extension tag")? {
            0 => Ok(Extension::Gis),
            1 => Ok(Extension::Nls {
                locale: get_str(buf, "locale")?,
            }),
            2 => Ok(Extension::Kerberos {
                realm_secret: get_str(buf, "realm secret")?,
            }),
            t => Err(DrvError::Codec(format!("unknown extension tag {t}"))),
        }
    }
}

wire_enum! {
    /// Which middleware protocol the driver speaks.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
    pub enum DriverFlavor: u8 {
        /// Talks directly to a `minidb` wire server.
        #[default]
        Direct = 0,
        /// Talks to Sequoia-like cluster controllers (supports multi-host
        /// URLs with failover, like the paper's Sequoia JDBC driver).
        Cluster = 1,
    }
}

/// A complete driver specification — the bytes stored in the
/// `binary_code` BLOB are a packed container whose main entry encodes one
/// of these.
#[derive(Clone, Debug, PartialEq)]
pub struct DriverImage {
    /// Human-readable driver name (e.g. `minidb-rdbc`).
    pub name: String,
    /// Vendor string.
    pub vendor: String,
    /// Driver version.
    pub version: DriverVersion,
    /// Implemented API.
    pub api_name: ApiName,
    /// Implemented API version.
    pub api_version: ApiVersion,
    /// Middleware flavor.
    pub flavor: DriverFlavor,
    /// Database wire-protocol version this driver speaks.
    pub db_protocol: u16,
    /// Authentication methods the driver implements.
    pub auth_kinds: Vec<AuthKind>,
    /// Bundled extension packages.
    pub extensions: Vec<Extension>,
    /// Options enforced at load time (paper Table 2 `driver_options` are
    /// merged into these by the server).
    pub default_options: Vec<(String, String)>,
    /// When set, the driver ignores the host in the connection URL and
    /// always connects here — the paper's pre-generated `DBmaster` /
    /// `DBslave` failover drivers (Figure 4).
    pub preconfigured_target: Option<String>,
}

impl DriverImage {
    /// Creates a minimal direct driver for the given protocol version.
    pub fn new(name: impl Into<String>, version: DriverVersion, db_protocol: u16) -> Self {
        DriverImage {
            name: name.into(),
            vendor: "drivolution reproduction".to_string(),
            version,
            api_name: ApiName::rdbc(),
            api_version: ApiVersion::exact(1, 0),
            flavor: DriverFlavor::Direct,
            db_protocol,
            auth_kinds: vec![AuthKind::Password],
            extensions: Vec::new(),
            default_options: Vec::new(),
            preconfigured_target: None,
        }
    }

    /// Returns the bundled extension with the given stable name, if any.
    pub fn extension(&self, name: &str) -> Option<&Extension> {
        self.extensions.iter().find(|e| e.name() == name)
    }

    /// Whether the driver implements `kind` (token auth additionally
    /// requires the Kerberos extension, mirroring the DB2 packaging case).
    pub fn supports_auth(&self, kind: AuthKind) -> bool {
        if !self.auth_kinds.contains(&kind) {
            return false;
        }
        if kind == AuthKind::Token {
            return self
                .extensions
                .iter()
                .any(|e| matches!(e, Extension::Kerberos { .. }));
        }
        true
    }

    /// Serializes the image.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        put_str(&mut b, &self.name);
        put_str(&mut b, &self.vendor);
        put_str(&mut b, &self.version.to_string());
        put_str(&mut b, self.api_name.as_str());
        put_str(&mut b, &self.api_version.to_string());
        b.put_u8(self.flavor.code());
        b.put_u16_le(self.db_protocol);
        b.put_u8(self.auth_kinds.len() as u8);
        for a in &self.auth_kinds {
            b.put_u8(a.code());
        }
        b.put_u8(self.extensions.len() as u8);
        for e in &self.extensions {
            e.encode(&mut b);
        }
        b.put_u16_le(self.default_options.len() as u16);
        for (k, v) in &self.default_options {
            put_str(&mut b, k);
            put_str(&mut b, v);
        }
        put_opt_str(&mut b, self.preconfigured_target.as_deref());
        b.freeze()
    }

    /// Deserializes an image.
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] on malformed bytes.
    pub fn decode(mut buf: Bytes) -> DrvResult<Self> {
        let name = get_str(&mut buf, "name")?;
        let vendor = get_str(&mut buf, "vendor")?;
        let version: DriverVersion = get_str(&mut buf, "version")?.parse()?;
        let api_name: ApiName = get_str(&mut buf, "api name")?.parse()?;
        let api_version: ApiVersion = get_str(&mut buf, "api version")?.parse()?;
        let flavor = get_code(&mut buf, "driver flavor", DriverFlavor::from_code)?;
        let db_protocol = get_u16(&mut buf, "db protocol")?;
        let n_auth = get_u8(&mut buf, "auth count")?;
        let auth_kinds = get_items(&mut buf, "auth kinds", n_auth.into(), 1, |buf| {
            get_code(buf, "auth kind", AuthKind::from_code)
        })?;
        let n_ext = get_u8(&mut buf, "extension count")?;
        let extensions = get_items(&mut buf, "extensions", n_ext.into(), 1, Extension::decode)?;
        let n_opt = get_u16(&mut buf, "option count")?;
        let default_options = get_items(&mut buf, "default options", n_opt.into(), 8, |buf| {
            Ok::<_, DrvError>((get_str(buf, "option key")?, get_str(buf, "option value")?))
        })?;
        let preconfigured_target = get_opt_str(&mut buf, "target")?;
        Ok(DriverImage {
            name,
            vendor,
            version,
            api_name,
            api_version,
            flavor,
            db_protocol,
            auth_kinds,
            extensions,
            default_options,
            preconfigured_target,
        })
    }

    /// Content digest of the encoded image (used by signatures and
    /// integrity checks).
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_image() -> DriverImage {
        let mut img = DriverImage::new("minidb-rdbc", DriverVersion::new(2, 1, 0), 2);
        img.auth_kinds = vec![AuthKind::Password, AuthKind::Challenge, AuthKind::Token];
        img.extensions = vec![
            Extension::Gis,
            Extension::Nls {
                locale: "fr_FR".into(),
            },
            Extension::Kerberos {
                realm_secret: "realm".into(),
            },
        ];
        img.default_options = vec![("fetch_size".into(), "100".into())];
        img.preconfigured_target = Some("dbmaster:5432".into());
        img.flavor = DriverFlavor::Cluster;
        img
    }

    #[test]
    fn image_roundtrip() {
        let img = rich_image();
        let round = DriverImage::decode(img.encode()).unwrap();
        assert_eq!(round, img);
    }

    #[test]
    fn minimal_image_roundtrip() {
        let img = DriverImage::new("d", DriverVersion::new(1, 0, 0), 1);
        assert_eq!(DriverImage::decode(img.encode()).unwrap(), img);
    }

    #[test]
    fn token_auth_requires_kerberos_extension() {
        let mut img = DriverImage::new("d", DriverVersion::new(1, 0, 0), 3);
        img.auth_kinds = vec![AuthKind::Token];
        assert!(!img.supports_auth(AuthKind::Token));
        img.extensions.push(Extension::Kerberos {
            realm_secret: "r".into(),
        });
        assert!(img.supports_auth(AuthKind::Token));
        assert!(!img.supports_auth(AuthKind::Password));
    }

    #[test]
    fn extension_lookup_by_name() {
        let img = rich_image();
        assert!(img.extension("gis").is_some());
        assert!(img.extension("nls-fr_FR").is_some());
        assert!(img.extension("kerberos").is_some());
        assert!(img.extension("nls-de_DE").is_none());
    }

    #[test]
    fn digest_changes_with_content() {
        let a = rich_image();
        let mut b = a.clone();
        b.db_protocol = 3;
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), rich_image().digest());
    }

    #[test]
    fn truncated_image_rejected() {
        let enc = rich_image().encode();
        for cut in [1usize, 5, 10, enc.len() - 1] {
            assert!(DriverImage::decode(enc.slice(0..cut)).is_err());
        }
    }
}
