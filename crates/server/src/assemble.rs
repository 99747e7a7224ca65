//! On-demand driver assembly (paper §5.4.1): serve each client a driver
//! with exactly the feature set it needs, generated dynamically by
//! aggregating packages.

use std::collections::BTreeMap;

use parking_lot::RwLock;

use drivolution_core::image::Extension;
use drivolution_core::{DriverImage, DrvError, DrvResult};

/// A catalog of extension packages the server can graft onto base driver
/// images (the Oracle NLS packages, PostGIS extensions, DB2 Kerberos
/// libraries of the paper).
#[derive(Debug, Default)]
pub struct Assembler {
    packages: RwLock<BTreeMap<String, Extension>>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Registers an extension package under its stable name.
    pub fn register(&self, ext: Extension) {
        self.packages.write().insert(ext.name(), ext);
    }

    /// Looks up a package.
    pub fn package(&self, name: &str) -> Option<Extension> {
        self.packages.read().get(name).cloned()
    }

    /// Returns `image` with `ext_name` grafted on — what the server sends
    /// when a bootloader traps the ClassNotFound analog and asks for the
    /// missing package.
    ///
    /// # Errors
    ///
    /// [`DrvError::NoMatchingDriver`] when the package is not in the
    /// catalog.
    pub fn with_extension(&self, image: &DriverImage, ext_name: &str) -> DrvResult<DriverImage> {
        let ext = self.package(ext_name).ok_or_else(|| {
            DrvError::NoMatchingDriver(format!("no extension package {ext_name:?}"))
        })?;
        let mut out = image.clone();
        if out.extension(ext_name).is_none() {
            out.extensions.push(ext);
        }
        Ok(out)
    }

    /// Customizes a base image to a client's requested options:
    ///
    /// * `locale=<code>` keeps only the matching NLS package (plus adds it
    ///   from the catalog if absent) — clients don't download "an
    ///   unnecessary large driver that contains features not used by the
    ///   application";
    /// * `gis=true` adds the GIS package; absence strips it;
    /// * `kerberos=true` adds the Kerberos package; absence strips it.
    ///
    /// # Errors
    ///
    /// [`DrvError::NoMatchingDriver`] when a requested package is neither
    /// bundled nor in the catalog.
    pub fn customize(
        &self,
        image: &DriverImage,
        options: &[(String, String)],
    ) -> DrvResult<DriverImage> {
        let get = |k: &str| {
            options
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        let mut out = image.clone();
        let locale = get("locale");
        let want_gis = get("gis") == Some("true");
        let want_kerberos = get("kerberos") == Some("true");

        out.extensions.retain(|e| match e {
            Extension::Nls { locale: l } => locale == Some(l.as_str()),
            Extension::Gis => want_gis,
            Extension::Kerberos { .. } => want_kerberos,
        });
        if let Some(l) = locale {
            let name = format!("nls-{l}");
            if out.extension(&name).is_none() {
                let ext = self.package(&name).ok_or_else(|| {
                    DrvError::NoMatchingDriver(format!("no NLS package for locale {l}"))
                })?;
                out.extensions.push(ext);
            }
        }
        if want_gis && out.extension("gis").is_none() {
            let ext = self
                .package("gis")
                .ok_or_else(|| DrvError::NoMatchingDriver("no GIS package".into()))?;
            out.extensions.push(ext);
        }
        if want_kerberos && out.extension("kerberos").is_none() {
            let ext = self
                .package("kerberos")
                .ok_or_else(|| DrvError::NoMatchingDriver("no Kerberos package".into()))?;
            out.extensions.push(ext);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivolution_core::DriverVersion;

    fn assembler() -> Assembler {
        let a = Assembler::new();
        a.register(Extension::Gis);
        a.register(Extension::Nls {
            locale: "fr_FR".into(),
        });
        a.register(Extension::Nls {
            locale: "de_DE".into(),
        });
        a.register(Extension::Kerberos {
            realm_secret: "realm".into(),
        });
        a
    }

    fn base() -> DriverImage {
        DriverImage::new("base", DriverVersion::new(1, 0, 0), 2)
    }

    #[test]
    fn catalog_listing() {
        let a = assembler();
        for name in ["gis", "kerberos", "nls-de_DE", "nls-fr_FR"] {
            assert!(a.package(name).is_some(), "{name}");
        }
        assert!(a.package("nls-xx_XX").is_none());
    }

    #[test]
    fn graft_extension_is_idempotent() {
        let a = assembler();
        let img = a.with_extension(&base(), "gis").unwrap();
        assert!(img.extension("gis").is_some());
        let img2 = a.with_extension(&img, "gis").unwrap();
        assert_eq!(img2.extensions.len(), 1);
        assert!(a.with_extension(&base(), "nosuch").is_err());
    }

    #[test]
    fn customize_keeps_only_requested_locale() {
        let a = assembler();
        let mut img = base();
        img.extensions = vec![
            Extension::Nls {
                locale: "fr_FR".into(),
            },
            Extension::Nls {
                locale: "de_DE".into(),
            },
            Extension::Gis,
        ];
        let out = a
            .customize(&img, &[("locale".into(), "fr_FR".into())])
            .unwrap();
        // Only the French NLS remains; GIS stripped (not requested).
        assert_eq!(out.extensions.len(), 1);
        assert!(out.extension("nls-fr_FR").is_some());
    }

    #[test]
    fn customize_adds_from_catalog() {
        let a = assembler();
        let out = a
            .customize(
                &base(),
                &[
                    ("gis".into(), "true".into()),
                    ("locale".into(), "de_DE".into()),
                    ("kerberos".into(), "true".into()),
                ],
            )
            .unwrap();
        assert!(out.extension("gis").is_some());
        assert!(out.extension("nls-de_DE").is_some());
        assert!(out.extension("kerberos").is_some());
    }

    #[test]
    fn unknown_locale_is_an_error() {
        let a = assembler();
        assert!(a
            .customize(&base(), &[("locale".into(), "xx_XX".into())])
            .is_err());
    }

    #[test]
    fn no_options_strips_everything_optional() {
        let a = assembler();
        let mut img = base();
        img.extensions = vec![Extension::Gis];
        let out = a.customize(&img, &[]).unwrap();
        assert!(out.extensions.is_empty());
    }
}
