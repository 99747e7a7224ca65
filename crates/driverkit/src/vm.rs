//! The driver VM: turns downloaded driver bytes into live [`Driver`]
//! objects — the dynamic-class-loading analog (see DESIGN.md).

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use netsim::{Addr, Network};

use drivolution_core::pack::unpack_driver;
use drivolution_core::{ApiName, BinaryFormat, DriverFlavor, DriverImage};

use crate::api::Driver;
use crate::error::{DkError, DkResult};
use crate::interpreted::InterpretedDriver;

/// Instantiates drivers of one [`DriverFlavor`]. The cluster middleware
/// registers its own factory for [`DriverFlavor::Cluster`].
pub trait DriverFactory: Send + Sync {
    /// Builds a live driver from an image, keeping the loader's `Arc`
    /// rather than a copy of the image.
    ///
    /// # Errors
    ///
    /// [`DkError::Unsupported`] for images this factory cannot interpret.
    fn instantiate(&self, image: Arc<DriverImage>) -> DkResult<Arc<dyn Driver>>;
}

struct DirectFactory {
    net: Network,
    local: Addr,
}

impl DriverFactory for DirectFactory {
    fn instantiate(&self, image: Arc<DriverImage>) -> DkResult<Arc<dyn Driver>> {
        Ok(Arc::new(InterpretedDriver::new(
            image,
            self.net.clone(),
            self.local.clone(),
        )?))
    }
}

/// The driver VM hosted inside a client application (next to the
/// bootloader).
pub struct DriverVm {
    host_api: ApiName,
    /// The direct flavor's factory, unless one is registered for it.
    direct: DirectFactory,
    /// Registered factories: empty, and unallocated, until the first.
    factories: RwLock<HashMap<DriverFlavor, Arc<dyn DriverFactory>>>,
}

impl std::fmt::Debug for DriverVm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverVm")
            .field("host_api", &self.host_api)
            .field("factories", &self.factories.read().len())
            .finish()
    }
}

impl DriverVm {
    /// Creates a VM for an application on `local`, loading direct-flavor
    /// drivers until another factory is registered for them.
    pub fn new(net: Network, local: Addr) -> Self {
        DriverVm {
            host_api: ApiName::rdbc(),
            direct: DirectFactory { net, local },
            factories: RwLock::new(HashMap::new()),
        }
    }

    /// Registers (or replaces) the factory for a flavor.
    pub fn register_factory(&self, flavor: DriverFlavor, factory: Arc<dyn DriverFactory>) {
        self.factories.write().insert(flavor, factory);
    }

    /// Loads driver bytes: unpack container, decode image, check API
    /// compatibility, instantiate. The image is held once: the driver and
    /// the caller share the returned `Arc`.
    ///
    /// The API check is the paper's lifecycle step 4 failure mode
    /// ("mismatches between the binary format of the driver and the
    /// hardware platform or incompatible compilation/linking options"):
    /// it happens at *load* time, before any connection is attempted.
    ///
    /// # Errors
    ///
    /// * [`DkError::Drv`] — malformed or corrupted container.
    /// * [`DkError::Unsupported`] — wrong API or missing flavor factory.
    pub fn load(
        &self,
        format: BinaryFormat,
        bytes: Bytes,
    ) -> DkResult<(Arc<DriverImage>, Arc<dyn Driver>)> {
        let image = Arc::new(unpack_driver(format, bytes)?);
        if image.api_name != self.host_api {
            return Err(DkError::Unsupported(format!(
                "driver implements API {}, application expects {}",
                image.api_name, self.host_api
            )));
        }
        let registered = self.factories.read().get(&image.flavor).cloned();
        let driver = match registered {
            Some(factory) => factory.instantiate(Arc::clone(&image))?,
            None if image.flavor == DriverFlavor::Direct => {
                self.direct.instantiate(Arc::clone(&image))?
            }
            None => {
                return Err(DkError::Unsupported(format!(
                    "no factory registered for driver flavor {:?}",
                    image.flavor
                )))
            }
        };
        Ok((image, driver))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivolution_core::pack::pack_driver;
    use drivolution_core::DriverVersion;

    fn vm() -> DriverVm {
        DriverVm::new(Network::new(), Addr::new("app", 1))
    }

    fn image() -> DriverImage {
        DriverImage::new("d", DriverVersion::new(1, 0, 0), 1)
    }

    #[test]
    fn load_roundtrip() {
        let bytes = pack_driver(BinaryFormat::Djar, &image());
        let (img, driver) = vm().load(BinaryFormat::Djar, bytes).unwrap();
        assert_eq!(*img, image());
        assert_eq!(driver.name(), "d");
        assert_eq!(driver.version(), DriverVersion::new(1, 0, 0));
    }

    #[test]
    fn corrupted_package_fails_at_load() {
        let bytes = pack_driver(BinaryFormat::Djar, &image());
        let mut bad = bytes.to_vec();
        bad[10] ^= 0xff;
        assert!(matches!(
            vm().load(BinaryFormat::Djar, Bytes::from(bad)),
            Err(DkError::Drv(_))
        ));
    }

    #[test]
    fn wrong_api_fails_at_load_like_paper_step_4() {
        let mut img = image();
        img.api_name = ApiName::new("ODBC");
        let bytes = pack_driver(BinaryFormat::Dzip, &img);
        let e = vm().load(BinaryFormat::Dzip, bytes).unwrap_err();
        assert!(matches!(e, DkError::Unsupported(m) if m.contains("ODBC")));
    }

    #[test]
    fn cluster_flavor_needs_registered_factory() {
        let mut img = image();
        img.flavor = DriverFlavor::Cluster;
        let bytes = pack_driver(BinaryFormat::Djar, &img);
        let e = vm().load(BinaryFormat::Djar, bytes).unwrap_err();
        assert!(matches!(e, DkError::Unsupported(m) if m.contains("flavor")));

        // Registering a factory makes it loadable.
        struct Fake;
        impl DriverFactory for Fake {
            fn instantiate(&self, image: Arc<DriverImage>) -> DkResult<Arc<dyn Driver>> {
                // Reuse the direct interpreter by rewriting the flavor —
                // good enough for the registry test.
                let mut img = DriverImage::clone(&image);
                img.flavor = DriverFlavor::Direct;
                Ok(Arc::new(
                    InterpretedDriver::new(img, Network::new(), Addr::new("x", 1)).unwrap(),
                ))
            }
        }
        let vm = vm();
        vm.register_factory(DriverFlavor::Cluster, Arc::new(Fake));
        let mut img = image();
        img.flavor = DriverFlavor::Cluster;
        let bytes = pack_driver(BinaryFormat::Djar, &img);
        vm.load(BinaryFormat::Djar, bytes).unwrap();
    }
}
