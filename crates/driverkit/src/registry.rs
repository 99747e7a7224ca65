//! Driver namespaces: side-by-side loaded driver versions with one active
//! namespace for new connections — the classloader-isolation analog
//! (§3.1.1: the bootloader "has the ability to load multiple
//! implementations of drivers and to switch from one implementation to
//! another, so that new connect calls can use a more recent driver
//! version").

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use drivolution_core::{DriverId, DriverImage, Lease};

use crate::api::Driver;
use crate::error::{DkError, DkResult};

/// Identifier of a loaded driver namespace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NamespaceId(pub u64);

impl fmt::Display for NamespaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ns#{}", self.0)
    }
}

/// A loaded driver with its image, lease, and lifecycle flags. A clone
/// shares the driver, the image and the options: [`DriverRegistry::active`]
/// hands one out on every idle poll, and that must not allocate.
#[derive(Clone)]
pub struct Namespace {
    /// Namespace id.
    pub id: NamespaceId,
    /// The live driver object.
    pub driver: Arc<dyn Driver>,
    /// The image it was interpreted from.
    pub image: Arc<DriverImage>,
    /// The driver-table id it was served under.
    pub driver_id: DriverId,
    /// The governing lease.
    pub lease: Lease,
    /// Options the server attached to the offer (Table 2
    /// `driver_options`), merged into connect properties.
    pub options: Arc<Vec<(String, String)>>,
    /// Retired namespaces serve no new connections.
    pub retired: bool,
}

impl fmt::Debug for Namespace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Namespace")
            .field("id", &self.id)
            .field("driver", &self.image.name)
            .field("version", &self.image.version)
            .field("retired", &self.retired)
            .finish()
    }
}

/// Registry of loaded driver namespaces.
#[derive(Debug, Default)]
pub struct DriverRegistry {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    next: u64,
    /// The loaded namespaces (one, two mid-upgrade) and no spare room: a
    /// first `push` would reserve four, an unload would keep its slot.
    spaces: Vec<Namespace>,
    active: Option<NamespaceId>,
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner")
            .field("loaded", &self.spaces.len())
            .field("active", &self.active)
            .finish()
    }
}

impl DriverRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DriverRegistry::default()
    }

    /// Loads a driver into a fresh namespace (not yet active).
    pub fn load(
        &self,
        driver: Arc<dyn Driver>,
        image: Arc<DriverImage>,
        driver_id: DriverId,
        lease: Lease,
        options: Vec<(String, String)>,
    ) -> NamespaceId {
        let mut inner = self.inner.lock();
        inner.next += 1;
        let id = NamespaceId(inner.next);
        inner.spaces.reserve_exact(1);
        inner.spaces.push(Namespace {
            id,
            driver,
            image,
            driver_id,
            lease,
            options: Arc::new(options),
            retired: false,
        });
        id
    }

    /// Makes `id` the namespace serving new connections, retiring the
    /// previously active one.
    ///
    /// # Errors
    ///
    /// [`DkError::Closed`] for unknown or retired namespaces.
    pub fn activate(&self, id: NamespaceId) -> DkResult<()> {
        let mut inner = self.inner.lock();
        let Some(ns) = inner.spaces.iter().find(|n| n.id == id) else {
            return Err(DkError::Closed(format!("unknown namespace {id}")));
        };
        if ns.retired {
            return Err(DkError::Closed(format!("namespace {id} is retired")));
        }
        if let Some(prev) = inner.active {
            if prev != id {
                if let Some(p) = inner.spaces.iter_mut().find(|n| n.id == prev) {
                    p.retired = true;
                }
            }
        }
        inner.active = Some(id);
        Ok(())
    }

    /// The namespace currently serving new connections.
    pub fn active(&self) -> Option<Namespace> {
        let inner = self.inner.lock();
        let id = inner.active?;
        inner.spaces.iter().find(|n| n.id == id).cloned()
    }

    /// Looks up a namespace.
    pub fn get(&self, id: NamespaceId) -> Option<Namespace> {
        self.inner
            .lock()
            .spaces
            .iter()
            .find(|n| n.id == id)
            .cloned()
    }

    /// Replaces the lease of a namespace (after a RENEW offer).
    ///
    /// # Errors
    ///
    /// [`DkError::Closed`] for unknown namespaces.
    pub fn set_lease(&self, id: NamespaceId, lease: Lease) -> DkResult<()> {
        let mut inner = self.inner.lock();
        match inner.spaces.iter_mut().find(|n| n.id == id) {
            Some(ns) => {
                ns.lease = lease;
                Ok(())
            }
            None => Err(DkError::Closed(format!("unknown namespace {id}"))),
        }
    }

    /// Marks a namespace retired (no new connections) without unloading.
    pub fn retire(&self, id: NamespaceId) {
        let mut inner = self.inner.lock();
        if inner.active == Some(id) {
            inner.active = None;
        }
        if let Some(ns) = inner.spaces.iter_mut().find(|n| n.id == id) {
            ns.retired = true;
        }
    }

    /// Unloads a retired namespace (the `unload_old_driver` step of
    /// Table 4).
    ///
    /// # Errors
    ///
    /// [`DkError::Closed`] when the namespace is still active.
    pub fn unload(&self, id: NamespaceId) -> DkResult<()> {
        let mut inner = self.inner.lock();
        if inner.active == Some(id) {
            return Err(DkError::Closed(format!(
                "cannot unload active namespace {id}"
            )));
        }
        inner.spaces.retain(|n| n.id != id);
        inner.spaces.shrink_to_fit();
        Ok(())
    }

    /// Ids of all loaded namespaces, oldest first.
    pub fn loaded(&self) -> Vec<NamespaceId> {
        self.inner.lock().spaces.iter().map(|n| n.id).collect()
    }

    /// Number of loaded namespaces.
    pub fn len(&self) -> usize {
        self.inner.lock().spaces.len()
    }

    /// Whether no driver is loaded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().spaces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ConnectProps, Connection};
    use crate::url::DbUrl;
    use drivolution_core::{DriverVersion, ExpirationPolicy, RenewPolicy};

    struct FakeDriver(&'static str);
    impl Driver for FakeDriver {
        fn name(&self) -> &str {
            self.0
        }
        fn version(&self) -> DriverVersion {
            DriverVersion::new(1, 0, 0)
        }
        fn connect(&self, _url: &DbUrl, _props: &ConnectProps) -> DkResult<Box<dyn Connection>> {
            Err(DkError::Unsupported("fake".into()))
        }
    }

    fn lease() -> Lease {
        Lease::grant(
            DriverId(1),
            0,
            1_000,
            RenewPolicy::Renew,
            ExpirationPolicy::AfterClose,
        )
        .unwrap()
    }

    fn image(name: &str) -> Arc<DriverImage> {
        Arc::new(DriverImage::new(name, DriverVersion::new(1, 0, 0), 1))
    }

    #[test]
    fn load_activate_switch_retire_unload() {
        let reg = DriverRegistry::new();
        assert!(reg.is_empty());
        let a = reg.load(
            Arc::new(FakeDriver("a")),
            image("a"),
            DriverId(1),
            lease(),
            Vec::new(),
        );
        let b = reg.load(
            Arc::new(FakeDriver("b")),
            image("b"),
            DriverId(2),
            lease(),
            Vec::new(),
        );
        assert_eq!(reg.len(), 2);
        assert!(reg.active().is_none());

        reg.activate(a).unwrap();
        assert_eq!(reg.active().unwrap().id, a);

        // Switching retires the old namespace.
        reg.activate(b).unwrap();
        assert_eq!(reg.active().unwrap().id, b);
        assert!(reg.get(a).unwrap().retired);
        // Retired namespaces cannot be re-activated.
        assert!(reg.activate(a).is_err());

        // Active namespaces cannot be unloaded; retired ones can.
        assert!(reg.unload(b).is_err());
        reg.unload(a).unwrap();
        assert_eq!(reg.loaded(), vec![b]);
    }

    #[test]
    fn retire_active_clears_active() {
        let reg = DriverRegistry::new();
        let a = reg.load(
            Arc::new(FakeDriver("a")),
            image("a"),
            DriverId(1),
            lease(),
            Vec::new(),
        );
        reg.activate(a).unwrap();
        reg.retire(a);
        assert!(reg.active().is_none());
        reg.unload(a).unwrap();
        assert!(reg.is_empty());
    }

    #[test]
    fn set_lease_updates() {
        let reg = DriverRegistry::new();
        let a = reg.load(
            Arc::new(FakeDriver("a")),
            image("a"),
            DriverId(1),
            lease(),
            Vec::new(),
        );
        let newer = Lease::grant(
            DriverId(1),
            500,
            2_000,
            RenewPolicy::Upgrade,
            ExpirationPolicy::Immediate,
        )
        .unwrap();
        reg.set_lease(a, newer.clone()).unwrap();
        assert_eq!(reg.get(a).unwrap().lease, newer);
        assert!(reg.set_lease(NamespaceId(99), newer).is_err());
    }

    #[test]
    fn unknown_namespace_operations_error() {
        let reg = DriverRegistry::new();
        assert!(reg.activate(NamespaceId(1)).is_err());
        assert!(reg.get(NamespaceId(1)).is_none());
        reg.retire(NamespaceId(1)); // no-op
        reg.unload(NamespaceId(1)).unwrap(); // no-op removal
    }
}
