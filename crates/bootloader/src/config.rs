//! Bootloader configuration.

use std::sync::Arc;
use std::time::Duration;

use netsim::Addr;

use drivolution_core::{
    ApiVersion, BinaryFormat, ChannelTrust, DriverImage, DriverVersion, TransferMethod, TrustStore,
    DRIVOLUTION_PORT,
};
use drivolution_depot::{DriverDepot, SharedImageCache};

use crate::swap::SwapConfig;

/// The function shape behind an [`ActivationCheck`].
type CheckFn = dyn Fn(&DriverImage) -> Result<(), String> + Send + Sync;

/// Post-activation self-check run after a driver upgrade: receives the
/// freshly activated image and returns `Err(detail)` when the driver
/// fails it. Harnesses inject activation regressions through this hook;
/// real deployments could wire a connectivity probe.
#[derive(Clone)]
pub struct ActivationCheck(Arc<CheckFn>);

impl ActivationCheck {
    /// Wraps a check function.
    pub fn new<F>(check: F) -> Self
    where
        F: Fn(&DriverImage) -> Result<(), String> + Send + Sync + 'static,
    {
        ActivationCheck(Arc::new(check))
    }

    /// Runs the check against an activated image.
    pub fn run(&self, image: &DriverImage) -> Result<(), String> {
        (self.0)(image)
    }
}

impl std::fmt::Debug for ActivationCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ActivationCheck(..)")
    }
}

/// How the bootloader finds a Drivolution server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerLocator {
    /// A fixed list of trusted servers, tried in order (the dual-URL
    /// configuration of §5.3.1, and multi-controller failover of §5.3.2).
    Fixed(Vec<Addr>),
    /// Derive the server from the connection URL's host on the given port
    /// (in-database Drivolution, Figure 1/3).
    SameHost {
        /// The Drivolution service port on the database host.
        port: u16,
    },
    /// Broadcast `DRIVOLUTION_DISCOVER` on the given port and pick the
    /// first answering server (the DHCP-like mode of §3.1).
    Discover {
        /// Port Drivolution servers listen on.
        port: u16,
    },
}

/// How a bootloader drives its own lifecycle on the network's
/// [`netsim::Scheduler`] instead of waiting for application calls.
///
/// A bootloader that polls, auto-renews or hot-swaps registers one
/// scheduler task, `lifecycle <addr>` ([`crate::Bootloader::lifecycle_task`]).
/// It is armed at the earliest due job and, when it fires, runs the due
/// ones in a fixed order:
///
/// * the **poll**, which drains pushed notices and runs the lease state
///   machine — the timer thread §3.4.2 describes, without anybody writing
///   one. It is due at the earliest of the first `poll_every` tick whose
///   turn comes with the clock at or after the lease's renew-due point
///   (requests charge their round trips to the clock, so a pump can run
///   late; the next tick while a notify channel is open or a failed
///   renewal is owed) and, with
///   `auto_renew`, the renew-due point plus a seed-reproducible spread
///   over the margin's front three quarters (the last quarter is latency
///   and retry slack), or one 30 s retry after a failed renewal. The
///   spread keeps a fleet granted leases in one wave from renewing on the
///   same tick; the poll grid bounds each renewal, so the spread never
///   accumulates from lease to lease;
/// * the 30 s **session sweep**, while a session is tracked (self-driving
///   or swap-enabled bootloaders);
/// * the **swap tick**, while a hot-swap coexistence window is open.
///
/// A job with nothing to do costs the pump nothing. The poll and sweep
/// ticks lie on grids from the registration instant, shifted by one
/// `poll_jitter` draw. The task only fires when someone pumps
/// [`netsim::Network::run_until`]; tests that steer the clock manually
/// and call [`crate::Bootloader::poll`] by hand are unaffected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LifecyclePolicy {
    /// Cadence of the poll grid; `None` polls only by the lease timer
    /// (or by hand).
    pub poll_every: Option<Duration>,
    /// Bound of the uniform shift of this client's poll and sweep grids,
    /// de-synchronizing fleet sweeps.
    pub poll_jitter: Duration,
    /// Poll at each lease's renew-due point, spread over the margin's
    /// front three quarters.
    pub auto_renew: bool,
}

impl Default for LifecyclePolicy {
    /// Auto-renewal on, no poll grid: a default bootloader
    /// renews its lease on time under a pumped scheduler yet behaves
    /// exactly like the manual flow when nobody pumps.
    fn default() -> Self {
        LifecyclePolicy {
            poll_every: None,
            poll_jitter: Duration::ZERO,
            auto_renew: true,
        }
    }
}

impl LifecyclePolicy {
    /// Fully manual: no poll grid, no renewal timer. For tests and
    /// harnesses that hand-crank [`crate::Bootloader::poll`].
    pub fn manual() -> Self {
        LifecyclePolicy {
            poll_every: None,
            poll_jitter: Duration::ZERO,
            auto_renew: false,
        }
    }

    /// Fully self-driving: poll every `every` plus lease auto-renewal.
    pub fn driven(every: Duration) -> Self {
        LifecyclePolicy {
            poll_every: Some(every),
            ..LifecyclePolicy::default()
        }
    }

    /// Shifts the poll grid by up to `jitter`.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.poll_jitter = jitter;
        self
    }
}

/// Bootloader configuration — everything installed once per client
/// machine in step 2 of the Drivolution lifecycle (§3.2).
#[derive(Clone, Debug)]
pub struct BootloaderConfig {
    /// Server location strategy.
    pub locator: ServerLocator,
    /// API name requested from servers.
    pub api_name: String,
    /// Optional API version constraint.
    pub api_version: Option<ApiVersion>,
    /// Client platform string sent in requests.
    pub client_platform: String,
    /// Optional preferred binary format.
    pub preferred_format: Option<BinaryFormat>,
    /// Optional preferred driver version.
    pub preferred_version: Option<DriverVersion>,
    /// Transfer method the bootloader insists on (`Any` = server choice).
    pub transfer_method: TransferMethod,
    /// Pinned certificates for sealed transfers.
    pub channel_trust: ChannelTrust,
    /// When set, offers must carry a signature verifiable by this store
    /// ("a separate trusted wrapper in the bootloader verifies
    /// signatures", §3.1).
    pub signature_trust: Option<TrustStore>,
    /// Static request options (extensions encoded in the URL, §5.4.1).
    pub request_options: Vec<(String, String)>,
    /// Open a dedicated notification channel to the server (§3.2).
    pub open_notify_channel: bool,
    /// Fetch missing extension packages on demand (the trapped
    /// ClassNotFound path of §5.4.1).
    pub lazy_extension_fetch: bool,
    /// Content-addressed driver cache. When set, requests carry a `HAVE`
    /// summary and the bootloader resolves zero-transfer revalidations
    /// and chunked delta upgrades against it.
    pub depot: Option<Arc<DriverDepot>>,
    /// Zone-level cache of driver images, shared with the other clients
    /// of the zone. A rollout wave assembles each target image once
    /// instead of once per client, and a bootstrap's depot keeps the
    /// zone's copy of a download when it is byte-equal to what arrived.
    /// Adopted bytes are re-verified against the offer's digest and
    /// interned ones compared in full, so the cache can accelerate but
    /// never corrupt an install.
    pub image_cache: Option<Arc<SharedImageCache>>,
    /// The scheduler-driven lifecycle task's poll (upgrade polling, lease
    /// auto-renewal).
    pub lifecycle: LifecyclePolicy,
    /// Send an `ACTIVATION_REPORT` to the server after each driver
    /// upgrade (success or failure), feeding staged-rollout health
    /// gates, and again until a server answers it. Off by default:
    /// reports cost one extra message per upgrade.
    pub report_activation: bool,
    /// Post-activation self-check; its verdict becomes the report's
    /// `ok`/`detail`. `None` means upgrades that install and activate
    /// count as successful.
    pub activation_check: Option<ActivationCheck>,
    /// Hot-swap coexistence windows (see [`SwapConfig`]). When set,
    /// upgrades and rollbacks drain old sessions through transparent
    /// boundary migration instead of expiring them on the spot.
    pub swap: Option<SwapConfig>,
}

impl BootloaderConfig {
    /// Configuration pointing at fixed Drivolution servers.
    pub fn fixed(servers: Vec<Addr>) -> Self {
        BootloaderConfig {
            locator: ServerLocator::Fixed(servers),
            ..BootloaderConfig::base()
        }
    }

    /// Configuration deriving the server from the database host
    /// (in-database Drivolution on the conventional port).
    pub fn same_host() -> Self {
        BootloaderConfig {
            locator: ServerLocator::SameHost {
                port: DRIVOLUTION_PORT,
            },
            ..BootloaderConfig::base()
        }
    }

    /// Configuration using broadcast discovery on the conventional port.
    pub fn discover() -> Self {
        BootloaderConfig {
            locator: ServerLocator::Discover {
                port: DRIVOLUTION_PORT,
            },
            ..BootloaderConfig::base()
        }
    }

    fn base() -> Self {
        BootloaderConfig {
            locator: ServerLocator::Discover {
                port: DRIVOLUTION_PORT,
            },
            api_name: "RDBC".to_string(),
            api_version: None,
            client_platform: "rust-sim-x86_64".to_string(),
            preferred_format: None,
            preferred_version: None,
            transfer_method: TransferMethod::Any,
            channel_trust: ChannelTrust::new(),
            signature_trust: None,
            request_options: Vec::new(),
            open_notify_channel: false,
            lazy_extension_fetch: false,
            depot: None,
            image_cache: None,
            lifecycle: LifecyclePolicy::default(),
            report_activation: false,
            activation_check: None,
            swap: None,
        }
    }

    /// Pins a server certificate for sealed transfers.
    pub fn trusting(mut self, cert: &drivolution_core::Certificate) -> Self {
        self.channel_trust.pin(cert);
        self
    }

    /// Requires signed drivers verifiable by `store`.
    pub fn requiring_signatures(mut self, store: TrustStore) -> Self {
        self.signature_trust = Some(store);
        self
    }

    /// Adds a static request option.
    pub fn with_request_option(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.request_options.push((key.into(), value.into()));
        self
    }

    /// Enables the dedicated notification channel.
    pub fn with_notify_channel(mut self) -> Self {
        self.open_notify_channel = true;
        self
    }

    /// Enables lazy extension fetching.
    pub fn with_lazy_extensions(mut self) -> Self {
        self.lazy_extension_fetch = true;
        self
    }

    /// Attaches a driver depot (content-addressed cache). Shared depots
    /// are fine: many bootloaders on one machine can point at the same
    /// persistent depot.
    pub fn with_depot(mut self, depot: Arc<DriverDepot>) -> Self {
        self.depot = Some(depot);
        self
    }

    /// Shares a zone-level assembled-image cache with this bootloader
    /// (see [`SharedImageCache`]). Typically one per renewal-aggregator
    /// zone.
    pub fn with_image_cache(mut self, cache: Arc<SharedImageCache>) -> Self {
        self.image_cache = Some(cache);
        self
    }

    /// Sets the lifecycle-task policy.
    pub fn with_lifecycle(mut self, lifecycle: LifecyclePolicy) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Enables activation reports after driver upgrades.
    pub fn with_activation_reports(mut self) -> Self {
        self.report_activation = true;
        self
    }

    /// Enables zero-downtime hot swap: driver upgrades (and rollbacks)
    /// open a bounded coexistence window instead of expiring old
    /// sessions immediately (see [`SwapConfig`]).
    pub fn with_hot_swap(mut self, swap: SwapConfig) -> Self {
        self.swap = Some(swap);
        self
    }

    /// Shorthand for a fully self-driving bootloader: a poll grid of
    /// `every` and lease auto-renewal, fired by the network scheduler.
    pub fn self_driving(self, every: Duration) -> Self {
        self.with_lifecycle(LifecyclePolicy::driven(every))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivolution_core::Certificate;

    #[test]
    fn constructors_pick_locators() {
        assert!(matches!(
            BootloaderConfig::fixed(vec![Addr::new("s", 1)]).locator,
            ServerLocator::Fixed(_)
        ));
        assert_eq!(
            BootloaderConfig::same_host().locator,
            ServerLocator::SameHost {
                port: DRIVOLUTION_PORT
            }
        );
        assert_eq!(
            BootloaderConfig::discover().locator,
            ServerLocator::Discover {
                port: DRIVOLUTION_PORT
            }
        );
    }

    #[test]
    fn builder_methods_compose() {
        let cert = Certificate::issue("drv", 1);
        let c = BootloaderConfig::same_host()
            .trusting(&cert)
            .with_request_option("locale", "fr_FR")
            .with_notify_channel()
            .with_lazy_extensions();
        assert!(c.channel_trust.trusts(&cert));
        assert_eq!(c.request_options.len(), 1);
        assert!(c.open_notify_channel);
        assert!(c.lazy_extension_fetch);
    }
}
