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
/// Two tasks exist:
///
/// * an **upgrade-poll task** (periodic, `poll_every`) that drains
///   pushed notices and runs the lease state machine — the timer thread
///   §3.4.2 describes, without anybody writing one;
/// * a **lease auto-renewal timer** (one-shot, re-armed at every lease
///   grant to `renew_due + jitter(0..margin − margin/4)`, a
///   seed-reproducible spread that keeps the margin's last quarter as
///   latency and retry slack) so renewals happen inside the margin
///   rather than at the next poll after it, without a whole fleet
///   granted leases in one wave renewing on the same tick.
///
/// A beat with nothing to do does not fire: the poll sleeps until the
/// active lease is renew-due (until a driver is active when none is;
/// never with a notify channel open or `poll_jitter` set), and the 30 s
/// session sweep while no session is tracked.
///
/// All of them only fire when someone pumps
/// [`netsim::Network::run_until`]; tests that steer the clock manually
/// and call [`crate::Bootloader::poll`] by hand are unaffected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LifecyclePolicy {
    /// Cadence of the periodic upgrade-poll task; `None` registers no
    /// poll task (manual driving).
    pub poll_every: Option<Duration>,
    /// Uniform jitter added to each poll firing, de-synchronizing fleet
    /// sweeps.
    pub poll_jitter: Duration,
    /// Arm a one-shot renewal timer at each lease's renew-due point,
    /// spread over the margin's front three quarters.
    pub auto_renew: bool,
}

impl Default for LifecyclePolicy {
    /// Auto-renewal on, no periodic poll task: a default bootloader
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
    /// Fully manual: no poll task, no renewal timer. For tests and
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

    /// Adds jitter to the poll task.
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
    /// Zone-level cache of assembled upgrade images, shared with the
    /// other clients behind the same renewal aggregator. A rollout wave
    /// assembles each target image once instead of once per client; the
    /// adopted bytes are re-verified against the offer's digest, so the
    /// cache can accelerate but never corrupt an install.
    pub image_cache: Option<Arc<SharedImageCache>>,
    /// Scheduler-driven lifecycle tasks (upgrade polling, lease
    /// auto-renewal).
    pub lifecycle: LifecyclePolicy,
    /// Send a best-effort `ACTIVATION_REPORT` to the server after each
    /// driver upgrade (success or failure), feeding staged-rollout
    /// health gates. Off by default: reports cost one extra message per
    /// upgrade.
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

    /// Sets the platform string.
    pub fn on_platform(mut self, platform: impl Into<String>) -> Self {
        self.client_platform = platform.into();
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

    /// Enables best-effort activation reports after driver upgrades.
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

    /// Installs a post-activation self-check (see [`ActivationCheck`]).
    pub fn with_activation_check<F>(mut self, check: F) -> Self
    where
        F: Fn(&DriverImage) -> Result<(), String> + Send + Sync + 'static,
    {
        self.activation_check = Some(ActivationCheck::new(check));
        self
    }

    /// Shorthand for a fully self-driving bootloader: upgrade polls
    /// every `every` and lease auto-renewal timers, all fired by the
    /// network scheduler.
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
            .with_lazy_extensions()
            .on_platform("jre-1.5");
        assert!(c.channel_trust.trusts(&cert));
        assert_eq!(c.request_options.len(), 1);
        assert!(c.open_notify_channel);
        assert!(c.lazy_extension_fetch);
        assert_eq!(c.client_platform, "jre-1.5");
    }
}
