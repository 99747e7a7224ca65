//! Operational procedures as executable step lists — the quantitative
//! substance behind the paper's §2 lifecycle, §3.2 comparison, and
//! Table 5.
//!
//! Every step carries a nominal duration and whether the application is
//! down while it runs, so procedures yield step counts, wall time, and
//! downtime. Durations are calibration constants (minutes-scale ops work,
//! encoded in virtual milliseconds), not measurements.

use std::fmt;

/// One operator or system step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpStep {
    /// §2 step 1: get an appropriate driver package from the vendor.
    DownloadDriver,
    /// §2 step 2: install the driver on the client machine.
    InstallDriver,
    /// §2 step 3: configure the application to use the driver.
    ConfigureApp,
    /// §2 step 4: start the application and load the driver.
    StartAppLoadDriver,
    /// §2 step 5: connect and check protocol compatibility.
    ConnectCheck,
    /// §2 step 6: authenticate.
    Authenticate,
    /// §2 step 7: execute requests (verification probe).
    ExecuteRequests,
    /// §2 step 8: stop the application.
    StopApp,
    /// §2 step 9: uninstall the old driver.
    UninstallOldDriver,
    /// Drivolution: install the bootloader package (once per machine).
    InstallBootloader,
    /// Drivolution: point the application at the bootloader.
    ConfigureBootloader,
    /// Drivolution: start the application (driver arrives by itself).
    StartApp,
    /// Drivolution server-side: INSERT the new driver row.
    InsertDriverRow,
    /// Drivolution server-side: revoke/expire the old driver.
    RevokeOldDriver,
    /// DBA console: copy the right driver for this platform.
    CopyDriverForPlatform,
    /// DBA console: remove the old driver.
    RemoveOldDriver,
    /// DBA console: restart after a driver change.
    RestartConsole,
    /// DBA console: connect to the database.
    ConnectToDb,
}

impl OpStep {
    /// Nominal duration in milliseconds of simulated operator time.
    pub fn duration_ms(self) -> u64 {
        match self {
            OpStep::DownloadDriver => 300_000, // find + fetch the right package
            OpStep::InstallDriver => 180_000,
            OpStep::ConfigureApp => 300_000,
            OpStep::StartAppLoadDriver => 60_000,
            OpStep::ConnectCheck => 30_000,
            OpStep::Authenticate => 30_000,
            OpStep::ExecuteRequests => 60_000,
            OpStep::StopApp => 30_000,
            OpStep::UninstallOldDriver => 120_000,
            OpStep::InstallBootloader => 180_000,
            OpStep::ConfigureBootloader => 120_000,
            OpStep::StartApp => 60_000,
            OpStep::InsertDriverRow => 30_000,
            OpStep::RevokeOldDriver => 30_000,
            OpStep::CopyDriverForPlatform => 180_000,
            OpStep::RemoveOldDriver => 60_000,
            OpStep::RestartConsole => 60_000,
            OpStep::ConnectToDb => 30_000,
        }
    }

    /// Whether the application/console is unavailable during this step.
    fn is_disruptive(self) -> bool {
        matches!(
            self,
            OpStep::StopApp
                | OpStep::UninstallOldDriver
                | OpStep::InstallDriver
                | OpStep::ConfigureApp
                | OpStep::StartAppLoadDriver
                | OpStep::RestartConsole
        )
    }

    /// Probability (per execution) that this step fails and must be
    /// redone — the paper's "error prone" manual process (§2). Only
    /// manual steps carry risk.
    fn error_prob(self) -> f64 {
        match self {
            OpStep::DownloadDriver => 0.10, // wrong version/platform
            OpStep::InstallDriver => 0.05,
            OpStep::ConfigureApp => 0.10,
            OpStep::CopyDriverForPlatform => 0.10,
            OpStep::ConfigureBootloader => 0.05,
            _ => 0.0,
        }
    }
}

impl fmt::Display for OpStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpStep::DownloadDriver => "download driver package",
            OpStep::InstallDriver => "install driver",
            OpStep::ConfigureApp => "configure application",
            OpStep::StartAppLoadDriver => "start application / load driver",
            OpStep::ConnectCheck => "connect / check protocol",
            OpStep::Authenticate => "authenticate",
            OpStep::ExecuteRequests => "execute requests",
            OpStep::StopApp => "stop application",
            OpStep::UninstallOldDriver => "uninstall old driver",
            OpStep::InstallBootloader => "install bootloader",
            OpStep::ConfigureBootloader => "configure bootloader",
            OpStep::StartApp => "start application",
            OpStep::InsertDriverRow => "insert driver in database",
            OpStep::RevokeOldDriver => "revoke old driver",
            OpStep::CopyDriverForPlatform => "copy driver for platform",
            OpStep::RemoveOldDriver => "remove old driver",
            OpStep::RestartConsole => "restart console",
            OpStep::ConnectToDb => "connect to db",
        };
        f.write_str(s)
    }
}

/// A named sequence of steps.
#[derive(Clone, Debug, PartialEq)]
pub struct Procedure {
    name: String,
    steps: Vec<OpStep>,
}

impl Procedure {
    /// Creates a procedure.
    pub fn new(name: impl Into<String>, steps: Vec<OpStep>) -> Self {
        Procedure {
            name: name.into(),
            steps,
        }
    }

    /// Procedure name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The steps.
    pub fn steps(&self) -> &[OpStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Total nominal wall time.
    pub fn duration_ms(&self) -> u64 {
        self.steps.iter().map(|s| s.duration_ms()).sum()
    }

    /// Time during which the application is unavailable.
    pub fn downtime_ms(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| s.is_disruptive())
            .map(|s| s.duration_ms())
            .sum()
    }

    /// Expected number of step executions including retries
    /// (`1 / (1 - p)` per step, independent failures).
    pub fn expected_executions(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| 1.0 / (1.0 - s.error_prob()))
            .sum()
    }

    /// Concatenates procedures.
    pub fn then(mut self, other: &Procedure) -> Procedure {
        self.steps.extend_from_slice(&other.steps);
        self
    }
}

/// §2's state-of-the-art initial lifecycle: steps 1–7.
pub fn sota_initial_install() -> Procedure {
    Procedure::new(
        "state-of-the-art initial install",
        vec![
            OpStep::DownloadDriver,
            OpStep::InstallDriver,
            OpStep::ConfigureApp,
            OpStep::StartAppLoadDriver,
            OpStep::ConnectCheck,
            OpStep::Authenticate,
            OpStep::ExecuteRequests,
        ],
    )
}

/// §2's driver update: "Stop the application; Uninstall old driver;
/// Repeat steps 1 through 7".
///
/// The paper's numbering makes this "ten steps per client application"
/// (steps 8, 9, and 10, where step 10 repeats the seven install steps);
/// executed atomically it is 2 + 7 = 9 steps. [`PAPER_SOTA_UPDATE_STEPS`]
/// carries the paper's headline number.
pub fn sota_driver_update() -> Procedure {
    Procedure::new(
        "state-of-the-art driver update",
        vec![OpStep::StopApp, OpStep::UninstallOldDriver],
    )
    .then(&sota_initial_install())
}

/// The paper's headline count for the conventional update ("The upgrade
/// process drops from ten steps per client application to one simple
/// insert operation", §3.2): list items 8–10 with step 10 standing for
/// the seven repeated install steps.
pub const PAPER_SOTA_UPDATE_STEPS: usize = 10;

/// §3.2's Drivolution lifecycle: four steps, once per client machine.
pub fn drv_initial_install() -> Procedure {
    Procedure::new(
        "drivolution initial install",
        vec![
            OpStep::DownloadDriver, // the bootloader package, once
            OpStep::InstallBootloader,
            OpStep::ConfigureBootloader,
            OpStep::StartApp,
        ],
    )
}

/// §3.2's Drivolution driver update: "all clients can be upgraded in a
/// single step: Add new driver to the Drivolution Server".
pub fn drv_driver_update() -> Procedure {
    Procedure::new("drivolution driver update", vec![OpStep::InsertDriverRow])
}

/// Table 5, top row, per DBA: access a new database (state of the art).
pub fn table5_sota_access_new_db() -> Procedure {
    Procedure::new(
        "access new database (state of the art, per DBA)",
        vec![
            OpStep::DownloadDriver,
            OpStep::ConfigureApp,
            OpStep::ConnectToDb,
        ],
    )
}

/// Table 5, top row, per DBA: access a new database (Drivolution).
pub fn table5_drv_access_new_db() -> Procedure {
    Procedure::new(
        "access new database (drivolution, per DBA)",
        vec![OpStep::ConnectToDb],
    )
}

/// Table 5, bottom row, per DBA: database driver upgrade (state of the
/// art).
pub fn table5_sota_driver_upgrade() -> Procedure {
    Procedure::new(
        "database driver upgrade (state of the art, per DBA)",
        vec![
            OpStep::CopyDriverForPlatform,
            OpStep::RemoveOldDriver,
            OpStep::RestartConsole,
        ],
    )
}

/// Table 5, bottom row: database driver upgrade (Drivolution) — two
/// server-side steps total, regardless of DBA count.
pub fn table5_drv_driver_upgrade() -> Procedure {
    Procedure::new(
        "database driver upgrade (drivolution, total)",
        vec![OpStep::InsertDriverRow, OpStep::RevokeOldDriver],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sota_update_counts_match_the_paper() {
        // Executed steps: stop + uninstall + the seven install steps.
        assert_eq!(sota_driver_update().step_count(), 9);
        // The paper's numbering counts ten list items.
        assert_eq!(PAPER_SOTA_UPDATE_STEPS, 10);
        assert_eq!(sota_initial_install().step_count(), 7);
    }

    #[test]
    fn drivolution_lifecycle_counts_match_section_3_2() {
        assert_eq!(drv_initial_install().step_count(), 4);
        assert_eq!(drv_driver_update().step_count(), 1);
    }

    #[test]
    fn table5_counts_match_the_paper() {
        // Table 5 with 2 DBAs: 6 vs 2 steps for access; 6 vs 2 for
        // upgrade.
        assert_eq!(table5_sota_access_new_db().step_count() * 2, 6);
        assert_eq!(table5_drv_access_new_db().step_count() * 2, 2);
        assert_eq!(table5_sota_driver_upgrade().step_count() * 2, 6);
        assert_eq!(table5_drv_driver_upgrade().step_count(), 2);
    }

    #[test]
    fn drivolution_update_has_zero_downtime() {
        assert_eq!(drv_driver_update().downtime_ms(), 0);
        assert!(sota_driver_update().downtime_ms() > 0);
    }

    #[test]
    fn expected_executions_exceed_steps_for_error_prone_procedures() {
        let p = sota_driver_update();
        assert!(p.expected_executions() > p.step_count() as f64);
        // The single-insert Drivolution update carries no retry risk.
        let d = drv_driver_update();
        assert_eq!(d.expected_executions(), d.step_count() as f64);
    }

    #[test]
    fn durations_accumulate() {
        let p = Procedure::new("x", vec![OpStep::StopApp, OpStep::StartApp]);
        assert_eq!(p.duration_ms(), 30_000 + 60_000);
        assert_eq!(p.downtime_ms(), 30_000);
    }

    #[test]
    fn step_display_is_readable() {
        assert_eq!(
            OpStep::InsertDriverRow.to_string(),
            "insert driver in database"
        );
    }
}
