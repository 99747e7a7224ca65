//! Fleet description: machines × platforms × applications × databases.
//!
//! Used to quantify the paper's §1 motivation: "upgrading database
//! drivers on DBMS clients easily becomes a more complex problem than
//! upgrading the database itself, because it needs to take into account
//! the Cartesian product of the set of drivers and the set of databases
//! running in the organization."

use std::collections::BTreeSet;

/// One client application deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppSpec {
    /// Host the application runs on.
    pub host: String,
    /// Platform string (drivers are platform-specific).
    pub platform: String,
    /// Databases this application talks to.
    pub databases: Vec<String>,
}

/// A whole deployment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetSpec {
    /// All applications.
    pub apps: Vec<AppSpec>,
}

impl FleetSpec {
    /// An empty fleet.
    pub fn new() -> Self {
        FleetSpec::default()
    }

    /// Adds an application.
    fn with_app(
        mut self,
        host: impl Into<String>,
        platform: impl Into<String>,
        databases: &[&str],
    ) -> Self {
        self.apps.push(AppSpec {
            host: host.into(),
            platform: platform.into(),
            databases: databases.iter().map(|d| d.to_string()).collect(),
        });
        self
    }

    /// A synthetic hosting-center fleet in the spirit of the paper's Pair
    /// Networks example: `hosts` web servers over `platforms`, each
    /// touching `dbs_per_app` of `databases` databases.
    pub fn hosting_center(
        hosts: usize,
        platforms: &[&str],
        databases: usize,
        dbs_per_app: usize,
    ) -> Self {
        let mut fleet = FleetSpec::new();
        for h in 0..hosts {
            let platform = platforms[h % platforms.len()];
            let dbs: Vec<String> = (0..dbs_per_app)
                .map(|k| format!("db{}", (h + k) % databases))
                .collect();
            let db_refs: Vec<&str> = dbs.iter().map(String::as_str).collect();
            fleet = fleet.with_app(format!("web{h:03}"), platform, &db_refs);
        }
        fleet
    }

    /// Number of applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Distinct databases in use.
    pub fn databases(&self) -> Vec<String> {
        let set: BTreeSet<String> = self
            .apps
            .iter()
            .flat_map(|a| a.databases.iter().cloned())
            .collect();
        set.into_iter().collect()
    }

    /// Number of driver *installations* (application × database): what
    /// the 10-step state-of-the-art update is multiplied by.
    pub fn installation_count(&self) -> usize {
        self.apps.iter().map(|a| a.databases.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosting_center_shapes() {
        let f = FleetSpec::hosting_center(500, &["php", "ruby", "perl"], 100, 2);
        assert_eq!(f.app_count(), 500);
        let platforms: BTreeSet<&str> = f.apps.iter().map(|a| a.platform.as_str()).collect();
        assert_eq!(platforms.len(), 3);
        assert_eq!(f.databases().len(), 100);
        assert_eq!(f.installation_count(), 1000);
    }

    #[test]
    fn manual_fleet() {
        let f = FleetSpec::new()
            .with_app("console1", "windows-i586", &["orders", "hr"])
            .with_app("console2", "linux-x86_64", &["orders"]);
        assert_eq!(f.app_count(), 2);
        assert_eq!(f.installation_count(), 3);
        assert_eq!(f.databases(), vec!["hr".to_string(), "orders".to_string()]);
    }
}
