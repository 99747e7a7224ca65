//! Users, grants, and authentication methods.
//!
//! The paper's lifecycle step 6 ("Authenticate") can fail when "the driver
//! does not support authentication methods that are required by the
//! database". We model three methods of increasing protocol requirements:
//!
//! * [`AuthMethod::Password`] — cleartext compare (all protocol versions);
//! * [`AuthMethod::Challenge`] — nonce/response (protocol v2+);
//! * [`AuthMethod::Token`] — Kerberos-like realm token (protocol v3+ and a
//!   driver that carries the `kerberos` extension).
//!
//! The hashes here are **simulations** (FNV-1a), standing in for real
//! cryptography; they model the handshake shapes, not security.

use std::collections::{BTreeSet, HashMap, HashSet};

use netsim::codec::wire_enum;

use crate::error::{DbError, DbResult};
use crate::sql::ast::Privilege;

wire_enum! {
    /// Authentication methods a database may require. The codes are the
    /// credential tag of a `Hello` frame.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum AuthMethod: u8 {
        /// Cleartext password.
        Password = 0,
        /// Nonce/response challenge.
        Challenge = 1,
        /// Realm token (Kerberos-like).
        Token = 2,
    }
}

/// FNV-1a 64-bit hash — the workspace's stand-in for cryptographic hashes.
pub fn weak_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Clone, Debug)]
struct UserEntry {
    password: String,
    is_admin: bool,
}

/// User registry, grants, and the database's accepted auth methods.
#[derive(Clone, Debug)]
pub struct AuthStore {
    users: HashMap<String, UserEntry>,
    grants: HashMap<(String, String), HashSet<Privilege>>,
    accepted: BTreeSet<AuthMethod>,
    realm_secret: String,
}

impl AuthStore {
    /// Creates a store with one admin user and all auth methods accepted.
    pub fn new(admin_user: &str, admin_password: &str) -> Self {
        let mut users = HashMap::new();
        users.insert(
            admin_user.to_string(),
            UserEntry {
                password: admin_password.to_string(),
                is_admin: true,
            },
        );
        AuthStore {
            users,
            grants: HashMap::new(),
            accepted: [
                AuthMethod::Password,
                AuthMethod::Challenge,
                AuthMethod::Token,
            ]
            .into_iter()
            .collect(),
            realm_secret: "minidb-realm".to_string(),
        }
    }

    /// Restricts the accepted authentication methods (paper step 6 failures
    /// arise when a driver supports none of these).
    pub fn set_accepted_methods(&mut self, methods: &[AuthMethod]) {
        self.accepted = methods.iter().copied().collect();
    }

    /// Whether `method` is accepted.
    pub fn accepts(&self, method: AuthMethod) -> bool {
        self.accepted.contains(&method)
    }

    /// The realm secret for token auth (shared with driver keytabs).
    pub fn realm_secret(&self) -> &str {
        &self.realm_secret
    }

    /// Adds a regular user.
    ///
    /// # Errors
    ///
    /// [`DbError::Constraint`] if the user exists.
    pub fn create_user(&mut self, name: &str, password: &str) -> DbResult<()> {
        if self.users.contains_key(name) {
            return Err(DbError::Constraint(format!("user {name} already exists")));
        }
        self.users.insert(
            name.to_string(),
            UserEntry {
                password: password.to_string(),
                is_admin: false,
            },
        );
        Ok(())
    }

    /// Whether `name` exists.
    pub fn has_user(&self, name: &str) -> bool {
        self.users.contains_key(name)
    }

    /// Whether `name` is an administrator.
    pub fn is_admin(&self, name: &str) -> bool {
        self.users.get(name).map(|u| u.is_admin).unwrap_or(false)
    }

    /// Verifies a cleartext password.
    ///
    /// # Errors
    ///
    /// [`DbError::Auth`] on unknown user or wrong password, or when the
    /// method is not accepted.
    pub fn verify_password(&self, user: &str, password: &str) -> DbResult<()> {
        if !self.accepts(AuthMethod::Password) {
            return Err(DbError::Auth(
                "server does not accept password authentication".into(),
            ));
        }
        match self.users.get(user) {
            Some(u) if u.password == password => Ok(()),
            Some(_) => Err(DbError::Auth(format!("bad password for {user}"))),
            None => Err(DbError::Auth(format!("unknown user {user}"))),
        }
    }

    /// Computes the expected challenge response for (`user`, `nonce`).
    ///
    /// # Errors
    ///
    /// [`DbError::Auth`] on unknown user.
    pub fn challenge_response(&self, user: &str, nonce: u64) -> DbResult<u64> {
        let u = self
            .users
            .get(user)
            .ok_or_else(|| DbError::Auth(format!("unknown user {user}")))?;
        Ok(challenge_digest(&u.password, nonce))
    }

    /// Verifies a challenge response.
    ///
    /// # Errors
    ///
    /// [`DbError::Auth`] on mismatch or when the method is not accepted.
    pub fn verify_challenge(&self, user: &str, nonce: u64, response: u64) -> DbResult<()> {
        if !self.accepts(AuthMethod::Challenge) {
            return Err(DbError::Auth(
                "server does not accept challenge authentication".into(),
            ));
        }
        if self.challenge_response(user, nonce)? == response {
            Ok(())
        } else {
            Err(DbError::Auth(format!("bad challenge response for {user}")))
        }
    }

    /// Verifies a realm token.
    ///
    /// # Errors
    ///
    /// [`DbError::Auth`] on mismatch, unknown user, or when the method is
    /// not accepted.
    pub fn verify_token(&self, user: &str, token: u64) -> DbResult<()> {
        if !self.accepts(AuthMethod::Token) {
            return Err(DbError::Auth(
                "server does not accept token authentication".into(),
            ));
        }
        if !self.users.contains_key(user) {
            return Err(DbError::Auth(format!("unknown user {user}")));
        }
        if realm_token(user, &self.realm_secret) == token {
            Ok(())
        } else {
            Err(DbError::Auth(format!("bad realm token for {user}")))
        }
    }

    /// Grants privileges on `table` to `user`.
    pub fn grant(&mut self, user: &str, table: &str, privileges: &[Privilege]) {
        let e = self
            .grants
            .entry((user.to_string(), table.to_ascii_lowercase()))
            .or_default();
        e.extend(privileges.iter().copied());
    }

    /// Revokes privileges on `table` from `user`.
    pub fn revoke(&mut self, user: &str, table: &str, privileges: &[Privilege]) {
        if let Some(e) = self
            .grants
            .get_mut(&(user.to_string(), table.to_ascii_lowercase()))
        {
            for p in privileges {
                e.remove(p);
            }
        }
    }

    /// Whether `user` holds `privilege` on `table` (admins hold everything).
    pub fn allows(&self, user: &str, table: &str, privilege: Privilege) -> bool {
        if self.is_admin(user) {
            return true;
        }
        self.grants
            .get(&(user.to_string(), table.to_ascii_lowercase()))
            .map(|s| s.contains(&privilege))
            .unwrap_or(false)
    }
}

/// Challenge digest: `weak_hash(password || nonce)`.
pub fn challenge_digest(password: &str, nonce: u64) -> u64 {
    let mut data = password.as_bytes().to_vec();
    data.extend_from_slice(&nonce.to_le_bytes());
    weak_hash(&data)
}

/// Realm token for token auth: `weak_hash(user || secret)` — what a driver
/// with the `kerberos` extension computes from its keytab.
pub fn realm_token(user: &str, realm_secret: &str) -> u64 {
    let mut data = user.as_bytes().to_vec();
    data.extend_from_slice(realm_secret.as_bytes());
    weak_hash(&data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AuthStore {
        let mut s = AuthStore::new("admin", "adminpw");
        s.create_user("bob", "secret").unwrap();
        s
    }

    #[test]
    fn password_verification() {
        let s = store();
        s.verify_password("bob", "secret").unwrap();
        assert!(s.verify_password("bob", "wrong").is_err());
        assert!(s.verify_password("nobody", "x").is_err());
    }

    #[test]
    fn duplicate_user_rejected() {
        let mut s = store();
        assert!(s.create_user("bob", "x").is_err());
    }

    #[test]
    fn challenge_flow() {
        let s = store();
        let nonce = 0xdead_beef;
        let resp = challenge_digest("secret", nonce);
        s.verify_challenge("bob", nonce, resp).unwrap();
        assert!(s.verify_challenge("bob", nonce, resp ^ 1).is_err());
        // A different nonce invalidates an old response (no replay).
        assert!(s.verify_challenge("bob", nonce + 1, resp).is_err());
    }

    #[test]
    fn token_flow() {
        let s = store();
        let tok = realm_token("bob", s.realm_secret());
        s.verify_token("bob", tok).unwrap();
        assert!(s.verify_token("bob", tok ^ 1).is_err());
        assert!(s.verify_token("nobody", tok).is_err());
    }

    #[test]
    fn method_restriction_rejects_unaccepted() {
        let mut s = store();
        s.set_accepted_methods(&[AuthMethod::Token]);
        assert!(s.verify_password("bob", "secret").is_err());
        let nonce = 1;
        let resp = challenge_digest("secret", nonce);
        assert!(s.verify_challenge("bob", nonce, resp).is_err());
        let tok = realm_token("bob", s.realm_secret());
        s.verify_token("bob", tok).unwrap();
        assert!(s.accepts(AuthMethod::Token) && !s.accepts(AuthMethod::Password));
    }

    #[test]
    fn grants_and_admin_bypass() {
        let mut s = store();
        assert!(!s.allows("bob", "drivers", Privilege::Select));
        s.grant("bob", "Drivers", &[Privilege::Select, Privilege::Insert]);
        assert!(s.allows("bob", "DRIVERS", Privilege::Select));
        assert!(s.allows("bob", "drivers", Privilege::Insert));
        assert!(!s.allows("bob", "drivers", Privilege::Delete));
        s.revoke("bob", "drivers", &[Privilege::Insert]);
        assert!(!s.allows("bob", "drivers", Privilege::Insert));
        assert!(s.allows("admin", "anything", Privilege::Delete));
    }

    #[test]
    fn auth_method_codes_roundtrip() {
        for m in [
            AuthMethod::Password,
            AuthMethod::Challenge,
            AuthMethod::Token,
        ] {
            assert_eq!(AuthMethod::from_code(m.code()).unwrap(), m);
        }
        assert!(AuthMethod::from_code(9).is_none());
    }

    #[test]
    fn weak_hash_is_stable_and_spreads() {
        assert_ne!(weak_hash(b"a"), weak_hash(b"b"));
        assert_eq!(weak_hash(b"drivolution"), weak_hash(b"drivolution"));
    }
}
