//! The user-accounts database (§3).
//!
//! > "A user-accounts database is used to handle user authentication. In
//! > \[the\] user-accounts database, each VDCE user account is represented
//! > by a 5-tuple: user name, password, user ID, priority, and access
//! > domain type."
//!
//! Passwords are stored as salted iterated FNV-1a digests. This mimics the
//! role of 1997-era `crypt(3)` in the prototype; it is deliberately **not**
//! a modern KDF and must not be used outside this reproduction.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Numeric user identifier (third element of the 5-tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct UserId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid{}", self.0)
    }
}

/// Access-domain type (fifth element of the 5-tuple): how far a user's
/// applications may be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessDomain {
    /// Only hosts of the local site.
    LocalSite,
    /// The local site plus its nearest-neighbour sites (the Figure 2
    /// federation).
    Neighbours,
    /// Any VDCE site.
    Global,
}

/// One account: the paper's 5-tuple with the password held as a digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserAccount {
    /// Login name (first element).
    pub user_name: String,
    /// Salted password digest (second element, stored hashed).
    pub(crate) password_digest: u64,
    /// Per-account salt.
    pub(crate) salt: u64,
    /// Numeric id (third element).
    pub user_id: UserId,
    /// Scheduling priority, higher = more important (fourth element).
    pub priority: u8,
    /// Access-domain type (fifth element).
    pub domain: AccessDomain,
}

/// Authentication failures. The two rejection cases are deliberately
/// indistinguishable in [`fmt::Display`] to avoid account probing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// No such user.
    UnknownUser,
    /// Password digest mismatch.
    BadPassword,
    /// `add_user` with a name that already exists.
    DuplicateUser(String),
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownUser | AuthError::BadPassword => {
                write!(f, "authentication failed")
            }
            AuthError::DuplicateUser(u) => write!(f, "user `{u}` already exists"),
        }
    }
}

impl std::error::Error for AuthError {}

/// Iterated salted FNV-1a digest of a password. Deterministic across
/// platforms; see the module docs for the (non-)security disclaimer.
pub(crate) fn digest_password(password: &str, salt: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ salt;
    for _round in 0..64 {
        for b in password.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= h >> 33;
    }
    h
}

/// The user-accounts database.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UserAccountsDb {
    users: BTreeMap<String, UserAccount>,
    next_id: u32,
}

impl UserAccountsDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an account. The salt is derived deterministically from the
    /// user name and assigned id so snapshots are reproducible.
    pub fn add_user(
        &mut self,
        user_name: &str,
        password: &str,
        priority: u8,
        domain: AccessDomain,
    ) -> Result<UserId, AuthError> {
        if self.users.contains_key(user_name) {
            return Err(AuthError::DuplicateUser(user_name.to_string()));
        }
        let id = UserId(self.next_id);
        self.next_id += 1;
        let salt = digest_password(user_name, u64::from(id.0).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let account = UserAccount {
            user_name: user_name.to_string(),
            password_digest: digest_password(password, salt),
            salt,
            user_id: id,
            priority,
            domain,
        };
        self.users.insert(user_name.to_string(), account);
        Ok(id)
    }

    /// Authenticate; on success returns the account (the Site Manager hands
    /// its priority and access domain to the scheduler).
    pub fn authenticate(&self, user_name: &str, password: &str) -> Result<&UserAccount, AuthError> {
        let acct = self.users.get(user_name).ok_or(AuthError::UnknownUser)?;
        if digest_password(password, acct.salt) == acct.password_digest {
            Ok(acct)
        } else {
            Err(AuthError::BadPassword)
        }
    }

    /// Look up an account without authenticating.
    pub fn get(&self, user_name: &str) -> Option<&UserAccount> {
        self.users.get(user_name)
    }

    /// Number of accounts.
    pub(crate) fn len(&self) -> usize {
        self.users.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_user() -> UserAccountsDb {
        let mut db = UserAccountsDb::new();
        db.add_user("user_k", "hunter2", 5, AccessDomain::Neighbours).unwrap();
        db
    }

    #[test]
    fn authenticate_succeeds_with_correct_password() {
        let db = db_with_user();
        let acct = db.authenticate("user_k", "hunter2").unwrap();
        assert_eq!(acct.user_id, UserId(0));
        assert_eq!(acct.priority, 5);
        assert_eq!(acct.domain, AccessDomain::Neighbours);
    }

    #[test]
    fn authenticate_rejects_wrong_password_and_unknown_user() {
        let db = db_with_user();
        assert_eq!(db.authenticate("user_k", "wrong"), Err(AuthError::BadPassword));
        assert_eq!(db.authenticate("ghost", "hunter2"), Err(AuthError::UnknownUser));
        // Both display identically (no account probing).
        assert_eq!(AuthError::BadPassword.to_string(), AuthError::UnknownUser.to_string());
    }

    #[test]
    fn plaintext_password_never_stored() {
        let db = db_with_user();
        let json = serde_json::to_string(&db).unwrap();
        assert!(!json.contains("hunter2"));
    }

    #[test]
    fn duplicate_user_rejected() {
        let mut db = db_with_user();
        assert_eq!(
            db.add_user("user_k", "x", 1, AccessDomain::LocalSite),
            Err(AuthError::DuplicateUser("user_k".into()))
        );
    }

    #[test]
    fn user_ids_are_sequential() {
        let mut db = UserAccountsDb::new();
        let a = db.add_user("a", "p", 1, AccessDomain::Global).unwrap();
        let b = db.add_user("b", "p", 1, AccessDomain::Global).unwrap();
        assert_eq!((a, b), (UserId(0), UserId(1)));
    }

    #[test]
    fn same_password_different_users_different_digests() {
        let mut db = UserAccountsDb::new();
        db.add_user("a", "p", 1, AccessDomain::Global).unwrap();
        db.add_user("b", "p", 1, AccessDomain::Global).unwrap();
        assert_ne!(db.get("a").unwrap().password_digest, db.get("b").unwrap().password_digest);
    }

    #[test]
    fn serde_round_trip() {
        let db = db_with_user();
        let json = serde_json::to_string(&db).unwrap();
        let back: UserAccountsDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back, db);
        assert!(back.authenticate("user_k", "hunter2").is_ok());
    }
}
