//! Tenant registry: the paper's user-accounts 5-tuple plus quotas.
//!
//! The VDCE front end authenticates each submission against the
//! user-accounts database — "(user name, password, user ID, priority,
//! access domain type)" (§3). The streaming service layers per-tenant
//! *quota enforcement* on top: a cap on concurrently admitted
//! submissions, so no single account can flood the pending queue.
//!
//! The registry wraps [`UserAccountsDb`] rather than replacing it: the
//! same salted-digest records the batch front end uses authenticate
//! streaming submissions, and the scheduler reads the same `priority`
//! and `domain` fields out of the stored account.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vdce_repository::accounts::{AccessDomain, AuthError, UserAccount, UserAccountsDb, UserId};

/// Per-tenant admission quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quota {
    /// Maximum submissions concurrently admitted (pending + running).
    /// Arrivals beyond the cap are deferred, then rejected.
    pub max_inflight: u32,
}

impl Default for Quota {
    fn default() -> Self {
        Quota { max_inflight: 8 }
    }
}

/// Registry of tenants known to the streaming service.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    accounts: UserAccountsDb,
    quotas: BTreeMap<UserId, Quota>,
    names: BTreeMap<UserId, String>,
}

impl TenantRegistry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register a tenant: creates the 5-tuple account and records the
    /// quota. Returns the assigned user id.
    pub(crate) fn register(
        &mut self,
        user_name: &str,
        password: &str,
        priority: u8,
        domain: AccessDomain,
        quota: Quota,
    ) -> Result<UserId, AuthError> {
        let id = self.accounts.add_user(user_name, password, priority, domain)?;
        self.quotas.insert(id, quota);
        self.names.insert(id, user_name.to_string());
        Ok(id)
    }

    /// Authenticate a submission attempt; on success returns the account
    /// (priority + domain feed the scheduler, id keys the quotas).
    pub fn authenticate(&self, user_name: &str, password: &str) -> Result<&UserAccount, AuthError> {
        self.accounts.authenticate(user_name, password)
    }

    /// Account by user id (the form the service loop uses — submissions
    /// carry ids, not names).
    pub(crate) fn account(&self, id: UserId) -> Option<&UserAccount> {
        self.names.get(&id).and_then(|n| self.accounts.get(n))
    }

    /// Quota for a tenant (default quota when never set explicitly).
    pub(crate) fn quota(&self, id: UserId) -> Quota {
        self.quotas.get(&id).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup_round_trip() {
        let mut reg = TenantRegistry::new();
        let id = reg
            .register("alice", "pw", 7, AccessDomain::Global, Quota { max_inflight: 3 })
            .unwrap();
        let acct = reg.account(id).unwrap();
        assert_eq!(acct.priority, 7);
        assert_eq!(acct.domain, AccessDomain::Global);
        assert_eq!(reg.quota(id).max_inflight, 3);
        assert!(reg.authenticate("alice", "pw").is_ok());
        assert!(reg.authenticate("alice", "nope").is_err());
    }

    #[test]
    fn unknown_tenant_gets_default_quota_and_no_account() {
        let reg = TenantRegistry::new();
        assert_eq!(reg.quota(UserId(99)), Quota::default());
        assert!(reg.account(UserId(99)).is_none());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut reg = TenantRegistry::new();
        let id = reg.register("bob", "x", 1, AccessDomain::LocalSite, Quota::default()).unwrap();
        assert!(reg.register("bob", "y", 2, AccessDomain::Global, Quota::default()).is_err());
        assert_eq!(reg.account(id).unwrap().priority, 1, "the first registration stands");
    }

    #[test]
    fn tenant_ids_ascend() {
        let mut reg = TenantRegistry::new();
        let a = reg.register("a", "p", 1, AccessDomain::Global, Quota::default()).unwrap();
        let b = reg.register("b", "p", 1, AccessDomain::Global, Quota::default()).unwrap();
        assert!(a < b, "ids are assigned in registration order: {a:?} then {b:?}");
    }
}
