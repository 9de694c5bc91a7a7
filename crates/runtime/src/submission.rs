//! Submission gateway: the runtime's front door to the streaming
//! scheduler service.
//!
//! The paper's Application Editor connects to the VDCE server, which
//! "authenticates the user by checking the user-accounts database"
//! before any application is accepted (§3). The gateway is that step
//! for the streaming service: callers present *credentials* (name +
//! password), never a raw tenant id, and only an authenticated account
//! may enqueue work. Everything after authentication — quota, broker,
//! aging, placement — happens inside [`StreamService`].
//!
//! The gateway owns the service. Drive it like the service itself:
//! queue submissions with [`SubmissionGateway::submit`], then
//! [`SubmissionGateway::drain`].

use std::sync::Arc;
use vdce_afg::Afg;
use vdce_repository::accounts::{AccessDomain, AuthError, UserId};
use vdce_sched::service::stream::{StreamReport, StreamService, SubmissionId, SubmissionRequest};
use vdce_sched::service::tenant::Quota;

/// Why the gateway refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmissionError {
    /// Credentials did not authenticate against the user-accounts
    /// database.
    AuthFailed(AuthError),
}

impl std::fmt::Display for SubmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmissionError::AuthFailed(e) => write!(f, "authentication failed: {e}"),
        }
    }
}

impl std::error::Error for SubmissionError {}

/// Authenticated front door to a [`StreamService`].
pub struct SubmissionGateway {
    service: StreamService,
}

impl SubmissionGateway {
    /// Wrap a service.
    pub fn new(service: StreamService) -> Self {
        SubmissionGateway { service }
    }

    /// Create a tenant account (name, password, priority, domain — the
    /// paper's 5-tuple; the id is assigned) with an admission quota.
    pub fn register_tenant(
        &mut self,
        user_name: &str,
        password: &str,
        priority: u8,
        domain: AccessDomain,
        quota: Quota,
    ) -> Result<UserId, AuthError> {
        self.service.register_tenant(user_name, password, priority, domain, quota)
    }

    /// Authenticate and enqueue: the submission enters the service's
    /// event queue at logical time `t` only if the credentials match
    /// the stored account digest.
    pub fn submit(
        &mut self,
        t: f64,
        user_name: &str,
        password: &str,
        afg: Arc<Afg>,
        deadline_s: f64,
        budget: f64,
    ) -> Result<SubmissionId, SubmissionError> {
        let account = self
            .service
            .tenants()
            .authenticate(user_name, password)
            .map_err(SubmissionError::AuthFailed)?;
        let tenant = account.user_id;
        Ok(self.service.submit_at(t, SubmissionRequest { tenant, afg, deadline_s, budget }))
    }

    /// Process every queued event; see [`StreamService::drain`].
    pub fn drain(&mut self) -> StreamReport {
        self.service.drain()
    }

    /// The wrapped service (fault injection, metrics export).
    pub fn service(&self) -> &StreamService {
        &self.service
    }

    /// Mutable access to the wrapped service.
    pub fn service_mut(&mut self) -> &mut StreamService {
        &mut self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::{AfgBuilder, MachineType, TaskLibrary};
    use vdce_net::model::NetworkModel;
    use vdce_repository::resources::ResourceRecord;
    use vdce_repository::SiteRepository;
    use vdce_sched::service::stream::ServiceConfig;

    fn fixture() -> SubmissionGateway {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            db.upsert(ResourceRecord::new(
                "h0",
                "10.0.0.1",
                MachineType::LinuxPc,
                1.0,
                1,
                1 << 30,
                "g0",
            ));
        });
        let net = NetworkModel::with_defaults(1);
        SubmissionGateway::new(StreamService::new(vec![repo], net, ServiceConfig::default()))
    }

    fn afg() -> Arc<Afg> {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("a", &lib);
        let s = b.add_task("Source", "s", 1000).unwrap();
        let k = b.add_task("Sink", "k", 1000).unwrap();
        b.connect(s, 0, k, 0).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn authenticated_submission_flows_to_completion() {
        let mut gw = fixture();
        gw.register_tenant("alice", "secret", 5, AccessDomain::LocalSite, Quota::default())
            .unwrap();
        gw.submit(0.0, "alice", "secret", afg(), 1e9, f64::INFINITY).unwrap();
        let report = gw.drain();
        assert_eq!(report.admitted, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn bad_credentials_never_reach_the_queue() {
        let mut gw = fixture();
        gw.register_tenant("alice", "secret", 5, AccessDomain::LocalSite, Quota::default())
            .unwrap();
        let err = gw.submit(0.0, "alice", "wrong", afg(), 1e9, f64::INFINITY);
        assert!(matches!(err, Err(SubmissionError::AuthFailed(_))));
        let err = gw.submit(0.0, "mallory", "x", afg(), 1e9, f64::INFINITY);
        assert!(matches!(err, Err(SubmissionError::AuthFailed(_))));
        let report = gw.drain();
        assert_eq!(report.submitted, 0, "unauthenticated work must not enter the service");
    }
}
