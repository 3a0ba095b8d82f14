//! Tenant quotas. With a [`QosConfig`] installed, a call by tenant `t` may
//! hold at most `quota` entries on each shard, queued or promised to an
//! admission in flight. The quota is one more credit of the placement
//! rule (`admit` module docs): a call's credits on a shard are capped by
//! the tenant's quota room there, reserved before its timestamps are
//! drawn, so an over-quota request resolves `Rejected` with no timestamp
//! whatever the [`AdmitPolicy`](crate::AdmitPolicy) — blocking an abusive
//! tenant would let it stall well-behaved ones. The ingress queue frees a
//! tenant's room when its combiner drains the entries.

/// Identifies a tenant: an index below [`QosConfig::tenants`].
pub type TenantId = usize;

/// The tenant table of a service: how many tenants, and the per-shard
/// quota each has. Zero tenants disables quotas (the default): every call
/// is tenant 0's, and admission never counts tenants.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QosConfig {
    pub tenants: usize,
    /// Entries one tenant may hold per shard, queued or reserved; beyond
    /// it, shed.
    pub quota: usize,
}

impl QosConfig {
    /// Quotas disabled: single implicit tenant 0.
    pub fn disabled() -> Self {
        QosConfig::default()
    }

    /// `n` tenants with the same per-shard quota (at least 1).
    pub fn uniform(n: usize, quota: usize) -> Self {
        QosConfig {
            tenants: n,
            quota: quota.max(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.tenants > 0
    }

    /// Number of tenant slots for accounting vectors (at least 1 so the
    /// disabled case still has the implicit tenant 0).
    pub fn num_tenants(&self) -> usize {
        self.tenants.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_config_helpers() {
        let cfg = QosConfig::uniform(4, 100);
        assert!(cfg.enabled());
        assert_eq!((cfg.num_tenants(), cfg.quota), (4, 100));
        assert_eq!(QosConfig::uniform(2, 0).quota, 1);
        assert_eq!(QosConfig::disabled().num_tenants(), 1);
        assert!(!QosConfig::disabled().enabled());
    }
}
