//! Admission control: deterministic per-tenant quotas at `submit`.
//!
//! The gate is a token bucket over *in-flight run points*: each tenant
//! holds a bucket of `token_capacity` point tokens; a campaign charges
//! one token per run point on admission and refunds them all when the
//! campaign retires (finishes, is cancelled, or is given up on). Two
//! further knobs bound the shape of what one tenant can queue:
//! `max_active_per_tenant` caps concurrent campaigns and
//! `max_points_per_campaign` caps any single submission.
//!
//! Determinism is the design constraint that picks this bucket over the
//! classic rate-refill kind: refilling by (virtual or wall) time would
//! make admission depend on *when* a drain ran relative to a submit,
//! and identical request sequences could then diverge. Refund-on-retire
//! makes the gate a pure function of the submit/retire sequence — the
//! same campaign stream is admitted or rejected identically on every
//! replay, which is what lets the chaos harness assert byte-identical
//! outcomes.
//!
//! Rejections are first-class wire citizens: a [`RejectReason`] travels
//! inside [`Frame::Rejected`](crate::wire::Frame::Rejected) so a tenant
//! can tell a validation failure from quota pressure without parsing
//! prose.

use jubench_ckpt::{CkptError, SnapshotReader, SnapshotWriter};
use std::collections::BTreeMap;
use std::fmt;

/// Why a campaign was refused at the door.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The spec failed validation (unknown benchmark, bad partition…).
    Invalid {
        /// The validation failure.
        what: String,
    },
    /// The tenant is at its concurrent-campaign quota.
    CampaignQuota {
        /// Campaigns the tenant currently has in flight.
        active: u32,
        /// The configured cap.
        limit: u32,
    },
    /// The tenant's point-token bucket cannot cover the campaign.
    TokensExhausted {
        /// Tokens the campaign would need (one per run point).
        requested: u32,
        /// Tokens currently available to the tenant.
        available: u32,
    },
    /// No single campaign may carry this many run points.
    CampaignTooLarge {
        /// Points in the submitted campaign.
        points: u32,
        /// The configured cap.
        limit: u32,
    },
}

const REASON_INVALID: u8 = 0;
const REASON_CAMPAIGN_QUOTA: u8 = 1;
const REASON_TOKENS: u8 = 2;
const REASON_TOO_LARGE: u8 = 3;

impl RejectReason {
    /// Wire encoding inside a `Rejected` frame body.
    pub(crate) fn put(&self, w: &mut SnapshotWriter) {
        match self {
            RejectReason::Invalid { what } => {
                w.put_u8(REASON_INVALID);
                w.put_str(what);
            }
            RejectReason::CampaignQuota { active, limit } => {
                w.put_u8(REASON_CAMPAIGN_QUOTA);
                w.put_u32(*active);
                w.put_u32(*limit);
            }
            RejectReason::TokensExhausted {
                requested,
                available,
            } => {
                w.put_u8(REASON_TOKENS);
                w.put_u32(*requested);
                w.put_u32(*available);
            }
            RejectReason::CampaignTooLarge { points, limit } => {
                w.put_u8(REASON_TOO_LARGE);
                w.put_u32(*points);
                w.put_u32(*limit);
            }
        }
    }

    pub(crate) fn get(r: &mut SnapshotReader) -> Result<Self, CkptError> {
        Ok(match r.get_u8("reject reason tag")? {
            REASON_INVALID => RejectReason::Invalid {
                what: r.get_str("reject what")?,
            },
            REASON_CAMPAIGN_QUOTA => RejectReason::CampaignQuota {
                active: r.get_u32("reject active")?,
                limit: r.get_u32("reject limit")?,
            },
            REASON_TOKENS => RejectReason::TokensExhausted {
                requested: r.get_u32("reject requested")?,
                available: r.get_u32("reject available")?,
            },
            REASON_TOO_LARGE => RejectReason::CampaignTooLarge {
                points: r.get_u32("reject points")?,
                limit: r.get_u32("reject limit")?,
            },
            _ => {
                return Err(CkptError::Malformed {
                    what: "reject reason tag".to_string(),
                })
            }
        })
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Invalid { what } => write!(f, "invalid campaign: {what}"),
            RejectReason::CampaignQuota { active, limit } => {
                write!(f, "campaign quota: {active} of {limit} campaigns in flight")
            }
            RejectReason::TokensExhausted {
                requested,
                available,
            } => write!(
                f,
                "point tokens exhausted: need {requested}, {available} available"
            ),
            RejectReason::CampaignTooLarge { points, limit } => {
                write!(
                    f,
                    "campaign too large: {points} points over the {limit} cap"
                )
            }
        }
    }
}

/// A typed rejection: who was refused and why. This is what
/// [`Server::submit`](crate::server::Server::submit) returns and what a
/// `Rejected` frame decodes to on the client side.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// The tenant whose quota (or spec) the rejection is charged to.
    pub tenant: String,
    /// Why.
    pub reason: RejectReason,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant `{}`: {}", self.tenant, self.reason)
    }
}

impl std::error::Error for Rejection {}

/// Per-tenant quota knobs. The default is fully permissive — quotas are
/// opt-in so the service keeps its historical open-door behavior unless
/// an operator configures otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Concurrent campaigns one tenant may have in flight.
    pub max_active_per_tenant: u32,
    /// Point tokens per tenant; each in-flight run point holds one.
    pub token_capacity: u32,
    /// Run points one campaign may carry.
    pub max_points_per_campaign: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_active_per_tenant: u32::MAX,
            token_capacity: u32::MAX,
            max_points_per_campaign: u32::MAX,
        }
    }
}

/// What one tenant currently holds against its quotas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Campaigns in flight.
    pub active: u32,
    /// Point tokens charged.
    pub tokens: u32,
}

/// The server-side admission gate: config plus per-tenant usage.
///
/// Deterministic by construction — usage is a `BTreeMap` keyed by
/// tenant name and mutates only on `admit`/`release`, both driven by
/// the (deterministic) request sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionGate {
    config: AdmissionConfig,
    tenants: BTreeMap<String, TenantUsage>,
}

impl AdmissionGate {
    /// A gate enforcing `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionGate {
            config,
            tenants: BTreeMap::new(),
        }
    }

    /// Current usage of `tenant` (zero if unknown).
    pub fn usage(&self, tenant: &str) -> TenantUsage {
        self.tenants.get(tenant).copied().unwrap_or_default()
    }

    /// Try to admit a `points`-point campaign for `tenant`, charging
    /// its quotas on success.
    pub fn admit(&mut self, tenant: &str, points: u32) -> Result<(), RejectReason> {
        if points > self.config.max_points_per_campaign {
            return Err(RejectReason::CampaignTooLarge {
                points,
                limit: self.config.max_points_per_campaign,
            });
        }
        let usage = self.usage(tenant);
        if usage.active >= self.config.max_active_per_tenant {
            return Err(RejectReason::CampaignQuota {
                active: usage.active,
                limit: self.config.max_active_per_tenant,
            });
        }
        let available = self.config.token_capacity - usage.tokens;
        if points > available {
            return Err(RejectReason::TokensExhausted {
                requested: points,
                available,
            });
        }
        let entry = self.tenants.entry(tenant.to_string()).or_default();
        entry.active += 1;
        entry.tokens += points;
        Ok(())
    }

    /// Refund a retired campaign's charge. Tenants at zero usage are
    /// dropped so the gate's state stays a function of live work only.
    pub fn release(&mut self, tenant: &str, points: u32) {
        if let Some(usage) = self.tenants.get_mut(tenant) {
            usage.active = usage.active.saturating_sub(1);
            usage.tokens = usage.tokens.saturating_sub(points);
            if *usage == TenantUsage::default() {
                self.tenants.remove(tenant);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(active: u32, tokens: u32, per_campaign: u32) -> AdmissionGate {
        AdmissionGate::new(AdmissionConfig {
            max_active_per_tenant: active,
            token_capacity: tokens,
            max_points_per_campaign: per_campaign,
        })
    }

    #[test]
    fn default_gate_admits_everything() {
        let mut g = AdmissionGate::new(AdmissionConfig::default());
        for i in 0..1000 {
            assert!(g.admit("t", i % 97).is_ok());
        }
    }

    #[test]
    fn campaign_quota_binds_and_refunds() {
        let mut g = gate(2, u32::MAX, u32::MAX);
        g.admit("a", 1).unwrap();
        g.admit("a", 1).unwrap();
        assert!(matches!(
            g.admit("a", 1),
            Err(RejectReason::CampaignQuota {
                active: 2,
                limit: 2
            })
        ));
        // A different tenant is unaffected.
        g.admit("b", 1).unwrap();
        // Retiring one campaign reopens the door.
        g.release("a", 1);
        g.admit("a", 1).unwrap();
    }

    #[test]
    fn token_bucket_tracks_in_flight_points() {
        let mut g = gate(u32::MAX, 10, u32::MAX);
        g.admit("t", 6).unwrap();
        match g.admit("t", 5) {
            Err(RejectReason::TokensExhausted {
                requested: 5,
                available: 4,
            }) => {}
            other => panic!("expected TokensExhausted, got {other:?}"),
        }
        g.admit("t", 4).unwrap();
        g.release("t", 6);
        g.admit("t", 6).unwrap();
        assert_eq!(g.usage("t").tokens, 10);
    }

    #[test]
    fn oversized_campaigns_are_refused_before_any_charge() {
        let mut g = gate(u32::MAX, 100, 8);
        assert!(matches!(
            g.admit("t", 9),
            Err(RejectReason::CampaignTooLarge {
                points: 9,
                limit: 8
            })
        ));
        assert_eq!(g.usage("t"), TenantUsage::default());
    }

    #[test]
    fn zero_usage_tenants_are_forgotten() {
        let mut g = gate(4, 100, 8);
        g.admit("t", 3).unwrap();
        g.release("t", 3);
        assert!(g.tenants.is_empty(), "gate state must track live work only");
    }

    #[test]
    fn reasons_roundtrip_the_wire_encoding() {
        let reasons = [
            RejectReason::Invalid {
                what: "no points".to_string(),
            },
            RejectReason::CampaignQuota {
                active: 3,
                limit: 3,
            },
            RejectReason::TokensExhausted {
                requested: 12,
                available: 4,
            },
            RejectReason::CampaignTooLarge {
                points: 900,
                limit: 64,
            },
        ];
        for reason in reasons {
            let mut w = SnapshotWriter::new();
            reason.put(&mut w);
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes);
            assert_eq!(RejectReason::get(&mut r).unwrap(), reason);
        }
    }
}
