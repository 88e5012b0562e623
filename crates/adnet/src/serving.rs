use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{CampaignId, DeviceId};

/// Delivery constraints an advertiser attaches to a campaign (the
/// "serving frequency" and budget attributes of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServingPolicy {
    /// Total spend budget in clearing-price units; `None` is unlimited.
    pub budget: Option<f64>,
    /// Maximum impressions per device; `None` is uncapped.
    pub frequency_cap: Option<u32>,
}

impl ServingPolicy {
    /// An unlimited policy (the default).
    pub fn unlimited() -> Self {
        ServingPolicy::default()
    }

    /// A policy with a total budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not positive and finite.
    pub fn with_budget(mut self, budget: f64) -> Self {
        assert!(budget.is_finite() && budget > 0.0, "budget must be positive and finite");
        self.budget = Some(budget);
        self
    }

    /// A policy with a per-device frequency cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_frequency_cap(mut self, cap: u32) -> Self {
        assert!(cap > 0, "frequency cap must be at least 1");
        self.frequency_cap = Some(cap);
        self
    }
}

/// Mutable delivery state of one campaign under its policy.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServingState {
    spent: f64,
    impressions: BTreeMap<u64, u32>,
}

impl ServingState {
    /// Total spend so far.
    // lint:allow(dead-pub): integration-test hook: the adnet proptests, core's bid_exchange and tests/marketplace.rs check budget pacing with it
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Impressions served to one device.
    // lint:allow(dead-pub): integration-test hook: core's bid_exchange checks per-device frequency caps with it
    pub fn impressions_for(&self, device: DeviceId) -> u32 {
        self.impressions.get(&device.raw()).copied().unwrap_or(0)
    }

    /// Total impressions across devices.
    // lint:allow(dead-pub): integration-test hook: the adnet proptests and core's bid_exchange count delivered impressions with it
    pub fn total_impressions(&self) -> u32 {
        self.impressions.values().sum()
    }
}

/// Tracks policies and delivery state for a campaign inventory.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServingLedger {
    policies: BTreeMap<u64, ServingPolicy>,
    states: BTreeMap<u64, ServingState>,
}

impl ServingLedger {
    /// Creates an empty ledger (all campaigns unlimited).
    pub fn new() -> Self {
        ServingLedger::default()
    }

    /// Attaches a policy to a campaign (replacing any previous policy but
    /// keeping accumulated state).
    pub fn set_policy(&mut self, campaign: CampaignId, policy: ServingPolicy) {
        self.policies.insert(campaign.raw(), policy);
    }

    /// The policy of a campaign (unlimited if never set).
    pub fn policy(&self, campaign: CampaignId) -> ServingPolicy {
        self.policies.get(&campaign.raw()).copied().unwrap_or_default()
    }

    /// The delivery state of a campaign.
    pub fn state(&self, campaign: CampaignId) -> ServingState {
        self.states.get(&campaign.raw()).cloned().unwrap_or_default()
    }

    /// Whether the campaign may bid for another impression to `device`
    /// under its policy.
    ///
    /// Budget semantics follow RTB pacing practice: a campaign
    /// participates while *any* budget remains, so the final impression
    /// may overshoot slightly (the clearing price is unknown before the
    /// auction).
    pub fn eligible(&self, campaign: CampaignId, device: DeviceId) -> bool {
        let policy = self.policy(campaign);
        let state = self.states.get(&campaign.raw());
        if let Some(budget) = policy.budget {
            if state.map_or(0.0, |s| s.spent) >= budget {
                return false;
            }
        }
        if let Some(cap) = policy.frequency_cap {
            if state.map_or(0, |s| s.impressions_for(device)) >= cap {
                return false;
            }
        }
        true
    }

    /// Records a served impression.
    pub fn record(&mut self, campaign: CampaignId, device: DeviceId, price: f64) {
        let state = self.states.entry(campaign.raw()).or_default();
        state.spent += price;
        *state.impressions.entry(device.raw()).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: CampaignId = CampaignId::new(1);
    const D: DeviceId = DeviceId::new(9);

    #[test]
    fn unlimited_policy_always_eligible() {
        let mut ledger = ServingLedger::new();
        for _ in 0..1_000 {
            assert!(ledger.eligible(C, D));
            ledger.record(C, D, 10.0);
        }
        assert_eq!(ledger.state(C).total_impressions(), 1_000);
        assert!((ledger.state(C).spent() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn budget_exhausts() {
        let mut ledger = ServingLedger::new();
        ledger.set_policy(C, ServingPolicy::unlimited().with_budget(25.0));
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 10.0);
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 10.0);
        // 20 spent < 25: still eligible (pacing may overshoot once).
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 10.0);
        // 30 spent ≥ 25: out of the market.
        assert!(!ledger.eligible(C, D));
    }

    #[test]
    fn frequency_cap_is_per_device() {
        let mut ledger = ServingLedger::new();
        ledger.set_policy(C, ServingPolicy::unlimited().with_frequency_cap(2));
        let other = DeviceId::new(77);
        ledger.record(C, D, 1.0);
        ledger.record(C, D, 1.0);
        assert!(!ledger.eligible(C, D));
        assert!(ledger.eligible(C, other));
        assert_eq!(ledger.state(C).impressions_for(D), 2);
        assert_eq!(ledger.state(C).impressions_for(other), 0);
    }

    #[test]
    fn policy_replacement_keeps_state() {
        let mut ledger = ServingLedger::new();
        ledger.record(C, D, 30.0);
        ledger.set_policy(C, ServingPolicy::unlimited().with_budget(40.0));
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 15.0); // 45 ≥ 40
        assert!(!ledger.eligible(C, D));
    }

    #[test]
    fn combined_constraints() {
        let mut ledger = ServingLedger::new();
        ledger.set_policy(C, ServingPolicy::unlimited().with_budget(100.0).with_frequency_cap(1));
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 1.0);
        assert!(!ledger.eligible(C, D), "capped even with budget left");
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn rejects_bad_budget() {
        let _ = ServingPolicy::unlimited().with_budget(0.0);
    }

    #[test]
    #[should_panic(expected = "frequency cap")]
    fn rejects_zero_cap() {
        let _ = ServingPolicy::unlimited().with_frequency_cap(0);
    }
}
