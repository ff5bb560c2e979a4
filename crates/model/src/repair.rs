//! Overlay self-healing policy shared by the simulator and the CLI.
//!
//! The paper's Section 5.3 local rules are not only a load-balancing
//! device: the same client-promotion and partner-recruitment moves are
//! what lets a super-peer network *repair itself* after failures. A
//! [`RepairPolicy`] selects how aggressively a simulation run applies
//! them when fault injection kills super-peers:
//!
//! * [`RepairPolicy::Off`] — the degraded baseline: a cluster whose
//!   partners all crash fails outright, its clients are orphaned and
//!   must rediscover the network on their own, and its overlay edges
//!   disappear with it.
//! * [`RepairPolicy::Promote`] — orphaned clients deterministically
//!   elect a replacement super-peer from among themselves (the
//!   highest-capacity eligible client, i.e. most files shared, ties
//!   broken by lowest peer id); the promoted peer inherits the dead
//!   super-peer's neighbor links and re-indexes the adopted clients at
//!   the paper's per-metadata join cost.
//! * [`RepairPolicy::PromotePartner`] — promotion as above, plus the
//!   repaired cluster immediately recruits a replacement partner with
//!   full index mirroring to restore k-redundancy (the Section 3.2
//!   replacement rule applied proactively after repair rather than
//!   waiting for organic recruitment).
//!
//! The policy lives in `sp_model` (not `sp_sim`) for the same reason
//! [`crate::faults::FaultPlan`] does: configuration types stay
//! engine-agnostic and are consumed identically by every engine.

use std::fmt;

/// How a simulation run heals clusters whose super-peers were killed
/// by fault injection.
///
/// Repair only ever engages on *injected* crashes (fault-plan events),
/// never on organic churn departures — so with an empty fault plan
/// every policy is behaviorally identical to [`RepairPolicy::Off`] and
/// the run is bitwise inert with respect to the policy choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairPolicy {
    /// No repair: failed clusters dissolve and orphans fend for
    /// themselves (the PR-3 behavior).
    #[default]
    Off,
    /// Orphaned clients elect a replacement super-peer which inherits
    /// the dead peer's neighbor links and re-indexes its clients.
    Promote,
    /// Promotion plus immediate recruitment of a replacement partner
    /// (with full index mirroring) to restore k-redundancy.
    PromotePartner,
}

impl RepairPolicy {
    /// Every policy, in severity order (useful for sweeps and tests).
    pub const ALL: [RepairPolicy; 3] = [
        RepairPolicy::Off,
        RepairPolicy::Promote,
        RepairPolicy::PromotePartner,
    ];

    /// Whether dead super-peers are replaced by client promotion.
    pub fn promotes(self) -> bool {
        !matches!(self, RepairPolicy::Off)
    }

    /// Whether a repaired cluster also recruits a replacement partner
    /// to restore k-redundancy.
    pub fn recruits_partner(self) -> bool {
        matches!(self, RepairPolicy::PromotePartner)
    }

    /// Parses the CLI spelling: `off`, `promote`, or `promote+partner`.
    pub fn parse(s: &str) -> Option<RepairPolicy> {
        match s {
            "off" => Some(RepairPolicy::Off),
            "promote" => Some(RepairPolicy::Promote),
            "promote+partner" => Some(RepairPolicy::PromotePartner),
            _ => None,
        }
    }
}

impl fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RepairPolicy::Off => "off",
            RepairPolicy::Promote => "promote",
            RepairPolicy::PromotePartner => "promote+partner",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trips() {
        for policy in RepairPolicy::ALL {
            assert_eq!(RepairPolicy::parse(&policy.to_string()), Some(policy));
        }
        assert_eq!(RepairPolicy::parse("off"), Some(RepairPolicy::Off));
        assert_eq!(RepairPolicy::parse("promote"), Some(RepairPolicy::Promote));
        assert_eq!(
            RepairPolicy::parse("promote+partner"),
            Some(RepairPolicy::PromotePartner)
        );
        assert_eq!(RepairPolicy::parse("promote_partner"), None);
        assert_eq!(RepairPolicy::parse("Off"), None, "spellings are exact");
        assert_eq!(RepairPolicy::parse(""), None);
    }

    #[test]
    fn default_is_off() {
        assert_eq!(RepairPolicy::default(), RepairPolicy::Off);
    }

    #[test]
    fn capability_flags_match_policies() {
        assert!(!RepairPolicy::Off.promotes());
        assert!(!RepairPolicy::Off.recruits_partner());
        assert!(RepairPolicy::Promote.promotes());
        assert!(!RepairPolicy::Promote.recruits_partner());
        assert!(RepairPolicy::PromotePartner.promotes());
        assert!(RepairPolicy::PromotePartner.recruits_partner());
    }
}
