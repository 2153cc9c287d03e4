//! Named, serialisable problem instances.

use hsa_tree::{CostModel, CruTree, TreeError};
use serde::{Deserialize, Serialize};

/// A complete, self-describing problem instance: a costed, pinned CRU tree
/// with provenance.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct Scenario {
    /// Stable identifier (used by the repro harness and reports).
    pub name: String,
    /// Human-readable provenance: what the instance models and where its
    /// numbers come from.
    pub description: String,
    /// The CRU tree.
    pub tree: CruTree,
    /// Its cost model.
    pub costs: CostModel,
}

impl Scenario {
    /// Validates the instance (tree shape + cost coverage).
    pub fn validate(&self) -> Result<(), TreeError> {
        self.tree.validate()?;
        self.costs.validate(&self.tree)
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialisation cannot fail")
    }

    /// Deserialises and validates.
    pub fn from_json(s: &str) -> Result<Scenario, String> {
        let sc: Scenario = serde_json::from_str(s).map_err(|e| e.to_string())?;
        sc.validate().map_err(|e| e.to_string())?;
        Ok(sc)
    }
}

/// The built-in catalog: one instance per scenario family, with defaults.
pub fn catalog() -> Vec<Scenario> {
    vec![
        crate::epilepsy_scenario(&crate::EpilepsyParams::default()),
        crate::snmp_scenario(&crate::SnmpParams::default()),
        crate::industrial_scenario(&crate::IndustrialParams::default()),
        crate::paper_scenario(),
    ]
}

/// The paper's own Figure 2 worked example, as a scenario.
pub fn paper_scenario() -> Scenario {
    let (tree, costs) = hsa_tree::figures::fig2_tree();
    Scenario {
        name: "paper-fig2".into(),
        description: "Canonical reconstruction of the paper's Figure 2/5/8 worked example \
                      (13 CRUs, 4 satellites R/Y/B/G, satellite B pinned under two subtrees)."
            .into(),
        tree,
        costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_entries_validate_and_round_trip() {
        let cat = catalog();
        assert!(cat.len() >= 4);
        let mut names = std::collections::BTreeSet::new();
        for sc in &cat {
            sc.validate().unwrap();
            assert!(names.insert(sc.name.clone()), "duplicate name {}", sc.name);
            let back = Scenario::from_json(&sc.to_json()).unwrap();
            assert_eq!(&back, sc);
        }
    }

    #[test]
    fn from_json_rejects_invalid() {
        assert!(Scenario::from_json("{}").is_err());
        // Valid JSON, broken instance: unpinned leaf.
        let mut sc = paper_scenario();
        sc.costs.set_pinning(hsa_tree::CruId(8), None); // CRU9 (a leaf)
        let s = sc.to_json();
        assert!(Scenario::from_json(&s).is_err());
    }
}
