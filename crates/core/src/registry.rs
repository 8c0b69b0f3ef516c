//! Function registration: SLOs, weights, and ownership.
//!
//! LaSS extends OpenWhisk so users specify both CPU and memory per function
//! (§5) and attaches weights to users (namespaces) and actions for the
//! hierarchical fair-share tree.

use crate::tree::WeightTree;
use lass_cluster::{FnId, UserId};
use lass_functions::FunctionSpec;
use std::collections::BTreeMap;

/// A registered function: spec + SLO + scheduling weight + owner.
#[derive(Debug, Clone)]
pub struct FunctionRecord {
    /// The function's id.
    pub fn_id: FnId,
    /// Runtime characteristics (Table 1 entry or custom).
    pub spec: FunctionSpec,
    /// SLO deadline in seconds (§6.1 default: 100 ms on waiting time).
    pub slo_deadline: f64,
    /// Weight relative to the owner's other functions.
    pub weight: f64,
    /// Owning user (namespace).
    pub user: UserId,
}

/// The set of functions hosted on the cluster, plus user weights.
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    /// Records indexed by `FnId`: ids are assigned sequentially from 0
    /// and never removed.
    fns: Vec<FunctionRecord>,
    users: BTreeMap<UserId, f64>,
}

impl FunctionRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (or update) a user's weight (default 1.0 on first function).
    pub fn set_user_weight(&mut self, user: UserId, weight: f64) {
        assert!(weight.is_finite() && weight > 0.0, "invalid user weight");
        self.users.insert(user, weight);
    }

    /// Register a function; returns its id.
    pub fn register(
        &mut self,
        spec: FunctionSpec,
        slo_deadline: f64,
        weight: f64,
        user: UserId,
    ) -> FnId {
        assert!(
            slo_deadline > 0.0 && slo_deadline.is_finite(),
            "invalid SLO"
        );
        assert!(weight > 0.0 && weight.is_finite(), "invalid weight");
        let fn_id = FnId(self.fns.len() as u32);
        self.users.entry(user).or_insert(1.0);
        self.fns.push(FunctionRecord {
            fn_id,
            spec,
            slo_deadline,
            weight,
            user,
        });
        fn_id
    }

    /// Look up a function.
    pub fn get(&self, fn_id: FnId) -> Option<&FunctionRecord> {
        self.fns.get(fn_id.0 as usize)
    }

    /// All registered functions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &FunctionRecord> {
        self.fns.iter()
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// Build the two-level scheduling tree: users weighted against each
    /// other, functions weighted within their user (§5).
    pub fn weight_tree(&self) -> WeightTree {
        let mut by_user: BTreeMap<UserId, Vec<(FnId, f64)>> = BTreeMap::new();
        for rec in &self.fns {
            by_user
                .entry(rec.user)
                .or_default()
                .push((rec.fn_id, rec.weight));
        }
        WeightTree::two_level(
            by_user
                .into_iter()
                .map(|(u, fns)| (self.users.get(&u).copied().unwrap_or(1.0), fns)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_functions::{binary_alert, mobilenet_v2};

    #[test]
    fn register_assigns_sequential_ids() {
        let mut reg = FunctionRegistry::new();
        let a = reg.register(binary_alert(), 0.1, 1.0, UserId(0));
        let b = reg.register(mobilenet_v2(), 0.1, 1.0, UserId(0));
        assert_eq!(a, FnId(0));
        assert_eq!(b, FnId(1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(a).unwrap().spec.name, "BinaryAlert");
    }

    #[test]
    fn weight_tree_reflects_user_weights() {
        let mut reg = FunctionRegistry::new();
        reg.set_user_weight(UserId(1), 1.0);
        reg.set_user_weight(UserId(2), 2.0);
        let a = reg.register(binary_alert(), 0.1, 1.0, UserId(1));
        let b = reg.register(mobilenet_v2(), 0.1, 1.0, UserId(2));
        let c = reg.register(binary_alert(), 0.1, 1.0, UserId(2));
        let w = reg.weight_tree().effective_weights();
        assert!((w[&a] - 1.0 / 3.0).abs() < 1e-12);
        assert!((w[&b] - 1.0 / 3.0).abs() < 1e-12);
        assert!((w[&c] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn function_weights_within_user() {
        let mut reg = FunctionRegistry::new();
        let a = reg.register(binary_alert(), 0.1, 3.0, UserId(0));
        let b = reg.register(mobilenet_v2(), 0.1, 1.0, UserId(0));
        let w = reg.weight_tree().effective_weights();
        assert!((w[&a] - 0.75).abs() < 1e-12);
        assert!((w[&b] - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid SLO")]
    fn zero_slo_rejected() {
        let mut reg = FunctionRegistry::new();
        reg.register(binary_alert(), 0.0, 1.0, UserId(0));
    }
}
