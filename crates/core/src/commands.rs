//! Control-plane commands.
//!
//! The LaSS module in the controller "has direct control over all
//! containers in the system" (§5): each epoch it emits a batch of container
//! operations which the (simplified) invokers execute verbatim.

use lass_cluster::{ContainerId, CpuMilli, FnId, MemMib};
use serde::{Deserialize, Serialize};

/// One container operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// Start a new container for `fn_id` with the given allocation (`cpu`
    /// may be below the standard size: the deflation policy can create
    /// deflated containers to use fragments).
    Create {
        /// Function to host.
        fn_id: FnId,
        /// CPU allocation for the new container.
        cpu: CpuMilli,
        /// Memory allocation for the new container.
        mem: MemMib,
    },
    /// Mark a container for lazy termination (§3.3): it keeps serving and
    /// is reclaimed only when its capacity is needed.
    Mark {
        /// Container to mark.
        cid: ContainerId,
    },
    /// Clear a lazy-termination mark (load rose again; reuse the container).
    Unmark {
        /// Container to unmark.
        cid: ContainerId,
    },
    /// Terminate a container immediately.
    Terminate {
        /// Container to terminate.
        cid: ContainerId,
    },
    /// Resize a container's CPU in place (deflate or re-inflate).
    Resize {
        /// Container to resize.
        cid: ContainerId,
        /// New CPU allocation.
        cpu: CpuMilli,
    },
}

impl Command {
    /// Whether this command releases capacity (executed before growth).
    pub fn is_shrink(&self) -> bool {
        matches!(self, Command::Terminate { .. } | Command::Mark { .. })
    }
}

/// The controller's decision for one epoch.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Container operations, ordered so capacity-releasing operations come
    /// first.
    pub commands: Vec<Command>,
    /// Whether the epoch was planned under overload (fair-share mode).
    pub overloaded: bool,
    /// Desired CPU (milli) per function, as computed by the models,
    /// indexed by `FnId`.
    pub desired_cpu: Vec<f64>,
    /// Adjusted CPU (milli) per function after fair share (equals desired
    /// when not overloaded), indexed by `FnId`.
    pub adjusted_cpu: Vec<f64>,
    /// Total model-solver iterations this epoch (Fig. 5 reporting).
    pub solver_iterations: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_classification() {
        assert!(Command::Terminate {
            cid: ContainerId(1)
        }
        .is_shrink());
        assert!(Command::Mark {
            cid: ContainerId(1)
        }
        .is_shrink());
        assert!(!Command::Create {
            fn_id: FnId(0),
            cpu: CpuMilli(100),
            mem: MemMib(128)
        }
        .is_shrink());
        assert!(!Command::Resize {
            cid: ContainerId(1),
            cpu: CpuMilli(700)
        }
        .is_shrink());
    }
}
