//! Schedule validation: the feasibility conditions of Section 2.2.

use crate::problem::Instance;
use crate::schedule::Schedule;
use bipartite::Weight;
use std::fmt;

/// Why a schedule is infeasible for an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A step contains no transfers (steps must carry work; an empty step
    /// would still cost β).
    EmptyStep {
        /// Index of the offending step.
        step: usize,
    },
    /// A step has more than `effective_k` transfers (backbone constraint).
    TooWide {
        /// Index of the offending step.
        step: usize,
        /// Number of transfers in the step.
        width: usize,
        /// The limit that was exceeded.
        k: usize,
    },
    /// Two transfers of one step share a sender or receiver (1-port).
    PortConflict {
        /// Index of the offending step.
        step: usize,
        /// The shared node (left index if `left` is true, else right index).
        node: usize,
        /// Whether the conflict is on the sender side.
        left: bool,
    },
    /// A transfer references an edge that is not in the instance graph.
    UnknownEdge {
        /// Index of the offending step.
        step: usize,
    },
    /// A transfer has zero duration.
    ZeroAmount {
        /// Index of the offending step.
        step: usize,
    },
    /// The summed slices of an edge do not equal its weight.
    CoverageMismatch {
        /// The edge id in the instance graph.
        edge: u32,
        /// Weight the instance requires.
        expected: Weight,
        /// Total amount the schedule carries.
        got: Weight,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EmptyStep { step } => write!(f, "step {step} is empty"),
            ValidationError::TooWide { step, width, k } => {
                write!(f, "step {step} has {width} transfers, exceeding k = {k}")
            }
            ValidationError::PortConflict { step, node, left } => {
                let side = if *left { "sender" } else { "receiver" };
                write!(f, "step {step} uses {side} {node} more than once")
            }
            ValidationError::UnknownEdge { step } => {
                write!(f, "step {step} references an unknown edge")
            }
            ValidationError::ZeroAmount { step } => {
                write!(f, "step {step} contains a zero-duration transfer")
            }
            ValidationError::CoverageMismatch {
                edge,
                expected,
                got,
            } => write!(
                f,
                "edge {edge} transfers {got} ticks in total but weighs {expected}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks that `schedule` is a feasible K-PBS solution for `inst`:
///
/// 1. every step is non-empty, has at most `effective_k` transfers, and is a
///    matching (1-port on both sides);
/// 2. every transfer has positive duration and references a live edge;
/// 3. the slices of each edge sum to exactly its weight, and every edge is
///    covered (`∪ M_i = G`).
pub fn validate(inst: &Instance, schedule: &Schedule) -> Result<(), ValidationError> {
    let g = &inst.graph;
    let k = inst.effective_k();
    let mut carried: Vec<Weight> = vec![0; g.edge_id_bound()];
    // Port `p` is taken in step `si` when its stamp reads `si + 1`, so one
    // pair of arrays serves every step without clearing.
    let mut left_stamp = vec![0usize; g.left_count()];
    let mut right_stamp = vec![0usize; g.right_count()];

    for (si, step) in schedule.steps.iter().enumerate() {
        if step.transfers.is_empty() {
            return Err(ValidationError::EmptyStep { step: si });
        }
        if step.transfers.len() > k {
            return Err(ValidationError::TooWide {
                step: si,
                width: step.transfers.len(),
                k,
            });
        }
        let stamp = si + 1;
        for t in &step.transfers {
            if t.amount == 0 {
                return Err(ValidationError::ZeroAmount { step: si });
            }
            if !g.is_alive(t.edge) {
                return Err(ValidationError::UnknownEdge { step: si });
            }
            let (l, r) = (g.left_of(t.edge), g.right_of(t.edge));
            if left_stamp[l] == stamp {
                return Err(ValidationError::PortConflict {
                    step: si,
                    node: l,
                    left: true,
                });
            }
            if right_stamp[r] == stamp {
                return Err(ValidationError::PortConflict {
                    step: si,
                    node: r,
                    left: false,
                });
            }
            left_stamp[l] = stamp;
            right_stamp[r] = stamp;
            carried[t.edge.index()] += t.amount;
        }
    }

    for e in g.edge_ids() {
        let expected = g.weight(e);
        let got = carried[e.index()];
        if expected != got {
            return Err(ValidationError::CoverageMismatch {
                edge: e.0,
                expected,
                got,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Step, Transfer};
    use bipartite::{EdgeId, Graph};

    fn small_instance() -> (Instance, Vec<EdgeId>) {
        let mut g = Graph::new(2, 2);
        let es = vec![g.add_edge(0, 0, 3), g.add_edge(1, 1, 2)];
        (Instance::new(g, 2, 1), es)
    }

    fn transfer(e: EdgeId, amount: Weight) -> Transfer {
        Transfer { edge: e, amount }
    }

    #[test]
    fn valid_one_step_schedule() {
        let (inst, es) = small_instance();
        let s = Schedule {
            steps: vec![Step {
                transfers: vec![transfer(es[0], 3), transfer(es[1], 2)],
            }],
            beta: 1,
        };
        assert!(validate(&inst, &s).is_ok());
    }

    #[test]
    fn valid_preempted_schedule() {
        let (inst, es) = small_instance();
        let s = Schedule {
            steps: vec![
                Step {
                    transfers: vec![transfer(es[0], 1), transfer(es[1], 2)],
                },
                Step {
                    transfers: vec![transfer(es[0], 2)],
                },
            ],
            beta: 1,
        };
        assert!(validate(&inst, &s).is_ok());
    }

    #[test]
    fn empty_step_rejected() {
        let (inst, es) = small_instance();
        let s = Schedule {
            steps: vec![
                Step { transfers: vec![] },
                Step {
                    transfers: vec![transfer(es[0], 3), transfer(es[1], 2)],
                },
            ],
            beta: 1,
        };
        assert_eq!(
            validate(&inst, &s),
            Err(ValidationError::EmptyStep { step: 0 })
        );
    }

    #[test]
    fn too_wide_rejected() {
        let (mut g, _) = (Graph::new(2, 2), ());
        let e0 = g.add_edge(0, 0, 1);
        let e1 = g.add_edge(1, 1, 1);
        let inst = Instance::new(g, 1, 0); // k = 1
        let s = Schedule {
            steps: vec![Step {
                transfers: vec![transfer(e0, 1), transfer(e1, 1)],
            }],
            beta: 0,
        };
        assert!(matches!(
            validate(&inst, &s),
            Err(ValidationError::TooWide { width: 2, k: 1, .. })
        ));
    }

    #[test]
    fn port_conflict_rejected() {
        let mut g = Graph::new(2, 2);
        let e0 = g.add_edge(0, 0, 1);
        let e1 = g.add_edge(0, 1, 1);
        let inst = Instance::new(g, 2, 0);
        let s = Schedule {
            steps: vec![Step {
                transfers: vec![transfer(e0, 1), transfer(e1, 1)],
            }],
            beta: 0,
        };
        assert!(matches!(
            validate(&inst, &s),
            Err(ValidationError::PortConflict { left: true, .. })
        ));
    }

    #[test]
    fn sender_reused_in_consecutive_steps_is_valid() {
        let mut g = Graph::new(1, 2);
        let e0 = g.add_edge(0, 0, 2);
        let e1 = g.add_edge(0, 1, 3);
        let inst = Instance::new(g, 1, 0);
        let s = Schedule {
            steps: vec![
                Step {
                    transfers: vec![transfer(e0, 2)],
                },
                Step {
                    transfers: vec![transfer(e1, 3)],
                },
            ],
            beta: 0,
        };
        assert_eq!(validate(&inst, &s), Ok(()));
    }

    #[test]
    fn sender_reused_inside_a_later_step_is_a_conflict() {
        let mut g = Graph::new(2, 3);
        let e0 = g.add_edge(1, 0, 1);
        let e1 = g.add_edge(0, 1, 1);
        let e2 = g.add_edge(0, 2, 1);
        let inst = Instance::new(g, 2, 0);
        let s = Schedule {
            steps: vec![
                Step {
                    transfers: vec![transfer(e0, 1)],
                },
                Step {
                    transfers: vec![transfer(e1, 1), transfer(e2, 1)],
                },
            ],
            beta: 0,
        };
        assert_eq!(
            validate(&inst, &s),
            Err(ValidationError::PortConflict {
                step: 1,
                node: 0,
                left: true,
            })
        );
    }

    #[test]
    fn undercoverage_rejected() {
        let (inst, es) = small_instance();
        let s = Schedule {
            steps: vec![Step {
                transfers: vec![transfer(es[0], 2), transfer(es[1], 2)],
            }],
            beta: 1,
        };
        assert!(matches!(
            validate(&inst, &s),
            Err(ValidationError::CoverageMismatch {
                expected: 3,
                got: 2,
                ..
            })
        ));
    }

    #[test]
    fn overcoverage_rejected() {
        let (inst, es) = small_instance();
        let s = Schedule {
            steps: vec![
                Step {
                    transfers: vec![transfer(es[0], 3), transfer(es[1], 2)],
                },
                Step {
                    transfers: vec![transfer(es[0], 1)],
                },
            ],
            beta: 1,
        };
        assert!(matches!(
            validate(&inst, &s),
            Err(ValidationError::CoverageMismatch { .. })
        ));
    }

    #[test]
    fn zero_amount_rejected() {
        let (inst, es) = small_instance();
        let s = Schedule {
            steps: vec![Step {
                transfers: vec![transfer(es[0], 0)],
            }],
            beta: 1,
        };
        assert_eq!(
            validate(&inst, &s),
            Err(ValidationError::ZeroAmount { step: 0 })
        );
    }

    #[test]
    fn missing_edge_coverage_rejected() {
        let (inst, es) = small_instance();
        let s = Schedule {
            steps: vec![Step {
                transfers: vec![transfer(es[0], 3)],
            }],
            beta: 1,
        };
        // es[1] never transferred.
        assert!(matches!(
            validate(&inst, &s),
            Err(ValidationError::CoverageMismatch { got: 0, .. })
        ));
        let _ = es;
    }

    #[test]
    fn empty_schedule_valid_for_trivial_instance() {
        let inst = Instance::new(Graph::new(2, 2), 1, 1);
        let s = Schedule::new(1);
        assert!(validate(&inst, &s).is_ok());
    }
}
