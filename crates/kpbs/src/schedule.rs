//! Schedules: ordered communication steps with per-edge quanta.

use crate::problem::Instance;
use crate::validate::{self, ValidationError};
use bipartite::{EdgeId, Weight};

/// One preempted slice of a communication: `amount` ticks of edge `edge`
/// transmitted during some step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Edge of the *original* instance graph this slice belongs to.
    pub edge: EdgeId,
    /// Duration of the slice in ticks (1-port: the pair is busy that long).
    pub amount: Weight,
}

/// A communication step: a matching of the instance graph (at most one slice
/// per node) with at most `k` slices, all transmitted in parallel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    /// The slices of this step.
    pub transfers: Vec<Transfer>,
}

impl Step {
    /// Step duration `W(M_i)`: the longest slice of the step.
    pub fn duration(&self) -> Weight {
        self.transfers.iter().map(|t| t.amount).max().unwrap_or(0)
    }

    /// Number of parallel communications in this step.
    pub fn width(&self) -> usize {
        self.transfers.len()
    }

    /// Sum of the slice durations: the useful work carried by the step.
    pub fn volume(&self) -> Weight {
        self.transfers.iter().map(|t| t.amount).sum()
    }
}

/// A complete K-PBS solution: the ordered steps plus the setup delay they
/// were scheduled for. Total cost is `Σ_i (β + W(M_i))`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Communication steps in execution order.
    pub steps: Vec<Step>,
    /// Setup delay charged per step, in ticks.
    pub beta: Weight,
}

impl Schedule {
    /// Creates an empty schedule with the given setup delay.
    pub fn new(beta: Weight) -> Self {
        Schedule {
            steps: Vec::new(),
            beta,
        }
    }

    /// Number of steps `s`.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Objective value `Σ_i (β + W(M_i))` in ticks.
    pub fn cost(&self) -> Weight {
        self.steps.iter().map(|s| self.beta + s.duration()).sum()
    }

    /// Total transmission time excluding setup delays, `Σ_i W(M_i)`.
    pub fn transmission_time(&self) -> Weight {
        self.steps.iter().map(|s| s.duration()).sum()
    }

    /// Total useful work carried, `Σ_i Σ_t amount`.
    pub fn volume(&self) -> Weight {
        self.steps.iter().map(|s| s.volume()).sum()
    }

    /// Widest step (most parallel communications).
    pub fn max_width(&self) -> usize {
        self.steps.iter().map(|s| s.width()).max().unwrap_or(0)
    }

    /// Fraction of the transmission time during which matched pairs were
    /// actually transmitting: `volume / (Σ_i width_i · W(M_i))`. 1.0 means
    /// every step was perfectly square (all slices equal).
    pub fn slice_efficiency(&self) -> f64 {
        let busy: Weight = self
            .steps
            .iter()
            .map(|s| s.duration() * s.width() as Weight)
            .sum();
        if busy == 0 {
            return 1.0;
        }
        self.volume() as f64 / busy as f64
    }

    /// Checks this schedule against `inst`: 1-port steps, at most
    /// `effective_k` slices per step, positive amounts, and exact coverage of
    /// every edge weight. See [`crate::validate`].
    pub fn validate(&self, inst: &Instance) -> Result<(), ValidationError> {
        validate::validate(inst, self)
    }

    /// Renders the schedule as an ASCII Gantt chart: one row per
    /// communication (edge), one column block per step, `#` while the pair
    /// is transmitting. Step widths are proportional to durations (scaled
    /// to at most `max_cols` columns in total).
    ///
    /// ```text
    /// e0 |#####|   |..|
    /// e1 |#####|###|..|
    /// ```
    pub fn gantt(&self, max_cols: usize) -> String {
        use std::fmt::Write;
        if self.steps.is_empty() {
            return String::from("(empty schedule)\n");
        }
        let total: Weight = self.transmission_time().max(1);
        let scale = |w: Weight| -> usize {
            ((w as f64 / total as f64) * max_cols as f64)
                .ceil()
                .max(1.0) as usize
        };
        // Collect edge ids in first-appearance order.
        let mut edges: Vec<EdgeId> = Vec::new();
        for step in &self.steps {
            for t in &step.transfers {
                if !edges.contains(&t.edge) {
                    edges.push(t.edge);
                }
            }
        }
        let mut out = String::new();
        for &e in &edges {
            let _ = write!(out, "e{:<4}", e.0);
            for step in &self.steps {
                let cols = scale(step.duration());
                match step.transfers.iter().find(|t| t.edge == e) {
                    Some(t) => {
                        let filled = scale(t.amount).min(cols);
                        let _ = write!(out, "|{}{}", "#".repeat(filled), ".".repeat(cols - filled));
                    }
                    None => {
                        let _ = write!(out, "|{}", " ".repeat(cols));
                    }
                }
            }
            out.push_str("|\n");
        }
        // Footer: step durations.
        let _ = write!(out, "dur  ");
        for step in &self.steps {
            let cols = scale(step.duration());
            let label = format!("{}", step.duration());
            let _ = write!(out, "|{label:>cols$}");
        }
        out.push_str("|\n");
        out
    }

    /// Apportions each edge's byte volume across its slices, proportional to
    /// slice durations, with no remainder: per step, the bytes each transfer
    /// should move. `bytes[e]` is the volume of edge id `e`; the
    /// cumulative-floor split guarantees the per-edge sums equal `bytes[e]`
    /// exactly whenever the schedule covers the edge.
    ///
    /// Runtime executors (the fluid simulator and the MPI-like runtime) use
    /// this to turn tick-valued schedules back into byte transfers.
    pub fn byte_slices(&self, inst: &Instance, bytes: &[u64]) -> Vec<Vec<(EdgeId, u64)>> {
        let m = bytes.len();
        let mut weight: Vec<u128> = vec![0; m];
        for e in inst.graph.edge_ids() {
            weight[e.index()] = inst.graph.weight(e) as u128;
        }
        let mut cum: Vec<u128> = vec![0; m];
        self.steps
            .iter()
            .map(|step| {
                step.transfers
                    .iter()
                    .filter_map(|t| {
                        let i = t.edge.index();
                        let before = bytes[i] as u128 * cum[i] / weight[i];
                        cum[i] += t.amount as u128;
                        let after = bytes[i] as u128 * cum[i] / weight[i];
                        let slice = (after - before) as u64;
                        (slice > 0).then_some((t.edge, slice))
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(amounts: &[Weight]) -> Step {
        Step {
            transfers: amounts
                .iter()
                .enumerate()
                .map(|(i, &a)| Transfer {
                    edge: EdgeId(i as u32),
                    amount: a,
                })
                .collect(),
        }
    }

    #[test]
    fn figure2_cost_accounting() {
        // Figure 2 of the paper: three steps of durations 5, 3, 4 with β = 1
        // cost (1+5) + (1+3) + (1+4) = 15.
        let s = Schedule {
            steps: vec![step(&[5, 4]), step(&[3, 3]), step(&[4, 4, 2])],
            beta: 1,
        };
        assert_eq!(s.cost(), 15);
        assert_eq!(s.num_steps(), 3);
        assert_eq!(s.transmission_time(), 12);
    }

    #[test]
    fn empty_schedule_costs_nothing() {
        let s = Schedule::new(10);
        assert_eq!(s.cost(), 0);
        assert_eq!(s.num_steps(), 0);
        assert_eq!(s.max_width(), 0);
        assert!((s.slice_efficiency() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn step_metrics() {
        let st = step(&[4, 2, 4]);
        assert_eq!(st.duration(), 4);
        assert_eq!(st.width(), 3);
        assert_eq!(st.volume(), 10);
    }

    #[test]
    fn gantt_renders_rows_and_footer() {
        let s = Schedule {
            steps: vec![
                Step {
                    transfers: vec![
                        Transfer {
                            edge: EdgeId(0),
                            amount: 5,
                        },
                        Transfer {
                            edge: EdgeId(1),
                            amount: 3,
                        },
                    ],
                },
                Step {
                    transfers: vec![Transfer {
                        edge: EdgeId(1),
                        amount: 4,
                    }],
                },
            ],
            beta: 1,
        };
        let g = s.gantt(40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3, "two edges + footer:\n{g}");
        assert!(lines[0].starts_with("e0"));
        assert!(lines[1].starts_with("e1"));
        assert!(lines[0].contains('#'));
        assert!(lines[2].starts_with("dur"));
        // e0 is idle in step 2: its second cell is blank.
        assert!(lines[0].trim_end().ends_with('|'));
    }

    #[test]
    fn gantt_empty_schedule() {
        assert_eq!(Schedule::new(1).gantt(20), "(empty schedule)\n");
    }

    #[test]
    fn byte_slices_exact_and_proportional() {
        use bipartite::Graph;
        let mut g = Graph::new(1, 1);
        let e = g.add_edge(0, 0, 3);
        let inst = Instance::new(g, 1, 0);
        let s = Schedule {
            steps: vec![
                Step {
                    transfers: vec![Transfer { edge: e, amount: 1 }],
                },
                Step {
                    transfers: vec![Transfer { edge: e, amount: 2 }],
                },
            ],
            beta: 0,
        };
        // 10 bytes over ticks 1 + 2 → slices of 3 and 7 (cumulative floor).
        let slices = s.byte_slices(&inst, &[10]);
        assert_eq!(slices[0], vec![(e, 3)]);
        assert_eq!(slices[1], vec![(e, 7)]);
        let total: u64 = slices.iter().flatten().map(|&(_, b)| b).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn byte_slices_zero_slice_dropped() {
        use bipartite::Graph;
        let mut g = Graph::new(1, 1);
        let e = g.add_edge(0, 0, 1000);
        let inst = Instance::new(g, 1, 0);
        let s = Schedule {
            steps: vec![
                Step {
                    transfers: vec![Transfer { edge: e, amount: 1 }],
                },
                Step {
                    transfers: vec![Transfer {
                        edge: e,
                        amount: 999,
                    }],
                },
            ],
            beta: 0,
        };
        // 1 byte over 1000 ticks: the first (1-tick) slice rounds to zero
        // bytes and is dropped; the remainder carries the byte.
        let slices = s.byte_slices(&inst, &[1]);
        assert!(slices[0].is_empty());
        assert_eq!(slices[1], vec![(e, 1)]);
    }

    #[test]
    fn slice_efficiency_square_steps() {
        let s = Schedule {
            steps: vec![step(&[3, 3, 3])],
            beta: 0,
        };
        assert!((s.slice_efficiency() - 1.0).abs() < f64::EPSILON);
        let ragged = Schedule {
            steps: vec![step(&[4, 2])],
            beta: 0,
        };
        assert!((ragged.slice_efficiency() - 0.75).abs() < 1e-12);
    }
}
