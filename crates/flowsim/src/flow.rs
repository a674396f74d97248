//! Flows: bulk transfers between a sender and a receiver.

/// A bulk transfer of `bytes` from sender `src` to receiver `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Sender node index (cluster `C1`).
    pub src: usize,
    /// Receiver node index (cluster `C2`).
    pub dst: usize,
    /// Volume in bytes.
    pub bytes: f64,
}

impl Flow {
    /// Creates a flow; volumes must be positive and finite.
    pub fn new(src: usize, dst: usize, bytes: f64) -> Self {
        assert!(
            bytes > 0.0 && bytes.is_finite(),
            "flow volume must be positive"
        );
        Flow { src, dst, bytes }
    }
}

/// Per-flow outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// The flow.
    pub flow: Flow,
    /// Completion time in seconds from the start of the run.
    pub finish: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_construction() {
        let f = Flow::new(1, 2, 1e6);
        assert_eq!(f.src, 1);
        assert_eq!(f.dst, 2);
        assert_eq!(f.bytes, 1e6);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_volume_rejected() {
        Flow::new(0, 0, 0.0);
    }
}
